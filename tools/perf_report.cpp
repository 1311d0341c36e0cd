/**
 * @file
 * perf_report: compares two perf_harness JSON outputs (baseline vs
 * current), prints a speedup table, checks that per-scenario digests
 * match (bit-identical simulated results), and writes a merged
 * BENCH_PR.json suitable for attaching to a PR.
 *
 * Usage:
 *   perf_report <baseline.json> <current.json> [--out BENCH_PR.json]
 *               [--max-rss-growth PCT]
 *
 * --max-rss-growth makes peak-RSS regressions gating: the report exits
 * non-zero when the current run's peak RSS exceeds the baseline's by
 * more than PCT percent (skipped when either side lacks RSS data).
 *
 * When both sides carry shard data ("shards" in a scenario object) a
 * shard-scaling table is printed: events/sec at each shard count and
 * the parallel efficiency of the current run relative to the baseline.
 *
 * A host-cost table prints each scenario's wall time beside the host
 * minor page faults and system CPU seconds the harness measured
 * (informational, never gating).
 *
 * Also diffs the per-scenario simulated metric counters (events
 * executed, IOTLB hit rate, page walks, journal commits, ...) that
 * newer harness outputs embed in each scenario object; scenarios or
 * baselines without them show "-".
 *
 * Exit status is non-zero if any scenario present in both files has a
 * digest mismatch, so CI can gate on simulation-result identity, and
 * 2 when --out cannot be opened or written in full.
 *
 * The parser below handles exactly the "bypassd-bench-v1" schema that
 * perf_harness emits (flat objects, string/number/bool scalars, one
 * "scenarios" array of flat objects) — it is not a general JSON parser.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Scenario
{
    std::string name;
    std::map<std::string, std::string> fields; // raw scalar tokens
};

struct BenchFile
{
    std::map<std::string, std::string> fields; // top-level scalars
    std::vector<Scenario> scenarios;
};

/** Tokenizing cursor over the JSON text. */
struct Cursor
{
    const std::string &s;
    std::size_t i = 0;

    void
    skipWs()
    {
        while (i < s.size() && (s[i] == ' ' || s[i] == '\n'
                                || s[i] == '\t' || s[i] == '\r'))
            i++;
    }

    bool
    eat(char c)
    {
        skipWs();
        if (i < s.size() && s[i] == c) {
            i++;
            return true;
        }
        return false;
    }

    [[noreturn]] void
    fail(const char *what) const
    {
        std::fprintf(stderr, "perf_report: parse error near byte %zu: %s\n",
                     i, what);
        std::exit(2);
    }

    std::string
    parseString()
    {
        skipWs();
        if (i >= s.size() || s[i] != '"')
            fail("expected string");
        i++;
        std::string out;
        while (i < s.size() && s[i] != '"') {
            if (s[i] == '\\' && i + 1 < s.size())
                i++;
            out += s[i++];
        }
        if (i >= s.size())
            fail("unterminated string");
        i++;
        return out;
    }

    /** A number / true / false / null, returned as its raw token. */
    std::string
    parseScalarToken()
    {
        skipWs();
        std::size_t start = i;
        while (i < s.size() && s[i] != ',' && s[i] != '}' && s[i] != ']'
               && s[i] != '\n')
            i++;
        std::string t = s.substr(start, i - start);
        while (!t.empty() && (t.back() == ' ' || t.back() == '\r'))
            t.pop_back();
        if (t.empty())
            fail("expected scalar value");
        return t;
    }

    /** Flat object: string keys mapping to scalars only. */
    std::map<std::string, std::string>
    parseFlatObject()
    {
        std::map<std::string, std::string> out;
        if (!eat('{'))
            fail("expected '{'");
        skipWs();
        if (eat('}'))
            return out;
        for (;;) {
            const std::string key = parseString();
            if (!eat(':'))
                fail("expected ':'");
            skipWs();
            if (i < s.size() && s[i] == '"')
                out[key] = parseString();
            else
                out[key] = parseScalarToken();
            if (eat(','))
                continue;
            if (eat('}'))
                return out;
            fail("expected ',' or '}'");
        }
    }
};

BenchFile
parseBenchFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "perf_report: cannot open %s\n",
                     path.c_str());
        std::exit(2);
    }
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    BenchFile bf;
    Cursor c{text};
    if (!c.eat('{'))
        c.fail("expected top-level '{'");
    for (;;) {
        const std::string key = c.parseString();
        if (!c.eat(':'))
            c.fail("expected ':'");
        if (key == "scenarios") {
            if (!c.eat('['))
                c.fail("expected '['");
            c.skipWs();
            if (!c.eat(']')) {
                for (;;) {
                    Scenario sc;
                    sc.fields = c.parseFlatObject();
                    sc.name = sc.fields.count("name")
                                  ? sc.fields["name"]
                                  : "?";
                    bf.scenarios.push_back(std::move(sc));
                    if (c.eat(','))
                        continue;
                    if (c.eat(']'))
                        break;
                    c.fail("expected ',' or ']'");
                }
            }
        } else {
            c.skipWs();
            if (c.i < text.size() && text[c.i] == '"')
                bf.fields[key] = c.parseString();
            else
                bf.fields[key] = c.parseScalarToken();
        }
        if (c.eat(','))
            continue;
        if (c.eat('}'))
            break;
        c.fail("expected ',' or '}'");
    }
    const auto it = bf.fields.find("schema");
    if (it == bf.fields.end() || it->second != "bypassd-bench-v1") {
        std::fprintf(stderr,
                     "perf_report: %s: unsupported schema (want "
                     "bypassd-bench-v1)\n",
                     path.c_str());
        std::exit(2);
    }
    return bf;
}

double
numField(const Scenario &s, const char *key)
{
    const auto it = s.fields.find(key);
    return it == s.fields.end() ? 0.0 : std::atof(it->second.c_str());
}

std::string
strField(const Scenario &s, const char *key)
{
    const auto it = s.fields.find(key);
    return it == s.fields.end() ? std::string() : it->second;
}

const Scenario *
findScenario(const BenchFile &bf, const std::string &name)
{
    for (const Scenario &s : bf.scenarios)
        if (s.name == name)
            return &s;
    return nullptr;
}

bool
hasField(const Scenario &s, const char *key)
{
    return s.fields.count(key) != 0;
}

/** One side of a "base -> cur" table cell ("-" if absent). */
std::string
counterCell(const Scenario *s, const char *key, const char *fmt = "%.0f")
{
    if (!s || !hasField(*s, key))
        return "-";
    char buf[32];
    std::snprintf(buf, sizeof(buf), fmt, numField(*s, key));
    return buf;
}

/**
 * Non-counter scenario fields: identity, host-side timing, and derived
 * throughput metrics. Everything else in a scenario object is a
 * simulated counter and belongs in the diff table.
 */
bool
isCounterKey(const std::string &k)
{
    static const char *const kSkip[] = {
        "name", "digest", "wall_sec", "events_per_sec",
        "iops", "kops",   "mb_per_s",
        "host_minor_faults", "host_sys_sec",
        // Sharding config and host-side scheduling artifacts. Note that
        // "windows" and "messages" are NOT skipped: the round count and
        // cross-domain traffic are virtual-time quantities, identical
        // for every shard count, so they belong in the semantic diff.
        "shards", "domains", "lookahead_ns", "barrier_stall_sec",
    };
    for (const char *s : kSkip)
        if (k == s)
            return false;
    // Per-shard event counts depend on placement, not simulation.
    if (k.rfind("shard_", 0) == 0)
        return false;
    return true;
}

/**
 * Host cost beside wall time: the minor page faults and system CPU
 * seconds perf_harness measured around each scenario. Informational,
 * never gating; it shows the simulator's own kernel cost, which
 * user-space timers cannot attribute to a layer.
 */
void
printHostCost(const BenchFile &base, const BenchFile &cur)
{
    const bool any = std::any_of(
        cur.scenarios.begin(), cur.scenarios.end(),
        [](const Scenario &c) { return hasField(c, "host_minor_faults"); });
    if (!any)
        return;
    std::printf("\nhost cost (base -> cur):\n");
    std::printf("  %-26s %20s %24s %18s\n", "scenario", "wall(s)",
                "minor faults", "sys(s)");
    for (const Scenario &c : cur.scenarios) {
        const Scenario *b = findScenario(base, c.name);
        auto cell = [&](const char *key, const char *fmt) {
            return counterCell(b, key, fmt) + " -> "
                   + counterCell(&c, key, fmt);
        };
        std::printf("  %-26s %20s %24s %18s\n", c.name.c_str(),
                    cell("wall_sec", "%.3f").c_str(),
                    cell("host_minor_faults", "%.0f").c_str(),
                    cell("host_sys_sec", "%.3f").c_str());
    }
}

/**
 * Shard-scaling table: for every scenario carrying shard data on both
 * sides, relate events/sec to shard count. Parallel efficiency is the
 * speedup divided by the shard-count ratio — 100% means the extra
 * shards were fully converted into throughput.
 */
void
printShardScaling(const BenchFile &base, const BenchFile &cur)
{
    // Efficiency is only meaningful when the host can actually run the
    // shards in parallel: with more shards than cores the threads
    // time-slice one another and eff% measures the scheduler, not the
    // executor. Flag those rows instead of printing a misleading number.
    double cpus = 0;
    if (cur.fields.count("host_cpus"))
        cpus = std::atof(cur.fields.at("host_cpus").c_str());
    bool any = false;
    bool anyCoreLimited = false;
    for (const Scenario &c : cur.scenarios) {
        const Scenario *b = findScenario(base, c.name);
        if (!b || !hasField(*b, "shards") || !hasField(c, "shards"))
            continue;
        const double bs = numField(*b, "shards");
        const double cs = numField(c, "shards");
        const double be = numField(*b, "events_per_sec");
        const double ce = numField(c, "events_per_sec");
        if (bs <= 0 || cs <= 0 || be <= 0)
            continue;
        if (!any) {
            std::printf("\nshard scaling (events/sec vs shards):\n");
            std::printf("  %-26s %6s %6s %12s %12s %8s %8s\n",
                        "scenario", "shards", "shards", "base ev/s",
                        "cur ev/s", "speedup", "eff%");
        }
        any = true;
        const double speedup = ce / be;
        const bool coreLimited = cpus > 0 && cs > cpus;
        anyCoreLimited |= coreLimited;
        if (coreLimited) {
            std::printf("  %-26s %6.0f %6.0f %12.0f %12.0f %7.2fx %8s\n",
                        c.name.c_str(), bs, cs, be, ce, speedup,
                        "core-ltd");
        } else {
            const double eff = 100.0 * speedup / (cs / bs);
            std::printf("  %-26s %6.0f %6.0f %12.0f %12.0f %7.2fx %7.1f%%\n",
                        c.name.c_str(), bs, cs, be, ce, speedup, eff);
        }
    }
    if (any && cpus > 0) {
        std::printf("  (current host has %.0f cpu%s — speedup is "
                    "bounded by physical cores)\n",
                    cpus, cpus == 1 ? "" : "s");
        if (anyCoreLimited)
            std::printf("  (core-ltd: more shards than host cpus; "
                        "threads time-slice, so parallel efficiency "
                        "is not measurable)\n");
    }
}

/**
 * Per-reactor breakdown: scenarios that carry the fabric target's lane
 * accounting ("reactors" + "reactor.N.*") get a per-lane table with a
 * busy-imbalance summary. The conn→reactor striping is deterministic,
 * so a skewed lane here means the connection population is skewed —
 * not that the run raced.
 */
void
printReactorBreakdown(const BenchFile &cur)
{
    bool any = false;
    for (const Scenario &c : cur.scenarios) {
        if (!hasField(c, "reactors"))
            continue;
        const unsigned n = static_cast<unsigned>(numField(c, "reactors"));
        if (n == 0 || !hasField(c, "reactor.0.capsules"))
            continue;
        if (!any)
            std::printf("\nper-reactor breakdown (current):\n");
        any = true;
        std::printf("  %s\n", c.name.c_str());
        std::printf("    %7s %10s %12s %14s\n", "reactor", "capsules",
                    "rdma_setups", "busy_ns");
        double busyMin = 0, busyMax = 0;
        for (unsigned r = 0; r < n; r++) {
            char key[48];
            std::snprintf(key, sizeof(key), "reactor.%u.capsules", r);
            const double caps = numField(c, key);
            std::snprintf(key, sizeof(key), "reactor.%u.rdma_setups", r);
            const double rdma = numField(c, key);
            std::snprintf(key, sizeof(key), "reactor.%u.busy_ns", r);
            const double busy = numField(c, key);
            std::printf("    %7u %10.0f %12.0f %14.0f\n", r, caps, rdma,
                        busy);
            busyMin = r == 0 ? busy : std::min(busyMin, busy);
            busyMax = std::max(busyMax, busy);
        }
        if (n > 1 && busyMin > 0)
            std::printf("    busy imbalance (max/min): %.2fx\n",
                        busyMax / busyMin);
    }
}

/**
 * Per-device breakdown: scenarios that carry device-map accounting
 * ("devices" + "dev.N.*", emitted by fleet benches) get a per-slot
 * table. The two ops columns come from independent ledgers — the
 * device's own hardware counter and the per-(device, tenant)
 * accounting rows folded over tenants — so a row where they disagree
 * means the tenant attribution leaked, not that the run raced.
 */
void
printDeviceBreakdown(const BenchFile &cur)
{
    bool any = false;
    for (const Scenario &c : cur.scenarios) {
        if (!hasField(c, "devices"))
            continue;
        const unsigned n = static_cast<unsigned>(numField(c, "devices"));
        if (n == 0 || !hasField(c, "dev.0.device_ops"))
            continue;
        if (!any)
            std::printf("\nper-device breakdown (current):\n");
        any = true;
        std::printf("  %s\n", c.name.c_str());
        std::printf("    %4s %6s %10s %8s %10s %10s %10s %12s %9s\n",
                    "slot", "dev_id", "dev_ops", "writes", "p50_ns",
                    "p99_ns", "acct_ops", "acct_bytes", "bytes/op");
        double opsMin = 0, opsMax = 0;
        bool acctMismatch = false;
        bool zeroOpSlot = false;
        for (unsigned d = 0; d < n; d++) {
            char key[48];
            auto devNum = [&](const char *f) {
                std::snprintf(key, sizeof(key), "dev.%u.%s", d, f);
                return numField(c, key);
            };
            const double ops = devNum("device_ops");
            const double acctOps = devNum("acct_ssd_ops");
            acctMismatch |= ops != acctOps;
            std::printf("    %4u %6.0f %10.0f %8.0f ", d,
                        devNum("dev_id"), ops, devNum("writes"));
            // A slot that served no ops (e.g. evicted before its first
            // dispatch) has no latency distribution and no meaningful
            // per-op average: print "—" rather than 0s / nan / inf.
            if (ops > 0) {
                std::printf("%10.0f %10.0f ", devNum("p50_ns"),
                            devNum("p99_ns"));
            } else {
                zeroOpSlot = true;
                std::printf("%10s %10s ", "—", "—");
            }
            std::printf("%10.0f %12.0f ", acctOps, devNum("acct_bytes"));
            if (acctOps > 0)
                std::printf("%9.0f\n", devNum("acct_bytes") / acctOps);
            else
                std::printf("%9s\n", "—");
            opsMin = d == 0 ? ops : std::min(opsMin, ops);
            opsMax = std::max(opsMax, ops);
        }
        // The honest imbalance: a slot that served nothing is the most
        // extreme imbalance there is, not a reason to stay silent.
        if (n > 1 && opsMin > 0)
            std::printf("    ops imbalance (max/min): %.2fx\n",
                        opsMax / opsMin);
        else if (n > 1 && zeroOpSlot && opsMax > 0)
            std::printf("    ops imbalance (max/min): unbounded "
                        "(a slot served 0 ops)\n");
        if (acctMismatch)
            std::printf("    WARNING: tenant accounting disagrees with "
                        "device hardware counters\n");
    }
}

/**
 * Diff the simulated metric counters embedded in the scenario objects.
 * These are outputs of the simulation (not host-side timing), so any
 * base/cur difference on an unchanged workload is a semantic change —
 * the digest gate catches it, this table says *where*. Keys present on
 * only one side are real signal too (a counter appearing or vanishing
 * is a behavior change), so the table walks the union of both key sets
 * and annotates one-sided rows as added/removed.
 */
void
printCounterDiff(const BenchFile &base, const BenchFile &cur)
{
    bool any = false;
    for (const Scenario &c : cur.scenarios) {
        const Scenario *b = findScenario(base, c.name);
        std::map<std::string, int> keys; // 1 = base, 2 = cur, 3 = both
        if (b)
            for (const auto &[k, v] : b->fields)
                if (isCounterKey(k))
                    keys[k] |= 1;
        for (const auto &[k, v] : c.fields)
            if (isCounterKey(k))
                keys[k] |= 2;
        if (keys.empty())
            continue;
        if (!any)
            std::printf("\nsimulated counters (base -> cur):\n");
        any = true;

        std::printf("  %s\n", c.name.c_str());
        for (const auto &[k, side] : keys) {
            const std::string bs = counterCell(b, k.c_str());
            const std::string cs = counterCell(&c, k.c_str());
            const char *note = "";
            if (side == 2)
                note = "  (added)";
            else if (side == 1)
                note = "  (removed)";
            else if (bs != cs)
                note = "  *";
            std::printf("    %-20s %14s -> %-14s%s\n", k.c_str(),
                        bs.c_str(), cs.c_str(), note);
        }
        if (hasField(c, "iotlb_hits") && hasField(c, "iotlb_misses")) {
            const double h = numField(c, "iotlb_hits");
            const double m = numField(c, "iotlb_misses");
            if (h + m > 0)
                std::printf("    %-20s %14s    %.2f%%\n",
                            "iotlb_hit_rate", "", 100.0 * h / (h + m));
        }
    }
}

/** Re-emit a flat scalar map as a JSON object body at an indent. */
void
emitObject(std::FILE *f, const std::map<std::string, std::string> &m,
           const char *indent)
{
    bool first = true;
    for (const auto &[k, v] : m) {
        std::fprintf(f, "%s%s\"%s\": ", first ? "" : ",\n", indent,
                     k.c_str());
        // Strings were unquoted during parsing; numbers/bools kept raw.
        const bool isRaw
            = !v.empty()
              && (v == "true" || v == "false" || v == "null"
                  || v.find_first_not_of("-+.0123456789eE")
                         == std::string::npos);
        if (isRaw)
            std::fprintf(f, "%s", v.c_str());
        else
            std::fprintf(f, "\"%s\"", v.c_str());
        first = false;
    }
    std::fprintf(f, "\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string outPath;
    std::optional<double> maxRssGrowthPct;
    std::vector<std::string> inputs;
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        if (a == "--out" && i + 1 < argc)
            outPath = argv[++i];
        else if (a == "--max-rss-growth" && i + 1 < argc)
            maxRssGrowthPct = std::atof(argv[++i]);
        else if (a == "--help" || a == "-h") {
            std::printf("usage: perf_report <baseline.json> "
                        "<current.json> [--out BENCH_PR.json] "
                        "[--max-rss-growth PCT]\n");
            return 0;
        } else
            inputs.push_back(a);
    }
    if (inputs.size() != 2) {
        std::fprintf(stderr, "usage: perf_report <baseline.json> "
                             "<current.json> [--out BENCH_PR.json] "
                             "[--max-rss-growth PCT]\n");
        return 2;
    }

    const BenchFile base = parseBenchFile(inputs[0]);
    const BenchFile cur = parseBenchFile(inputs[1]);

    std::printf("%-26s %14s %14s %8s  %s\n", "scenario",
                "base ev/s", "cur ev/s", "speedup", "digest");
    bool digestMismatch = false;
    struct Row
    {
        std::string name;
        double speedup;
        bool match;
    };
    std::vector<Row> rows;
    for (const Scenario &c : cur.scenarios) {
        const Scenario *b = findScenario(base, c.name);
        if (!b) {
            std::printf("%-26s %14s %14.1f %8s  (new)\n",
                        c.name.c_str(), "-",
                        numField(c, "events_per_sec"), "-");
            continue;
        }
        const double be = numField(*b, "events_per_sec");
        const double ce = numField(c, "events_per_sec");
        const double speedup = be > 0 ? ce / be : 0.0;
        const bool match = strField(*b, "digest") == strField(c, "digest");
        digestMismatch |= !match;
        rows.push_back(Row{c.name, speedup, match});
        std::printf("%-26s %14.1f %14.1f %7.2fx  %s\n", c.name.c_str(),
                    be, ce, speedup, match ? "match" : "MISMATCH");
    }
    const double baseRss = std::atof(
        base.fields.count("peak_rss_bytes")
            ? base.fields.at("peak_rss_bytes").c_str()
            : "0");
    const double curRss = std::atof(
        cur.fields.count("peak_rss_bytes")
            ? cur.fields.at("peak_rss_bytes").c_str()
            : "0");
    std::printf("peak RSS: %.1f MiB -> %.1f MiB\n",
                baseRss / (1 << 20), curRss / (1 << 20));
    bool rssViolation = false;
    if (maxRssGrowthPct && baseRss > 0 && curRss > 0) {
        const double growth = 100.0 * (curRss - baseRss) / baseRss;
        rssViolation = growth > *maxRssGrowthPct;
        std::printf("peak RSS growth: %+.1f%% (budget %.1f%%) %s\n",
                    growth, *maxRssGrowthPct,
                    rssViolation ? "EXCEEDED" : "ok");
    }
    printHostCost(base, cur);
    printShardScaling(base, cur);
    printReactorBreakdown(cur);
    printDeviceBreakdown(cur);
    printCounterDiff(base, cur);
    if (digestMismatch)
        std::fprintf(stderr, "perf_report: DIGEST MISMATCH — simulated "
                             "results differ from baseline\n");
    if (rssViolation)
        std::fprintf(stderr, "perf_report: RSS BUDGET EXCEEDED — peak "
                             "RSS grew past --max-rss-growth\n");

    if (!outPath.empty()) {
        std::FILE *f = std::fopen(outPath.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "perf_report: cannot write %s\n",
                         outPath.c_str());
            return 2;
        }
        std::fprintf(f, "{\n  \"schema\": \"bypassd-bench-report-v1\",\n");
        std::fprintf(f, "  \"digest_match\": %s,\n",
                     digestMismatch ? "false" : "true");
        std::fprintf(f, "  \"comparison\": [\n");
        for (std::size_t i = 0; i < rows.size(); i++)
            std::fprintf(f,
                         "    {\"name\": \"%s\", \"speedup\": %.3f, "
                         "\"digest_match\": %s}%s\n",
                         rows[i].name.c_str(), rows[i].speedup,
                         rows[i].match ? "true" : "false",
                         i + 1 < rows.size() ? "," : "");
        std::fprintf(f, "  ],\n");

        auto emitRun = [&](const char *key, const BenchFile &bf) {
            std::fprintf(f, "  \"%s\": {\n", key);
            emitObject(f, bf.fields, "    ");
            std::fprintf(f, "    ,\"scenarios\": [\n");
            for (std::size_t i = 0; i < bf.scenarios.size(); i++) {
                std::fprintf(f, "      {\n");
                emitObject(f, bf.scenarios[i].fields, "        ");
                std::fprintf(f, "      }%s\n",
                             i + 1 < bf.scenarios.size() ? "," : "");
            }
            std::fprintf(f, "    ]\n  }");
        };
        emitRun("baseline", base);
        std::fprintf(f, ",\n");
        emitRun("current", cur);
        std::fprintf(f, "\n}\n");
        const bool written = std::ferror(f) == 0;
        if (std::fclose(f) != 0 || !written) {
            std::fprintf(stderr, "perf_report: error writing %s\n",
                         outPath.c_str());
            return 2;
        }
        std::printf("wrote %s\n", outPath.c_str());
    }
    return (digestMismatch || rssViolation) ? 1 : 0;
}
