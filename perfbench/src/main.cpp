/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--shards N] [--commit SHA] [--spans-out FILE]
 *
 * A run repeats rounds of one workload until --seconds of host time
 * have passed. A round builds fresh Systems from the seed, sets them
 * up, runs a fixed simulated window and tears them down, so every
 * round of a run produces the same digest and the same simulated
 * metrics, while host metrics are taken as medians over rounds.
 *
 * --trace 0 reports the end-to-end metrics (tracing off) and runs one
 * traced round at the end to check the traced digest equals the
 * untraced one. --trace 1 alternates untraced and traced rounds and
 * reports the per-layer metrics. Every round runs the correctness
 * checks; the last stdout line is one JSON object for the caller.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include "bench.hpp"
#include "sim/logging.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace pb {
namespace {

namespace sim = bpd::sim;

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

/**
 * The fleet's timed rounds run on one shard by default. Its windows
 * are a few simulated microseconds, so with one thread per shard on a
 * shared host most of a multi-shard round's wall time is barrier
 * waits on preempted threads: it measures the scheduler, and is also
 * slower than one shard. The multi-shard executor runs in the
 * shard-invariance check instead, at this many shards (clamped to
 * nproc).
 */
constexpr unsigned kCheckShards = 4;
/** The shard-invariance check runs this share of the window. */
constexpr double kShardCheckScale = 0.1;

struct Workload
{
    const char *name;
    Round (*run)(const RoundCfg &);
    bool fleet;
};

constexpr Workload kWorkloads[] = {
    {"direct_randread", runDirectRandread, false},
    {"mixed_rw_revoke", runMixedRwRevoke, false},
    {"fabric_fleet_qos", runFabricFleetQos, true},
};

struct Args
{
    const Workload *wl = nullptr;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    unsigned shards = 0; //!< timed fleet rounds; 0 = one shard
    std::string commit = "unknown";
    std::string spansOut;
};

unsigned
hostCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return 1;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // Linux: KiB
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

template <typename F>
double
medianOf(const std::vector<Round> &rounds, F &&f)
{
    std::vector<double> v;
    for (const Round &r : rounds)
        if (!r.warmup)
            v.push_back(f(r));
    return median(v);
}

/** "median of N rounds, min .. max" for a host metric's note. */
template <typename F>
std::string
spread(const std::vector<Round> &rounds, F &&f)
{
    double lo = 0, hi = 0;
    std::size_t n = 0;
    for (const Round &r : rounds) {
        if (r.warmup)
            continue;
        lo = n ? std::min(lo, f(r)) : f(r);
        hi = n ? std::max(hi, f(r)) : f(r);
        n++;
    }
    return sim::strf("median of %zu rounds, %.4g .. %.4g", n, lo, hi);
}

/** Nearest-rank percentile of @p v (copied), in microseconds. */
double
percentileUs(std::vector<std::uint32_t> v, double p)
{
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    const std::size_t idx = rank ? rank - 1 : 0;
    std::nth_element(v.begin(), v.begin() + idx, v.end());
    return static_cast<double>(v[idx]) / 1000.0;
}

/** One reported metric; n/a metrics carry the reason instead. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
    std::string na; //!< non-empty: does not apply, and why
    std::string note;
};

class Report
{
  public:
    void
    add(std::string name, std::string unit, double v, std::string note = {})
    {
        metrics.push_back(
            {std::move(name), std::move(unit), v, {}, std::move(note)});
    }
    void
    na(std::string name, std::string unit, std::string why)
    {
        metrics.push_back(
            {std::move(name), std::move(unit), 0, std::move(why), {}});
    }
    /** add() when @p den is non-zero, else na(@p why). */
    void
    ratio(std::string name, std::string unit, double num, double den,
          std::string why)
    {
        if (den == 0)
            na(std::move(name), std::move(unit), std::move(why));
        else
            add(std::move(name), std::move(unit), num / den);
    }

    std::vector<Metric> metrics;
};

/** Median over a run's timed rounds of @p f. */
template <typename F>
Metric
hostMedian(std::string name, std::string unit,
           const std::vector<Round> &u, F &&f)
{
    return {std::move(name), std::move(unit), medianOf(u, f), {},
            spread(u, f)};
}

/** End-to-end metrics: untraced rounds only. */
Report
endToEnd(const std::vector<Round> &u, double rssMb)
{
    Report rep;
    const Round &r0 = u.front();
    rep.metrics.push_back(hostMedian("host_ns_per_io", "ns", u,
                                     [](const Round &r) {
                                         return r.hostNsPerIo();
                                     }));
    rep.metrics.push_back(hostMedian(
        "setup_s", "s", u, [](const Round &r) { return r.setupS(); }));
    rep.add("peak_rss_mb", "MB", rssMb);
    const double windowS
        = static_cast<double>(r0.window.end - r0.window.start) / 1e9;
    rep.add("sim_iops", "1/s",
            static_cast<double>(r0.io.windowOps) / windowS,
            sim::strf("%llu ops in %.3f simulated s",
                      static_cast<unsigned long long>(r0.io.windowOps),
                      windowS));
    const std::pair<const char *, const std::vector<std::uint32_t> *>
        sides[] = {{"read", &r0.io.readNs}, {"write", &r0.io.writeNs}};
    for (const auto &[side, v] : sides) {
        const std::string p50 = sim::strf("sim_%s_p50_us", side);
        const std::string p999 = sim::strf("sim_%s_p999_us", side);
        const std::string n = sim::strf("n=%zu", v->size());
        if (v->empty()) {
            const std::string why
                = sim::strf("no %ss in this workload", side);
            rep.na(p50, "us", why);
            rep.na(p999, "us", why);
            continue;
        }
        rep.add(p50, "us", percentileUs(*v, 50), n);
        if (v->size() >= 10'000)
            rep.add(p999, "us", percentileUs(*v, 99.9), n);
        else
            rep.na(p999, "us", n + ": fewer than 10 samples above p99.9");
    }
    std::uint64_t issued = 0, bad = 0;
    for (const Round &r : u) {
        issued += r.io.issued;
        bad += r.io.issued - r.io.completed; // failed + never completed
    }
    rep.add("io_failed_frac", "frac",
            static_cast<double>(bad) / static_cast<double>(issued),
            sim::strf("%llu of %llu ops",
                      static_cast<unsigned long long>(bad),
                      static_cast<unsigned long long>(issued)));
    return rep;
}

/** Mean host ns of the benchmark's spans around calls into @p layer. */
std::pair<double, std::uint64_t>
hostCallNs(const Round &t, HostLayer layer)
{
    double sum = 0;
    std::uint64_t n = 0;
    for (const HostSpan &s : t.host.spans)
        if (s.layer == layer) {
            sum += static_cast<double>(s.durNs);
            n++;
        }
    return {n ? sum / static_cast<double>(n) : 0, n};
}

/** Add the mean host ns of calls into @p layer, or n/a(@p why). */
void
addHostCalls(Report &rep, const char *name, const Round &t,
             HostLayer layer, const std::string &why)
{
    const auto [ns, n] = hostCallNs(t, layer);
    if (n)
        rep.add(name, "ns", ns,
                sim::strf("%llu calls", static_cast<unsigned long long>(n)));
    else
        rep.na(name, "ns", why);
}

/**
 * Per-layer metrics: counts untraced, sim ns and host calls traced.
 * @p check is the fleet's multi-shard check window (null otherwise).
 */
Report
perLayer(const std::vector<Round> &u, const std::vector<Round> &t,
         const Round *check, double deviceProbeNs)
{
    Report rep;
    const Round &r0 = u.front();
    const Round &t0 = t.front();
    const Counters &c = r0.layers;
    const SpanAgg &sp = t0.spans;
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const double ios = d(r0.io.dataOps);
    const double envs = d(sp.envelopes);
    const std::string noEnv = "no request envelopes were traced";

    // sim
    rep.add("sim.events_per_io", "count", d(c.events) / ios);
    rep.metrics.push_back(hostMedian(
        "sim.host_ns_per_event", "ns", u, [](const Round &r) {
            return r.runS * 1e9 / static_cast<double>(r.layers.events);
        }));
    rep.add("sim.allocs_per_io", "count", d(r0.allocs) / ios);
    if (r0.exec.used) {
        // Mail and windows do not depend on the shard count. Barrier
        // waits and imbalance need more than one shard: when the timed
        // rounds run on one, they come from the multi-shard check
        // window.
        rep.add("sim.messages_per_io", "count", d(r0.exec.messages) / ios);
        std::uint64_t events = 0;
        for (std::uint64_t e : r0.exec.shardEvents)
            events += e;
        rep.ratio("sim.events_per_window", "count", d(events),
                  d(r0.exec.windows), "no windows ran");
        const Round *mr = r0.exec.shards > 1 ? &r0 : check;
        if (mr && mr->exec.shards > 1) {
            const ExecStats &e = mr->exec;
            const std::string note
                = mr == check
                      ? sim::strf("%u-shard check window", e.shards)
                      : std::string();
            if (mr == check)
                rep.add("sim.barrier_stall_frac", "frac",
                        e.stallSec / (e.shards * check->runS), note);
            else
                rep.metrics.push_back(hostMedian(
                    "sim.barrier_stall_frac", "frac", u,
                    [](const Round &r) {
                        return r.exec.stallSec / (r.exec.shards * r.runS);
                    }));
            std::uint64_t sum = 0, mx = 0;
            for (std::uint64_t v : e.shardEvents) {
                sum += v;
                mx = std::max(mx, v);
            }
            rep.ratio("sim.shard_imbalance", "ratio",
                      d(mx) * d(e.shardEvents.size()), d(sum),
                      "no shard events");
            rep.metrics.back().note = note;
        } else {
            const std::string why = "one CPU, so every run had one shard: "
                                    "no barrier to wait at";
            rep.na("sim.barrier_stall_frac", "frac", why);
            rep.na("sim.shard_imbalance", "ratio", why);
        }
    } else {
        const std::string why
            = "one machine on one event queue: no sharded executor";
        rep.na("sim.barrier_stall_frac", "frac", why);
        rep.na("sim.messages_per_io", "count", why);
        rep.na("sim.events_per_window", "count", why);
        rep.na("sim.shard_imbalance", "ratio", why);
    }

    // ssd
    rep.add("ssd.ops_per_io", "count", d(c.devOps) / ios);
    rep.ratio("ssd.write_amp", "ratio", d(c.devWriteBytes),
              d(r0.io.userWriteBytes), "no user writes in this workload");
    rep.ratio("ssd.sim_device_ns", "ns", sp.deviceNs, envs, noEnv);
    rep.ratio("ssd.sim_sq_wait_ns", "ns", sp.sqWaitNs, envs, noEnv);
    rep.add("ssd.host_ns_per_cmd", "ns", deviceProbeNs,
            sim::strf("probe: benchmark-owned device, %u queue pairs at QD1",
                      r0.queuePairs));

    // iommu and mem: the whole family is n/a without VBA translations.
    if (c.vbaTranslations) {
        rep.add("iommu.translations_per_io", "count",
                d(c.vbaTranslations) / ios);
        rep.ratio("iommu.walk_cache_hit_frac", "frac", d(c.walkHits),
                  d(c.walkHits + c.walkMisses), "no walk-cache lookups");
        rep.add("iommu.vba_faults", "count", d(c.vbaFaults));
        rep.ratio("iommu.sim_xlate_ns", "ns", sp.xlateNs, envs, noEnv);
        rep.add("mem.frames_per_translation", "count",
                d(c.framesRead) / d(c.vbaTranslations));
    } else {
        const std::string why
            = "no VBA translations: this workload has no direct-path I/O";
        rep.na("iommu.translations_per_io", "count", why);
        rep.na("iommu.walk_cache_hit_frac", "frac", why);
        rep.na("iommu.vba_faults", "count", why);
        rep.na("iommu.sim_xlate_ns", "ns", why);
        rep.na("mem.frames_per_translation", "count", why);
    }
    rep.ratio("iommu.iotlb_hit_frac", "frac", d(c.iotlbHits),
              d(c.iotlbHits + c.iotlbMisses),
              "VBA translations bypass the IOTLB by design (walk cache "
              "only) and no classic DMA-IOVA lookup ran");
    if (t0.xlate.ran) {
        const std::string n
            = sim::strf("probe: %llu replayed offsets",
                        static_cast<unsigned long long>(t0.xlate.samples));
        rep.add("iommu.host_translate_ns", "ns", t0.xlate.translateNs, n);
        rep.add("mem.host_walk_ns", "ns", t0.xlate.walkNs, n);
    } else {
        rep.na("iommu.host_translate_ns", "ns", t0.xlate.why);
        rep.na("mem.host_walk_ns", "ns", t0.xlate.why);
    }

    // kern
    rep.add("kern.syscalls_per_io", "count", d(c.syscalls) / ios);
    if (c.fabric)
        rep.na("kern.sim_kernel_ns", "ns",
               "fabric I/O never enters a kernel");
    else
        rep.ratio("kern.sim_kernel_ns", "ns", sp.kernelNs, envs, noEnv);
    addHostCalls(rep, "kern.host_call_ns", t0, HostLayer::Kernel,
                 "the benchmark makes no Kernel calls after set-up");

    // fs
    rep.add("fs.metadata_ops_per_io", "count", d(c.metadataOps) / ios);
    rep.add("fs.journal_commits", "count", d(c.journalCommits));
    rep.ratio("fs.journal_records_per_commit", "count",
              d(c.journalRecords), d(c.journalCommits),
              "no journal commits");
    rep.ratio("fs.sim_fsync_ns", "ns", d(t0.io.fsyncNs), d(t0.io.fsyncs),
              "no fsync calls in this workload");
    rep.na("fs.sim_journal_commit_ns", "ns",
           "the model records journal.commit as an instant: a commit "
           "takes no simulated time of its own (fsync cost is in "
           "fs.sim_fsync_ns)");

    // bypassd
    if (c.directOps + c.fallbackOps) {
        rep.add("bypassd.direct_frac", "frac",
                d(c.directOps) / d(c.directOps + c.fallbackOps));
        rep.add("bypassd.fmaps", "count", d(c.fmaps));
        rep.add("bypassd.revocations", "count", d(c.revocations));
        rep.add("bypassd.kernel_fallback_ops", "count", d(c.fallbackOps));
        rep.ratio("bypassd.sim_user_ns", "ns", sp.bypassdUserNs,
                  d(sp.bypassdEnvelopes), noEnv);
        addHostCalls(rep, "bypassd.host_call_ns", t0, HostLayer::UserLib,
                     "the benchmark makes no UserLib calls");
    } else {
        const std::string why = "no BypassD process in this workload";
        rep.na("bypassd.direct_frac", "frac", why);
        rep.na("bypassd.fmaps", "count", why);
        rep.na("bypassd.revocations", "count", why);
        rep.na("bypassd.kernel_fallback_ops", "count", why);
        rep.na("bypassd.sim_user_ns", "ns", why);
        rep.na("bypassd.host_call_ns", "ns", why);
    }

    // qos
    if (c.qos) {
        rep.ratio("qos.throttle_frac", "frac", d(c.qosThrottles),
                  d(c.qosAdmits + c.qosThrottles),
                  "no QoS-gated submissions");
        const double windowS
            = static_cast<double>(r0.window.end - r0.window.start) / 1e9;
        rep.ratio("qos.capped_iops_over_cap", "ratio",
                  d(r0.cappedOps) / windowS, d(r0.capIops),
                  "no capped tenant");
    } else {
        const std::string why = "QoS is not enabled in this workload";
        rep.na("qos.throttle_frac", "frac", why);
        rep.na("qos.capped_iops_over_cap", "ratio", why);
    }

    // fabric
    if (c.fabric) {
        rep.ratio("fabric.sim_capsule_ns", "ns", sp.fabricTransportNs,
                  d(sp.fabricEnvelopes), noEnv);
        rep.ratio("fabric.sim_rdma_ns", "ns", sp.rdmaNs, d(sp.rdmaPulls),
                  "no RDMA-read writes");
        addHostCalls(rep, "fabric.host_call_ns", t0, HostLayer::Fabric,
                     "the benchmark makes no FabricInitiator calls");
        rep.ratio("fabric.depth_queued_frac", "frac",
                  d(c.fabricDepthQueued), d(c.fabricIos), "no fabric I/O");
    } else {
        const std::string why = "no fabric in this workload";
        rep.na("fabric.sim_capsule_ns", "ns", why);
        rep.na("fabric.sim_rdma_ns", "ns", why);
        rep.na("fabric.host_call_ns", "ns", why);
        rep.na("fabric.depth_queued_frac", "frac", why);
    }

    // obs
    auto hostNsPerIo = [](const Round &r) { return r.hostNsPerIo(); };
    rep.add("obs.trace_overhead_frac", "frac",
            medianOf(t, hostNsPerIo) / medianOf(u, hostNsPerIo) - 1,
            sim::strf("%zu traced vs %zu untraced rounds", t.size(),
                      u.size() - 1));
    rep.add("obs.spans_per_io", "count",
            d(sp.spans) / d(t0.io.dataOps));

    // system
    rep.metrics.push_back(hostMedian("system.host_boot_s", "s", u,
                                     [](const Round &r) { return r.bootS; }));
    rep.metrics.push_back(hostMedian(
        "system.host_populate_s", "s", u,
        [](const Round &r) { return r.populateS; }));
    rep.metrics.push_back(hostMedian("system.host_open_s", "s", u,
                                     [](const Round &r) { return r.openS; }));
    return rep;
}

/**
 * End-to-end metrics the JSON line carries (BENCHMARK.json's bounded
 * set). The write latencies are n/a on direct_randread and
 * io_failed_frac is 0 on a correct run, so neither can carry a bound;
 * both stay in the printed report.
 */
const std::vector<std::string> kEndToEndJson = {
    "host_ns_per_io", "setup_s", "peak_rss_mb",
    "sim_iops", "sim_read_p50_us", "sim_read_p999_us",
};

/** Per-layer metrics that are n/a on every workload: report only. */
const std::vector<std::string> kReportOnly = {
    "iommu.iotlb_hit_frac", "fs.sim_journal_commit_ns",
};

void
printReport(const char *title, const Report &rep)
{
    std::printf("%s\n", title);
    for (const Metric &m : rep.metrics) {
        if (!m.na.empty())
            std::printf("  %-32s %14s %-6s n/a: %s\n", m.name.c_str(), "n/a",
                        m.unit.c_str(), m.na.c_str());
        else
            std::printf("  %-32s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                        m.unit.c_str(), m.note.c_str());
    }
}

/**
 * Print the machine-readable result line (the last stdout line): the
 * metrics @p keep selects.
 */
void
printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const Report &rep,
          const std::function<bool(const std::string &)> &keep)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    bool first = true;
    for (const Metric &m : rep.metrics) {
        if (!keep(m.name))
            continue;
        // n/a metrics are 0 here; the report above gives the reason.
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", m.name.c_str(), m.value,
                    m.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
}

void
writeSpans(const std::string &path, const Round &t)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "# req\tlayer\tstart_ns\tdur_ns\n");
    for (const HostSpan &s : t.host.spans)
        std::fprintf(f, "%llu\t%s\t%llu\t%llu\n",
                     static_cast<unsigned long long>(s.req),
                     toString(s.layer),
                     static_cast<unsigned long long>(s.start),
                     static_cast<unsigned long long>(s.durNs));
    std::fclose(f);
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "direct_randread|mixed_rw_revoke|fabric_fleet_qos "
                 "--seed N --seconds S --trace 0|1 [--shards N] "
                 "[--commit SHA] [--spans-out FILE]\n",
                 why);
    return 2;
}

int
run(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; i++) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        if (k == "--workload") {
            for (const Workload &w : kWorkloads)
                if (v == w.name)
                    a.wl = &w;
            if (!a.wl)
                return usage(("unknown workload " + v).c_str());
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (k == "--seconds") {
            a.seconds = std::atof(v.c_str());
        } else if (k == "--trace") {
            a.trace = v == "1";
        } else if (k == "--shards") {
            a.shards = static_cast<unsigned>(std::atoi(v.c_str()));
            if (a.shards == 0)
                return usage("--shards must be >= 1");
        } else if (k == "--commit") {
            a.commit = v;
        } else if (k == "--spans-out") {
            a.spansOut = v;
        } else {
            return usage(("unknown flag " + k).c_str());
        }
    }
    if (!a.wl)
        return usage("--workload is required");
    if (!kOptimized) {
        std::fprintf(stderr, "perfbench: refusing to report from a build "
                             "without optimisation\n");
        return 2;
    }
    const unsigned cpus = hostCpus();
    if (a.shards > cpus) {
        std::fprintf(stderr,
                     "perfbench: refusing --shards %u on %u CPUs\n",
                     a.shards, cpus);
        return 2;
    }
    const unsigned shards = a.shards && a.wl->fleet ? a.shards : 1;
    const unsigned checkShards
        = a.wl->fleet ? std::max(shards, std::min(kCheckShards, cpus)) : 0;

    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                a.wl->name, static_cast<unsigned long long>(a.seed),
                a.seconds, a.trace ? 1 : 0);
    std::printf("meta: host_cpus=%u shards=%u check_shards=%u build=%s "
                "flags=\"%s\" optimized=yes commit=%s\n",
                cpus, shards, checkShards, PERFBENCH_BUILD_TYPE,
                PERFBENCH_CXX_FLAGS, a.commit.c_str());
    std::fflush(stdout);

    std::vector<std::string> failures;
    RoundCfg base;
    base.seed = a.seed;
    base.shards = shards;

    // Shard invariance: a short fleet window at 1 and at N shards must
    // give the same digest. The N-shard window also gives the
    // executor's barrier metrics.
    Round check;
    if (a.wl->fleet) {
        RoundCfg sc = base;
        sc.windowScale = kShardCheckScale;
        sc.shards = 1;
        const std::uint64_t d1 = a.wl->run(sc).digest;
        sc.shards = checkShards;
        check = a.wl->run(sc);
        const std::uint64_t dn = check.digest;
        failures.insert(failures.end(), check.failures.begin(),
                        check.failures.end());
        std::printf("check: shard digests 1=%016llx %u=%016llx %s\n",
                    static_cast<unsigned long long>(d1), checkShards,
                    static_cast<unsigned long long>(dn),
                    d1 == dn ? "equal" : "DIFFER");
        if (d1 != dn)
            failures.push_back("digest differs between 1 and N shards");
    }

    const std::uint64_t start = hostNs();
    auto elapsed = [&]() {
        return static_cast<double>(hostNs() - start) / 1e9;
    };
    std::vector<Round> untraced, traced;
    auto runRound = [&](bool withTrace) {
        RoundCfg cfg = base;
        cfg.traced = withTrace;
        cfg.probe = withTrace && traced.empty();
        Round r = a.wl->run(cfg);
        std::vector<Round> &dst = withTrace ? traced : untraced;
        // Only the first round of each kind keeps its samples/spans.
        if (!dst.empty()) {
            r.io.readNs.clear();
            r.io.readNs.shrink_to_fit();
            r.io.writeNs.clear();
            r.io.writeNs.shrink_to_fit();
            r.host.spans.clear();
            r.host.spans.shrink_to_fit();
        }
        dst.push_back(std::move(r));
    };
    // A warm-up round first: the first round also pays the host's
    // first-touch page faults, which no later round (and no user of a
    // long-lived simulator) sees. It is checked but not timed.
    runRound(false);
    untraced.front().warmup = true;
    // Peak RSS after the warm-up and one timed round: later rounds may
    // grow the heap a little, and how many fit depends on host speed.
    double rss = 0;
    const std::size_t minRounds = a.trace ? 3 : 4;
    while (untraced.size() < minRounds || elapsed() < a.seconds) {
        runRound(false);
        if (untraced.size() == 2)
            rss = peakRssMb();
        if (a.trace)
            runRound(true);
    }
    if (!a.trace)
        runRound(true); // digest check only
    double deviceNs = 0;
    if (a.trace) {
        std::vector<double> v;
        for (unsigned i = 0; i < 3; i++)
            v.push_back(probeDevice(untraced.front().queuePairs,
                                    untraced.front().readPct, a.seed + i));
        deviceNs = median(v);
    }

    // Correctness: every round's own checks, op balance, one digest.
    const std::uint64_t digest = untraced.front().digest;
    std::uint64_t attempted = 0, failed = 0;
    std::string firstError;
    for (const std::vector<Round> *set : {&untraced, &traced})
        for (const Round &r : *set) {
            failures.insert(failures.end(), r.failures.begin(),
                            r.failures.end());
            if (r.io.issued != r.io.completed + r.io.failed)
                failures.push_back(sim::strf(
                    "%llu ops never completed",
                    static_cast<unsigned long long>(
                        r.io.issued - r.io.completed - r.io.failed)));
            if (r.digest != digest)
                failures.push_back(sim::strf(
                    "%s round digest %016llx != %016llx",
                    r.traced ? "traced" : "untraced",
                    static_cast<unsigned long long>(r.digest),
                    static_cast<unsigned long long>(digest)));
            if (firstError.empty())
                firstError = r.io.firstError;
            if (!r.traced) {
                attempted += r.io.issued;
                failed += r.io.failed;
            }
        }

    std::printf("rounds: 1 warm-up, %zu untraced, %zu traced; digest "
                "%016llx\n",
                untraced.size() - 1, traced.size(),
                static_cast<unsigned long long>(digest));
    const Round &r0 = untraced.front();
    std::printf("per round: %llu data ops, %llu blocks checked against "
                "the shadow; window samples: reads %zu, writes %zu, fsyncs "
                "%llu\n",
                static_cast<unsigned long long>(r0.io.dataOps),
                static_cast<unsigned long long>(r0.dataChecks),
                r0.io.readNs.size(), r0.io.writeNs.size(),
                static_cast<unsigned long long>(r0.io.fsyncs));
    if (!firstError.empty())
        std::printf("note: first failed op: %s\n", firstError.c_str());
    const Report e2e = endToEnd(untraced, rss);
    printReport("end-to-end (tracing off):", e2e);
    Report layers;
    if (a.trace) {
        layers = perLayer(untraced, traced, a.wl->fleet ? &check : nullptr,
                          deviceNs);
        printReport("per-layer (counts untraced; sim ns, host calls and "
                    "probes traced):",
                    layers);
        if (!a.spansOut.empty())
            writeSpans(a.spansOut, traced.front());
    }
    for (const std::string &f : failures)
        std::printf("CHECK FAILED: %s\n", f.c_str());
    std::printf("checks: %s (data shadow, op balance, tenant sums, traced "
                "== untraced digest%s)\n",
                failures.empty() ? "pass" : "FAIL",
                a.wl->fleet ? ", 1 vs N shard digest" : "");

    const bool correct = failures.empty();
    auto listed = [](const std::vector<std::string> &names,
                     const std::string &n) {
        return std::find(names.begin(), names.end(), n) != names.end();
    };
    if (a.trace)
        printJson(correct, attempted, failed, layers,
                  [&](const std::string &n) {
                      return !listed(kReportOnly, n);
                  });
    else
        printJson(correct, attempted, failed, e2e,
                  [&](const std::string &n) {
                      return listed(kEndToEndJson, n);
                  });
    return correct ? 0 : 1;
}

} // namespace
} // namespace pb

int
main(int argc, char **argv)
{
    // The simulated block store calloc()s 2 MiB extents and relies on
    // fresh zero pages so a sparse write materialises only the pages it
    // dirties. glibc's dynamic mmap threshold would, after the first
    // extent is freed, serve later extents from the heap and memset
    // them whole, so memory and host time would depend on allocator
    // history (earlier rounds). A fixed threshold keeps every round
    // alike.
    mallopt(M_MMAP_THRESHOLD, 1 << 20);
    return pb::run(argc, argv);
}
