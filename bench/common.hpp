/**
 * @file
 * Shared helpers for the per-figure/table benchmark binaries: aligned
 * table printing and system/job construction shortcuts.
 */

#ifndef BPD_BENCH_COMMON_HPP
#define BPD_BENCH_COMMON_HPP

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "obs/export.hpp"
#include "obs/replay.hpp"
#include "sim/hash.hpp"
#include "sim/logging.hpp"
#include "sim/stats.hpp"
#include "system/system.hpp"
#include "workloads/fio.hpp"

namespace bpd::bench {

using sim::fnv;
using sim::kFnvSeed;

/** Fold a latency histogram's shape into scenario digest @p h. */
inline std::uint64_t
hashHistogram(std::uint64_t h, const sim::Histogram &hist)
{
    h = fnv(h, hist.count());
    h = fnv(h, hist.min());
    h = fnv(h, hist.max());
    h = fnv(h, hist.p50());
    h = fnv(h, hist.p99());
    h = fnv(h, hist.p999());
    return h;
}

/** Print a banner naming the experiment and the paper artifact. */
inline void
banner(const std::string &id, const std::string &what)
{
    std::printf("\n==============================================================\n");
    std::printf("%s — %s\n", id.c_str(), what.c_str());
    std::printf("==============================================================\n");
}

/** Print one row of right-aligned cells after a left label. */
inline void
row(const std::string &label, const std::vector<std::string> &cells,
    int labelWidth = 22, int cellWidth = 11)
{
    std::printf("%-*s", labelWidth, label.c_str());
    for (const auto &c : cells)
        std::printf("%*s", cellWidth, c.c_str());
    std::printf("\n");
}

inline std::string
fmt(const char *f, double v)
{
    return sim::strf(f, v);
}

/** Fresh default system (quiet). */
inline std::unique_ptr<sys::System>
makeSystem(std::uint64_t deviceBytes = 32ull << 30,
           std::uint64_t seed = 42)
{
    sim::setVerbose(false);
    sys::SystemConfig cfg;
    cfg.deviceBytes = deviceBytes;
    cfg.seed = seed;
    return std::make_unique<sys::System>(cfg);
}

/** Run one fio job on a fresh system. */
inline wl::FioResult
runFio(const wl::FioJob &job, sys::SystemConfig cfg = {})
{
    sim::setVerbose(false);
    if (cfg.deviceBytes == (sys::SystemConfig{}).deviceBytes)
        cfg.deviceBytes = 64ull << 30;
    sys::System s(cfg);
    wl::FioRunner runner(s);
    return runner.run(job);
}

/**
 * Shared --trace/--metrics plumbing for the bench binaries. Each traced
 * run (a System lifetime) is captured as one Perfetto process; all
 * captures merge into a single trace file and one metrics document.
 * --trace-stream writes the same file format incrementally through
 * obs::StreamingTraceWriter, so span storage never accumulates in RSS.
 *
 * Any capture also turns on per-tenant attribution: tenant accounting
 * only observes the simulation (digests are unchanged), and enabling it
 * on every traced run means the CI traced-vs-untraced digest gate
 * doubles as the accounting-on/off neutrality gate.
 */
struct ObsCapture
{
    std::string tracePath;
    std::string streamPath;
    std::string metricsPath;
    obs::Level level = obs::Level::Device;

    struct Capture
    {
        std::string label;
        obs::TraceData data;
        obs::ReplayMeta meta;
    };
    std::vector<Capture> traces;
    std::vector<obs::MetricsRun> runs;

    bool enabled() const
    {
        return !tracePath.empty() || !streamPath.empty()
               || !metricsPath.empty();
    }

    /**
     * Consume "--trace FILE", "--trace-stream FILE", "--metrics FILE"
     * or "--trace-level N" at argv[i]. Returns how many argv slots
     * were consumed (0 when the argument is not one of ours).
     */
    int
    parseArg(int argc, char **argv, int i)
    {
        const std::string a = argv[i];
        if (a == "--trace" && i + 1 < argc) {
            tracePath = argv[i + 1];
            return 2;
        }
        if (a == "--trace-stream" && i + 1 < argc) {
            streamPath = argv[i + 1];
            return 2;
        }
        if (a == "--metrics" && i + 1 < argc) {
            metricsPath = argv[i + 1];
            return 2;
        }
        if (a == "--trace-level" && i + 1 < argc) {
            const int v = std::atoi(argv[i + 1]);
            level = v <= 1 ? obs::Level::Requests
                           : (v == 2 ? obs::Level::Layers
                                     : obs::Level::Device);
            return 2;
        }
        return 0;
    }

    /**
     * Enable tracing + tenant accounting on @p s when capture was
     * requested. @p label names the streamed Perfetto process; it
     * should match the label later passed to capture().
     */
    void
    attach(sys::System &s, const std::string &label = "run")
    {
        if (!enabled())
            return;
        obs::Tracer &t = s.enableTracing(level);
        s.enableTenantAccounting();
        if (!streamPath.empty()) {
            if (!stream_) {
                stream_ = std::make_unique<obs::StreamingTraceWriter>();
                sim::panicIf(!stream_->open(streamPath),
                             "cannot open --trace-stream file");
            }
            stream_->beginProcess(label);
            t.setStream(stream_.get());
        }
    }

    /** Snapshot @p s's trace and metrics under the run label. */
    void
    capture(const std::string &label, sys::System &s)
    {
        if (!enabled())
            return;
        s.collectMetrics();
        if (s.tracer()) {
            obs::ReplayMeta meta;
            meta.config = obs::configToMap(s.cfg);
            meta.counters = obs::curatedCounters(s);
            meta.digest = obs::replayDigest(s.tracer()->data().replay);
            meta.events = s.eq.executed();
            meta.simNs = s.now();
            if (stream_) {
                s.tracer()->setStream(nullptr);
                stream_->endProcess(s.tracer()->data(), &meta);
            }
            if (!tracePath.empty()) {
                Capture c;
                c.label = label;
                c.data = s.tracer()->data();
                c.meta = std::move(meta);
                traces.push_back(std::move(c));
            }
        }
        runs.push_back(obs::MetricsRun{label, s.metrics.snapshot()});
    }

    /** Write the requested output files; false on I/O error. */
    bool
    write()
    {
        bool ok = true;
        if (!tracePath.empty()) {
            std::vector<obs::TraceProcess> procs;
            procs.reserve(traces.size());
            for (const auto &c : traces)
                procs.push_back(
                    obs::TraceProcess{c.label, &c.data, &c.meta});
            if (obs::writeChromeTraceFile(tracePath, procs))
                std::printf("wrote %s\n", tracePath.c_str());
            else
                ok = false;
        }
        if (stream_) {
            if (stream_->close())
                std::printf("wrote %s\n", streamPath.c_str());
            else
                ok = false;
            stream_.reset();
        }
        if (!metricsPath.empty()) {
            if (obs::writeMetricsFile(metricsPath, runs))
                std::printf("wrote %s\n", metricsPath.c_str());
            else
                ok = false;
        }
        return ok;
    }

  private:
    std::unique_ptr<obs::StreamingTraceWriter> stream_;
};

/**
 * Minimal "bypassd-bench-v1" emitter for the figure benches (--out).
 * Each scenario is a flat object of raw JSON tokens — the same schema
 * perf_harness writes — so tools/perf_report can diff any two files,
 * including the per-tenant keys.
 */
struct BenchJson
{
    struct Scenario
    {
        std::string name;
        std::vector<std::pair<std::string, std::string>> fields;
    };
    std::vector<Scenario> scenarios;

    Scenario &
    add(const std::string &name)
    {
        scenarios.push_back({name, {}});
        return scenarios.back();
    }

    static void
    field(Scenario &sc, const std::string &k, std::uint64_t v)
    {
        sc.fields.emplace_back(
            k, sim::strf("%llu", static_cast<unsigned long long>(v)));
    }

    static void
    fieldF(Scenario &sc, const std::string &k, double v)
    {
        sc.fields.emplace_back(k, sim::strf("%.3f", v));
    }

    /** Quoted string field (e.g. a digest printed as hex). */
    static void
    fieldS(Scenario &sc, const std::string &k, const std::string &v)
    {
        sc.fields.emplace_back(k, "\"" + v + "\"");
    }

    bool
    write(const std::string &path, const std::string &label,
          bool quick = true, unsigned hostCpus = 0) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return false;
        }
        std::fprintf(f, "{\n  \"schema\": \"bypassd-bench-v1\",\n");
        std::fprintf(f, "  \"label\": \"%s\",\n", label.c_str());
        std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
        if (hostCpus)
            std::fprintf(f, "  \"host_cpus\": %u,\n", hostCpus);
        // Real peak RSS so perf_report's --max-rss-growth budget bites
        // on the figure benches, not just on perf_harness.
        std::uint64_t peakRss = 0;
        struct rusage ru
        {
        };
        if (getrusage(RUSAGE_SELF, &ru) == 0 && ru.ru_maxrss > 0)
            peakRss = static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
        std::fprintf(f, "  \"peak_rss_bytes\": %llu,\n",
                     static_cast<unsigned long long>(peakRss));
        std::fprintf(f, "  \"scenarios\": [\n");
        for (std::size_t i = 0; i < scenarios.size(); i++) {
            const Scenario &sc = scenarios[i];
            std::fprintf(f, "    {\n      \"name\": \"%s\"",
                         sc.name.c_str());
            for (const auto &[k, v] : sc.fields)
                std::fprintf(f, ",\n      \"%s\": %s", k.c_str(),
                             v.c_str());
            std::fprintf(f, "\n    }%s\n",
                         i + 1 < scenarios.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
        std::printf("wrote %s\n", path.c_str());
        return true;
    }
};

/**
 * Append tenant.<id>.{ssd_ops,iops,fmaps,revocations} fields from the
 * system's tenant accounting; @p measuredSec is the simulated seconds
 * the iops rate is computed over. No-op while accounting is off.
 */
inline void
tenantFields(BenchJson::Scenario &sc, sys::System &s, double measuredSec)
{
    s.tenantAccounting().forEach(
        [&](TenantId id, const obs::TenantCounters &tc) {
            const std::string p = sim::strf("tenant.%u.", id);
            BenchJson::field(sc, p + "ssd_ops", tc.ssdOps);
            BenchJson::fieldF(sc, p + "iops",
                              measuredSec > 0
                                  ? static_cast<double>(tc.ssdOps)
                                        / measuredSec
                                  : 0.0);
            BenchJson::field(sc, p + "fmaps",
                             tc.bypassdColdFmaps + tc.bypassdWarmFmaps);
            BenchJson::field(sc, p + "revocations",
                             tc.bypassdRevokedVictims);
        });
}

/** Abort unless sum-over-tenants == system totals (the fairness gate). */
inline void
checkTenantSums(sys::System &s)
{
    const std::string err = s.verifyTenantSums();
    sim::panicIf(!err.empty(), "tenant attribution broken: " + err);
}

/** runFio under an ObsCapture: trace/metrics captured as @p label. */
inline wl::FioResult
runFio(const wl::FioJob &job, sys::SystemConfig cfg, ObsCapture &obs,
       const std::string &label)
{
    sim::setVerbose(false);
    if (cfg.deviceBytes == (sys::SystemConfig{}).deviceBytes)
        cfg.deviceBytes = 64ull << 30;
    sys::System s(cfg);
    obs.attach(s, label);
    // Attribution is digest-neutral and fills FioResult::tenants, and
    // every captured bench run doubles as a sum-invariant check.
    s.enableTenantAccounting();
    wl::FioRunner runner(s);
    wl::FioResult res = runner.run(job);
    checkTenantSums(s);
    obs.capture(label, s);
    return res;
}

} // namespace bpd::bench

#endif // BPD_BENCH_COMMON_HPP
