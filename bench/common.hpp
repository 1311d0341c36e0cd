/**
 * @file
 * Shared helpers for the bench binaries: the one command-line parser
 * (Cli), trace/metrics capture, aligned table printing, and
 * system/job construction shortcuts.
 */

#ifndef BPD_BENCH_COMMON_HPP
#define BPD_BENCH_COMMON_HPP

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_json.hpp"
#include "obs/export.hpp"
#include "obs/replay.hpp"
#include "sim/hash.hpp"
#include "sim/logging.hpp"
#include "sim/sim_executor.hpp"
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
            stream().beginProcess(label);
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
            if (!tracePath.empty())
                traces.push_back(
                    {label, s.tracer()->data(), std::move(meta)});
        }
        runs.push_back(obs::MetricsRun{label, s.metrics.snapshot()});
    }

    /**
     * Snapshot a run with no System (fig5, table4 drive a bare IOMMU):
     * tracer @p tr recorded events of @p eq into registry @p reg. The
     * tracer retained its spans (nothing attached a stream to it), so
     * --trace-stream gets them here as one process.
     */
    void
    captureStandalone(const std::string &label, const obs::Tracer &tr,
                      const sim::EventQueue &eq,
                      const obs::MetricsRegistry &reg)
    {
        obs::ReplayMeta meta;
        meta.digest = obs::replayDigest(tr.data().replay);
        meta.events = eq.executed();
        meta.simNs = eq.now();
        if (!streamPath.empty()) {
            stream().beginProcess(label);
            for (const obs::SpanRec &rec : tr.data().spans)
                stream_->onSpan(rec, tr.data().tracks);
            stream_->endProcess(tr.data(), &meta);
        }
        if (!tracePath.empty())
            traces.push_back({label, tr.data(), std::move(meta)});
        runs.push_back(obs::MetricsRun{label, reg.snapshot()});
    }

    /** Write the requested output files; false on I/O error. */
    bool
    write()
    {
        bool ok = true;
        auto report = [&ok](bool written, const std::string &path) {
            if (written)
                std::printf("wrote %s\n", path.c_str());
            else
                std::fprintf(stderr, "error writing %s\n", path.c_str());
            ok &= written;
        };
        if (!tracePath.empty()) {
            std::vector<obs::TraceProcess> procs;
            procs.reserve(traces.size());
            for (const auto &c : traces)
                procs.push_back(
                    obs::TraceProcess{c.label, &c.data, &c.meta});
            report(obs::writeChromeTraceFile(tracePath, procs), tracePath);
        }
        if (stream_) {
            report(stream_->close(), streamPath);
            stream_.reset();
        }
        if (!metricsPath.empty())
            report(obs::writeMetricsFile(metricsPath, runs), metricsPath);
        return ok;
    }

  private:
    /** The --trace-stream writer, opened on first use. */
    obs::StreamingTraceWriter &
    stream()
    {
        if (!stream_) {
            stream_ = std::make_unique<obs::StreamingTraceWriter>();
            sim::panicIf(!stream_->open(streamPath),
                         "cannot open --trace-stream file");
        }
        return *stream_;
    }

    std::unique_ptr<obs::StreamingTraceWriter> stream_;
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

/**
 * Run one fio job on a fresh system, captured as @p label when @p obs
 * is given. Tenant attribution is always on: it only observes the
 * simulation (digests are unchanged), fills FioResult::tenants, and
 * makes every run a sum-invariant check.
 */
inline wl::FioResult
runFio(const wl::FioJob &job, sys::SystemConfig cfg = {},
       ObsCapture *obs = nullptr, const std::string &label = "run")
{
    sim::setVerbose(false);
    if (cfg.deviceBytes == (sys::SystemConfig{}).deviceBytes)
        cfg.deviceBytes = 64ull << 30;
    sys::System s(cfg);
    if (obs)
        obs->attach(s, label);
    s.enableTenantAccounting();
    wl::FioRunner runner(s);
    wl::FioResult res = runner.run(job);
    checkTenantSums(s);
    if (obs)
        obs->capture(label, s);
    return res;
}

/**
 * Executor fields of a scenario run under a sim::SimExecutor: shards,
 * domains, lookahead_ns (0 = unbounded), windows, messages, the summed
 * barrier_stall_sec and shard_<i>_events. perf_report diffs windows
 * and messages (virtual-time quantities) and skips the rest, which
 * depend on placement and on the host.
 */
inline void
execFields(BenchJson::Scenario &sc, const sim::SimExecutor &ex)
{
    BenchJson::field(sc, "shards", ex.shardCount());
    BenchJson::field(sc, "domains", ex.domainCount());
    BenchJson::field(sc, "lookahead_ns",
                     ex.lookahead() == sim::kNever ? 0 : ex.lookahead());
    BenchJson::field(sc, "windows", ex.windows());
    BenchJson::field(sc, "messages", ex.delivered());
    double stall = 0;
    for (unsigned s = 0; s < ex.shardCount(); s++)
        stall += ex.shardStallSec(s);
    BenchJson::fieldF(sc, "barrier_stall_sec", stall, 6);
    for (unsigned s = 0; s < ex.shardCount(); s++)
        BenchJson::field(sc, sim::strf("shard_%u_events", s),
                         ex.shardEvents(s));
}

/** Command-line flags a bench binary may accept. */
enum CliFlag : unsigned
{
    kQuick = 1u << 0,       //!< --quick: the short geometry
    kShards = 1u << 1,      //!< --shards N: executor shard count (>= 1)
    kLabel = 1u << 2,       //!< --label NAME: bench-v1 "label"
    kOut = 1u << 3,         //!< --out FILE: bench-v1 JSON
    kTrace = 1u << 4,       //!< --trace FILE: retained Perfetto trace
    kTraceStream = 1u << 5, //!< --trace-stream FILE: streamed trace
    kMetrics = 1u << 6,     //!< --metrics FILE: metrics JSON
    kTraceLevel = 1u << 7,  //!< --trace-level N: 1 requests .. 3 device
};

/** The paper figure and table benches: capture flags only. */
constexpr unsigned kObsFlags = kTrace | kTraceStream | kMetrics | kTraceLevel;
/** Figure benches that also write bench-v1 JSON (fig10/11/12). */
constexpr unsigned kOutFlags = kOut | kObsFlags;
/**
 * The geometry benches (perf_harness, fabric_fio, fabric_incast,
 * fleet_devices). --trace-stream is refused: they trace several
 * machines from parallel shard threads, and the streaming writer is
 * single-threaded (DESIGN.md §12).
 */
constexpr unsigned kFleetFlags
    = kQuick | kShards | kLabel | kOut | kTrace | kMetrics | kTraceLevel;

/**
 * The one command-line parser of the bench binaries. Each binary names
 * the flag set it accepts (plus, optionally, one switch of its own);
 * parse() fills the fields and the ObsCapture, and finish() writes
 * --out and the capture files and yields the exit status.
 */
class Cli
{
  public:
    /**
     * @p label is the bench-v1 label when --label is not accepted or
     * not given; @p ownSwitch names a binary-specific boolean switch
     * (read back through ownSwitchSet).
     */
    Cli(std::string name, unsigned flags, std::string label = "local",
        std::string ownSwitch = "")
        : label(std::move(label)), name_(std::move(name)), flags_(flags),
          ownSwitch_(std::move(ownSwitch))
    {
    }

    bool quick = false;
    unsigned shards = 1;
    std::string label;
    std::string out;
    bool ownSwitchSet = false;
    ObsCapture obs;

    /** "usage: NAME [--flag ARG] ..." listing exactly what is accepted. */
    std::string
    usage() const
    {
        std::string u = "usage: " + name_;
        for (const Spec &sp : kSpecs) {
            if (!accepts(sp.flag))
                continue;
            u += std::string(" [") + sp.name;
            if (sp.arg)
                u += std::string(" ") + sp.arg;
            u += "]";
        }
        if (!ownSwitch_.empty())
            u += " [" + ownSwitch_ + "]";
        return u;
    }

    /**
     * Parse argv. Returns 0 on success, or 2 after printing why to
     * stderr: an unknown flag, a missing value, --shards below 1, or
     * --trace-stream on a binary that cannot stream.
     */
    int
    parse(int argc, char **argv)
    {
        for (int i = 1; i < argc; i++) {
            const std::string a = argv[i];
            if (!ownSwitch_.empty() && a == ownSwitch_) {
                ownSwitchSet = true;
                continue;
            }
            const Spec *sp = find(a);
            if (sp && sp->flag == kTraceStream && !accepts(kTraceStream)) {
                std::fprintf(stderr,
                             "%s: --trace-stream is not supported: this "
                             "bench traces several machines from "
                             "parallel shard threads and the streaming "
                             "writer is single-threaded. Use --trace "
                             "(retained per-system capture) instead.\n",
                             name_.c_str());
                return 2;
            }
            if (!sp || !accepts(sp->flag))
                return refuse("unknown option '" + a + "'");
            if (!sp->arg) {
                quick = true;
                continue;
            }
            if (i + 1 >= argc)
                return refuse("missing value for " + a);
            const char *v = argv[++i];
            switch (sp->flag) {
            case kShards: {
                const int n = std::atoi(v);
                if (n < 1) {
                    std::fprintf(stderr, "%s: --shards must be >= 1\n",
                                 name_.c_str());
                    return 2;
                }
                shards = static_cast<unsigned>(n);
                break;
            }
            case kLabel:
                label = v;
                break;
            case kOut:
                out = v;
                break;
            case kTrace:
                obs.tracePath = v;
                break;
            case kTraceStream:
                obs.streamPath = v;
                break;
            case kMetrics:
                obs.metricsPath = v;
                break;
            default: { // kTraceLevel
                const int n = std::atoi(v);
                obs.level = n <= 1 ? obs::Level::Requests
                                   : (n == 2 ? obs::Level::Layers
                                             : obs::Level::Device);
                break;
            }
            }
        }
        return 0;
    }

    /** Write the capture files; exit status 0 iff @p ok and no I/O error. */
    int
    finish(bool ok = true)
    {
        return obs.write() && ok ? 0 : 1;
    }

    /**
     * Write --out (when given) and the capture files. Benches without
     * --quick have a single, short geometry and report it as quick.
     */
    int
    finish(const BenchJson &json, bool ok = true)
    {
        bool io = true;
        if (!out.empty())
            io = json.write(out, label, quick || !accepts(kQuick),
                            peakRssBytes());
        return finish(io && ok);
    }

  private:
    bool accepts(unsigned flag) const { return (flags_ & flag) == flag; }

    struct Spec
    {
        CliFlag flag;
        const char *name;
        const char *arg; //!< value placeholder; null for a switch
    };
    static constexpr Spec kSpecs[] = {
        {kQuick, "--quick", nullptr},
        {kShards, "--shards", "N"},
        {kLabel, "--label", "NAME"},
        {kOut, "--out", "FILE"},
        {kTrace, "--trace", "FILE"},
        {kTraceStream, "--trace-stream", "FILE"},
        {kMetrics, "--metrics", "FILE"},
        {kTraceLevel, "--trace-level", "N"},
    };

    static const Spec *
    find(const std::string &a)
    {
        for (const Spec &sp : kSpecs)
            if (a == sp.name)
                return &sp;
        return nullptr;
    }

    int
    refuse(const std::string &why) const
    {
        std::fprintf(stderr, "%s: %s\n%s\n", name_.c_str(), why.c_str(),
                     usage().c_str());
        return 2;
    }

    std::string name_;
    unsigned flags_;
    std::string ownSwitch_;
};

} // namespace bpd::bench

#endif // BPD_BENCH_COMMON_HPP
