/**
 * @file
 * Wall-clock performance harness for the simulator itself.
 *
 * Runs three representative macro scenarios (a fig9-style 24-thread
 * random-read sweep cell, a fig13-style WiredTiger YCSB-A run, and the
 * fig12 revocation timeline) and reports, per scenario:
 *
 *  - events executed and simulated nanoseconds covered,
 *  - host wall-clock seconds and events/second (the headline number),
 *  - host minor page faults and system CPU seconds, getrusage deltas
 *    around the whole scenario over every thread of the process (the
 *    simulator's own kernel cost, invisible to user-space timers),
 *  - a 64-bit FNV-1a digest of the *simulated* outputs (ops, latency
 *    percentiles, timeline buckets, ...) which must be bit-identical
 *    across purely host-side optimizations (invariant 9).
 *
 * Output is a JSON document (schema "bypassd-bench-v1", documented in
 * README.md). Compare two runs with tools/perf_report, which also emits
 * the merged BENCH_PR.json trajectory file.
 *
 * With --trace/--metrics the scenarios run with the obs tracer enabled
 * and a Perfetto-loadable trace / metrics JSON is written alongside.
 * Tracing is semantically transparent: the digests must stay
 * bit-identical with or without it (tools/perf_report enforces this in
 * CI). Per-scenario metric counters (IOTLB hit/miss, page walks,
 * journal commits, ...) are embedded flat in each scenario object so
 * perf_report can diff them between runs.
 *
 * --shards N runs every scenario under the conservative-window sharded
 * executor (src/sim/sim_executor.hpp). The three single-machine
 * scenarios are one domain each — same event order, so their digests
 * are bit-identical at any shard count (CI asserts this); the fleet
 * scenario spreads its machines across the shards and is where the
 * wall-clock speedup comes from. --shards 1 is the plain
 * single-threaded path, byte-for-byte.
 *
 * Usage: perf_harness [--quick] [--shards N] [--label NAME] [--out FILE]
 *                     [--trace FILE] [--metrics FILE] [--trace-level N]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "apps/wiredtiger.hpp"
#include "bench/common.hpp"
#include "bench/recording.hpp"
#include "sim/sim_executor.hpp"
#include "system/fleet.hpp"
#include "workloads/fio.hpp"

using namespace bpd;

namespace {

using bench::hashHistogram;
using sim::fnv;
using sim::fnvDouble;
using sim::kFnvSeed;

struct ScenarioResult
{
    std::string name;
    std::uint64_t events = 0;   //!< simulator events executed
    Time simNs = 0;             //!< virtual time covered
    double wallSec = 0;         //!< host wall-clock
    std::uint64_t digest = 0;   //!< FNV-1a of simulated outputs
    double metric = 0;          //!< scenario-native throughput metric
    std::string metricName;
    /** Host kernel cost of the whole scenario (setup included, every
     *  thread of the process): minor page faults and system CPU s. */
    long hostMinorFaults = 0;
    double hostSysSec = 0;

    /** Key simulated counters, embedded flat in the scenario JSON so
     *  tools/perf_report can diff them between runs. */
    struct Counters
    {
        std::uint64_t iotlbHits = 0;
        std::uint64_t iotlbMisses = 0;
        std::uint64_t walkCacheMisses = 0;
        std::uint64_t pageWalkFrames = 0;
        std::uint64_t journalCommits = 0;
        std::uint64_t syscalls = 0;
        std::uint64_t vbaTranslations = 0;
        std::uint64_t deviceOps = 0;
    } counters;

    /** Sharded-executor stats (present when run under an executor). */
    unsigned shards = 1;
    bool sharded = false;
    std::uint64_t domains = 0;
    Time lookaheadNs = 0; //!< 0 encodes "unbounded" (no channels)
    std::uint64_t windows = 0;
    std::uint64_t messages = 0;
    double barrierStallSec = 0;
    std::vector<std::uint64_t> shardEvents;

    double
    eventsPerSec() const
    {
        return wallSec > 0 ? static_cast<double>(events) / wallSec : 0;
    }
};

/** Accumulate @p s's counters into @p r (fleets sum their machines). */
void
fillCounters(ScenarioResult &r, sys::System &s)
{
    r.counters.iotlbHits += s.iommu.iotlb().hits();
    r.counters.iotlbMisses += s.iommu.iotlb().misses();
    r.counters.walkCacheMisses += s.iommu.walkCache().misses();
    r.counters.pageWalkFrames += s.iommu.framesRead();
    r.counters.journalCommits += s.ext4.journal().committedTxns();
    r.counters.syscalls += s.kernel.syscallCount();
    r.counters.vbaTranslations += s.iommu.vbaTranslations();
    r.counters.deviceOps += s.dev.totalOps();
}

void
fillShardStats(ScenarioResult &r, const sim::SimExecutor &ex)
{
    r.sharded = true;
    r.shards = ex.shardCount();
    r.domains = ex.domainCount();
    r.lookaheadNs = ex.lookahead() == sim::kNever ? 0 : ex.lookahead();
    r.windows = ex.windows();
    r.messages = ex.delivered();
    r.barrierStallSec = 0;
    r.shardEvents.clear();
    for (unsigned s = 0; s < ex.shardCount(); s++) {
        r.barrierStallSec += ex.shardStallSec(s);
        r.shardEvents.push_back(ex.shardEvents(s));
    }
}

/**
 * Route a single-machine scenario through the executor when --shards
 * asks for one: the machine is one domain, so execution is the plain
 * event loop with barrier bookkeeping around it — digests must not
 * move. Returns null at --shards 1, keeping the exact baseline path.
 */
std::unique_ptr<sim::SimExecutor>
bindSingle(sys::System &s, unsigned shards, const std::string &label)
{
    if (shards <= 1)
        return nullptr;
    auto ex = std::make_unique<sim::SimExecutor>(shards);
    const std::uint32_t dom = ex->addDomain(s.eq, 0, label);
    s.bindExecutor(ex.get(), dom);
    return ex;
}

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Fig. 9 cell: 24 threads of 4 KiB BypassD random reads. */
ScenarioResult
runFig9Randread(bool quick, unsigned shards, bench::ObsCapture &obs)
{
    ScenarioResult r;
    r.name = "fig9_randread_24t";
    r.metricName = "iops";

    sim::setVerbose(false);
    sys::SystemConfig cfg;
    cfg.deviceBytes = 16ull << 30;
    sys::System s(cfg);
    obs.attach(s, r.name);
    auto ex = bindSingle(s, shards, r.name);

    wl::FioJob job;
    job.engine = wl::Engine::Bypassd;
    job.rw = wl::RwMode::RandRead;
    job.bs = 4096;
    job.numJobs = 24;
    job.runtime = (quick ? 10 : 60) * kMs;
    job.warmup = 1 * kMs;
    job.fileBytes = 256ull << 20;

    const double t0 = wallNow();
    wl::FioRunner runner(s);
    const wl::FioResult res = runner.run(job);
    r.wallSec = wallNow() - t0;

    r.events = s.eq.executed();
    r.simNs = s.now();
    r.metric = res.iops();

    std::uint64_t h = kFnvSeed;
    h = fnv(h, res.ops);
    h = fnv(h, res.bytes);
    h = fnv(h, res.elapsed);
    h = hashHistogram(h, res.latency);
    h = fnv(h, s.now());
    h = fnv(h, s.eq.executed());
    r.digest = h;
    fillCounters(r, s);
    if (ex)
        fillShardStats(r, *ex);
    bench::checkTenantSums(s);
    obs.capture(r.name, s);
    return r;
}

/** Fig. 13 cell: WiredTiger YCSB-A, 16 threads, BypassD engine. */
ScenarioResult
runFig13WiredTiger(bool quick, unsigned shards, bench::ObsCapture &obs)
{
    ScenarioResult r;
    r.name = "fig13_wiredtiger_ycsba";
    r.metricName = "kops";

    auto s = bench::makeSystem(16ull << 30);
    obs.attach(*s, r.name);
    auto ex = bindSingle(*s, shards, r.name);
    apps::WiredTigerConfig cfg;
    cfg.records = 4'000'000;
    cfg.cacheBytes = 28ull << 20;
    cfg.engine = apps::WtEngine::Bypassd;
    apps::WiredTigerModel wt(*s, cfg);

    const double t0 = wallNow();
    wt.setup();
    const unsigned threads = 16;
    wt.run(wl::Ycsb::A, threads, 4000 / threads); // cache warmup
    const auto res
        = wt.run(wl::Ycsb::A, threads, quick ? 800 : 2500);
    r.wallSec = wallNow() - t0;

    r.events = s->eq.executed();
    r.simNs = s->now();
    r.metric = res.kops;

    std::uint64_t h = kFnvSeed;
    h = fnv(h, res.ops);
    h = fnv(h, res.deviceIos);
    h = fnv(h, res.elapsed);
    h = hashHistogram(h, res.latency);
    h = fnv(h, s->now());
    h = fnv(h, s->eq.executed());
    r.digest = h;
    fillCounters(r, *s);
    if (ex)
        fillShardStats(r, *ex);
    bench::checkTenantSums(*s);
    obs.capture(r.name, *s);
    return r;
}

/** Fig. 12: BypassD reader with kernel revocation mid-run. */
ScenarioResult
runFig12Revocation(bool quick, unsigned shards, bench::ObsCapture &obs)
{
    ScenarioResult r;
    r.name = "fig12_revocation";
    r.metricName = "mb_per_s";

    auto s = bench::makeSystem(16ull << 30);
    obs.attach(*s, r.name);
    auto ex = bindSingle(*s, shards, r.name);
    bench::Recorder rec(*s);
    kern::Process &reader = s->newProcess(1000, 1000);
    const std::uint32_t sharedDb = rec.file("/shared.db");
    const int cfd = rec.createFile(reader, sharedDb, "/shared.db",
                                   1ull << 30, 0, wl::Engine::Bypassd);
    int rc = -1;
    rec.sysClose(reader, cfd, sharedDb, [&rc](int cr) { rc = cr; },
                 wl::Engine::Bypassd);
    s->run();

    bypassd::UserLib &lib = s->userLib(reader);
    int fd = -1;
    rec.open(lib, reader, sharedDb, "/shared.db",
             fs::kOpenRead | fs::kOpenDirect, [&fd](int f) { fd = f; });
    s->run();
    sim::panicIf(fd < 0 || !lib.isDirect(fd), "reader open failed");
    rec.prepareThread(lib, reader, 0);
    rec.cpuAcquire(reader, 1);

    const double t0 = wallNow();
    const Time horizon = (quick ? 2 : 8) * kSec;
    const Time revokeT = horizon / 2;
    const Time tEnd = s->now() + horizon;
    sim::TimeSeries throughput(250 * kMs);
    std::vector<std::uint8_t> buf(4096);
    sim::Rng rng(5);

    // Owned by this frame, which outlives s->run(); each completion
    // re-arms the loop through a reference.
    std::function<void()> loop;
    loop = [&]() {
        if (s->now() >= tEnd)
            return;
        const std::uint64_t off
            = rng.nextUint((1ull << 30) / 4096) * 4096;
        rec.pread(lib, reader, 0, fd, buf, off, 0, sharedDb,
                  [&](long long n, kern::IoTrace) {
                      if (n > 0)
                          throughput.record(s->now(),
                                            static_cast<double>(n));
                      loop();
                  });
    };
    loop();

    // The intruder's open fires at an absolute time while reads are in
    // flight, so it records on a numbered lane of its own process.
    kern::Process &intruder = s->newProcess(1000, 1000);
    Time revokeAt = 0;
    s->eq.schedule(revokeT, [&]() {
        rec.sysOpen(intruder, sharedDb, "/shared.db", fs::kOpenRead,
                    [&](int f) {
                        sim::panicIf(f < 0, "buffered open failed");
                        revokeAt = s->now();
                    },
                    /*lane=*/0);
    });

    s->run();
    rec.cpuRelease(reader, 1);
    r.wallSec = wallNow() - t0;

    r.events = s->eq.executed();
    r.simNs = s->now();

    double total = 0;
    std::uint64_t h = kFnvSeed;
    for (std::size_t b = 0; b < throughput.buckets(); b++) {
        h = fnvDouble(h, throughput.bucketSum(b));
        total += throughput.bucketSum(b);
    }
    h = fnv(h, revokeAt);
    h = fnv(h, lib.iommuFaults());
    h = fnv(h, s->module.revocations());
    h = fnv(h, s->now());
    h = fnv(h, s->eq.executed());
    r.digest = h;
    r.metric = total / 1e6
               / (static_cast<double>(horizon) / kSec); // MB/s
    fillCounters(r, *s);
    if (ex)
        fillShardStats(r, *ex);
    bench::checkTenantSums(*s);
    obs.capture(r.name, *s);
    return r;
}

/**
 * Fleet scenario: four machines, six BypassD random-read jobs each,
 * coupled to a controller by 25 us fabric beacons. This is the
 * scenario the sharded executor exists for — the machines are
 * independent between control-plane messages, so the conservative
 * window is tens of microseconds of virtual time and the shards run
 * thousands of events per barrier.
 *
 * Under --trace each machine is captured as its own retained-mode
 * Perfetto process (fleet_fio_4x6/sys<i>), merged deterministically by
 * ObsCapture::write. The streams are marked replay-unsupported: a
 * beacon-entangled multi-machine capture is not replayable as
 * independent single-machine streams — the replay would miss the
 * controller's events. --trace-stream is refused in main(): the
 * streaming writer is single-threaded and fleet spans are produced by
 * several shard threads. See DESIGN.md §12.
 */
ScenarioResult
runFleetFio(bool quick, unsigned shards, bench::ObsCapture &obs)
{
    ScenarioResult r;
    r.name = "fleet_fio_4x6";
    r.metricName = "iops";
    sim::setVerbose(false);

    sys::FleetConfig fc;
    fc.systems = 4;
    fc.shards = shards;
    fc.deviceBytes = 8ull << 30;
    fc.seed = 42;
    sys::Fleet fleet(fc);

    wl::FioJob job;
    job.engine = wl::Engine::Bypassd;
    job.rw = wl::RwMode::RandRead;
    job.bs = 4096;
    job.numJobs = 6;
    job.runtime = (quick ? 15 : 400) * kMs;
    job.warmup = 1 * kMs;
    job.fileBytes = 256ull << 20;

    for (unsigned i = 0; i < fleet.size(); i++) {
        sys::System &s = fleet.system(i);
        obs.attach(s, sim::strf("%s/sys%u", r.name.c_str(), i));
        if (s.tracer())
            s.tracer()->replayUnsupported(
                "fleet: beacon-entangled multi-machine capture");
    }

    const double t0 = wallNow();
    std::vector<std::unique_ptr<wl::FioRunner>> runners;
    std::vector<wl::FioPending> pending;
    Time horizon = 0;
    for (unsigned i = 0; i < fleet.size(); i++) {
        wl::FioJob j = job;
        j.seed = 1 + i;
        j.filePrefix = sim::strf("/fleet%u_f", i);
        runners.push_back(
            std::make_unique<wl::FioRunner>(fleet.system(i)));
        pending.push_back(runners.back()->arm(j));
        horizon = std::max(horizon, fleet.system(i).now() + j.warmup
                                        + j.runtime);
    }
    fleet.start(horizon);
    fleet.run();
    r.wallSec = wallNow() - t0;

    std::uint64_t h = kFnvSeed;
    double iops = 0;
    Time maxNow = 0;
    for (unsigned i = 0; i < fleet.size(); i++) {
        const wl::FioResult res
            = runners[i]->collect(std::move(pending[i]));
        sys::System &s = fleet.system(i);
        h = fnv(h, res.ops);
        h = fnv(h, res.bytes);
        h = fnv(h, res.elapsed);
        h = hashHistogram(h, res.latency);
        h = fnv(h, s.now());
        h = fnv(h, s.eq.executed());
        iops += res.iops();
        maxNow = std::max(maxNow, s.now());
        fillCounters(r, s);
        bench::checkTenantSums(s);
        obs.capture(sim::strf("%s/sys%u", r.name.c_str(), i), s);
    }
    h = fnv(h, fleet.controllerDigest());
    h = fnv(h, fleet.beacons());
    r.digest = h;
    r.events = fleet.totalEvents();
    r.simNs = maxNow;
    r.metric = iops;
    fillShardStats(r, fleet.executor());
    return r;
}

/** Process-wide minor faults and system CPU seconds so far. */
struct HostUsage
{
    long minorFaults;
    double sysSec;
};

HostUsage
hostUsage()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return {ru.ru_minflt, static_cast<double>(ru.ru_stime.tv_sec)
                              + static_cast<double>(ru.ru_stime.tv_usec)
                                    / 1e6};
}

std::uint64_t
peakRssBytes()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024; // Linux: KiB
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    unsigned shards = 1;
    std::string label = "local";
    std::string out;
    bench::ObsCapture obs;
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        if (a == "--quick") {
            quick = true;
        } else if (a == "--shards" && i + 1 < argc) {
            const int v = std::atoi(argv[++i]);
            if (v < 1) {
                std::fprintf(stderr, "perf_harness: --shards must be "
                                     ">= 1\n");
                return 2;
            }
            shards = static_cast<unsigned>(v);
        } else if (a == "--label" && i + 1 < argc) {
            label = argv[++i];
        } else if (a == "--out" && i + 1 < argc) {
            out = argv[++i];
        } else if (int used = obs.parseArg(argc, argv, i)) {
            i += used - 1;
        } else {
            std::fprintf(stderr,
                         "usage: perf_harness [--quick] [--shards N] "
                         "[--label NAME] "
                         "[--out FILE] [--trace FILE] [--metrics FILE] "
                         "[--trace-level N]\n");
            return 2;
        }
    }

    if (!obs.streamPath.empty()) {
        std::fprintf(stderr,
                     "perf_harness: --trace-stream is not supported: "
                     "the fleet scenario traces several machines whose "
                     "spans are produced by parallel shard threads, and "
                     "the streaming writer is single-threaded. Use "
                     "--trace (retained per-system capture) instead.\n");
        return 2;
    }

    bench::banner("perf_harness",
                  quick ? "simulator wall-clock scenarios (quick)"
                        : "simulator wall-clock scenarios");

    using RunFn = ScenarioResult (*)(bool, unsigned, bench::ObsCapture &);
    std::vector<ScenarioResult> results;
    for (RunFn run : {runFig9Randread, runFig13WiredTiger,
                      runFig12Revocation, runFleetFio}) {
        const HostUsage before = hostUsage();
        ScenarioResult r = run(quick, shards, obs);
        const HostUsage after = hostUsage();
        r.hostMinorFaults = after.minorFaults - before.minorFaults;
        r.hostSysSec = after.sysSec - before.sysSec;
        results.push_back(std::move(r));
    }

    std::printf("%-24s %12s %10s %14s %12s  %-16s %10s %8s\n",
                "scenario", "events", "wall(s)", "events/sec", "metric",
                "digest", "minflt", "sys(s)");
    for (const auto &r : results) {
        std::printf("%-24s %12llu %10.3f %14.0f %9.0f %s %016llx "
                    "%10ld %8.3f\n",
                    r.name.c_str(), (unsigned long long)r.events,
                    r.wallSec, r.eventsPerSec(), r.metric,
                    r.metricName.c_str(),
                    (unsigned long long)r.digest, r.hostMinorFaults,
                    r.hostSysSec);
    }
    std::printf("peak RSS: %.1f MB\n",
                static_cast<double>(peakRssBytes()) / (1 << 20));
    std::printf("shards: %u\n", shards);
    for (const auto &r : results) {
        if (!r.sharded)
            continue;
        std::printf("%-24s windows %llu, messages %llu, barrier stall "
                    "%.3fs\n",
                    r.name.c_str(), (unsigned long long)r.windows,
                    (unsigned long long)r.messages, r.barrierStallSec);
    }

    if (!out.empty()) {
        std::FILE *f = std::fopen(out.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot open %s\n", out.c_str());
            return 1;
        }
        std::fprintf(f, "{\n");
        std::fprintf(f, "  \"schema\": \"bypassd-bench-v1\",\n");
        std::fprintf(f, "  \"label\": \"%s\",\n", label.c_str());
        std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
        std::fprintf(f, "  \"peak_rss_bytes\": %llu,\n",
                     (unsigned long long)peakRssBytes());
        // Shard speedup is bounded by physical parallelism; record the
        // host's so scaling tables stay interpretable across machines.
        std::fprintf(f, "  \"host_cpus\": %u,\n",
                     std::thread::hardware_concurrency());
        std::fprintf(f, "  \"scenarios\": [\n");
        for (std::size_t i = 0; i < results.size(); i++) {
            const auto &r = results[i];
            std::fprintf(f, "    {\n");
            std::fprintf(f, "      \"name\": \"%s\",\n", r.name.c_str());
            std::fprintf(f, "      \"events\": %llu,\n",
                         (unsigned long long)r.events);
            std::fprintf(f, "      \"sim_ns\": %llu,\n",
                         (unsigned long long)r.simNs);
            std::fprintf(f, "      \"wall_sec\": %.6f,\n", r.wallSec);
            std::fprintf(f, "      \"events_per_sec\": %.1f,\n",
                         r.eventsPerSec());
            std::fprintf(f, "      \"host_minor_faults\": %ld,\n",
                         r.hostMinorFaults);
            std::fprintf(f, "      \"host_sys_sec\": %.6f,\n",
                         r.hostSysSec);
            std::fprintf(f, "      \"%s\": %.3f,\n", r.metricName.c_str(),
                         r.metric);
            std::fprintf(f, "      \"iotlb_hits\": %llu,\n",
                         (unsigned long long)r.counters.iotlbHits);
            std::fprintf(f, "      \"iotlb_misses\": %llu,\n",
                         (unsigned long long)r.counters.iotlbMisses);
            std::fprintf(f, "      \"walk_cache_misses\": %llu,\n",
                         (unsigned long long)r.counters.walkCacheMisses);
            std::fprintf(f, "      \"page_walk_frames\": %llu,\n",
                         (unsigned long long)r.counters.pageWalkFrames);
            std::fprintf(f, "      \"journal_commits\": %llu,\n",
                         (unsigned long long)r.counters.journalCommits);
            std::fprintf(f, "      \"syscalls\": %llu,\n",
                         (unsigned long long)r.counters.syscalls);
            std::fprintf(f, "      \"vba_translations\": %llu,\n",
                         (unsigned long long)r.counters.vbaTranslations);
            std::fprintf(f, "      \"device_ops\": %llu,\n",
                         (unsigned long long)r.counters.deviceOps);
            std::fprintf(f, "      \"shards\": %u,\n", r.shards);
            if (r.sharded) {
                std::fprintf(f, "      \"domains\": %llu,\n",
                             (unsigned long long)r.domains);
                std::fprintf(f, "      \"lookahead_ns\": %llu,\n",
                             (unsigned long long)r.lookaheadNs);
                std::fprintf(f, "      \"windows\": %llu,\n",
                             (unsigned long long)r.windows);
                std::fprintf(f, "      \"messages\": %llu,\n",
                             (unsigned long long)r.messages);
                std::fprintf(f, "      \"barrier_stall_sec\": %.6f,\n",
                             r.barrierStallSec);
                for (std::size_t si = 0; si < r.shardEvents.size();
                     si++)
                    std::fprintf(f, "      \"shard_%zu_events\": "
                                    "%llu,\n",
                                 si,
                                 (unsigned long long)r.shardEvents[si]);
            }
            std::fprintf(f, "      \"digest\": \"%016llx\"\n",
                         (unsigned long long)r.digest);
            std::fprintf(f, "    }%s\n",
                         i + 1 < results.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
        std::printf("wrote %s\n", out.c_str());
    }
    if (!obs.write())
        return 1;
    return 0;
}
