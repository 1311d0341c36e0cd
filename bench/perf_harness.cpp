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
 * Flags: bench::kFleetFlags (--trace-stream is refused; see
 * runFleetFio).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
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
using bench::wallNow;
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

    /** obs::curatedCounters (fleets sum their machines), embedded
     *  flat in the scenario JSON so tools/perf_report can diff them. */
    std::vector<std::pair<std::string, std::uint64_t>> counters;

    /** bench::execFields of the executor the scenario ran under;
     *  empty for a single machine at --shards 1 (no executor). */
    bench::BenchJson::Scenario exec;

    double
    eventsPerSec() const
    {
        return wallSec > 0 ? static_cast<double>(events) / wallSec : 0;
    }
};

/** Add @p s's curated counters into @p r (fleets sum their machines). */
void
addCounters(ScenarioResult &r, sys::System &s)
{
    auto c = obs::curatedCounters(s);
    for (std::size_t i = 0; i < r.counters.size(); i++)
        c[i].second += r.counters[i].second;
    r.counters = std::move(c);
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

/**
 * Common tail of a single-machine scenario: the digest @p h of its
 * results closed with the machine's clock and event count, totals,
 * counters, executor fields, the tenant-sum check and the capture.
 */
void
finishSingle(ScenarioResult &r, std::uint64_t h, sys::System &s,
             const sim::SimExecutor *ex, bench::ObsCapture &obs)
{
    h = fnv(h, s.now());
    h = fnv(h, s.eq.executed());
    r.digest = h;
    r.events = s.eq.executed();
    r.simNs = s.now();
    addCounters(r, s);
    if (ex)
        bench::execFields(r.exec, *ex);
    bench::checkTenantSums(s);
    obs.capture(r.name, s);
}

/** Fig. 9 cell: 24 threads of 4 KiB BypassD random reads. */
ScenarioResult
runFig9Randread(bool quick, unsigned shards, bench::ObsCapture &obs)
{
    ScenarioResult r;
    r.name = "fig9_randread_24t";
    r.metricName = "iops";

    auto s = bench::makeSystem(16ull << 30);
    obs.attach(*s, r.name);
    auto ex = bindSingle(*s, shards, r.name);

    wl::FioJob job;
    job.engine = wl::Engine::Bypassd;
    job.rw = wl::RwMode::RandRead;
    job.bs = 4096;
    job.numJobs = 24;
    job.runtime = (quick ? 10 : 60) * kMs;
    job.warmup = 1 * kMs;
    job.fileBytes = 256ull << 20;

    const double t0 = wallNow();
    wl::FioRunner runner(*s);
    const wl::FioResult res = runner.run(job);
    r.wallSec = wallNow() - t0;
    r.metric = res.iops();

    std::uint64_t h = kFnvSeed;
    h = fnv(h, res.ops);
    h = fnv(h, res.bytes);
    h = fnv(h, res.elapsed);
    h = hashHistogram(h, res.latency);
    finishSingle(r, h, *s, ex.get(), obs);
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
    r.metric = res.kops;

    std::uint64_t h = kFnvSeed;
    h = fnv(h, res.ops);
    h = fnv(h, res.deviceIos);
    h = fnv(h, res.elapsed);
    h = hashHistogram(h, res.latency);
    finishSingle(r, h, *s, ex.get(), obs);
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
    const Time horizon = (quick ? 2 : 8) * kSec;
    const bench::RevocationRun run
        = bench::runRevocation(*s, horizon, horizon / 2);
    r.wallSec = run.wallSec;

    double total = 0;
    std::uint64_t h = kFnvSeed;
    for (std::size_t b = 0; b < run.throughput.buckets(); b++) {
        h = fnvDouble(h, run.throughput.bucketSum(b));
        total += run.throughput.bucketSum(b);
    }
    h = fnv(h, run.revokeAt);
    h = fnv(h, run.readerFaults);
    h = fnv(h, s->module.revocations());
    r.metric = total / 1e6
               / (static_cast<double>(horizon) / kSec); // MB/s
    finishSingle(r, h, *s, ex.get(), obs);
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
        addCounters(r, s);
        bench::checkTenantSums(s);
        obs.capture(sim::strf("%s/sys%u", r.name.c_str(), i), s);
    }
    h = fnv(h, fleet.controllerDigest());
    h = fnv(h, fleet.beacons());
    r.digest = h;
    r.events = fleet.totalEvents();
    r.simNs = maxNow;
    r.metric = iops;
    bench::execFields(r.exec, fleet.executor());
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

} // namespace

int
main(int argc, char **argv)
{
    bench::Cli cli("perf_harness", bench::kFleetFlags);
    if (int rc = cli.parse(argc, argv))
        return rc;

    bench::banner("perf_harness",
                  cli.quick ? "simulator wall-clock scenarios (quick)"
                            : "simulator wall-clock scenarios");

    using RunFn = ScenarioResult (*)(bool, unsigned, bench::ObsCapture &);
    std::vector<ScenarioResult> results;
    for (RunFn run : {runFig9Randread, runFig13WiredTiger,
                      runFig12Revocation, runFleetFio}) {
        const HostUsage before = hostUsage();
        ScenarioResult r = run(cli.quick, cli.shards, cli.obs);
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
                static_cast<double>(bench::peakRssBytes()) / (1 << 20));
    std::printf("shards: %u\n", cli.shards);
    for (const auto &r : results) {
        if (r.exec.fields.empty())
            continue;
        std::printf("%-24s windows %s, messages %s, barrier stall "
                    "%.3fs\n",
                    r.name.c_str(), r.exec.get("windows").c_str(),
                    r.exec.get("messages").c_str(),
                    std::atof(r.exec.get("barrier_stall_sec").c_str()));
    }

    using F = bench::BenchJson;
    F json;
    for (const auto &r : results) {
        F::Scenario &sc = json.add(r.name);
        F::field(sc, "events", r.events);
        F::field(sc, "sim_ns", r.simNs);
        F::fieldF(sc, "wall_sec", r.wallSec, 6);
        F::fieldF(sc, "events_per_sec", r.eventsPerSec(), 1);
        F::field(sc, "host_minor_faults",
                 static_cast<std::uint64_t>(r.hostMinorFaults));
        F::fieldF(sc, "host_sys_sec", r.hostSysSec, 6);
        F::fieldF(sc, r.metricName, r.metric);
        for (const auto &[key, v] : r.counters)
            F::field(sc, key, v);
        if (r.exec.fields.empty())
            F::field(sc, "shards", 1);
        sc.fields.insert(sc.fields.end(), r.exec.fields.begin(),
                         r.exec.fields.end());
        F::digest(sc, r.digest);
    }
    return cli.finish(json);
}
