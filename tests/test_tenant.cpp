/**
 * @file
 * Per-tenant attribution (obs/tenant.hpp + the attribution sites in
 * kern/ssd/iommu/fs/bypassd): the sum invariant — for every exported
 * counter, sum over tenants == system total, bit-exactly — on all five
 * engines; survival of the revocation fallback (work keeps landing on
 * the same tenant after the reader is pushed to the kernel path);
 * digest neutrality of enabling accounting; and tenant round-tripping
 * through the metrics snapshot and the replay stream.
 */

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/export.hpp"
#include "obs/replay.hpp"
#include "qos/qos.hpp"
#include "sim/hash.hpp"
#include "sim/logging.hpp"
#include "system/system.hpp"
#include "workloads/fio.hpp"

using namespace bpd;

namespace {

wl::FioJob
smallJob(wl::Engine e, wl::RwMode rw)
{
    wl::FioJob job;
    job.engine = e;
    job.rw = rw;
    job.bs = 4096;
    job.numJobs = 2;
    job.perProcess = true;
    job.runtime = 500 * kUs;
    job.warmup = 50 * kUs;
    job.fileBytes = 2ull << 20;
    job.seed = 11;
    job.filePrefix = "/tenant";
    return job;
}

std::unique_ptr<sys::System>
freshSystem(std::uint64_t seed = 7)
{
    sim::setVerbose(false);
    sys::SystemConfig cfg;
    cfg.deviceBytes = 1ull << 30;
    cfg.seed = seed;
    return std::make_unique<sys::System>(cfg);
}

/** Accounted system after one small four-job run; on a fleet each
 * job's file gets its own home device, so the run reaches every slot. */
std::unique_ptr<sys::System>
accountedRun(std::size_t maxDevices, wl::Engine e, wl::RwMode rw)
{
    sim::setVerbose(false);
    sys::SystemConfig cfg;
    cfg.deviceBytes = 1ull << 30;
    cfg.seed = 7;
    cfg.maxDevices = maxDevices;
    auto s = std::make_unique<sys::System>(cfg);
    s->enableTenantAccounting();
    wl::FioRunner runner(*s);
    wl::FioJob job = smallJob(e, rw);
    job.numJobs = 4;
    runner.run(job);
    return s;
}

/** First tenant (in id order) that issued at least one device command. */
TenantId
busyTenant(const sys::System &s)
{
    TenantId busy = 0;
    bool found = false;
    s.tenantAccounting().forEach(
        [&](TenantId id, const obs::TenantCounters &tc) {
            if (!found && tc.ssdOps > 0) {
                busy = id;
                found = true;
            }
        });
    EXPECT_TRUE(found);
    return busy;
}

unsigned long long
ull(std::uint64_t v)
{
    return static_cast<unsigned long long>(v);
}

/** FNV-1a of the metrics snapshot's JSON after collectMetrics(). */
std::uint64_t
metricsHash(sys::System &s)
{
    s.collectMetrics();
    const std::string j = s.metrics.snapshot().toJson();
    return sim::fnvBytes(reinterpret_cast<const std::uint8_t *>(j.data()),
                         j.size());
}

} // namespace

TEST(TenantSums, AllEnginesSumToSystemTotals)
{
    const wl::Engine engines[] = {wl::Engine::Sync, wl::Engine::Libaio,
                                  wl::Engine::IoUring, wl::Engine::Spdk,
                                  wl::Engine::Bypassd};
    for (wl::Engine e : engines) {
        auto s = freshSystem();
        s->enableTenantAccounting();
        wl::FioRunner runner(*s);
        runner.run(smallJob(e, wl::RwMode::RandRead));

        EXPECT_EQ(s->verifyTenantSums(), "") << wl::toString(e);
        EXPECT_FALSE(s->tenantAccounting().empty()) << wl::toString(e);

        std::uint64_t ssdOps = 0;
        s->tenantAccounting().forEach(
            [&](TenantId, const obs::TenantCounters &tc) {
                ssdOps += tc.ssdOps;
            });
        EXPECT_EQ(ssdOps, s->dev.totalOps()) << wl::toString(e);
    }
}

TEST(TenantSums, WritePathJournalAndCacheAttributed)
{
    auto s = freshSystem();
    s->enableTenantAccounting();
    wl::FioRunner runner(*s);
    runner.run(smallJob(wl::Engine::Sync, wl::RwMode::RandWrite));

    // The job runs O_DIRECT; drive the page cache with a buffered
    // reader of the file the first fio process wrote.
    kern::Process &p = s->newProcess(4000, 4000);
    int fd = -1;
    s->kernel.sysOpen(p, "/tenant0.dat", fs::kOpenRead, 0644,
                      [&](int f) { fd = f; });
    s->run();
    ASSERT_GE(fd, 0);
    std::vector<std::uint8_t> buf(4096);
    for (int i = 0; i < 4; i++) {
        long long got = -1;
        s->kernel.sysPread(p, fd, buf, (i % 2) * 4096,
                           [&](long long n, kern::IoTrace) { got = n; });
        s->run();
        ASSERT_GT(got, 0);
    }

    EXPECT_EQ(s->verifyTenantSums(), "");
    std::uint64_t journal = 0;
    s->tenantAccounting().forEach(
        [&](TenantId, const obs::TenantCounters &tc) {
            journal += tc.fsJournalRecords;
        });
    EXPECT_GT(journal, 0u);

    // The buffered reader's hits and misses land on its own row.
    const obs::TenantCounters *row
        = s->tenantAccounting().find(p.pasid());
    ASSERT_NE(row, nullptr);
    EXPECT_GT(row->fsPageCacheMisses, 0u);
    EXPECT_GT(row->fsPageCacheHits, 0u);
}

TEST(TenantSums, SurvivesRevocationFallback)
{
    auto s = freshSystem();
    s->enableTenantAccounting();

    kern::Process &reader = s->newProcess(1000, 1000);
    const int cfd
        = s->kernel.setupCreateFile(reader, "/rv.dat", 8ull << 20, 3);
    ASSERT_GE(cfd, 0);
    int rc = -1;
    s->kernel.sysClose(reader, cfd, [&](int r) { rc = r; });
    s->run();

    bypassd::UserLib &lib = s->userLib(reader);
    int fd = -1;
    lib.open("/rv.dat", fs::kOpenRead | fs::kOpenDirect, 0644,
             [&](int f) { fd = f; });
    s->run();
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(lib.isDirect(fd));
    lib.prepareThread(0);

    const Time tEnd = s->now() + 20 * kMs;
    std::vector<std::uint8_t> buf(4096);
    sim::Rng rng(5);
    std::uint64_t opsAfterRevoke = 0;
    Time revokeAt = 0;

    std::function<void()> loop = [&]() {
        if (s->now() >= tEnd)
            return;
        const std::uint64_t off
            = rng.nextUint((8ull << 20) / 4096) * 4096;
        lib.pread(0, fd, buf, off, [&](long long n, kern::IoTrace) {
            ASSERT_GT(n, 0);
            if (revokeAt != 0)
                opsAfterRevoke++;
            loop();
        });
    };
    loop();

    kern::Process &intruder = s->newProcess(1001, 1001);
    s->eq.schedule(10 * kMs, [&]() {
        s->kernel.sysOpen(intruder, "/rv.dat", fs::kOpenRead, 0644,
                          [&](int f) {
                              ASSERT_GE(f, 0);
                              revokeAt = s->now();
                          });
    });
    s->run();

    ASSERT_NE(revokeAt, 0u);
    EXPECT_GT(opsAfterRevoke, 0u) << "no reads on the fallback path";
    EXPECT_EQ(s->verifyTenantSums(), "");

    // Revocation is booked to the revoked tenant, and its ops keep
    // accruing on the same row after the fallback to the kernel path.
    const obs::TenantCounters *row
        = s->tenantAccounting().find(reader.pasid());
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->bypassdRevokedVictims, 1u);
    EXPECT_GE(row->ssdOps, opsAfterRevoke);
    EXPECT_GT(row->kernSyscalls, 0u) << "fallback reads are syscalls";
}

TEST(TenantSums, DisabledAccountingReportsNothing)
{
    auto s = freshSystem();
    wl::FioRunner runner(*s);
    runner.run(smallJob(wl::Engine::Sync, wl::RwMode::RandRead));
    EXPECT_EQ(s->verifyTenantSums(), "");
    EXPECT_TRUE(s->tenantAccounting().empty());
}

TEST(TenantNeutrality, AccountingDoesNotChangeDigests)
{
    auto run = [&](bool accounting) {
        auto s = freshSystem(21);
        s->enableTracing(obs::Level::Requests);
        if (accounting)
            s->enableTenantAccounting();
        wl::FioRunner runner(*s);
        runner.run(smallJob(wl::Engine::Bypassd, wl::RwMode::RandRead));
        return std::pair<std::uint64_t, std::uint64_t>{
            obs::replayDigest(s->tracer()->data().replay),
            s->eq.executed()};
    };
    const auto off = run(false);
    const auto on = run(true);
    EXPECT_EQ(off.first, on.first) << "accounting changed the stream";
    EXPECT_EQ(off.second, on.second) << "accounting scheduled events";
}

TEST(TenantMetrics, ScopedSnapshotsSumToTotals)
{
    auto s = freshSystem();
    s->enableTenantAccounting();
    wl::FioRunner runner(*s);
    runner.run(smallJob(wl::Engine::Bypassd, wl::RwMode::RandRead));
    s->collectMetrics();

    const obs::MetricsSnapshot snap = s->metrics.snapshot();
    ASSERT_FALSE(snap.tenants.empty());
    for (const auto &[key, tenantSum] : [&] {
             std::map<std::string, std::uint64_t> sums;
             for (const auto &[id, sub] : snap.tenants)
                 for (const auto &[k, v] : sub.counters)
                     sums[k] += v;
             return sums;
         }()) {
        const auto it = snap.counters.find(key);
        ASSERT_NE(it, snap.counters.end()) << key;
        EXPECT_EQ(tenantSum, it->second) << key;
    }
}

TEST(TenantReplay, StreamCarriesTenantAndRoundTrips)
{
    sim::setVerbose(false);
    sys::SystemConfig cfg;
    cfg.deviceBytes = 1ull << 30;
    cfg.seed = 7;
    sys::System s(cfg);
    s.enableTracing(obs::Level::Requests);
    s.enableTenantAccounting();
    wl::FioRunner runner(s);
    runner.run(smallJob(wl::Engine::IoUring, wl::RwMode::RandRead));

    obs::TraceData data = s.tracer()->data();
    obs::ReplayMeta meta;
    meta.config = obs::configToMap(s.cfg);
    meta.counters = obs::curatedCounters(s);
    meta.digest = obs::replayDigest(data.replay);
    meta.events = s.eq.executed();
    meta.simNs = s.now();

    ASSERT_FALSE(data.replay.empty());
    for (const obs::ReplayRec &r : data.replay)
        EXPECT_EQ(r.tenant, r.proc)
            << "runner ops attribute to the issuing process";

    const std::string path
        = ::testing::TempDir() + "bpd_tenant_replay.json";
    ASSERT_TRUE(obs::writeChromeTraceFile(
        path, {obs::TraceProcess{"tenant", &data, &meta}}));
    obs::RecordedTrace trace;
    std::string err;
    ASSERT_TRUE(obs::loadRecordedTrace(path, trace, err)) << err;
    std::remove(path.c_str());
    ASSERT_EQ(trace.processes.size(), 1u);

    const obs::RecordedProcess &rec = trace.processes[0];
    ASSERT_EQ(rec.ops.size(), data.replay.size());
    for (std::size_t i = 0; i < rec.ops.size(); i++)
        EXPECT_EQ(rec.ops[i].tenant, data.replay[i].tenant);

    obs::ReplayResult res;
    ASSERT_TRUE(obs::replayRun(rec, {}, res, err)) << err;
    EXPECT_EQ(res.digest, rec.digest);
}

// Each direction of verifyTenantSums must catch a drifted row and name
// the counter: a row the check never reads would slip through silently.

TEST(TenantSumsNegative, TenantRowDriftBreaksTheSystemTotal)
{
    auto s = accountedRun(1, wl::Engine::Bypassd, wl::RwMode::RandRead);
    ASSERT_EQ(s->verifyTenantSums(), "");
    obs::TenantAccounting &acct = s->enableTenantAccounting();
    acct.of(busyTenant(*s)).ssdOps++;
    const std::uint64_t total = s->dev.totalOps();
    EXPECT_EQ(s->verifyTenantSums(),
              sim::strf("ssd.ops: tenant sum %llu != system total %llu",
                        ull(total + 1), ull(total)));
}

TEST(TenantSumsNegative, DeviceRowDriftBreaksTheTenantFold)
{
    auto s = accountedRun(1, wl::Engine::Bypassd, wl::RwMode::RandRead);
    obs::TenantAccounting &acct = s->enableTenantAccounting();
    const TenantId t = busyTenant(*s);
    const std::uint64_t ops = acct.of(t).ssdOps;
    acct.dev(s->dev.devId(), t).ssdOps++;
    EXPECT_EQ(s->verifyTenantSums(),
              sim::strf("tenant %llu ssd.ops: device-fold %llu != "
                        "reference %llu",
                        ull(t), ull(ops + 1), ull(ops)));
}

TEST(TenantSumsNegative, OpMovedBetweenDevicesBreaksTheDeviceFold)
{
    auto s = accountedRun(2, wl::Engine::Sync, wl::RwMode::RandWrite);
    ASSERT_EQ(s->verifyTenantSums(), "");
    const DevId d0 = s->devices.slot(0).dev.devId();
    const DevId d1 = s->devices.slot(1).dev.devId();
    TenantId t = 0;
    bool found = false;
    s->tenantAccounting().forEachDevice(
        [&](DevId d, TenantId id, const auto &c) {
            if (!found && d == d0 && c.ssdOps > 0) {
                t = id;
                found = true;
            }
        });
    ASSERT_TRUE(found);
    // The tenant's own total is unchanged; only the device split moves.
    obs::TenantAccounting &acct = s->enableTenantAccounting();
    acct.dev(d0, t).ssdOps--;
    acct.dev(d1, t).ssdOps++;
    const std::uint64_t ops0 = s->devices.slot(0).dev.totalOps();
    EXPECT_EQ(s->verifyTenantSums(),
              sim::strf("device %llu ssd.ops: device-fold %llu != "
                        "reference %llu",
                        ull(d0), ull(ops0 - 1), ull(ops0)));
}

TEST(TenantSumsNegative, QosRowIsCheckedWithQosOff)
{
    // QoS off: the system total reads 0, so any tenant throttle is a
    // drift the check must report.
    auto s = accountedRun(1, wl::Engine::Bypassd, wl::RwMode::RandRead);
    obs::TenantAccounting &acct = s->enableTenantAccounting();
    acct.of(busyTenant(*s)).qosThrottledBytes += 4096;
    EXPECT_EQ(s->verifyTenantSums(),
              "qos.throttled_bytes: tenant sum 4096 != system total 0");
}

// The exported metric key set and values of three shapes of run —
// classic single device, a two-device fleet with its ssd.devN /
// iommu.devN groups, and a throttled QoS tenant — pinned by hash.
// A key added, dropped or renamed in collectMetrics moves the hash.

TEST(TenantMetrics, KeySetAndValuesPinned)
{
    auto single = accountedRun(1, wl::Engine::Bypassd, wl::RwMode::RandRead);
    EXPECT_EQ(metricsHash(*single), 0xd5d6728925483981ull)
        << std::hex << "0x" << metricsHash(*single);

    auto fleet = accountedRun(2, wl::Engine::Sync, wl::RwMode::RandWrite);
    EXPECT_EQ(metricsHash(*fleet), 0x1384d4a5af5b78b4ull)
        << std::hex << "0x" << metricsHash(*fleet);

    auto s = freshSystem(9);
    s->enableTenantAccounting();
    qos::Registry &reg = s->enableQos();
    kern::Process &p = s->newProcess(6000, 6000);
    int fd = -1;
    s->kernel.sysOpen(p, "/capped.dat",
                      fs::kOpenCreate | fs::kOpenRead | fs::kOpenWrite
                          | fs::kOpenDirect,
                      0644, [&](int f) { fd = f; });
    s->run();
    ASSERT_GE(fd, 0);
    std::vector<std::uint8_t> buf(4096);
    s->kernel.sysPwrite(p, fd, buf, 0, [](long long, kern::IoTrace) {});
    s->run();
    qos::TenantLimit lim;
    lim.iopsLimit = 1000;
    lim.burstOps = 1;
    reg.setLimit(p.pasid(), lim);
    for (int i = 0; i < 5; i++)
        s->kernel.sysPread(p, fd, buf, 0, [](long long, kern::IoTrace) {});
    s->run();
    ASSERT_GT(reg.throttles(), 0u);
    ASSERT_EQ(s->verifyTenantSums(), "");
    EXPECT_EQ(metricsHash(*s), 0xe17c4c014aef8241ull)
        << std::hex << "0x" << metricsHash(*s);
}
