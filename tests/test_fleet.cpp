/**
 * @file
 * Multi-device fleet tests: the DeviceMap placement layer (per-inode
 * home devices, round-robin spread, determinism across same-seed
 * systems), the health monitor's eviction-by-revocation (kernel and
 * BypassD direct paths fail over with ENODEV, never hang), hot-plug
 * extending placement, the per-device x per-tenant accounting fold,
 * and the fabric connect-capsule device selector — including eviction
 * racing an in-flight RDMA-read pull and a queued-over-depth backlog,
 * digest-identical at 1 and 4 shards.
 *
 * No death tests here on purpose: this suite runs under TSan in CI,
 * and death tests fork.
 */

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fabric/initiator.hpp"
#include "fabric/target.hpp"
#include "helpers.hpp"
#include "sim/hash.hpp"
#include "sim/logging.hpp"
#include "system/system.hpp"
#include "workloads/fio.hpp"

using namespace bpd;

namespace {

using sim::fnv;

sys::SystemConfig
fleetConfig(std::size_t maxDevices, std::uint64_t seed = 7)
{
    sim::setVerbose(false);
    sys::SystemConfig cfg;
    cfg.deviceBytes = 1ull << 30; // per slot
    cfg.seed = seed;
    cfg.maxDevices = maxDevices;
    return cfg;
}

/**
 * Create @p path and materialize one block so placement pins a home.
 * The fd is closed again: a live kernel-interface open would make the
 * sharing policy refuse later fmap()s of the same file.
 */
void
makeFile(sys::System &s, kern::Process &p, const std::string &path)
{
    const int fd = test::kOpen(s, p, path,
                               fs::kOpenRead | fs::kOpenWrite
                                   | fs::kOpenCreate | fs::kOpenDirect);
    ASSERT_GE(fd, 0) << path;
    const auto data = test::pattern(4096, 3);
    EXPECT_EQ(test::kPwrite(s, p, fd, data, 0).n, 4096) << path;
    EXPECT_EQ(test::kClose(s, p, fd), 0) << path;
}

/**
 * Create files until one is homed on the device with @p devId;
 * returns its path (empty when the bounded scan fails).
 */
std::string
fileOnDevice(sys::System &s, kern::Process &p, DevId devId,
             const std::string &prefix)
{
    for (int i = 0; i < 16; i++) {
        const std::string path = prefix + std::to_string(i);
        makeFile(s, p, path);
        if (s.deviceOfFile(path) == devId)
            return path;
    }
    return "";
}

} // namespace

TEST(FleetDeviceMap, PlacementSpreadsAndIsDeterministic)
{
    auto homesOf = [](std::vector<DevId> *out) {
        sys::System s(fleetConfig(4));
        kern::Process &p = s.newProcess();
        for (int i = 0; i < 8; i++) {
            const std::string path = "/spread" + std::to_string(i);
            makeFile(s, p, path);
            const DevId d = s.deviceOfFile(path);
            EXPECT_GE(d, s.cfg.devId);
            EXPECT_LT(d, s.cfg.devId + 4);
            out->push_back(d);
        }
    };
    std::vector<DevId> a, b;
    homesOf(&a);
    homesOf(&b);
    // Same seed, same creation order: bit-identical placement.
    EXPECT_EQ(a, b);
    // Round-robin over 4 slots covers every device within 8 files.
    std::vector<DevId> seen = a;
    std::sort(seen.begin(), seen.end());
    seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
    EXPECT_EQ(seen.size(), 4u);
}

TEST(FleetDeviceMap, SingleDeviceSystemNeverPinsHomes)
{
    sys::System s(fleetConfig(1));
    kern::Process &p = s.newProcess();
    makeFile(s, p, "/classic");
    // The classic machine keeps the legacy allocator: no placement map,
    // deviceOfFile reports "no pinned home".
    EXPECT_EQ(s.deviceOfFile("/classic"), 0u);
    EXPECT_EQ(s.devices.homes().size(), 0u);
}

TEST(FleetDeviceMap, PerDeviceTenantSumsFoldThreeDirections)
{
    sys::System s(fleetConfig(4));
    s.enableTenantAccounting();
    wl::FioRunner runner(s);
    wl::FioJob job;
    job.engine = wl::Engine::Sync;
    job.rw = wl::RwMode::RandWrite;
    job.bs = 4096;
    job.numJobs = 4;
    job.perProcess = true;
    job.runtime = 400 * kUs;
    job.warmup = 40 * kUs;
    job.fileBytes = 2ull << 20;
    job.seed = 11;
    job.filePrefix = "/fleet";
    runner.run(job);

    // The invariant checks all three directions internally: tenant sums
    // vs system totals, device x tenant folded over devices vs tenant
    // rows, and folded over tenants vs each device's own counters.
    EXPECT_EQ(s.verifyTenantSums(), "");

    // The traffic really was multi-device, and the per-device rows fold
    // back to each slot's hardware op counter bit-exactly.
    std::map<DevId, std::uint64_t> perDev;
    s.tenantAccounting().forEachDevice(
        [&](DevId d, TenantId, const obs::DeviceTenantCounters &c) {
            perDev[d] += c.ssdOps;
        });
    EXPECT_GE(perDev.size(), 2u);
    for (std::size_t i = 0; i < s.devices.size(); i++) {
        const ssd::NvmeDevice &dev = s.devices.slot(i).dev;
        EXPECT_EQ(perDev[dev.devId()], dev.totalOps())
            << "slot " << i;
    }
}

TEST(FleetHealth, MonitorEvictsFaultyDeviceAndKernelIoFailsOver)
{
    sys::SystemConfig cfg = fleetConfig(2);
    cfg.healthMonitor = true;
    cfg.evictAfterMediaErrors = 2;
    cfg.slotSsd[1] = cfg.ssd;
    cfg.slotSsd[1].mediaErrorEvery = 3; // every 3rd media op fails
    sys::System s(cfg);
    kern::Process &p = s.newProcess();

    const std::string victim
        = fileOnDevice(s, p, s.cfg.devId + 1, "/sick");
    ASSERT_NE(victim, "");
    const std::string healthy = fileOnDevice(s, p, s.cfg.devId, "/ok");
    ASSERT_NE(healthy, "");
    const int vfd = test::kOpen(s, p, victim,
                                fs::kOpenWrite | fs::kOpenDirect);
    const int hfd = test::kOpen(s, p, healthy,
                                fs::kOpenWrite | fs::kOpenDirect);
    ASSERT_GE(vfd, 0);
    ASSERT_GE(hfd, 0);

    // Hammer the sick device until its injected media errors cross the
    // monitor's threshold. Individual failures surface as EINVAL;
    // none may hang (kPwrite runs the queue to quiescence).
    const auto data = test::pattern(4096, 9);
    bool evicted = false;
    for (int i = 0; i < 24 && !evicted; i++) {
        test::kPwrite(s, p, vfd, data, 0);
        evicted = s.deviceEvicted(1);
    }
    ASSERT_TRUE(evicted);
    EXPECT_FALSE(s.deviceEvicted(0)); // slot 0 is never monitored

    // Post-eviction the dead device answers ENODEV distinctly...
    EXPECT_EQ(test::kPwrite(s, p, vfd, data, 0).n,
              kern::errOf(fs::FsStatus::NoDev));
    // ...the healthy device is untouched...
    EXPECT_EQ(test::kPwrite(s, p, hfd, data, 0).n, 4096);
    // ...and placement stops handing out the evicted slot.
    for (int i = 0; i < 6; i++) {
        const std::string path = "/after" + std::to_string(i);
        makeFile(s, p, path);
        EXPECT_NE(s.deviceOfFile(path), s.cfg.devId + 1) << path;
    }
}

TEST(FleetHotPlug, PlugExtendsPlacementDeterministically)
{
    auto run = [](std::vector<DevId> *out) {
        sys::SystemConfig cfg = fleetConfig(4);
        cfg.onlineDevices = 2;
        sys::System s(cfg);
        kern::Process &p = s.newProcess();
        // Boot-online slots only: nothing lands past slot 1.
        for (int i = 0; i < 4; i++) {
            const std::string path = "/boot" + std::to_string(i);
            makeFile(s, p, path);
            EXPECT_LT(s.deviceOfFile(path), s.cfg.devId + 2);
        }
        EXPECT_EQ(s.kernel.slotCount(), 2u);
        EXPECT_EQ(s.plugDevice(), 2u);
        EXPECT_EQ(s.kernel.slotCount(), 3u);
        // The plugged slot joins the round-robin; a handful of new
        // files reaches it, and its I/O path works end to end.
        bool reached = false;
        for (int i = 0; i < 6; i++) {
            const std::string path = "/plug" + std::to_string(i);
            makeFile(s, p, path);
            const DevId d = s.deviceOfFile(path);
            EXPECT_LT(d, s.cfg.devId + 3);
            reached = reached || d == s.cfg.devId + 2;
            out->push_back(d);
        }
        EXPECT_TRUE(reached);
        EXPECT_GT(s.devices.slot(2).dev.totalOps(), 0u);
    };
    std::vector<DevId> a, b;
    run(&a);
    run(&b);
    EXPECT_EQ(a, b); // hot-plug rebuilds mappings deterministically
}

TEST(FleetEviction, DirectPathFteRevocationFallsBackWithEnodev)
{
    sys::System s(fleetConfig(2));
    kern::Process &p = s.newProcess();
    const std::string victim
        = fileOnDevice(s, p, s.cfg.devId + 1, "/direct");
    ASSERT_NE(victim, "");

    bypassd::UserLib &ul = s.userLib(p);
    const int fd = test::ulOpen(s, ul, victim,
                                fs::kOpenRead | fs::kOpenWrite
                                    | fs::kOpenDirect);
    ASSERT_GE(fd, 0);
    const auto data = test::pattern(4096, 5);
    // The first write may fall back while the shim fmaps; the stream
    // then settles onto the direct path.
    for (int i = 0; i < 4; i++)
        ASSERT_EQ(test::ulPwrite(s, ul, 0, fd, data, 0).n, 4096);
    EXPECT_GE(ul.directWrites(), 1u); // the fast path was really taken

    s.evictDevice(1);
    // The revocation faults the FTE; re-fmap is refused for the dead
    // device, the shim falls back to the kernel, and the kernel's I/O
    // answers ENODEV. The callback fires — nothing hangs.
    EXPECT_EQ(test::ulPwrite(s, ul, 0, fd, data, 0).n,
              kern::errOf(fs::FsStatus::NoDev));
    std::vector<std::uint8_t> rbuf(4096);
    EXPECT_EQ(test::ulPread(s, ul, 0, fd, rbuf, 0).n,
              kern::errOf(fs::FsStatus::NoDev));
    EXPECT_TRUE(s.deviceEvicted(1));
}

// ---------------------------------------------------------------------
// Fabric device selector + eviction races.
// ---------------------------------------------------------------------

namespace {

/**
 * One multi-device target machine and N single-device clients on a
 * sharded executor — the test_fabric Net shape with a device-map
 * target.
 */
struct FleetNet
{
    fab::FabricProfile prof;
    sys::System target;
    std::vector<std::unique_ptr<sys::System>> clients;
    sim::SimExecutor exec;
    std::uint32_t tDom = 0;
    std::vector<std::uint32_t> cDoms;
    fab::FabricTarget tgt;
    std::vector<std::unique_ptr<fab::FabricInitiator>> inis;

    explicit FleetNet(std::size_t targetDevices, unsigned nClients = 1,
                      fab::FabricProfile p = {}, unsigned shards = 2,
                      std::uint64_t seed = 42)
        : prof(p), target(fleetConfig(targetDevices, seed)),
          exec(std::min(shards, nClients + 1)), tgt(target, prof)
    {
        tDom = exec.addDomain(target.eq, 0, "target");
        for (unsigned i = 0; i < nClients; i++) {
            clients.push_back(std::make_unique<sys::System>(
                fleetConfig(1, seed + 1 + i)));
            const unsigned shard
                = exec.shardCount() > 1 ? 1 + i % (exec.shardCount() - 1)
                                        : 0;
            cDoms.push_back(exec.addDomain(clients[i]->eq, shard,
                                           sim::strf("client%u", i)));
        }
        for (unsigned i = 0; i < nClients; i++) {
            exec.connect(cDoms[i], tDom, prof.oneWayNs);
            exec.connect(tDom, cDoms[i], prof.oneWayNs);
        }
        tgt.bind(exec, tDom);
        EXPECT_TRUE(tgt.serve());
        for (unsigned i = 0; i < nClients; i++) {
            inis.push_back(std::make_unique<fab::FabricInitiator>(
                *clients[i], tgt));
            inis[i]->bind(exec, cDoms[i]);
        }
    }

    sys::System &client(unsigned i = 0) { return *clients.at(i); }
    fab::FabricInitiator &ini(unsigned i = 0) { return *inis.at(i); }

    /** Align every machine's clock to the net-wide max (see the
     *  test_fabric Net::settle rationale). */
    void
    settle()
    {
        Time t = target.now();
        for (auto &c : clients)
            t = std::max(t, c->now());
        target.eq.schedule(t, [] {});
        for (auto &c : clients)
            c->eq.schedule(t, [] {});
        exec.run();
    }

    fab::ConnectStatus
    connectTo(unsigned i, std::size_t slot)
    {
        settle();
        fab::ConnectStatus got = fab::ConnectStatus::Refused;
        ini(i).connect(static_cast<Pasid>(100 + i),
                       [&got](fab::ConnectStatus st) { got = st; }, slot);
        exec.run();
        return got;
    }
};

} // namespace

TEST(FabricSelector, ConnectRejectsAbsentAndEvictedSlots)
{
    FleetNet net(/*targetDevices=*/2, /*nClients=*/1);
    // A selector naming a slot the kernel never attached is a clean
    // protocol error, not a refusal or a crash.
    EXPECT_EQ(net.connectTo(0, 7), fab::ConnectStatus::NoDevice);
    EXPECT_EQ(net.ini().state(), fab::ConnState::Idle);

    net.target.evictDevice(1);
    EXPECT_EQ(net.connectTo(0, 1), fab::ConnectStatus::DeviceEvicted);
    EXPECT_EQ(net.ini().state(), fab::ConnState::Idle);

    // The same initiator connects fine to a healthy slot afterwards.
    EXPECT_EQ(net.connectTo(0, 0), fab::ConnectStatus::Ok);
    EXPECT_TRUE(net.ini().connected());
    EXPECT_EQ(net.ini().deviceSlot(), 0u);
}

TEST(FabricSelector, SecondSlotIoLandsOnItsDevice)
{
    FleetNet net(2, 2);
    ASSERT_EQ(net.connectTo(0, 0), fab::ConnectStatus::Ok);
    ASSERT_EQ(net.connectTo(1, 1), fab::ConnectStatus::Ok);
    EXPECT_EQ(net.ini(1).deviceSlot(), 1u);

    const auto data = test::pattern(4096, 13);
    std::vector<std::uint8_t> wbuf = data;
    long long wn = -1;
    net.ini(1).write(0, 0, wbuf,
                     [&wn](long long n, kern::IoTrace) { wn = n; });
    net.exec.run();
    EXPECT_EQ(wn, 4096);
    std::vector<std::uint8_t> rbuf(4096, 0);
    long long rn = -1;
    net.ini(1).read(0, 0, rbuf,
                    [&rn](long long n, kern::IoTrace) { rn = n; });
    net.exec.run();
    EXPECT_EQ(rn, 4096);
    EXPECT_EQ(rbuf, data);

    // Connection 2's queue pair lives on slot 1's device: its I/O is
    // invisible to slot 0's op counter and vice versa.
    EXPECT_EQ(net.target.devices.slot(1).dev.totalOps(), 2u);
    EXPECT_EQ(net.target.devices.slot(0).dev.totalOps(), 0u);
    EXPECT_EQ(net.tgt.connections().at(2).slot, 1u);
    EXPECT_EQ(net.tgt.connections().at(2).dev,
              net.target.devices.slot(1).dev.devId());
}

namespace {

/**
 * Evict slot 1 while a 16 KiB write's RDMA-read pull is still in
 * flight on its connection. The pulled payload must submit into the
 * evicted device, fail distinctly with ENODEV at the client, and leave
 * the target with no pending I/O — while a second connection on slot 0
 * is untouched. Returns a digest of everything observable.
 */
std::uint64_t
runRdmaPullEvictionRace(unsigned shards)
{
    FleetNet net(2, 2, fab::FabricProfile{}, shards);
    EXPECT_EQ(net.connectTo(0, 0), fab::ConnectStatus::Ok);
    EXPECT_EQ(net.connectTo(1, 1), fab::ConnectStatus::Ok);
    net.settle();

    std::vector<std::uint8_t> big = test::pattern(16384, 9);
    long long wn = 0;
    net.ini(1).write(0, 0, big,
                     [&wn](long long n, kern::IoTrace) { wn = n; });
    std::vector<std::uint8_t> buf(4096);
    long long rn = -1;
    net.ini(0).read(0, 4096, buf,
                    [&rn](long long n, kern::IoTrace) { rn = n; });
    // The pull needs a full round trip (capsule in ~5 us, pull request
    // back ~10 us, payload lands ~16 us): 12 us is inside the window,
    // so the device is dead by the time the payload submits.
    net.target.eq.schedule(net.target.now() + 12 * kUs,
                           [&net] { net.target.evictDevice(1); });
    net.exec.run();

    EXPECT_EQ(wn, kern::errOf(fs::FsStatus::NoDev));
    EXPECT_EQ(rn, 4096);
    EXPECT_EQ(net.tgt.pendingIos(), 0u);
    EXPECT_TRUE(net.ini(1).connected()); // error response, not abort
    // The rejected command is still fetched (and counted) before the
    // device answers DeviceEvicted; no data moved.
    EXPECT_EQ(net.target.devices.slot(1).dev.totalOps(), 1u);

    std::uint64_t h = sim::kFnvSeed;
    h = fnv(h, static_cast<std::uint64_t>(wn));
    h = fnv(h, static_cast<std::uint64_t>(rn));
    h = fnv(h, net.tgt.rdmaTransfers());
    h = fnv(h, net.target.dev.totalOps());
    h = fnv(h, net.target.now());
    h = fnv(h, net.target.eq.executed());
    for (unsigned i = 0; i < 2; i++) {
        h = fnv(h, net.client(i).now());
        h = fnv(h, net.client(i).eq.executed());
    }
    return h;
}

/**
 * Evict slot 1 under a queued-over-depth backlog: depth 2 with eight
 * writes queued means most of the stream is still in the admission
 * queue when the device dies. Every callback must fire — drained
 * successes first, then distinct ENODEV failures — and nothing may
 * leak at either end. Returns a digest of the outcome sequence.
 */
std::uint64_t
runBacklogEvictionRace(unsigned shards)
{
    fab::FabricProfile prof;
    prof.queueDepth = 2;
    prof.enforceDepth = true;
    FleetNet net(2, 1, prof, shards);
    EXPECT_EQ(net.connectTo(0, 1), fab::ConnectStatus::Ok);
    net.settle();

    std::vector<std::uint8_t> buf(4096, 0x5a);
    std::vector<long long> results;
    for (unsigned i = 0; i < 8; i++)
        net.ini().write(0, static_cast<DevAddr>(i) * 4096, buf,
                        [&results](long long n, kern::IoTrace) {
                            results.push_back(n);
                        });
    EXPECT_EQ(net.ini().depthQueued(), 6u);
    net.target.eq.schedule(net.target.now() + 12 * kUs,
                           [&net] { net.target.evictDevice(1); });
    net.exec.run();

    EXPECT_EQ(results.size(), 8u); // nothing hangs
    unsigned okCount = 0, enodev = 0;
    for (long long n : results) {
        if (n == 4096)
            okCount++;
        else if (n == kern::errOf(fs::FsStatus::NoDev))
            enodev++;
    }
    EXPECT_EQ(okCount + enodev, 8u); // every failure is distinct ENODEV
    EXPECT_GT(enodev, 0u);
    EXPECT_EQ(net.ini().depthQueued(), 0u);
    EXPECT_EQ(net.ini().inflight(), 0u);
    EXPECT_EQ(net.tgt.pendingIos(), 0u);

    std::uint64_t h = sim::kFnvSeed;
    for (long long n : results)
        h = fnv(h, static_cast<std::uint64_t>(n));
    h = fnv(h, net.target.devices.slot(1).dev.totalOps());
    h = fnv(h, net.target.now());
    h = fnv(h, net.target.eq.executed());
    h = fnv(h, net.client().now());
    h = fnv(h, net.client().eq.executed());
    return h;
}

} // namespace

TEST(FabricEviction, RdmaPullRaceDigestInvariantAcrossShards)
{
    EXPECT_EQ(runRdmaPullEvictionRace(1), runRdmaPullEvictionRace(4));
}

TEST(FabricEviction, BacklogRaceDigestInvariantAcrossShards)
{
    EXPECT_EQ(runBacklogEvictionRace(1), runBacklogEvictionRace(4));
}
