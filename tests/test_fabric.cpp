/**
 * @file
 * Fabric target/initiator tests: queue-pair connection state machine
 * (connect/disconnect/reset mid-I/O), in-capsule vs RDMA-read path
 * behavior on the payload boundary, remote-tenant attribution folding
 * bit-exactly into the target's tenant sums, shard-count digest
 * invariance of a fabric fleet, and trace digest neutrality.
 *
 * No death tests here on purpose: this suite runs under TSan in CI,
 * and death tests fork.
 */

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fabric/initiator.hpp"
#include "fabric/target.hpp"
#include "helpers.hpp"
#include "qos/qos.hpp"
#include "sim/hash.hpp"
#include "sim/logging.hpp"
#include "system/fleet.hpp"
#include "system/placement.hpp"
#include "workloads/fio.hpp"

namespace bpd {
namespace {

using sim::fnv;

sys::SystemConfig
smallSystem(std::uint64_t seed)
{
    sys::SystemConfig sc;
    sc.deviceBytes = 1ull << 30;
    sc.seed = seed;
    return sc;
}

/**
 * One target machine and N client machines on a sharded executor,
 * with I/O-plane channels at the profile's one-way latency and one
 * initiator per client. The shape every test below starts from.
 */
struct Net
{
    fab::FabricProfile prof;
    sys::System target;
    std::vector<std::unique_ptr<sys::System>> clients;
    sim::SimExecutor exec;
    std::uint32_t tDom = 0;
    std::vector<std::uint32_t> cDoms;
    fab::FabricTarget tgt;
    std::vector<std::unique_ptr<fab::FabricInitiator>> inis;

    explicit Net(unsigned nClients = 1, fab::FabricProfile p = {},
                 unsigned shards = 2, std::uint64_t seed = 42)
        : prof(p), target(smallSystem(seed)),
          exec(std::min(shards, nClients + 1)), tgt(target, prof)
    {
        sim::setVerbose(false);
        tDom = exec.addDomain(target.eq, 0, "target");
        for (unsigned i = 0; i < nClients; i++) {
            clients.push_back(
                std::make_unique<sys::System>(smallSystem(seed + 1 + i)));
            const unsigned shard
                = exec.shardCount() > 1
                      ? 1 + i % (exec.shardCount() - 1)
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

    /**
     * Align every machine's clock to the fleet-wide max. Domains are
     * only causally coupled inside a run; after one, a machine that
     * kept polling (e.g. target teardown) sits ahead of an idle peer,
     * and new work posted from lagging setup code would arrive in its
     * past. Tests that issue a second batch from setup call this first.
     */
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

    bool
    connectAll()
    {
        // One record per client: at several shards the acks run on
        // different threads, so they must not share a counter.
        struct Ack
        {
            unsigned n = 0;
            bool ok = true;
        };
        std::vector<Ack> acks(inis.size());
        for (unsigned i = 0; i < inis.size(); i++)
            inis[i]->connect(static_cast<Pasid>(100 + i),
                             [&a = acks[i]](fab::ConnectStatus st) {
                                 a.n++;
                                 a.ok = a.ok && st == fab::ConnectStatus::Ok;
                             });
        exec.run();
        return std::all_of(acks.begin(), acks.end(), [](const Ack &a) {
            return a.n == 1 && a.ok;
        });
    }
};

} // namespace

TEST(Fabric, ConnectReadWriteRoundTrip)
{
    Net net;
    ASSERT_TRUE(net.connectAll());
    EXPECT_TRUE(net.ini().connected());
    EXPECT_EQ(net.ini().remoteTenant(), fab::kConnTenantBase + 1);
    EXPECT_GT(net.ini().stats().connectLatencyNs, 2 * net.prof.oneWayNs);

    const auto data = test::pattern(4096, 5);
    std::vector<std::uint8_t> wbuf = data;
    long long wn = -1;
    net.ini().write(0, 0, wbuf,
                    [&](long long n, kern::IoTrace) { wn = n; });
    net.exec.run();
    EXPECT_EQ(wn, 4096);

    std::vector<std::uint8_t> rbuf(4096, 0);
    long long rn = -1;
    kern::IoTrace rtr;
    net.ini().read(0, 0, rbuf, [&](long long n, kern::IoTrace tr) {
        rn = n;
        rtr = tr;
    });
    net.exec.run();
    EXPECT_EQ(rn, 4096);
    EXPECT_EQ(rbuf, data);

    // A remote I/O pays at least two fabric traversals on top of the
    // device; its total is user+device, with the wire time in userNs.
    EXPECT_GT(net.ini().stats().latency.min(), 2 * net.prof.oneWayNs);
    EXPECT_GT(rtr.deviceNs, 0u);
    EXPECT_GT(rtr.userNs, 2 * net.prof.oneWayNs);

    EXPECT_EQ(net.ini().stats().reads, 1u);
    EXPECT_EQ(net.ini().stats().writes, 1u);
    EXPECT_EQ(net.ini().stats().inCapsuleWrites, 1u);
    EXPECT_EQ(net.tgt.capsules(), 2u);
    const auto &conns = net.tgt.connections();
    ASSERT_EQ(conns.size(), 1u);
    EXPECT_EQ(conns.at(1).ops, 2u);
    EXPECT_EQ(conns.at(1).remotePasid, 100u);
    EXPECT_EQ(net.target.dev.totalOps(), 2u);
}

TEST(Fabric, IoQueuedWhileConnectingFlushesOnAck)
{
    Net net;
    std::vector<std::uint8_t> buf(4096);
    unsigned done = 0;
    net.ini().connect(7);
    // Issued while the connect capsule is still crossing the wire.
    for (int i = 0; i < 3; i++)
        net.ini().read(0, static_cast<DevAddr>(i) * 4096, buf,
                       [&](long long n, kern::IoTrace) {
                           EXPECT_EQ(n, 4096);
                           done++;
                       });
    EXPECT_EQ(net.ini().state(), fab::ConnState::Connecting);
    net.exec.run();
    EXPECT_EQ(done, 3u);
    EXPECT_EQ(net.ini().stats().queuedBeforeConnect, 3u);
    EXPECT_EQ(net.ini().stats().reads, 3u);
}

TEST(Fabric, IoWhileIdleFails)
{
    Net net;
    std::vector<std::uint8_t> buf(4096);
    long long rn = 0;
    net.ini().read(0, 0, buf,
                   [&](long long n, kern::IoTrace) { rn = n; });
    net.exec.run();
    EXPECT_LT(rn, 0);
    EXPECT_EQ(net.ini().stats().rejected, 1u);
    EXPECT_EQ(net.tgt.capsules(), 0u);
}

TEST(Fabric, DisconnectDrainsInFlightThenReconnects)
{
    Net net;
    ASSERT_TRUE(net.connectAll());
    std::vector<std::uint8_t> buf(4096);
    unsigned done = 0;
    for (int i = 0; i < 4; i++)
        net.ini().read(0, static_cast<DevAddr>(i) * 4096, buf,
                       [&](long long n, kern::IoTrace) {
                           EXPECT_EQ(n, 4096);
                           done++;
                       });
    bool disconnected = false;
    net.ini().disconnect([&] { disconnected = true; });
    EXPECT_EQ(net.ini().state(), fab::ConnState::Draining);
    // New I/O is refused while draining.
    long long rejected = 0;
    net.ini().read(0, 0, buf,
                   [&](long long n, kern::IoTrace) { rejected = n; });
    net.exec.run();
    EXPECT_EQ(done, 4u);
    EXPECT_LT(rejected, 0);
    EXPECT_TRUE(disconnected);
    EXPECT_EQ(net.ini().state(), fab::ConnState::Idle);
    EXPECT_EQ(net.tgt.disconnects(), 1u);
    EXPECT_FALSE(net.tgt.connections().at(1).open);

    // The state machine permits a fresh connect after teardown.
    net.settle();
    bool ok = false;
    net.ini().connect(7, [&](fab::ConnectStatus st) {
        ok = st == fab::ConnectStatus::Ok;
    });
    net.exec.run();
    EXPECT_TRUE(ok);
    long long rn = -1;
    net.ini().read(0, 0, buf,
                   [&](long long n, kern::IoTrace) { rn = n; });
    net.exec.run();
    EXPECT_EQ(rn, 4096);
    EXPECT_EQ(net.tgt.accepts(), 2u);
    EXPECT_TRUE(net.tgt.connections().at(2).open);
}

TEST(Fabric, ResetMidIoFailsFastAndFencesStaleResponses)
{
    Net net;
    ASSERT_TRUE(net.connectAll());
    std::vector<std::uint8_t> buf(4096);
    unsigned failed = 0;
    for (int i = 0; i < 3; i++)
        net.ini().read(0, static_cast<DevAddr>(i) * 4096, buf,
                       [&](long long n, kern::IoTrace) {
                           EXPECT_LT(n, 0);
                           failed++;
                       });
    // Fire the reset while the capsules are at the target but before
    // any response can have crossed back (responses need two one-way
    // hops plus device time; 12 us is inside that window).
    net.client().eq.schedule(net.client().now() + 12 * kUs,
                             [&] { net.ini().reset(); });
    net.exec.run();
    EXPECT_EQ(failed, 3u);
    EXPECT_EQ(net.ini().state(), fab::ConnState::Idle);
    EXPECT_EQ(net.ini().stats().resets, 1u);
    // The device still executed the I/Os; their responses arrived with
    // a stale generation and were dropped, and the abort tore the
    // connection down at the target.
    EXPECT_EQ(net.ini().stats().staleDrops, 3u);
    EXPECT_EQ(net.target.dev.totalOps(), 3u);
    EXPECT_EQ(net.tgt.aborts(), 1u);
    EXPECT_FALSE(net.tgt.connections().at(1).open);
    EXPECT_EQ(net.tgt.pendingIos(), 0u);

    // Reconnect over the same initiator works (new generation).
    net.settle();
    bool ok = false;
    net.ini().connect(7, [&](fab::ConnectStatus st) {
        ok = st == fab::ConnectStatus::Ok;
    });
    net.exec.run();
    EXPECT_TRUE(ok);
    long long rn = -1;
    net.ini().read(0, 0, buf,
                   [&](long long n, kern::IoTrace) { rn = n; });
    net.exec.run();
    EXPECT_EQ(rn, 4096);
    EXPECT_EQ(net.ini().stats().staleDrops, 3u);
}

TEST(Fabric, InCapsuleVsRdmaReadOnPayloadBoundary)
{
    // Default profile: 8 KiB rides in the capsule, 8.5 KiB goes
    // two-phase. Data must round-trip identically on both paths.
    Net net;
    ASSERT_TRUE(net.connectAll());
    const auto small = test::pattern(8192, 21);
    const auto big = test::pattern(8704, 22);
    std::vector<std::uint8_t> wbuf = small;
    long long n1 = -1, n2 = -1;
    net.ini().write(0, 0, wbuf, [&](long long n, kern::IoTrace) {
        n1 = n;
    });
    net.exec.run();
    std::vector<std::uint8_t> wbuf2 = big;
    net.ini().write(0, 65536, wbuf2, [&](long long n, kern::IoTrace) {
        n2 = n;
    });
    net.exec.run();
    EXPECT_EQ(n1, 8192);
    EXPECT_EQ(n2, 8704);
    EXPECT_EQ(net.ini().stats().inCapsuleWrites, 1u);
    EXPECT_EQ(net.ini().stats().rdmaWrites, 1u);
    EXPECT_EQ(net.tgt.rdmaTransfers(), 1u);
    ASSERT_EQ(net.tgt.connections().size(), 1u);
    EXPECT_EQ(net.tgt.connections().at(1).inCapsuleWrites, 1u);
    EXPECT_EQ(net.tgt.connections().at(1).rdmaWrites, 1u);

    std::vector<std::uint8_t> r1(8192), r2(8704);
    net.ini().read(0, 0, r1, [](long long n, kern::IoTrace) {
        EXPECT_EQ(n, 8192);
    });
    net.exec.run();
    net.ini().read(0, 65536, r2, [](long long n, kern::IoTrace) {
        EXPECT_EQ(n, 8704);
    });
    net.exec.run();
    EXPECT_EQ(r1, small);
    EXPECT_EQ(r2, big);
}

TEST(Fabric, RdmaPathIsStrictlySlowerThanInCapsule)
{
    // The same 8 KiB write under a 4 KiB in-capsule threshold takes
    // the two-phase path: one extra round trip plus WR setup. Same
    // seeds on both nets → identical media jitter draws, so the gap is
    // purely the modeled transport difference.
    auto timedWrite = [](Net &net) {
        EXPECT_TRUE(net.connectAll());
        std::vector<std::uint8_t> buf(8192, 0xab);
        const Time start = net.client().now();
        Time done = 0;
        net.ini().write(0, 0, buf, [&](long long n, kern::IoTrace) {
            EXPECT_EQ(n, 8192);
            done = net.client().now();
        });
        net.exec.run();
        return done - start;
    };
    Net inCap;
    fab::FabricProfile lowThresh;
    lowThresh.inCapsuleBytes = 4096;
    Net rdma(1, lowThresh);
    const Time tIn = timedWrite(inCap);
    const Time tRdma = timedWrite(rdma);
    EXPECT_EQ(inCap.ini().stats().inCapsuleWrites, 1u);
    EXPECT_EQ(rdma.ini().stats().rdmaWrites, 1u);
    EXPECT_GT(tRdma, tIn);
    // The extra cost is at least the added round trip + WR setup.
    EXPECT_GE(tRdma - tIn, 2 * lowThresh.oneWayNs);
}

TEST(Fabric, RemoteTenantSumsFoldBitExactly)
{
    Net net(2);
    net.target.enableTenantAccounting();
    ASSERT_TRUE(net.connectAll());
    std::vector<std::uint8_t> buf(4096);
    unsigned done = 0;
    for (int i = 0; i < 5; i++)
        net.ini(0).read(0, static_cast<DevAddr>(i) * 4096, buf,
                        [&](long long, kern::IoTrace) { done++; });
    for (int i = 0; i < 3; i++)
        net.ini(1).write(0, 65536 + static_cast<DevAddr>(i) * 4096, buf,
                         [&](long long, kern::IoTrace) { done++; });
    net.exec.run();
    EXPECT_EQ(done, 8u);

    // The attribution invariant holds on the target with remote-only
    // traffic: per-tenant sums equal system totals bit-exactly.
    EXPECT_EQ(net.target.verifyTenantSums(), "");
    const auto &acct = net.target.tenantAccounting();
    const obs::TenantCounters *t1 = acct.find(fab::kConnTenantBase + 1);
    const obs::TenantCounters *t2 = acct.find(fab::kConnTenantBase + 2);
    ASSERT_NE(t1, nullptr);
    ASSERT_NE(t2, nullptr);
    EXPECT_EQ(t1->ssdOps, 5u);
    EXPECT_EQ(t2->ssdOps, 3u);
    EXPECT_EQ(t1->ssdReadBytes, 5u * 4096);
    EXPECT_EQ(t2->ssdWriteBytes, 3u * 4096);
    EXPECT_EQ(t1->ssdOps + t2->ssdOps, net.target.dev.totalOps());
    // Nothing was attributed to the fabric owner PASID: the queue-pair
    // owner is bookkeeping, the connection tenant is identity.
    EXPECT_EQ(acct.find(fab::kFabricOwnerPasid), nullptr);
}

TEST(Fabric, ConnectionStormSerializesOnAdminQueue)
{
    Net net(4);
    std::vector<Time> ackAt;
    for (unsigned i = 0; i < 4; i++)
        net.ini(i).connect(static_cast<Pasid>(10 + i),
                           [&net, i, &ackAt](fab::ConnectStatus st) {
                               EXPECT_EQ(st, fab::ConnectStatus::Ok);
                               ackAt.push_back(net.client(i).now());
                           });
    net.exec.run();
    ASSERT_EQ(ackAt.size(), 4u);
    std::sort(ackAt.begin(), ackAt.end());
    // Simultaneous connects queue behind one admin queue: grant times
    // are spaced by at least the admin processing cost.
    for (std::size_t i = 1; i < ackAt.size(); i++)
        EXPECT_GE(ackAt[i] - ackAt[i - 1], net.prof.adminProcessNs);
    EXPECT_EQ(net.tgt.accepts(), 4u);
}

namespace {

/** Small all-paths workload over one Net; digest of what happened. */
std::uint64_t
runTracedOrNot(bool traced, std::vector<std::string> *spanNames)
{
    Net net;
    if (traced) {
        net.target.enableTracing(obs::Level::Device);
        net.client().enableTracing(obs::Level::Device);
        net.target.enableTenantAccounting();
    }
    EXPECT_TRUE(net.connectAll());
    std::vector<std::uint8_t> buf(4096);
    std::vector<std::uint8_t> bigBuf(16384);
    std::function<void(int)> kick = [&](int remaining) {
        if (remaining == 0)
            return;
        auto next = [&kick, remaining](long long n, kern::IoTrace) {
            EXPECT_GT(n, 0);
            kick(remaining - 1);
        };
        const DevAddr addr
            = static_cast<DevAddr>(remaining % 8) * 16384;
        if (remaining % 3 == 0)
            net.ini().write(0, addr, bigBuf, next); // RDMA path
        else if (remaining % 3 == 1)
            net.ini().write(0, addr, buf, next); // in-capsule path
        else
            net.ini().read(0, addr, buf, next);
    };
    kick(24);
    net.exec.run();

    const auto &st = net.ini().stats();
    std::uint64_t h = sim::kFnvSeed;
    h = fnv(h, st.reads);
    h = fnv(h, st.writes);
    h = fnv(h, st.inCapsuleWrites);
    h = fnv(h, st.rdmaWrites);
    h = fnv(h, st.readBytes);
    h = fnv(h, st.writeBytes);
    h = fnv(h, st.latency.count());
    h = fnv(h, st.latency.min());
    h = fnv(h, st.latency.max());
    h = fnv(h, st.latency.p50());
    h = fnv(h, net.target.dev.totalOps());
    h = fnv(h, net.target.eq.executed());
    h = fnv(h, net.client().eq.executed());
    h = fnv(h, net.target.now());
    h = fnv(h, net.client().now());
    if (traced && spanNames) {
        for (const auto &rec : net.target.tracer()->data().spans)
            spanNames->push_back(rec.name);
        for (const auto &rec : net.client().tracer()->data().spans)
            spanNames->push_back(rec.name);
    }
    return h;
}

} // namespace

TEST(Fabric, TracingAndAccountingAreDigestNeutral)
{
    std::vector<std::string> names;
    const std::uint64_t plain = runTracedOrNot(false, nullptr);
    const std::uint64_t traced = runTracedOrNot(true, &names);
    EXPECT_EQ(plain, traced);
    auto has = [&](const char *n) {
        return std::find(names.begin(), names.end(), n) != names.end();
    };
    EXPECT_TRUE(has("fabric.connect"));
    EXPECT_TRUE(has("fabric.sq"));
    EXPECT_TRUE(has("fabric.rdma"));
    EXPECT_TRUE(has("fabric.capsule"));
    EXPECT_TRUE(has("fabric.read"));
    EXPECT_TRUE(has("fabric.write"));
}

namespace {

std::uint64_t
digestFio(std::uint64_t h, const wl::FioResult &r)
{
    h = fnv(h, r.ops);
    h = fnv(h, r.bytes);
    h = fnv(h, r.latency.count());
    h = fnv(h, r.latency.min());
    h = fnv(h, r.latency.max());
    h = fnv(h, r.latency.p50());
    h = fnv(h, r.latency.p99());
    return h;
}

/** A 3-client fabric fleet driving FioRunner over initiators. */
std::uint64_t
runMiniFabricFleet(unsigned shards)
{
    sim::setVerbose(false);
    sys::FleetConfig fc;
    fc.systems = 4; // target + 3 clients
    fc.shards = shards;
    fc.topology = sys::FleetTopology::FabricClientsTarget;
    fc.deviceBytes = 1ull << 30;
    fc.seed = 17;
    fc.fabricLatencyNs = 25 * kUs;
    fc.beaconPeriodNs = 100 * kUs;
    sys::Fleet fleet(fc);

    fab::FabricProfile prof;
    fab::FabricTarget tgt(fleet.target(), prof);
    tgt.bind(fleet.executor(), fleet.domainOf(0));
    EXPECT_TRUE(tgt.serve());

    std::vector<std::unique_ptr<fab::FabricInitiator>> inis;
    std::vector<std::unique_ptr<wl::FioRunner>> runners;
    std::vector<wl::FioPending> pending;
    Time horizon = 0;
    for (unsigned c = 1; c < fleet.size(); c++) {
        inis.push_back(std::make_unique<fab::FabricInitiator>(
            fleet.system(c), tgt));
        inis.back()->bind(fleet.executor(), fleet.domainOf(c));

        wl::FioJob j;
        j.engine = wl::Engine::Fabric;
        j.fabric = inis.back().get();
        j.numJobs = 2;
        j.fileBytes = 8ull << 20;
        j.bs = c == 3 ? 16384 : 4096; // client 3 exercises RDMA writes
        j.rw = c == 1 ? wl::RwMode::RandRead : wl::RwMode::RandWrite;
        j.runtime = 2 * kMs;
        j.warmup = 200 * kUs;
        j.seed = 3 + c;
        j.fabricBase = fc.deviceBytes / 2
                       + static_cast<DevAddr>(c - 1) * j.numJobs
                             * j.fileBytes;
        runners.push_back(
            std::make_unique<wl::FioRunner>(fleet.system(c)));
        pending.push_back(runners.back()->arm(j));
        horizon = std::max(horizon, fleet.system(c).now() + j.warmup
                                        + j.runtime);
    }
    fleet.start(horizon);
    fleet.run();

    std::uint64_t h = sim::kFnvSeed;
    for (std::size_t i = 0; i < runners.size(); i++) {
        h = digestFio(h, runners[i]->collect(std::move(pending[i])));
        h = fnv(h, inis[i]->stats().reads);
        h = fnv(h, inis[i]->stats().writes);
        h = fnv(h, inis[i]->stats().rdmaWrites);
    }
    for (const auto &[id, info] : tgt.connections()) {
        h = fnv(h, id);
        h = fnv(h, info.tenant);
        h = fnv(h, info.ops);
        h = fnv(h, info.readBytes);
        h = fnv(h, info.writeBytes);
    }
    h = fnv(h, fleet.target().dev.totalOps());
    h = fnv(h, fleet.controllerDigest());
    h = fnv(h, fleet.beacons());
    for (unsigned i = 0; i < fleet.size(); i++) {
        h = fnv(h, fleet.system(i).now());
        h = fnv(h, fleet.system(i).eq.executed());
    }
    EXPECT_GT(fleet.beacons(), 0u);
    EXPECT_GT(fleet.target().dev.totalOps(), 0u);
    return h;
}

} // namespace

/**
 * The fabric fleet's digest — fio stats, per-connection target stats,
 * controller beacon fold — must be bit-identical at 1, 2, and 4
 * shards: remote capsules ride the same deterministic mailbox merge as
 * every other cross-domain message.
 */
TEST(Fabric, FleetDigestInvariantAcrossShardCounts)
{
    const std::uint64_t one = runMiniFabricFleet(1);
    EXPECT_EQ(one, runMiniFabricFleet(2));
    EXPECT_EQ(one, runMiniFabricFleet(4));
}

namespace {

fab::FabricProfile
depthProfile(std::uint32_t depth, bool enforce = true,
             std::uint32_t reactors = 1)
{
    fab::FabricProfile p;
    p.queueDepth = depth;
    p.enforceDepth = enforce;
    p.reactors = reactors;
    return p;
}

} // namespace

TEST(FabricAdmission, DepthOneCompletesInSubmissionOrder)
{
    Net net(1, depthProfile(1));
    ASSERT_TRUE(net.connectAll());
    std::vector<std::uint8_t> buf(4096);
    std::vector<unsigned> order;
    for (unsigned i = 0; i < 6; i++)
        net.ini().read(0, static_cast<DevAddr>(i) * 4096, buf,
                       [&order, i](long long n, kern::IoTrace) {
                           EXPECT_EQ(n, 4096);
                           order.push_back(i);
                       });
    // Five of the six are held back by admission, not rejected.
    EXPECT_EQ(net.ini().depthQueued(), 5u);
    net.exec.run();
    ASSERT_EQ(order.size(), 6u);
    for (unsigned i = 0; i < 6; i++)
        EXPECT_EQ(order[i], i);
    EXPECT_EQ(net.ini().stats().queuedOnDepth, 5u);
    EXPECT_EQ(net.ini().stats().maxInflight, 1u);
    EXPECT_EQ(net.ini().depthQueued(), 0u);
    EXPECT_EQ(net.tgt.overflowParks(), 0u);
}

TEST(FabricAdmission, DepthKWithExcessCompletesAllWithinDepth)
{
    constexpr std::uint32_t k = 4;
    constexpr unsigned m = 6;
    Net net(1, depthProfile(k));
    ASSERT_TRUE(net.connectAll());
    std::vector<std::uint8_t> buf(4096);
    unsigned done = 0;
    for (unsigned i = 0; i < k + m; i++)
        net.ini().read(0, static_cast<DevAddr>(i) * 4096, buf,
                       [&done](long long n, kern::IoTrace) {
                           EXPECT_EQ(n, 4096);
                           done++;
                       });
    EXPECT_EQ(net.ini().depthQueued(), m);
    net.exec.run();
    EXPECT_EQ(done, k + m);
    EXPECT_EQ(net.ini().stats().queuedOnDepth, m);
    // Admission capped the connection at its depth end to end; the
    // target saw the same ceiling on its queue pair.
    EXPECT_EQ(net.ini().stats().maxInflight, k);
    EXPECT_EQ(net.tgt.connections().at(1).peakInflight, k);
    EXPECT_EQ(net.tgt.overflowParks(), 0u);
}

TEST(FabricAdmission, VictimStaysOrderedAndBoundedUnderAggressor)
{
    constexpr std::uint32_t k = 4;
    Net net(2, depthProfile(k));
    ASSERT_TRUE(net.connectAll());
    std::vector<std::uint8_t> abuf(4096);
    std::vector<std::uint8_t> vbuf(4096);
    unsigned aggDone = 0;
    Time aggLastAt = 0;
    for (unsigned i = 0; i < 40; i++)
        net.ini(0).read(0, static_cast<DevAddr>(i) * 4096, abuf,
                        [&](long long n, kern::IoTrace) {
                            EXPECT_EQ(n, 4096);
                            aggDone++;
                            aggLastAt = net.client(0).now();
                        });
    std::vector<unsigned> victimOrder;
    Time victimLastAt = 0;
    for (unsigned i = 0; i < 5; i++)
        net.ini(1).read(0, (64 + static_cast<DevAddr>(i)) * 4096, vbuf,
                        [&, i](long long n, kern::IoTrace) {
                            EXPECT_EQ(n, 4096);
                            victimOrder.push_back(i);
                            victimLastAt = net.client(1).now();
                        });
    net.exec.run();
    EXPECT_EQ(aggDone, 40u);
    ASSERT_EQ(victimOrder.size(), 5u);
    // The aggressor's backlog cannot reorder the victim's stream: the
    // victim's own queue pair preserves admission order.
    for (unsigned i = 0; i < 5; i++)
        EXPECT_EQ(victimOrder[i], i);
    // Per-connection depth caps the aggressor's in-flight share, so
    // the victim's short stream finishes well before the flood does.
    EXPECT_LT(victimLastAt, aggLastAt);
    EXPECT_LE(net.ini(0).stats().maxInflight, k);
    EXPECT_LE(net.ini(1).stats().maxInflight, k);
}

TEST(FabricAdmission, ResetWithQueuedOverDepthDrainsDeterministically)
{
    Net net(1, depthProfile(2));
    ASSERT_TRUE(net.connectAll());
    std::vector<std::uint8_t> buf(4096);
    unsigned failed = 0;
    for (unsigned i = 0; i < 8; i++)
        net.ini().read(0, static_cast<DevAddr>(i) * 4096, buf,
                       [&failed](long long n, kern::IoTrace) {
                           EXPECT_LT(n, 0);
                           failed++;
                       });
    EXPECT_EQ(net.ini().depthQueued(), 6u);
    // Reset while two are on the wire and six wait in the admission
    // queue: every callback must fail fast, and nothing may leak.
    net.client().eq.schedule(net.client().now() + 12 * kUs,
                             [&] { net.ini().reset(); });
    net.exec.run();
    EXPECT_EQ(failed, 8u);
    EXPECT_EQ(net.ini().depthQueued(), 0u);
    EXPECT_EQ(net.ini().inflight(), 0u);
    EXPECT_EQ(net.ini().state(), fab::ConnState::Idle);
    EXPECT_EQ(net.tgt.pendingIos(), 0u);

    // The connection is reusable and admission still enforces.
    net.settle();
    ASSERT_TRUE(net.connectAll());
    unsigned done = 0;
    for (unsigned i = 0; i < 4; i++)
        net.ini().read(0, static_cast<DevAddr>(i) * 4096, buf,
                       [&done](long long n, kern::IoTrace) {
                           EXPECT_EQ(n, 4096);
                           done++;
                       });
    net.exec.run();
    EXPECT_EQ(done, 4u);
    EXPECT_EQ(net.ini().stats().maxInflight, 2u);
}

TEST(FabricAdmission, DisabledEnforcementParksOverflowAtTarget)
{
    Net net(1, depthProfile(2, /*enforce=*/false));
    ASSERT_TRUE(net.connectAll());
    std::vector<std::uint8_t> buf(4096);
    unsigned done = 0;
    for (unsigned i = 0; i < 10; i++)
        net.ini().read(0, static_cast<DevAddr>(i) * 4096, buf,
                       [&done](long long n, kern::IoTrace) {
                           EXPECT_EQ(n, 4096);
                           done++;
                       });
    // Nothing queues at the initiator with enforcement off...
    EXPECT_EQ(net.ini().depthQueued(), 0u);
    net.exec.run();
    EXPECT_EQ(done, 10u);
    EXPECT_EQ(net.ini().stats().queuedOnDepth, 0u);
    // ...so the overflow lands in the target's per-connection park
    // queue instead, and the device still never sees more than depth.
    EXPECT_GT(net.tgt.overflowParks(), 0u);
    EXPECT_EQ(net.tgt.connections().at(1).peakInflight, 2u);
}

TEST(FabricIncast, ConnReactorMappingIsDeterministic)
{
    // The admin queue is reactor 0 territory and connId 0 is invalid;
    // data connections stripe round-robin from reactor 0.
    EXPECT_EQ(sys::connReactor(1, 1), 0u);
    EXPECT_EQ(sys::connReactor(1, 4), 0u);
    EXPECT_EQ(sys::connReactor(2, 4), 1u);
    EXPECT_EQ(sys::connReactor(5, 4), 0u);
    EXPECT_EQ(sys::connReactor(6, 4), 1u);

    Net net(4, depthProfile(8, true, /*reactors=*/2));
    ASSERT_TRUE(net.connectAll());
    for (const auto &[id, info] : net.tgt.connections())
        EXPECT_EQ(info.reactor, sys::connReactor(id, 2));
}

TEST(FabricIncast, AdminStaysSerialWithManyReactors)
{
    Net net(4, depthProfile(8, true, /*reactors=*/4));
    std::vector<Time> ackAt;
    for (unsigned i = 0; i < 4; i++)
        net.ini(i).connect(static_cast<Pasid>(20 + i),
                           [&net, i, &ackAt](fab::ConnectStatus st) {
                               EXPECT_EQ(st, fab::ConnectStatus::Ok);
                               ackAt.push_back(net.client(i).now());
                           });
    net.exec.run();
    ASSERT_EQ(ackAt.size(), 4u);
    std::sort(ackAt.begin(), ackAt.end());
    // Reactor count must not parallelize the admin queue: grants stay
    // spaced by the admin cost so connection ids (and with them tenant
    // ids and reactor placement) are handed out in one serial order.
    for (std::size_t i = 1; i < ackAt.size(); i++)
        EXPECT_GE(ackAt[i] - ackAt[i - 1], net.prof.adminProcessNs);
    EXPECT_EQ(net.tgt.accepts(), 4u);
}

namespace {

/** Incast burst over a Net; returns (digest, max latency). */
std::pair<std::uint64_t, Time>
runIncastBurst(unsigned shards, std::uint32_t reactors)
{
    Net net(4, depthProfile(8, true, reactors), shards);
    EXPECT_TRUE(net.connectAll());
    std::vector<std::vector<std::uint8_t>> bufs(
        4, std::vector<std::uint8_t>(4096));
    // One counter per client: each is touched only from its client's
    // domain, and at 4 shards those domains run on different threads.
    std::vector<unsigned> done(4, 0);
    for (unsigned c = 0; c < 4; c++)
        for (unsigned i = 0; i < 32; i++)
            net.ini(c).read(0,
                            (static_cast<DevAddr>(c) * 64 + i) * 4096,
                            bufs[c],
                            [&d = done[c]](long long n, kern::IoTrace) {
                                EXPECT_EQ(n, 4096);
                                d++;
                            });
    net.exec.run();
    EXPECT_EQ(std::accumulate(done.begin(), done.end(), 0u), 4u * 32u);

    std::uint64_t h = sim::kFnvSeed;
    Time maxLat = 0;
    for (unsigned c = 0; c < 4; c++) {
        const auto &st = net.ini(c).stats();
        h = fnv(h, st.reads);
        h = fnv(h, st.queuedOnDepth);
        h = fnv(h, st.maxInflight);
        h = fnv(h, st.latency.p50());
        h = fnv(h, st.latency.max());
        maxLat = std::max(maxLat, st.latency.max());
    }
    for (const auto &rs : net.tgt.reactorStats()) {
        h = fnv(h, rs.capsules);
        h = fnv(h, rs.busyNs);
    }
    h = fnv(h, net.target.now());
    h = fnv(h, net.target.eq.executed());
    return {h, maxLat};
}

} // namespace

TEST(FabricIncast, BurstDigestInvariantAcrossShardCounts)
{
    for (std::uint32_t r : {1u, 2u, 4u}) {
        const auto one = runIncastBurst(1, r);
        EXPECT_EQ(one.first, runIncastBurst(2, r).first);
        EXPECT_EQ(one.first, runIncastBurst(4, r).first);
    }
}

TEST(FabricIncast, MoreReactorsNeverSlower)
{
    // Same burst, more lanes: the capsule serialization point thins
    // out, so the worst command can only get faster (or stay equal).
    const Time one = runIncastBurst(2, 1).second;
    const Time two = runIncastBurst(2, 2).second;
    const Time four = runIncastBurst(2, 4).second;
    EXPECT_LE(two, one);
    EXPECT_LE(four, two);
}

TEST(FabricIncast, ResetRacesRdmaPullOnAnotherReactor)
{
    Net net(2, depthProfile(8, true, /*reactors=*/2));
    ASSERT_TRUE(net.connectAll());
    // conn 1 → reactor 0, conn 2 → reactor 1.
    ASSERT_EQ(net.tgt.connections().at(2).reactor, 1u);

    // A 16 KiB write from conn 2 takes the two-phase path: the target
    // posts an RDMA read and waits for the payload.
    std::vector<std::uint8_t> big = test::pattern(16384, 9);
    long long wn = 0;
    net.ini(1).write(0, 0, big,
                     [&wn](long long n, kern::IoTrace) { wn = n; });
    // Reset conn 2 while its payload pull is in flight (the pull
    // request needs a round trip; 12 us is inside it). The generation
    // fence must discard the stale pull on the target and the stale
    // data on the wire without touching conn 1's reactor.
    net.client(1).eq.schedule(net.client(1).now() + 12 * kUs,
                              [&] { net.ini(1).reset(); });
    std::vector<std::uint8_t> buf(4096);
    long long rn = -1;
    net.ini(0).read(0, 4096, buf,
                    [&rn](long long n, kern::IoTrace) { rn = n; });
    net.exec.run();
    EXPECT_LT(wn, 0);
    EXPECT_EQ(rn, 4096);
    EXPECT_EQ(net.ini(1).state(), fab::ConnState::Idle);
    EXPECT_EQ(net.tgt.aborts(), 1u);
    EXPECT_EQ(net.tgt.pendingIos(), 0u);
    EXPECT_FALSE(net.tgt.connections().at(2).open);
    EXPECT_TRUE(net.tgt.connections().at(1).open);

    // The fenced connection reconnects cleanly onto its reactor.
    net.settle();
    bool ok = false;
    net.ini(1).connect(9, [&ok](fab::ConnectStatus st) {
        ok = st == fab::ConnectStatus::Ok;
    });
    net.exec.run();
    EXPECT_TRUE(ok);
    EXPECT_EQ(net.tgt.connections().at(3).reactor,
              sys::connReactor(3, 2));
}

TEST(FabricQos, ResetUnderQosBacklogFailsParkedIosWithoutLoss)
{
    // A tight IOPS cap parks most of a burst in the client host's QoS
    // registry, still ahead of depth admission. A reset mid-backlog
    // must present the SAME error surface as for in-flight I/O: every
    // callback fails (none dropped), no depth slot leaks, and the QoS
    // drain events that fire later for the torn-down generation are
    // no-ops. The connection must then be reusable.
    Net net(1, depthProfile(4));
    ASSERT_TRUE(net.connectAll());
    qos::Registry &reg = net.client().enableQos();
    qos::TenantLimit lim;
    lim.iopsLimit = 1000; // 1 op/ms
    lim.burstOps = 1;
    reg.setLimit(net.ini().remoteTenant(), lim);

    std::vector<std::uint8_t> buf(4096);
    unsigned failed = 0;
    long long firstErr = 0;
    for (unsigned i = 0; i < 6; i++)
        net.ini().read(0, static_cast<DevAddr>(i) * 4096, buf,
                       [&](long long n, kern::IoTrace) {
                           EXPECT_LT(n, 0);
                           if (firstErr == 0)
                               firstErr = n;
                           EXPECT_EQ(n, firstErr)
                               << "parked I/O failed differently";
                           failed++;
                       });
    // One admitted by the full bucket, five parked in the registry.
    EXPECT_EQ(reg.parkedOf(net.ini().remoteTenant()), 5u);
    // Reset inside the response window of the first I/O and before the
    // first QoS drain (1 ms out) can admit a second one.
    net.client().eq.schedule(net.client().now() + 12 * kUs,
                             [&] { net.ini().reset(); });
    net.exec.run();

    EXPECT_EQ(failed, 6u);
    EXPECT_EQ(net.ini().pendingIos(), 0u);
    EXPECT_EQ(net.ini().inflight(), 0u);
    EXPECT_EQ(net.ini().depthQueued(), 0u);
    EXPECT_EQ(net.ini().state(), fab::ConnState::Idle);
    EXPECT_EQ(net.tgt.pendingIos(), 0u);
    // The drain events ran after the reset and found nothing to admit:
    // the backlog died with the generation, not silently later.
    EXPECT_EQ(reg.parkedOf(net.ini().remoteTenant()), 0u);

    // Reconnect mints a new connection tenant, unthrottled; the data
    // path must be fully functional again.
    net.settle();
    ASSERT_TRUE(net.connectAll());
    unsigned done = 0;
    for (unsigned i = 0; i < 4; i++)
        net.ini().read(0, static_cast<DevAddr>(i) * 4096, buf,
                       [&done](long long n, kern::IoTrace) {
                           EXPECT_EQ(n, 4096);
                           done++;
                       });
    net.exec.run();
    EXPECT_EQ(done, 4u);
}

TEST(FabricQos, ReconnectFromResetFailureCallbackSticks)
{
    // Regression: reset() used to fail pending I/O before detaching
    // the connect callback, so an I/O failure callback that immediately
    // reconnects had its fresh connect state stomped by the tail of the
    // same reset. Failure callbacks are now deferred past the teardown
    // and the old callback is captured first, so a reconnect issued
    // from inside one must win.
    Net net;
    ASSERT_TRUE(net.connectAll());
    std::vector<std::uint8_t> buf(4096);
    bool reconnected = false;
    long long rn = -1;
    net.ini().read(0, 0, buf, [&](long long n, kern::IoTrace) {
        EXPECT_LT(n, 0);
        // The initiator must already be fully torn down here.
        EXPECT_EQ(net.ini().state(), fab::ConnState::Idle);
        EXPECT_EQ(net.ini().inflight(), 0u);
        net.ini().connect(8, [&](fab::ConnectStatus st) {
            reconnected = st == fab::ConnectStatus::Ok;
        });
    });
    net.client().eq.schedule(net.client().now() + 12 * kUs,
                             [&] { net.ini().reset(); });
    net.exec.run();
    ASSERT_TRUE(reconnected);
    EXPECT_TRUE(net.ini().connected());

    // And the revived connection moves data.
    net.ini().read(0, 0, buf,
                   [&rn](long long n, kern::IoTrace) { rn = n; });
    net.exec.run();
    EXPECT_EQ(rn, 4096);
}

} // namespace bpd
