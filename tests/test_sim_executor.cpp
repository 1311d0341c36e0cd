/**
 * @file
 * Sharded executor tests: mailbox delivery order (the determinism
 * linchpin), conservative-window safety panics, torn-barrier delivery
 * of in-flight messages, and bit-identical execution across shard
 * counts under a randomized message storm.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/hash.hpp"
#include "sim/random.hpp"
#include "sim/sim_executor.hpp"

using namespace bpd;
using namespace bpd::sim;

TEST(SimExecutor, SingleDomainMatchesPlainRun)
{
    // Same event set through a plain run and through a 3-shard
    // executor with one domain: identical order, identical clock.
    auto record = [](EventQueue &eq, std::vector<int> &order) {
        for (int i = 0; i < 8; i++)
            eq.schedule(10 * (i % 3), [&order, i]() {
                order.push_back(i);
            });
    };
    EventQueue plain;
    std::vector<int> plainOrder;
    record(plain, plainOrder);
    plain.run();

    EventQueue sharded;
    std::vector<int> shardedOrder;
    record(sharded, shardedOrder);
    SimExecutor ex(3);
    ex.addDomain(sharded, 0, "only");
    ex.run();

    EXPECT_EQ(shardedOrder, plainOrder);
    EXPECT_EQ(sharded.now(), plain.now());
    EXPECT_EQ(sharded.executed(), plain.executed());
}

TEST(SimExecutor, RepeatedRunsReachQuiescenceEachTime)
{
    EventQueue eq;
    SimExecutor ex(2);
    const std::uint32_t d = ex.addDomain(eq, 0);
    (void)d;
    int runs = 0;
    eq.schedule(5, [&runs]() { runs++; });
    ex.run();
    EXPECT_EQ(runs, 1);
    eq.schedule(9, [&runs]() { runs++; });
    ex.run();
    EXPECT_EQ(runs, 2);
    ex.run(); // idle run terminates immediately
    EXPECT_EQ(runs, 2);
}

TEST(SimExecutor, MailboxDeliveryOrderIsWhenSourceSeq)
{
    // Three domains on one shard so the test itself is single-
    // threaded. Domain B posts *first* in wall-clock order, but at the
    // same virtual time the lower source id (A) must deliver first,
    // and two posts from one source must stay FIFO.
    EventQueue a, b, c;
    SimExecutor ex(1);
    const std::uint32_t da = ex.addDomain(a, 0, "a");
    const std::uint32_t db = ex.addDomain(b, 0, "b");
    const std::uint32_t dc = ex.addDomain(c, 0, "c");
    ex.connect(da, dc, 10);
    ex.connect(db, dc, 10);
    EXPECT_EQ(ex.lookahead(), 10u);

    std::vector<std::string> arrivals;
    auto recv = [&arrivals](const char *tag) {
        return [&arrivals, tag]() { arrivals.push_back(tag); };
    };
    b.schedule(3, [&]() { ex.post(db, dc, 20, recv("b1")); });
    a.schedule(5, [&]() {
        ex.post(da, dc, 20, recv("a1"));
        ex.post(da, dc, 20, recv("a2"));
        ex.post(da, dc, 15, recv("a0"));
    });
    ex.run();

    EXPECT_EQ(arrivals,
              (std::vector<std::string>{"a0", "a1", "a2", "b1"}));
    EXPECT_EQ(c.now(), 20u);
    EXPECT_EQ(ex.delivered(), 4u);
}

TEST(SimExecutor, TornBarrierDeliversInFlightMessages)
{
    // Shard 0's domain drains completely in its first window while a
    // burst of messages to shard 1 is still staged in the mailbox: the
    // executor must keep running rounds until the mail is processed,
    // not declare quiescence from empty queues alone. The ack chain
    // then bounces the tail message back and forth to stress repeated
    // idle/busy transitions.
    EventQueue a, b;
    SimExecutor ex(2);
    const std::uint32_t da = ex.addDomain(a, 0, "a");
    const std::uint32_t db = ex.addDomain(b, 1, "b");
    ex.connect(da, db, 7);
    ex.connect(db, da, 7);

    int received = 0;
    int bounces = 0;
    // One self-contained hop function per direction, rebuilt at each
    // hop (captures stay tiny).
    struct Bounce
    {
        SimExecutor &ex;
        std::uint32_t da, db;
        EventQueue &a, &b;
        int &bounces;

        void
        hop(bool toB, int left)
        {
            if (left == 0)
                return;
            const std::uint32_t src = toB ? da : db;
            const std::uint32_t dst = toB ? db : da;
            EventQueue &seq = toB ? a : b;
            ex.post(src, dst, seq.now() + 7,
                    [this, toB, left]() {
                        bounces++;
                        hop(!toB, left - 1);
                    });
        }
    };
    auto bounce = std::make_unique<Bounce>(
        Bounce{ex, da, db, a, b, bounces});

    a.schedule(0, [&]() {
        for (int i = 0; i < 100; i++)
            ex.post(da, db, a.now() + 7 + i,
                    [&received]() { received++; });
        bounce->hop(true, 31);
    });
    ex.run();

    EXPECT_EQ(received, 100);
    EXPECT_EQ(bounces, 31);
    EXPECT_TRUE(a.empty());
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(ex.delivered(), 131u);
}

namespace {

/**
 * Randomized message storm over K actor domains: every actor runs a
 * deterministic local schedule, posts to pseudo-random peers at
 * pseudo-random (latency-respecting) times, and folds everything it
 * observes — local ticks and arrivals, with their virtual times —
 * into a per-actor hash. The hashes must be independent of the shard
 * count.
 */
std::vector<std::uint64_t>
runStorm(unsigned shards)
{
    constexpr unsigned kActors = 5;
    constexpr Time kLat = 11;

    struct Actor
    {
        EventQueue eq;
        Rng rng{0};
        std::uint64_t hash = kFnvSeed;
        int ticksLeft = 120;
    };

    std::vector<std::unique_ptr<Actor>> actors;
    SimExecutor ex(shards);
    std::vector<std::uint32_t> dom;
    for (unsigned i = 0; i < kActors; i++) {
        actors.push_back(std::make_unique<Actor>());
        actors.back()->rng = Rng(1000 + i);
        dom.push_back(
            ex.addDomain(actors.back()->eq, i % shards));
    }
    for (unsigned i = 0; i < kActors; i++)
        for (unsigned j = 0; j < kActors; j++)
            if (i != j)
                ex.connect(dom[i], dom[j], kLat);

    struct Driver
    {
        std::vector<std::unique_ptr<Actor>> &actors;
        SimExecutor &ex;
        std::vector<std::uint32_t> &dom;

        void
        tick(unsigned i)
        {
            Actor &a = *actors[i];
            if (a.ticksLeft-- <= 0)
                return;
            a.hash = fnv(a.hash, a.eq.now());
            // Post to a pseudo-random peer with a pseudo-random
            // payload and slack.
            const unsigned peer
                = (i + 1 + a.rng.nextUint(4)) % 5;
            const std::uint64_t payload = a.rng.next();
            const Time when = a.eq.now() + kLat + a.rng.nextUint(40);
            ex.post(dom[i], dom[peer], when,
                    [this, i, peer, payload]() {
                        Actor &p = *actors[peer];
                        p.hash = fnv(p.hash, i);
                        p.hash = fnv(p.hash, p.eq.now());
                        p.hash = fnv(p.hash, payload);
                    });
            a.eq.schedule(a.eq.now() + 1 + a.rng.nextUint(15),
                          [this, i]() { tick(i); });
        }
    };
    auto drv = std::make_unique<Driver>(Driver{actors, ex, dom});
    for (unsigned i = 0; i < kActors; i++)
        actors[i]->eq.schedule(3 * i, [&drv, i]() { drv->tick(i); });

    ex.run();

    std::vector<std::uint64_t> hashes;
    for (auto &a : actors) {
        EXPECT_TRUE(a->eq.empty());
        hashes.push_back(a->hash);
    }
    return hashes;
}

} // namespace

TEST(SimExecutor, ShardCountInvarianceUnderMessageStorm)
{
    const auto h1 = runStorm(1);
    const auto h2 = runStorm(2);
    const auto h4 = runStorm(4);
    EXPECT_EQ(h1, h2);
    EXPECT_EQ(h1, h4);
    // The storm actually communicated: hashes differ across actors.
    EXPECT_NE(h1[0], h1[1]);
}

TEST(SimExecutorDeath, PostBelowLatencyFloorPanics)
{
    EventQueue a, b;
    SimExecutor ex(1);
    const std::uint32_t da = ex.addDomain(a, 0);
    const std::uint32_t db = ex.addDomain(b, 0);
    ex.connect(da, db, 100);
    EXPECT_DEATH(ex.post(da, db, 50, []() {}),
                 "below channel latency floor");
}

TEST(SimExecutorDeath, PostOnUnconnectedChannelPanics)
{
    EventQueue a, b;
    SimExecutor ex(1);
    const std::uint32_t da = ex.addDomain(a, 0);
    const std::uint32_t db = ex.addDomain(b, 0);
    ex.connect(da, db, 100);
    EXPECT_DEATH(ex.post(db, da, 1000, []() {}),
                 "unconnected channel");
}

TEST(SimExecutorDeath, ZeroLatencyChannelPanics)
{
    EventQueue a, b;
    SimExecutor ex(1);
    const std::uint32_t da = ex.addDomain(a, 0);
    const std::uint32_t db = ex.addDomain(b, 0);
    EXPECT_DEATH(ex.connect(da, db, 0), "zero-latency");
}
