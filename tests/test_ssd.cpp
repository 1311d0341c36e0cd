/**
 * @file
 * SSD model tests: block store semantics, NVMe queue pairs, latency
 * model calibration (Table 1 device time), VBA commands through the
 * IOMMU, write-translation overlap, arbitration fairness, flush ordering,
 * exclusive claim.
 */

#include <algorithm>

#include <sys/resource.h>

#include <gtest/gtest.h>

#include "iommu/iommu.hpp"
#include "mem/page_table.hpp"
#include "qos/qos.hpp"
#include "sim/event_queue.hpp"
#include "sim/hash.hpp"
#include "sim/random.hpp"
#include "ssd/block_store.hpp"
#include "ssd/dispatcher.hpp"
#include "ssd/nvme.hpp"
#include "ssd/volume_store.hpp"

using namespace bpd;
using namespace bpd::ssd;

TEST(BlockStore, UnwrittenReadsZero)
{
    BlockStore bs(1 << 20);
    std::vector<std::uint8_t> buf(4096, 0xff);
    bs.read(0, buf);
    for (auto b : buf)
        EXPECT_EQ(b, 0);
}

TEST(BlockStore, WriteReadRoundTrip)
{
    BlockStore bs(1 << 20);
    std::vector<std::uint8_t> w(1000);
    for (std::size_t i = 0; i < w.size(); i++)
        w[i] = static_cast<std::uint8_t>(i);
    bs.write(12345, w);
    std::vector<std::uint8_t> r(1000);
    bs.read(12345, r);
    EXPECT_EQ(w, r);
}

TEST(BlockStore, CrossChunkWrite)
{
    BlockStore bs(1 << 20);
    std::vector<std::uint8_t> w(3 * 4096, 0x5a);
    bs.write(4096 - 100, w);
    std::vector<std::uint8_t> r(3 * 4096);
    bs.read(4096 - 100, r);
    EXPECT_EQ(w, r);
}

TEST(BlockStore, ZeroBlocksErases)
{
    BlockStore bs(1 << 20);
    std::vector<std::uint8_t> w(4096, 0xaa);
    bs.write(8192, w);
    EXPECT_FALSE(bs.isZero(8192, 4096));
    bs.zeroBlocks(2, 1);
    EXPECT_TRUE(bs.isZero(8192, 4096));
    EXPECT_EQ(bs.residentBytes(), 0u);
}

TEST(BlockStore, OutOfRangePanics)
{
    BlockStore bs(1 << 20);
    std::vector<std::uint8_t> buf(4096);
    EXPECT_DEATH(bs.read((1 << 20) - 100, buf), "out of range");
}

namespace {

/** Minor page faults taken so far by the calling thread. */
long
threadMinorFaults()
{
    rusage ru{};
    getrusage(RUSAGE_THREAD, &ru);
    return ru.ru_minflt;
}

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAsan = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kAsan = true;
#else
constexpr bool kAsan = false;
#endif
#else
constexpr bool kAsan = false;
#endif

} // namespace

// Reads of never-written blocks inside a materialized extent are
// memsets of the output: they map no page of the extent. The bound is
// loose (allocator and sanitizer bookkeeping); touching each block
// would take one fault per block, 511 here.
TEST(BlockStore, UnwrittenBlocksOfLiveExtentReadWithoutFaults)
{
    BlockStore bs(BlockStore::kExtentBytes);
    const std::vector<std::uint8_t> w(kBlockBytes, 0x5a);
    bs.write(0, w);
    std::vector<std::uint8_t> buf(kBlockBytes, 0xff);
    const long before = threadMinorFaults();
    bool allZero = true;
    for (std::uint64_t b = 1; b < BlockStore::kExtentBlocks; b++) {
        bs.read(b * kBlockBytes, buf);
        allZero = allZero
                  && std::all_of(buf.begin(), buf.end(),
                                 [](std::uint8_t x) { return x == 0; });
    }
    const long faults = threadMinorFaults() - before;
    EXPECT_TRUE(allZero);
    EXPECT_LE(faults, 32);
    bs.read(0, buf);
    EXPECT_EQ(buf, w);
}

// Extents are page aligned, so a block's first write faults in one host
// page, not the two a block straddling a page boundary would (128 here).
TEST(BlockStore, BlockWriteDirtiesOneHostPage)
{
    BlockStore bs(BlockStore::kExtentBytes);
    const std::vector<std::uint8_t> w(kBlockBytes, 0xa5);
    const long before = threadMinorFaults();
    for (std::uint64_t i = 0; i < 64; i++)
        bs.write(2 * i * kBlockBytes, w);
    const long faults = threadMinorFaults() - before;
    // ASan's memcpy check reads the shadow of the destination: 64 KiB
    // for the 512 KiB span written, up to 17 more pages faulted in.
    EXPECT_LE(faults, 80 + (kAsan ? 17 : 0));
    EXPECT_EQ(bs.residentBytes(), 64 * kBlockBytes);
}

namespace {

/**
 * Seeded unaligned writes, reads, zeroBlocks and isZero against a byte
 * shadow. Every span stays inside one region of @p regionBytes (a
 * VolumeStore slot); a quarter of them are placed around a 2 MiB extent
 * boundary.
 */
void
checkAgainstShadow(BlockStore &bs, std::uint64_t regionBytes,
                   std::uint64_t seed)
{
    const std::uint64_t cap = bs.capacity();
    std::vector<std::uint8_t> shadow(cap, 0);
    std::vector<bool> written(cap / kBlockBytes, false);
    sim::Rng rng(seed);

    // A span of 1 B to 3 blocks inside one region.
    auto pickSpan = [&](std::uint64_t &addr, std::uint64_t &len) {
        len = rng.nextRange(1, 3 * kBlockBytes);
        const std::uint64_t region = rng.nextUint(cap / regionBytes);
        const std::uint64_t lo = region * regionBytes;
        const std::uint64_t hi = lo + regionBytes - len;
        if (rng.nextBool(0.25)) {
            const std::uint64_t edge
                = lo + BlockStore::kExtentBytes
                  * rng.nextRange(1, regionBytes / BlockStore::kExtentBytes
                                         - 1);
            addr = std::clamp(edge - rng.nextUint(len + 1), lo, hi);
        } else {
            addr = lo + rng.nextUint(hi - lo + 1);
        }
    };

    std::vector<std::uint8_t> buf;
    for (int op = 0; op < 4000; op++) {
        std::uint64_t addr = 0;
        std::uint64_t len = 0;
        pickSpan(addr, len);
        buf.assign(len, 0);
        const std::uint64_t kind = rng.nextUint(10);
        if (kind < 4) {
            // Some writes are all zeros: written blocks that read zero.
            const bool zeros = rng.nextBool(0.2);
            for (auto &x : buf)
                x = zeros ? 0 : static_cast<std::uint8_t>(rng.next() | 1);
            bs.write(addr, buf);
            std::copy(buf.begin(), buf.end(), shadow.begin() + addr);
            for (std::uint64_t b = addr / kBlockBytes;
                 b <= (addr + len - 1) / kBlockBytes; b++)
                written[b] = true;
        } else if (kind < 7) {
            bs.read(addr, buf);
            ASSERT_TRUE(std::equal(buf.begin(), buf.end(),
                                   shadow.begin() + addr))
                << "op " << op << " read " << addr << "+" << len;
        } else if (kind < 9) {
            const bool expect = std::all_of(
                shadow.begin() + addr, shadow.begin() + addr + len,
                [](std::uint8_t x) { return x == 0; });
            ASSERT_EQ(bs.isZero(addr, len), expect)
                << "op " << op << " isZero " << addr << "+" << len;
        } else {
            const BlockNo first = addr / kBlockBytes;
            const std::uint64_t count = (addr + len - 1) / kBlockBytes
                                        - first + 1;
            bs.zeroBlocks(first, count);
            std::fill_n(shadow.begin() + first * kBlockBytes,
                        count * kBlockBytes, 0);
            std::fill_n(written.begin() + first, count, false);
        }
        ASSERT_EQ(bs.residentBytes(),
                  std::count(written.begin(), written.end(), true)
                      * kBlockBytes)
            << "op " << op;
    }
    buf.assign(cap, 0xee);
    for (std::uint64_t r = 0; r < cap / regionBytes; r++)
        bs.read(r * regionBytes,
                std::span(buf).subspan(r * regionBytes, regionBytes));
    EXPECT_EQ(buf, shadow);
}

} // namespace

TEST(BlockStore, RandomSpansMatchShadow)
{
    const std::uint64_t bytes = 3 * BlockStore::kExtentBytes;
    BlockStore bs(bytes);
    checkAgainstShadow(bs, bytes, 11);

    BlockStore slot0(bytes);
    BlockStore slot1(bytes);
    VolumeStore vol({&slot0, &slot1}, bytes);
    checkAgainstShadow(vol, bytes, 12);
    EXPECT_EQ(vol.residentBytes(),
              slot0.residentBytes() + slot1.residentBytes());
}

namespace {

struct DevFixture : ::testing::Test
{
    sim::EventQueue eq;
    mem::FrameAllocator fa;
    iommu::Iommu iommu{eq};
    BlockStore store{1ull << 30};
    SsdProfile prof = SsdProfile::optaneP5800X();
    std::unique_ptr<NvmeDevice> dev;

    void
    SetUp() override
    {
        prof.jitterSigma = 0.0; // deterministic latency for assertions
        dev = std::make_unique<NvmeDevice>(eq, store, iommu, 1, prof);
    }

    Completion
    runOne(CommandDispatcher &disp, const Command &cmd)
    {
        Completion out;
        bool done = false;
        disp.submit(cmd, [&](const Completion &c) {
            out = c;
            done = true;
        });
        eq.run();
        EXPECT_TRUE(done);
        return out;
    }

    /** Run one command on @p qp, then release the queue. */
    Completion
    runOne(QueuePair *qp, const Command &cmd)
    {
        CommandDispatcher disp(*qp);
        return runOne(disp, cmd);
    }
};

} // namespace

TEST_F(DevFixture, LbaReadLatencyNear4020)
{
    QueuePair *qp = dev->createQueuePair(kNoPasid, 32, false);
    std::vector<std::uint8_t> buf(4096);
    Command cmd;
    cmd.op = Op::Read;
    cmd.addr = 0;
    cmd.len = 4096;
    cmd.hostBuf = buf;
    const Completion c = runOne(qp, cmd);
    EXPECT_EQ(c.status, Status::Success);
    const Time dev4k = c.completeTime - c.submitTime;
    // Table 1: device time for a 4 KiB read ~= 4020 ns.
    EXPECT_NEAR(static_cast<double>(dev4k), 4020.0, 150.0);
}

TEST_F(DevFixture, ReadDataMoves)
{
    std::vector<std::uint8_t> seed(4096);
    for (std::size_t i = 0; i < seed.size(); i++)
        seed[i] = static_cast<std::uint8_t>(i * 7);
    store.write(64 * 4096, seed);

    QueuePair *qp = dev->createQueuePair(kNoPasid, 32, false);
    std::vector<std::uint8_t> buf(4096, 0);
    Command cmd;
    cmd.op = Op::Read;
    cmd.addr = 64 * 4096;
    cmd.len = 4096;
    cmd.hostBuf = buf;
    runOne(qp, cmd);
    EXPECT_EQ(buf, seed);
}

TEST_F(DevFixture, WriteDataMoves)
{
    QueuePair *qp = dev->createQueuePair(kNoPasid, 32, false);
    std::vector<std::uint8_t> buf(4096, 0x3c);
    Command cmd;
    cmd.op = Op::Write;
    cmd.addr = 128 * 4096;
    cmd.len = 4096;
    cmd.hostBuf = buf;
    const Completion c = runOne(qp, cmd);
    EXPECT_EQ(c.status, Status::Success);
    std::vector<std::uint8_t> check(4096);
    store.read(128 * 4096, check);
    EXPECT_EQ(check, buf);
}

TEST_F(DevFixture, InvalidLengthRejected)
{
    QueuePair *qp = dev->createQueuePair(kNoPasid, 32, false);
    std::vector<std::uint8_t> buf(4096);
    Command cmd;
    cmd.op = Op::Read;
    cmd.addr = 0;
    cmd.len = 100; // not sector aligned
    cmd.hostBuf = buf;
    EXPECT_EQ(runOne(qp, cmd).status, Status::InvalidCommand);
}

TEST_F(DevFixture, OutOfRangeRejected)
{
    QueuePair *qp = dev->createQueuePair(kNoPasid, 32, false);
    std::vector<std::uint8_t> buf(4096);
    Command cmd;
    cmd.op = Op::Read;
    cmd.addr = store.capacity();
    cmd.len = 4096;
    cmd.hostBuf = buf;
    EXPECT_EQ(runOne(qp, cmd).status, Status::OutOfRange);
}

TEST_F(DevFixture, VbaOnNonVbaQueueRejected)
{
    QueuePair *qp = dev->createQueuePair(kNoPasid, 32, false);
    std::vector<std::uint8_t> buf(4096);
    Command cmd;
    cmd.op = Op::Read;
    cmd.addr = 0x40000000;
    cmd.addrIsVba = true;
    cmd.len = 4096;
    cmd.hostBuf = buf;
    EXPECT_EQ(runOne(qp, cmd).status, Status::InvalidCommand);
}

TEST_F(DevFixture, VbaReadTranslatesAndChecks)
{
    // Build a process page table with FTEs and a DMA buffer.
    mem::PageTable pt(fa);
    const Pasid pasid = 9;
    iommu.bindPasid(pasid, &pt);
    std::vector<std::uint8_t> seed(4096, 0x77);
    store.write(500 * 4096, seed);
    pt.set(0x40000000, mem::makeFte(500, 1, true));

    std::vector<std::uint8_t> dma(4096, 0);
    iommu.mapDma(pasid, 0x9000000, std::span(dma), true);

    QueuePair *qp = dev->createQueuePair(pasid, 32, true);
    Command cmd;
    cmd.op = Op::Read;
    cmd.addr = 0x40000000;
    cmd.addrIsVba = true;
    cmd.len = 4096;
    cmd.dmaIova = 0x9000000;
    cmd.useIova = true;
    const Completion c = runOne(qp, cmd);
    EXPECT_EQ(c.status, Status::Success);
    EXPECT_EQ(dma, seed);
    EXPECT_GT(c.translateNs, 0u);

    // Reads serialize translation before media: total >= 4020 + ~550.
    const Time total = c.completeTime - c.submitTime;
    EXPECT_GT(total, 4400u);
}

TEST_F(DevFixture, VbaWriteHidesTranslation)
{
    mem::PageTable pt(fa);
    const Pasid pasid = 9;
    iommu.bindPasid(pasid, &pt);
    pt.set(0x40000000, mem::makeFte(500, 1, true));
    std::vector<std::uint8_t> dma(4096, 0x11);
    iommu.mapDma(pasid, 0x9000000, std::span(dma), true);

    QueuePair *qp = dev->createQueuePair(pasid, 32, true);
    Command wr;
    wr.op = Op::Write;
    wr.addr = 0x40000000;
    wr.addrIsVba = true;
    wr.len = 4096;
    wr.dmaIova = 0x9000000;
    wr.useIova = true;
    const Completion c = runOne(qp, wr);
    EXPECT_EQ(c.status, Status::Success);
    // Write: translation overlapped with data-in DMA (Section 4.3); the
    // device time shows no translation serialization.
    const Time total = c.completeTime - c.submitTime;
    EXPECT_LT(total, 4600u);
    std::vector<std::uint8_t> check(4096);
    store.read(500 * 4096, check);
    EXPECT_EQ(check, dma);
}

TEST_F(DevFixture, VbaFaultCompletesWithErrorAndNoData)
{
    mem::PageTable pt(fa);
    const Pasid pasid = 9;
    iommu.bindPasid(pasid, &pt);
    pt.set(0x40000000, mem::makeFte(500, 1, /*writable=*/false));
    std::vector<std::uint8_t> dma(4096, 0x42);
    iommu.mapDma(pasid, 0x9000000, std::span(dma), true);

    QueuePair *qp = dev->createQueuePair(pasid, 32, true);
    Command wr;
    wr.op = Op::Write;
    wr.addr = 0x40000000;
    wr.addrIsVba = true;
    wr.len = 4096;
    wr.dmaIova = 0x9000000;
    wr.useIova = true;
    const Completion c = runOne(qp, wr);
    EXPECT_EQ(c.status, Status::PermissionFault);
    // No bytes reached the media.
    EXPECT_TRUE(store.isZero(500 * 4096, 4096));
    EXPECT_EQ(dev->translationFaults(), 1u);
}

TEST_F(DevFixture, DmaFaultOnUnmappedIova)
{
    mem::PageTable pt(fa);
    const Pasid pasid = 9;
    iommu.bindPasid(pasid, &pt);
    pt.set(0x40000000, mem::makeFte(500, 1, true));
    QueuePair *qp = dev->createQueuePair(pasid, 32, true);
    Command cmd;
    cmd.op = Op::Read;
    cmd.addr = 0x40000000;
    cmd.addrIsVba = true;
    cmd.len = 4096;
    cmd.dmaIova = 0xdead0000;
    cmd.useIova = true;
    EXPECT_EQ(runOne(qp, cmd).status, Status::DmaFault);
}

TEST_F(DevFixture, RoundRobinFairness)
{
    // Two queues, heavily loaded: served ops should split evenly.
    QueuePair *q1 = dev->createQueuePair(kNoPasid, 256, false);
    QueuePair *q2 = dev->createQueuePair(kNoPasid, 256, false);
    std::vector<std::uint8_t> buf(4096);
    int done1 = 0, done2 = 0;
    q1->setCompletionHook([&](const Completion &) { done1++; });
    q2->setCompletionHook([&](const Completion &) { done2++; });
    for (int i = 0; i < 200; i++) {
        Command cmd;
        cmd.op = Op::Read;
        cmd.addr = static_cast<DevAddr>(i) * 4096;
        cmd.len = 4096;
        cmd.hostBuf = buf;
        ASSERT_TRUE(q1->submit(cmd));
        ASSERT_TRUE(q2->submit(cmd));
    }
    eq.run();
    EXPECT_EQ(done1, 200);
    EXPECT_EQ(done2, 200);
    EXPECT_EQ(q1->completedOps(), q2->completedOps());
}

TEST_F(DevFixture, CompletedPassReturnsCursorToPassStart)
{
    // Four queues, only queue 1 ready: the pass visits all four,
    // serves queue 1, and the cursor wraps back to the pass start. So
    // when queues 1 and 2 become ready together, queue 1 goes first.
    // Flushes never occupy a media unit and complete after a fixed
    // delay, so completion order here is dispatch order.
    std::vector<QueuePair *> qs;
    std::vector<std::uint16_t> order;
    for (int i = 0; i < 4; i++) {
        qs.push_back(dev->createQueuePair(kNoPasid, 8, false));
        qs.back()->setCompletionHook([&order](const Completion &c) {
            order.push_back(c.qid);
        });
    }
    Command fl;
    fl.op = Op::Flush;
    ASSERT_TRUE(qs[0]->submit(fl));
    eq.run();
    ASSERT_EQ(order, std::vector<std::uint16_t>{qs[0]->qid()});
    order.clear();
    ASSERT_TRUE(qs[1]->submit(fl));
    ASSERT_TRUE(qs[0]->submit(fl));
    eq.run();
    EXPECT_EQ(order,
              (std::vector<std::uint16_t>{qs[0]->qid(), qs[1]->qid()}));
}

TEST_F(DevFixture, ArbitrationOrderPinned)
{
    // Pins the weighted round-robin visit order bit for bit. 72 queues
    // (two bitmap words) with QoS weights 1-4 and mixed depths take
    // seeded bursts of VBA reads, raw reads, writes and flushes. VBA
    // reads occupy the device while they translate, so admission
    // closes partway through passes. Mid-run one queue is destroyed,
    // one is created, and an exclusive claim disables one queue, whose
    // commands then fail. The hash folds (qid, cid, submitTime) of
    // every completion in completion order; the expected value was
    // captured from the linear scan over every queue that the ready
    // bitmap replaced.
    mem::PageTable pt(fa);
    const Pasid owner = 9;
    const Pasid other = 5;
    iommu.bindPasid(owner, &pt);
    constexpr std::uint64_t kVbaBase = 0x40000000;
    constexpr std::uint64_t kPages = 256;
    for (std::uint64_t p = 0; p < kPages; p++)
        pt.set(kVbaBase + p * 4096, mem::makeFte(1000 + p, 1, true));
    std::vector<std::uint8_t> dma(4096);
    constexpr std::uint64_t kIova = 0x9000000;
    iommu.mapDma(owner, kIova, std::span(dma), true);
    std::vector<std::uint8_t> buf(4096, 0x5a);

    qos::Registry reg(eq);
    dev->setQos(&reg);
    for (std::uint32_t w = 1; w <= 4; w++) {
        qos::TenantLimit lim;
        lim.weight = w;
        reg.setLimit(1000 + w, lim);
    }

    std::uint64_t h = sim::kFnvSeed;
    std::uint64_t completions = 0;
    auto record = [&h, &completions](const Completion &c) {
        h = sim::fnv(sim::fnv(sim::fnv(h, c.qid), c.cid), c.submitTime);
        completions++;
    };

    struct Lane
    {
        std::unique_ptr<CommandDispatcher> disp;
        bool vba = false;
    };
    std::vector<Lane> lanes;
    auto openLane = [&](Pasid pasid, int i) {
        const std::uint32_t depth = 4u << (i % 4);
        const bool vba = pasid == owner && i % 3 == 0;
        Lane lane{dev->openQueue(pasid, depth, vba), vba};
        lane.disp->queue().setQosTenant(1000 + 1 + (i * 7) % 4);
        lanes.push_back(std::move(lane));
    };
    constexpr int kQueues = 72;
    constexpr int kDisabled = 40; // owned by `other`: the claim disables it
    for (int i = 0; i < kQueues; i++)
        openLane(i == kDisabled ? other : owner, i);

    sim::Rng rng(0x5eed);
    auto submitBurst = [&](int lanesHit) {
        for (int k = 0; k < lanesHit; k++) {
            Lane &lane = lanes[rng.nextUint(lanes.size())];
            if (!lane.disp)
                continue;
            const std::uint64_t n = 1 + rng.nextUint(6);
            for (std::uint64_t j = 0; j < n; j++) {
                Command cmd;
                const std::uint64_t kind = rng.nextUint(8);
                const std::uint64_t page = rng.nextUint(kPages);
                cmd.len = 4096;
                if (kind == 0) {
                    cmd.op = Op::Flush;
                } else if (lane.vba) {
                    cmd.op = kind == 1 ? Op::Write : Op::Read;
                    cmd.addr = kVbaBase + page * 4096;
                    cmd.addrIsVba = true;
                    cmd.dmaIova = kIova;
                    cmd.useIova = true;
                } else {
                    cmd.op = kind <= 2 ? Op::Write : Op::Read;
                    cmd.addr = page * 4096;
                    cmd.hostBuf = buf;
                }
                if (!lane.disp->submit(cmd, record))
                    break;
            }
        }
    };

    // Alternate 100-burst phases of overload (12 lanes per burst, far
    // above the device's ~1.5 M IOPS) and underload (one lane), so
    // passes both stop partway and run to completion.
    constexpr int kBursts = 1200;
    for (int b = 0; b < kBursts; b++) {
        const Time at = static_cast<Time>(b) * 3000 + rng.nextUint(2000);
        eq.schedule(at, [&, b]() {
            submitBurst((b / 100) % 2 == 0 ? 12 : 1);
            if (b == 250)
                lanes[10].disp.reset(); // destroyed mid-run
            if (b == 450)
                openLane(owner, 7); // created mid-run, weight 2
            if (b == 650) {
                ASSERT_TRUE(dev->claimExclusive(owner));
            }
            if (b == 950)
                dev->releaseExclusive(owner);
        });
    }
    eq.run();

    EXPECT_GT(completions, 5000u);
    EXPECT_GT(lanes[kDisabled].disp->queue().faults(), 0u);
    EXPECT_EQ(h, 0x1bd5b78388c79e86ull) << std::hex << "0x" << h;
}

TEST_F(DevFixture, ThroughputSaturatesNearProfile)
{
    // Keep 64 requests outstanding for a while; measure IOPS.
    QueuePair *qp = dev->createQueuePair(kNoPasid, 4096, false);
    std::vector<std::uint8_t> buf(4096);
    std::uint64_t completed = 0;
    std::function<void()> refill;
    CommandDispatcher disp(*qp);
    auto submitOne = [&]() {
        Command cmd;
        cmd.op = Op::Read;
        cmd.addr = (completed % 1024) * 4096;
        cmd.len = 4096;
        cmd.hostBuf = buf;
        disp.submit(cmd, [&](const Completion &) {
            completed++;
            if (eq.now() < 10 * kMs)
                refill();
        });
    };
    refill = submitOne;
    for (int i = 0; i < 64; i++)
        submitOne();
    eq.run();
    const double secs = static_cast<double>(eq.now()) / 1e9;
    const double iops = static_cast<double>(completed) / secs;
    // units(6) / 4.02us ~= 1.49M IOPS; allow generous tolerance.
    EXPECT_GT(iops, 1.2e6);
    EXPECT_LT(iops, 1.8e6);
}

TEST_F(DevFixture, FlushWaitsForPriorWrites)
{
    QueuePair *qp = dev->createQueuePair(kNoPasid, 32, false);
    CommandDispatcher disp(*qp);
    std::vector<std::uint8_t> buf(4096, 1);
    Time writeDone = 0, flushDone = 0;
    Command wr;
    wr.op = Op::Write;
    wr.addr = 0;
    wr.len = 4096;
    wr.hostBuf = buf;
    disp.submit(wr, [&](const Completion &c) {
        writeDone = c.completeTime;
    });
    Command fl;
    fl.op = Op::Flush;
    disp.submit(fl, [&](const Completion &c) {
        flushDone = c.completeTime;
    });
    eq.run();
    EXPECT_GT(flushDone, writeDone);
}

TEST_F(DevFixture, ExclusiveClaimDisablesOthers)
{
    CommandDispatcher kernelQ(*dev->createQueuePair(kNoPasid, 32, false));
    ASSERT_TRUE(dev->claimExclusive(77));
    EXPECT_FALSE(dev->claimExclusive(88));
    // Kernel queue is disabled while claimed.
    std::vector<std::uint8_t> buf(4096);
    Command cmd;
    cmd.op = Op::Read;
    cmd.addr = 0;
    cmd.len = 4096;
    cmd.hostBuf = buf;
    EXPECT_EQ(runOne(kernelQ, cmd).status, Status::InvalidCommand);
    // Other processes cannot create queues.
    EXPECT_EQ(dev->createQueuePair(55, 32, true), nullptr);
    // Owner can.
    EXPECT_NE(dev->createQueuePair(77, 32, false), nullptr);
    dev->releaseExclusive(77);
    EXPECT_EQ(runOne(kernelQ, cmd).status, Status::Success);
}

TEST_F(DevFixture, DispatcherDestroyedWithCommandInFlight)
{
    // Releasing a queue with a command in flight defers the release
    // until the command drains. The dispatcher detaches its hook
    // first, so the late completion lands in the dying queue's CQ,
    // never in the freed dispatcher (ASan would flag the access).
    std::vector<std::uint8_t> buf(4096);
    Command cmd;
    cmd.op = Op::Read;
    cmd.addr = 0;
    cmd.len = 4096;
    cmd.hostBuf = buf;
    bool called = false;
    auto disp = dev->openQueue(kNoPasid, 32, false);
    ASSERT_NE(disp, nullptr);
    ASSERT_TRUE(disp->submit(cmd, [&called](const Completion &) {
        called = true;
    }));
    eq.runUntil(prof.cmdFetchNs); // fetched: on the device, in flight
    ASSERT_EQ(disp->queue().inflight(), 1u);
    disp.reset();
    eq.run();
    EXPECT_FALSE(called);
    EXPECT_EQ(dev->totalOps(), 1u);
    EXPECT_EQ(dev->busyUnits(), 0u);
    // The device is intact: a fresh queue still completes I/O.
    EXPECT_EQ(runOne(dev->createQueuePair(kNoPasid, 32, false), cmd).status,
              Status::Success);
}

TEST_F(DevFixture, DispatcherSlotsUnderOutOfOrderCompletion)
{
    // Flushes take longer than reads, so alternating them makes
    // completions return out of submit order. Each callback must fire
    // exactly once with its own cid, and the tag slots must be reused
    // rather than grown past the queue depth.
    constexpr std::uint32_t kDepth = 8;
    QueuePair *qp = dev->createQueuePair(kNoPasid, kDepth, false);
    CommandDispatcher disp(*qp);
    std::vector<std::uint8_t> buf(4096);
    Command rd;
    rd.op = Op::Read;
    rd.addr = 0;
    rd.len = 4096;
    rd.hostBuf = buf;
    Command fl;
    fl.op = Op::Flush;

    constexpr int kRounds = 3;
    std::vector<int> fired(kRounds * kDepth, 0);
    std::vector<std::uint64_t> cidSeen(kRounds * kDepth, 0);
    std::vector<int> order;
    std::uint32_t maxTag = 0;
    int retried = 0;
    std::uint64_t retriedCid = 0;
    CommandDispatcher::CompletionFn retry
        = [&](const Completion &c) {
              retried++;
              retriedCid = c.cid;
          };
    for (int round = 0; round < kRounds; round++) {
        for (std::uint32_t j = 0; j < kDepth; j++) {
            const int i = round * static_cast<int>(kDepth)
                          + static_cast<int>(j);
            ASSERT_TRUE(disp.submit(j % 2 == 0 ? fl : rd,
                                    [&, i](const Completion &c) {
                                        fired[i]++;
                                        cidSeen[i] = c.cid;
                                        maxTag = std::max(maxTag, c.tag);
                                        order.push_back(i);
                                    }));
        }
        EXPECT_EQ(disp.outstanding(), kDepth);
        if (round == 0) {
            // A refused submit keeps the caller's callback intact.
            EXPECT_FALSE(disp.submit(rd, std::move(retry)));
            EXPECT_TRUE(static_cast<bool>(retry));
            EXPECT_EQ(disp.outstanding(), kDepth);
        }
        eq.run();
        EXPECT_EQ(disp.outstanding(), 0u);
    }
    for (int i = 0; i < kRounds * static_cast<int>(kDepth); i++) {
        EXPECT_EQ(fired[i], 1) << "callback " << i;
        EXPECT_EQ(cidSeen[i], static_cast<std::uint64_t>(i) + 1)
            << "callback " << i << " saw another command's cid";
    }
    EXPECT_FALSE(std::is_sorted(order.begin(), order.end()))
        << "completions never overtook each other";
    EXPECT_LT(maxTag, kDepth) << "slots grew instead of being reused";

    // The callback kept from the refused submit fires once on retry,
    // with the next dense cid.
    ASSERT_TRUE(disp.submit(rd, std::move(retry)));
    eq.run();
    EXPECT_EQ(retried, 1);
    EXPECT_EQ(retriedCid, kRounds * kDepth + 1u);
    EXPECT_EQ(disp.outstanding(), 0u);

    // Destroying a dispatcher with commands in flight drains them to
    // the dying queue's CQ: no callback runs, nothing hangs.
    auto doomed = dev->openQueue(kNoPasid, kDepth, false);
    ASSERT_NE(doomed, nullptr);
    int lateCalls = 0;
    for (std::uint32_t j = 0; j < 4; j++) {
        ASSERT_TRUE(doomed->submit(j % 2 == 0 ? fl : rd,
                                   [&lateCalls](const Completion &) {
                                       lateCalls++;
                                   }));
    }
    const std::uint64_t ops0 = dev->totalOps();
    eq.runUntil(eq.now() + prof.cmdFetchNs);
    doomed.reset();
    eq.run();
    EXPECT_EQ(lateCalls, 0);
    EXPECT_EQ(dev->totalOps(), ops0 + 4);
    EXPECT_EQ(dev->busyUnits(), 0u);
}

TEST_F(DevFixture, QueueDepthBackpressure)
{
    QueuePair *qp = dev->createQueuePair(kNoPasid, 4, false);
    std::vector<std::uint8_t> buf(4096);
    Command cmd;
    cmd.op = Op::Read;
    cmd.addr = 0;
    cmd.len = 4096;
    cmd.hostBuf = buf;
    int ok = 0;
    for (int i = 0; i < 10; i++) {
        if (qp->submit(cmd))
            ok++;
    }
    EXPECT_EQ(ok, 4);
    eq.run();
    while (qp->pollCq())
        ;
    EXPECT_TRUE(qp->submit(cmd));
    eq.run();
}

TEST_F(DevFixture, LargeReadBandwidthBound)
{
    QueuePair *qp = dev->createQueuePair(kNoPasid, 32, false);
    std::vector<std::uint8_t> buf(128 << 10);
    Command cmd;
    cmd.op = Op::Read;
    cmd.addr = 0;
    cmd.len = 128 << 10;
    cmd.hostBuf = buf;
    const Completion c = runOne(qp, cmd);
    const Time total = c.completeTime - c.submitTime;
    // 128 KiB at ~7 GB/s = ~18.7 us transfer + ~3.4 us base.
    EXPECT_NEAR(static_cast<double>(total), 22100.0, 2000.0);
}
