/**
 * @file
 * IOMMU tests: VBA translation through real page-table walks, FTE
 * interpretation, permission and DevID enforcement, coalescing, the
 * Fig. 5 latency model, translation caches, and DMA mappings.
 */

#include <gtest/gtest.h>

#include "iommu/iommu.hpp"
#include "mem/address_space.hpp"
#include "sim/event_queue.hpp"

using namespace bpd;
using namespace bpd::iommu;

namespace {

struct IommuFixture : ::testing::Test
{
    sim::EventQueue eq;
    mem::FrameAllocator fa;
    Iommu iommu{eq};
    mem::PageTable pt{fa};
    static constexpr Pasid kP = 7;
    static constexpr DevId kDev = 1;

    void
    SetUp() override
    {
        iommu.bindPasid(kP, &pt);
    }

    /** Map n contiguous file blocks at va, to device blocks base.. */
    void
    mapBlocks(Vaddr va, BlockNo base, unsigned n, bool writable = true)
    {
        for (unsigned i = 0; i < n; i++) {
            pt.set(va + i * kBlockBytes,
                   mem::makeFte(base + i, kDev, writable));
        }
    }
};

} // namespace

TEST_F(IommuFixture, TranslateSingleBlock)
{
    mapBlocks(0x40000000, 500, 1);
    TransResult r = iommu.translateVbaSync(kP, 0x40000000, 4096, false,
                                           kDev);
    ASSERT_TRUE(r.ok);
    ASSERT_EQ(r.segs.size(), 1u);
    EXPECT_EQ(r.segs[0].addr, 500u * kBlockBytes);
    EXPECT_EQ(r.segs[0].len, 4096u);
}

TEST_F(IommuFixture, SubBlockOffset)
{
    mapBlocks(0x40000000, 500, 1);
    TransResult r = iommu.translateVbaSync(kP, 0x40000000 + 512, 1024,
                                           false, kDev);
    ASSERT_TRUE(r.ok);
    ASSERT_EQ(r.segs.size(), 1u);
    EXPECT_EQ(r.segs[0].addr, 500u * kBlockBytes + 512);
    EXPECT_EQ(r.segs[0].len, 1024u);
}

TEST_F(IommuFixture, CoalescesContiguousBlocks)
{
    mapBlocks(0x40000000, 500, 8);
    TransResult r = iommu.translateVbaSync(kP, 0x40000000, 8 * 4096,
                                           false, kDev);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.segs.size(), 1u);
    EXPECT_EQ(r.segs[0].len, 8u * 4096);
    EXPECT_EQ(r.pages, 8u);
}

TEST_F(IommuFixture, SplitsDiscontiguousBlocks)
{
    pt.set(0x40000000, mem::makeFte(500, kDev, true));
    pt.set(0x40001000, mem::makeFte(900, kDev, true)); // not adjacent
    TransResult r = iommu.translateVbaSync(kP, 0x40000000, 2 * 4096,
                                           false, kDev);
    ASSERT_TRUE(r.ok);
    ASSERT_EQ(r.segs.size(), 2u);
    EXPECT_EQ(r.segs[0].addr, 500u * kBlockBytes);
    EXPECT_EQ(r.segs[1].addr, 900u * kBlockBytes);
}

TEST_F(IommuFixture, FaultsOnUnmapped)
{
    TransResult r = iommu.translateVbaSync(kP, 0x50000000, 4096, false,
                                           kDev);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.fault, Fault::NotPresent);
    EXPECT_TRUE(r.segs.empty());
}

TEST_F(IommuFixture, FaultsOnUnboundPasid)
{
    TransResult r = iommu.translateVbaSync(99, 0x40000000, 4096, false,
                                           kDev);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.fault, Fault::NoPasid);
}

TEST_F(IommuFixture, EnforcesWritePermission)
{
    mapBlocks(0x40000000, 500, 1, /*writable=*/false);
    TransResult rd = iommu.translateVbaSync(kP, 0x40000000, 4096, false,
                                            kDev);
    EXPECT_TRUE(rd.ok);
    TransResult wr = iommu.translateVbaSync(kP, 0x40000000, 4096, true,
                                            kDev);
    EXPECT_FALSE(wr.ok);
    EXPECT_EQ(wr.fault, Fault::Permission);
}

TEST_F(IommuFixture, EnforcesDevId)
{
    mapBlocks(0x40000000, 500, 1);
    TransResult r = iommu.translateVbaSync(kP, 0x40000000, 4096, false,
                                           /*requester=*/2);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.fault, Fault::DevIdMismatch);
}

TEST_F(IommuFixture, RejectsRegularPteAsVba)
{
    // A regular memory PTE (no FT bit) must not translate as a block
    // address — that would let a process address the device by PFN.
    pt.set(0x40000000, mem::makeLeafEntry(1234, true));
    TransResult r = iommu.translateVbaSync(kP, 0x40000000, 4096, false,
                                           kDev);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.fault, Fault::NotFte);
}

TEST_F(IommuFixture, PartialRangeFaultReturnsNoSegs)
{
    mapBlocks(0x40000000, 500, 2);
    // Third block unmapped: whole request must fault with no data.
    TransResult r = iommu.translateVbaSync(kP, 0x40000000, 3 * 4096,
                                           false, kDev);
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.segs.empty());
}

TEST_F(IommuFixture, DefaultLatencyNear550)
{
    mapBlocks(0x40000000, 500, 64);
    // Warm the walk cache first (the paper's 550 ns assumes cached upper
    // levels; FTE leaves are never cached).
    iommu.translateVbaSync(kP, 0x40000000, 4096, false, kDev);
    TransResult r = iommu.translateVbaSync(kP, 0x40000000, 4096, false,
                                           kDev);
    ASSERT_TRUE(r.ok);
    EXPECT_NEAR(static_cast<double>(r.latency), 550.0, 60.0);
}

TEST_F(IommuFixture, LatencyGrowsSlowlyWithTranslations)
{
    // Fig. 5: overhead roughly flat with #translations per request —
    // one cacheline holds 8 FTEs.
    mapBlocks(0x40000000, 500, 64);
    iommu.translateVbaSync(kP, 0x40000000, 4096, false, kDev); // warm
    const Time lat1
        = iommu.translateVbaSync(kP, 0x40000000, 4096, false, kDev)
              .latency;
    const Time lat8
        = iommu.translateVbaSync(kP, 0x40000000, 8 * 4096, false, kDev)
              .latency;
    const Time lat12
        = iommu.translateVbaSync(kP, 0x40000000, 12 * 4096, false, kDev)
              .latency;
    EXPECT_EQ(lat1, lat8); // same cacheline
    EXPECT_GT(lat12, lat8);
    EXPECT_LT(lat12 - lat8, 50u); // slight increase only
}

TEST_F(IommuFixture, ThreeLeafLinesChargeTwoExtraLines)
{
    // A leaf cacheline holds 8 FTEs. Pages 7..16 touch lines 0, 1 and
    // 2, so the walk charges exactly two extra lines over a one-line
    // translation, however many pages share each line.
    iommu.profile().extraLineNs = 37;
    mapBlocks(0x40000000, 500, 24);
    iommu.translateVbaSync(kP, 0x40000000, 4096, false, kDev); // warm
    const TransResult one
        = iommu.translateVbaSync(kP, 0x40000000, 8 * 4096, false, kDev);
    const TransResult three = iommu.translateVbaSync(
        kP, 0x40000000 + 7 * 4096, 10 * 4096, false, kDev);
    ASSERT_TRUE(one.ok);
    ASSERT_TRUE(three.ok);
    EXPECT_EQ(three.pages, 10u);
    EXPECT_EQ(three.latency - one.latency, 2u * 37u);
    const TransResult all
        = iommu.translateVbaSync(kP, 0x40000000, 24 * 4096, false, kDev);
    EXPECT_EQ(all.latency - one.latency, 2u * 37u);
}

TEST_F(IommuFixture, FixedLatencyOverride)
{
    mapBlocks(0x40000000, 500, 1);
    iommu.profile().fixedVbaLatencyNs = 1350;
    TransResult r = iommu.translateVbaSync(kP, 0x40000000, 4096, false,
                                           kDev);
    EXPECT_EQ(r.latency, 1350u);
}

TEST_F(IommuFixture, AsyncTranslationTakesLatency)
{
    mapBlocks(0x40000000, 500, 1);
    bool done = false;
    Time doneAt = 0;
    iommu.translateVba(kP, 0x40000000, 4096, false, kDev,
                       [&](TransResult r) {
                           done = r.ok;
                           doneAt = eq.now();
                       });
    EXPECT_FALSE(done);
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_GT(doneAt, 0u);
}

TEST_F(IommuFixture, InvalidationForcesWalkCacheMiss)
{
    mapBlocks(0x40000000, 500, 1);
    iommu.translateVbaSync(kP, 0x40000000, 4096, false, kDev);
    const Time warm
        = iommu.translateVbaSync(kP, 0x40000000, 4096, false, kDev)
              .latency;
    iommu.invalidateRange(kP, 0x40000000, 4096);
    const Time cold
        = iommu.translateVbaSync(kP, 0x40000000, 4096, false, kDev)
              .latency;
    EXPECT_GT(cold, warm);
}

TEST_F(IommuFixture, DetachedFteFaultsAfterInvalidation)
{
    mapBlocks(0x40000000, 500, 1);
    ASSERT_TRUE(iommu.translateVbaSync(kP, 0x40000000, 4096, false, kDev)
                    .ok);
    pt.clear(0x40000000);
    iommu.invalidateRange(kP, 0x40000000, 4096);
    TransResult r = iommu.translateVbaSync(kP, 0x40000000, 4096, false,
                                           kDev);
    EXPECT_FALSE(r.ok);
}

TEST_F(IommuFixture, DmaResolveInsideRegistration)
{
    std::vector<std::uint8_t> buf(8192, 0xab);
    iommu.mapDma(kP, 0x9000000, std::span(buf), true);
    auto s = iommu.resolveDma(kP, 0x9000000 + 100, 500, true);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->size(), 500u);
    EXPECT_EQ(s->data(), buf.data() + 100);
}

TEST_F(IommuFixture, DmaRejectsOutOfBounds)
{
    std::vector<std::uint8_t> buf(4096);
    iommu.mapDma(kP, 0x9000000, std::span(buf), true);
    EXPECT_FALSE(iommu.resolveDma(kP, 0x9000000 + 4000, 200, true)
                     .has_value());
    EXPECT_FALSE(iommu.resolveDma(kP, 0x8000000, 10, true).has_value());
}

TEST_F(IommuFixture, DmaRejectsWriteToReadOnly)
{
    std::vector<std::uint8_t> buf(4096);
    iommu.mapDma(kP, 0x9000000, std::span(buf), /*writable=*/false);
    EXPECT_TRUE(iommu.resolveDma(kP, 0x9000000, 100, false).has_value());
    EXPECT_FALSE(iommu.resolveDma(kP, 0x9000000, 100, true).has_value());
}

TEST_F(IommuFixture, DmaIsolatedByPasid)
{
    std::vector<std::uint8_t> buf(4096);
    iommu.mapDma(kP, 0x9000000, std::span(buf), true);
    EXPECT_FALSE(iommu.resolveDma(kP + 1, 0x9000000, 100, true)
                     .has_value());
}

TEST_F(IommuFixture, DmaUnmapRevokes)
{
    std::vector<std::uint8_t> buf(4096);
    iommu.mapDma(kP, 0x9000000, std::span(buf), true);
    iommu.unmapDma(kP, 0x9000000);
    EXPECT_FALSE(iommu.resolveDma(kP, 0x9000000, 100, true).has_value());
}

TEST_F(IommuFixture, DmaTranslateLatencyHitVsMiss)
{
    std::vector<std::uint8_t> buf(4096);
    iommu.mapDma(kP, 0x9000000, std::span(buf), true);
    const Time miss = iommu.dmaTranslateLatency(kP, 0x9000000);
    const Time hit = iommu.dmaTranslateLatency(kP, 0x9000000);
    EXPECT_GT(miss, hit); // IOTLB hit is cheaper (Table 4)
}

TEST(TranslationCache, LruEviction)
{
    TranslationCache tc(4, 4); // one set, 4 ways
    std::uint64_t v;
    for (std::uint64_t k = 0; k < 4; k++)
        tc.insert(k, k * 10);
    EXPECT_TRUE(tc.lookup(0, v)); // refresh key 0
    tc.insert(99, 990);           // evicts LRU (key 1)
    EXPECT_TRUE(tc.lookup(0, v));
    EXPECT_TRUE(tc.lookup(99, v));
    EXPECT_EQ(v, 990u);
}

TEST(TranslationCache, HitMissCounters)
{
    TranslationCache tc(16, 4);
    std::uint64_t v;
    EXPECT_FALSE(tc.lookup(5, v));
    tc.insert(5, 50);
    EXPECT_TRUE(tc.lookup(5, v));
    EXPECT_EQ(tc.hits(), 1u);
    EXPECT_EQ(tc.misses(), 1u);
}

TEST(TranslationCache, InvalidateIf)
{
    TranslationCache tc(16, 4);
    for (std::uint64_t k = 0; k < 8; k++)
        tc.insert(k, k);
    tc.invalidateIf([](std::uint64_t k) { return k % 2 == 0; });
    std::uint64_t v;
    EXPECT_FALSE(tc.lookup(0, v));
    EXPECT_TRUE(tc.lookup(1, v));
}
