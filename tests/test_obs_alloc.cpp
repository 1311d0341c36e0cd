/**
 * @file
 * Zero-cost-when-disabled enforcement, as a test rather than a bench:
 * this binary replaces global operator new/delete with counting
 * versions and asserts that the null-tracer instrumentation guard adds
 * ZERO heap allocations to the event-queue schedule/run path, and that
 * a steady-state direct-path UserLib read or overwrite allocates
 * nothing end to end. Kept as its own executable (bpd_obs_alloc_tests)
 * so the counting allocator cannot interfere with the main test suite.
 */

#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "obs/tenant.hpp"
#include "obs/trace.hpp"
#include "qos/qos.hpp"
#include "sim/event_queue.hpp"
#include "sim/logging.hpp"
#include "system/system.hpp"

static std::atomic<std::uint64_t> g_allocCount{0};

void *
operator new(std::size_t n)
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace bpd;

TEST(ObsAlloc, DisabledTracerAddsZeroAllocationsToScheduleRunPath)
{
    sim::EventQueue eq;
    // volatile so the compiler cannot prove the slot stays null and
    // fold the guard away — the branch must really execute.
    obs::Tracer *volatile tracerSlot = nullptr;
    std::uint64_t sink = 0;

    // Warm the event queue's slab/heap storage to steady state.
    for (int i = 0; i < 64; i++)
        eq.after(1, [&sink]() { sink++; });
    eq.run();

    const std::uint64_t before = g_allocCount.load();
    for (int i = 0; i < 100000; i++) {
        eq.after(10, [&sink, &tracerSlot]() {
            if (obs::Tracer *t = tracerSlot) {
                t->instant(0, "noop", 0);
                t->span(0, "noop.span", 0, 0, 1, {{"bytes", 0}});
            }
            sink++;
        });
        eq.runOne();
    }
    const std::uint64_t after = g_allocCount.load();

    EXPECT_EQ(after - before, 0u)
        << "disabled-tracer guard allocated on the hot path";
    EXPECT_EQ(sink, 100064u);
}

TEST(ObsAlloc, EnabledTracerOnlyAllocatesForSpanStorage)
{
    // Sanity check of the counting allocator itself plus the enabled
    // path: recording spans must allocate only amortized vector growth,
    // i.e. far fewer than one allocation per span.
    sim::EventQueue eq;
    obs::Tracer tracer(eq, obs::Level::Device);
    const std::uint16_t track = tracer.track("alloc-test");

    tracer.span(track, "warm", 0, 0, 1); // first growth
    const std::uint64_t before = g_allocCount.load();
    for (int i = 0; i < 100000; i++)
        tracer.span(track, "nvme.cmd", tracer.newTrace(), 0, 100,
                    {{"bytes", 4096}});
    const std::uint64_t after = g_allocCount.load();

    EXPECT_GT(tracer.spanCount(), 100000u);
    EXPECT_LT(after - before, 100u)
        << "span recording should amortize to ~0 allocations/span";
}

TEST(ObsAlloc, DisabledTenantAccountingAddsZeroAllocations)
{
    // The attribution sites guard on a raw TenantAccounting pointer the
    // same way tracer sites guard on the Tracer pointer; disabled
    // accounting must be one branch, no allocations.
    obs::TenantAccounting *volatile acctSlot = nullptr;
    std::uint64_t sink = 0;

    const std::uint64_t before = g_allocCount.load();
    for (int i = 0; i < 100000; i++) {
        if (obs::TenantAccounting *a = acctSlot) {
            a->of(101).ssdOps++;
            a->of(101).ssdReadBytes += 4096;
        }
        sink++;
    }
    const std::uint64_t after = g_allocCount.load();

    EXPECT_EQ(after - before, 0u)
        << "disabled-accounting guard allocated on the hot path";
    EXPECT_EQ(sink, 100000u);
}

TEST(ObsAlloc, TenantScopedCounterHandlesDoNotAllocateOnIncrement)
{
    // Registration (tenant() + counter()) is cold-path and may
    // allocate; incrementing a cached handle must not, and re-looking
    // up an existing tenant scope must not either.
    obs::MetricsRegistry reg;
    obs::Counter &c = reg.tenant(7).counter("ssd", "ops");
    c.add(); // touch once so any lazy storage is settled

    const std::uint64_t before = g_allocCount.load();
    for (int i = 0; i < 100000; i++) {
        reg.tenant(7);
        c.add(4096);
    }
    const std::uint64_t after = g_allocCount.load();

    EXPECT_EQ(after - before, 0u)
        << "tenant-scoped counter increments allocated";
    EXPECT_EQ(c.value(), 1u + 100000u * 4096u);
}

TEST(ObsAlloc, QosAdmitPathAddsZeroAllocations)
{
    // The QoS gate follows the same null-pointer discipline: a null
    // registry is one branch, and an enabled registry must admit
    // unlimited tenants — absent, or present weight-only — and capped
    // tenants under their cap without allocating. qos::admit runs the
    // continuation inline on all of these; only a park (the throttled
    // slow path) may allocate.
    sim::EventQueue eq;
    qos::Registry reg(eq);
    qos::TenantLimit lim;
    lim.weight = 4; // weight-only: shapes dispatch, never rate-limits
    reg.setLimit(7, lim);
    qos::TenantLimit cap;
    cap.iopsLimit = 1'000'000'000; // 1M-op bucket: never runs dry here
    reg.setLimit(8, cap);
    qos::Registry *volatile qosSlot = &reg;
    std::uint64_t admitted = 0;
    std::uint32_t weightSum = 0;
    auto go = [&admitted] { admitted++; };

    reg.tryAcquire(7, 1, 4096); // settle any lazy storage

    const std::uint64_t before = g_allocCount.load();
    for (int i = 0; i < 100000; i++) {
        if (qos::Registry *q = qosSlot) {
            if (q->tryAcquire(7, 1, 4096))
                admitted++;
            if (q->tryAcquire(9, 1, 4096)) // unregistered tenant
                admitted++;
            weightSum += q->weightOf(7);
        }
        qos::admit(nullptr, 7, 1, 4096, go);
        qos::admit(qosSlot, 9, 1, 4096, go); // unregistered tenant
        qos::admit(qosSlot, 8, 1, 4096, go); // capped, under its cap
    }
    const std::uint64_t after = g_allocCount.load();

    EXPECT_EQ(after - before, 0u)
        << "QoS admit path allocated on the hot path";
    EXPECT_EQ(admitted, 500000u);
    EXPECT_EQ(reg.throttles(), 0u);
    EXPECT_EQ(weightSum, 400000u);
}

namespace {

/** Completion tally; a one-pointer capture fits std::function inline. */
struct DirectTally
{
    std::uint64_t ios = 0;
    std::uint64_t bytes = 0;
    bool failed = false;
};

} // namespace

TEST(ObsAlloc, SteadyStateDirectPathIsAllocationFree)
{
    // The whole BypassD direct path — UserLib request pool, dispatcher
    // tags, SQ ring, device job slab, VBA translation and page walk —
    // must reuse its storage once warm: QD1 preads and aligned pwrite
    // overwrites with tracing off allocate nothing.
    sim::setVerbose(false);
    sys::SystemConfig cfg;
    cfg.deviceBytes = 1ull << 30;
    sys::System s(cfg);
    kern::Process &p = s.newProcess();
    bypassd::UserLib &lib = s.userLib(p);

    constexpr std::uint64_t kFileBytes = 4ull << 20;
    constexpr std::uint64_t kBlocks = kFileBytes / kBlockBytes;
    const int cfd = s.kernel.setupCreateFile(p, "/alloc.dat", kFileBytes, 7);
    ASSERT_GE(cfd, 0);
    int rc = -1;
    s.kernel.sysClose(p, cfd, [&rc](int r) { rc = r; });
    s.run();
    ASSERT_EQ(rc, 0);
    int fd = -1;
    lib.open("/alloc.dat", fs::kOpenRead | fs::kOpenWrite | fs::kOpenDirect,
             0644, [&fd](int f) { fd = f; });
    s.run();
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(lib.isDirect(fd));
    constexpr Tid kTid = 1;
    lib.prepareThread(kTid);

    std::vector<std::uint8_t> buf(kBlockBytes, 0x5a);
    DirectTally tally;
    DirectTally *t = &tally;
    auto cb = [t](long long n, kern::IoTrace) {
        if (n < 0)
            t->failed = true;
        else
            t->bytes += static_cast<std::uint64_t>(n);
        t->ios++;
    };
    std::uint64_t lcg = 12345;
    auto nextOff = [&lcg]() {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return ((lcg >> 33) % kBlocks) * kBlockBytes;
    };
    auto readOnce = [&]() {
        lib.pread(kTid, fd, buf, nextOff(), cb);
        s.run();
    };
    auto writeOnce = [&]() {
        lib.pwrite(kTid, fd, buf, nextOff(), cb);
        s.run();
    };

    // Warm every pool, ring and slab to its steady-state size.
    for (int i = 0; i < 32; i++) {
        readOnce();
        writeOnce();
    }

    constexpr int kIos = 10000;
    const std::uint64_t r0 = g_allocCount.load();
    for (int i = 0; i < kIos; i++)
        readOnce();
    const std::uint64_t r1 = g_allocCount.load();
    for (int i = 0; i < kIos; i++)
        writeOnce();
    const std::uint64_t w1 = g_allocCount.load();

    EXPECT_EQ(r1 - r0, 0u) << "direct-path pread allocated";
    EXPECT_EQ(w1 - r1, 0u) << "direct-path pwrite overwrite allocated";
    EXPECT_FALSE(tally.failed);
    EXPECT_EQ(tally.ios, 64u + 2u * kIos);
    EXPECT_EQ(tally.bytes, (64u + 2u * kIos) * kBlockBytes);
    EXPECT_EQ(lib.directReads(), 32u + kIos);
    EXPECT_EQ(lib.directWrites(), 32u + kIos);
}
