#include "bench.hpp"

#include <atomic>
#include <cstdlib>
#include <new>
#include <string_view>

#include "sim/logging.hpp"

// ---- counting operator new ------------------------------------------
//
// Each thread counts into its own slot and folds it into the global sum
// when it exits, so fleet shard threads never share a counter line.

namespace {

std::atomic<std::uint64_t> gExitedAllocs{0};

struct AllocTally
{
    std::uint64_t n = 0;
    ~AllocTally() { gExitedAllocs.fetch_add(n, std::memory_order_relaxed); }
};

thread_local AllocTally tAllocs;

void *
countedAlloc(std::size_t n)
{
    tAllocs.n++;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    tAllocs.n++;
    return std::malloc(n ? n : 1);
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    tAllocs.n++;
    return std::malloc(n ? n : 1);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace pb {

std::uint64_t
heapAllocs()
{
    // Worker threads have exited (and folded in) by the time the main
    // thread asks: executor runs join their shards before returning.
    return gExitedAllocs.load(std::memory_order_relaxed) + tAllocs.n;
}

// ---- Shadow ----------------------------------------------------------

std::uint32_t
Shadow::addRegion(std::uint64_t blocks)
{
    regions_.emplace_back(blocks);
    return static_cast<std::uint32_t>(regions_.size() - 1);
}

Shadow::Entry &
Shadow::at(std::uint32_t region, std::uint64_t block)
{
    std::vector<Entry> &r = regions_.at(region);
    if (block >= r.size())
        r.resize(std::max<std::uint64_t>(block + 1, r.size() * 2));
    return r[block];
}

void
Shadow::fill(std::uint8_t *p, std::uint64_t key, std::uint64_t tag)
{
    std::memcpy(p, &tag, 8);
    std::memcpy(p + 8, &key, 8);
    for (std::size_t i = 2; i < kBlock / 8; i++) {
        const std::uint64_t w = (tag + i) * 0x9e3779b97f4a7c15ull ^ key;
        std::memcpy(p + 8 * i, &w, 8);
    }
}

bool
Shadow::matches(const std::uint8_t *p, std::uint64_t key, std::uint64_t tag)
{
    std::uint64_t diff = 0;
    if (tag == 0) {
        for (std::size_t i = 0; i < kBlock / 8; i++) {
            std::uint64_t w;
            std::memcpy(&w, p + 8 * i, 8);
            diff |= w;
        }
        return diff == 0;
    }
    std::uint64_t w0, w1;
    std::memcpy(&w0, p, 8);
    std::memcpy(&w1, p + 8, 8);
    diff = (w0 ^ tag) | (w1 ^ key);
    for (std::size_t i = 2; i < kBlock / 8; i++) {
        std::uint64_t w;
        std::memcpy(&w, p + 8 * i, 8);
        diff |= w ^ ((tag + i) * 0x9e3779b97f4a7c15ull ^ key);
    }
    return diff == 0;
}

void
Shadow::mismatch(std::uint32_t region, std::uint64_t block, const char *what)
{
    if (mismatches++ == 0)
        firstMismatch = bpd::sim::strf(
            "%s: region %u block %llu does not match the shadow", what,
            region, static_cast<unsigned long long>(block));
}

void
Shadow::beginWrite(std::uint32_t region, std::uint64_t block,
                   std::span<std::uint8_t> data)
{
    Entry &e = at(region, block);
    e.ambiguous = e.inflight > 0;
    e.inflight++;
    e.gen++;
    fill(data.data(), key(region, block), nextTag_++);
}

void
Shadow::endWrite(std::uint32_t region, std::uint64_t block,
                 std::span<const std::uint8_t> data, bool ok)
{
    Entry &e = at(region, block);
    e.inflight--;
    if (!ok)
        e.ambiguous = true;
    else if (!e.ambiguous)
        std::memcpy(&e.tag, data.data(), 8);
}

Shadow::Ticket
Shadow::beginRead(std::uint32_t region, std::uint64_t block)
{
    const Entry &e = at(region, block);
    return Ticket{region, block, e.tag, e.gen,
                  e.inflight > 0 || e.ambiguous};
}

void
Shadow::endRead(const Ticket &t, std::span<const std::uint8_t> data)
{
    checks++;
    const Entry &e = at(t.region, t.block);
    const std::uint64_t k = key(t.region, t.block);
    if (!t.racy && e.gen == t.gen) {
        if (!matches(data.data(), k, t.tag))
            mismatch(t.region, t.block, "read");
        return;
    }
    // Racing a write: any one complete version of this block will do.
    // Zeros are a valid version only while the block was still zero.
    std::uint64_t tag;
    std::memcpy(&tag, data.data(), 8);
    const bool ok = tag == 0 ? t.tag == 0 && matches(data.data(), k, 0)
                             : matches(data.data(), k, tag);
    if (!ok)
        mismatch(t.region, t.block, "racing read");
}

// ---- Tally -----------------------------------------------------------

bool
Tally::data(const Window &w, Time issue, Time now, bool write,
            long long got, std::size_t want)
{
    if (got != static_cast<long long>(want)) {
        failed++;
        if (firstError.empty())
            firstError = bpd::sim::strf("%s returned %lld (wanted %zu)",
                                        write ? "write" : "read", got,
                                        want);
        return false;
    }
    completed++;
    dataOps++;
    if (write)
        userWriteBytes += want;
    if (w.contains(issue, now)) {
        windowOps++;
        (write ? writeNs : readNs)
            .push_back(static_cast<std::uint32_t>(now - issue));
    }
    return true;
}

bool
Tally::other(long long rc, const char *what)
{
    if (rc < 0) {
        failed++;
        if (firstError.empty())
            firstError = bpd::sim::strf("%s returned %lld", what, rc);
        return false;
    }
    completed++;
    return true;
}

void
Tally::merge(const Tally &o)
{
    issued += o.issued;
    completed += o.completed;
    failed += o.failed;
    dataOps += o.dataOps;
    userWriteBytes += o.userWriteBytes;
    windowOps += o.windowOps;
    readNs.insert(readNs.end(), o.readNs.begin(), o.readNs.end());
    writeNs.insert(writeNs.end(), o.writeNs.begin(), o.writeNs.end());
    fsyncs += o.fsyncs;
    fsyncNs += o.fsyncNs;
    if (firstError.empty())
        firstError = o.firstError;
}

const char *
toString(HostLayer l)
{
    switch (l) {
      case HostLayer::UserLib: return "bypassd.UserLib";
      case HostLayer::Kernel: return "kern.Kernel";
      case HostLayer::Fabric: return "fabric.FabricInitiator";
      case HostLayer::RunLoop: return "sim.run";
    }
    return "?";
}

// ---- SpanAgg ---------------------------------------------------------

void
SpanAgg::onSpan(const bpd::obs::SpanRec &rec,
                const std::vector<std::string> &)
{
    spans++;
    const std::string_view name(rec.name);
    const Time dur = rec.end - rec.start;
    // Tracer::request() envelopes carry exactly these five args.
    if (rec.nargs == 5 && std::strcmp(rec.args[0].key, "user_ns") == 0) {
        envelopes++;
        userNs += static_cast<double>(rec.args[0].value);
        kernelNs += static_cast<double>(rec.args[1].value);
        xlateNs += static_cast<double>(rec.args[2].value);
        deviceNs += static_cast<double>(rec.args[3].value);
        if (name.starts_with("bypassd.")) {
            bypassdEnvelopes++;
            bypassdUserNs += static_cast<double>(rec.args[0].value);
        } else if (name.starts_with("fabric.")) {
            fabricEnvelopes++;
            fabricTransportNs += static_cast<double>(rec.args[0].value);
        }
    } else if (name == "nvme.sq_wait") {
        sqWaitNs += static_cast<double>(dur);
    } else if (name == "fabric.rdma") {
        rdmaPulls++;
        rdmaNs += static_cast<double>(dur);
    }
}

void
SpanAgg::merge(const SpanAgg &o)
{
    spans += o.spans;
    envelopes += o.envelopes;
    userNs += o.userNs;
    kernelNs += o.kernelNs;
    xlateNs += o.xlateNs;
    deviceNs += o.deviceNs;
    bypassdEnvelopes += o.bypassdEnvelopes;
    bypassdUserNs += o.bypassdUserNs;
    fabricEnvelopes += o.fabricEnvelopes;
    fabricTransportNs += o.fabricTransportNs;
    rdmaPulls += o.rdmaPulls;
    rdmaNs += o.rdmaNs;
    sqWaitNs += o.sqWaitNs;
}

// ---- Counters and shared checks ---------------------------------------

void
Counters::add(bpd::sys::System &s)
{
    events += s.eq.executed();
    for (std::size_t i = 0; i < s.devices.size(); i++) {
        const bpd::ssd::NvmeDevice &d = s.devices.slot(i).dev;
        const bpd::iommu::Iommu &mmu = s.devices.slot(i).iommu;
        devOps += d.totalOps();
        devWriteBytes += d.writeBytes();
        vbaTranslations += mmu.vbaTranslations();
        vbaFaults += mmu.vbaFaults();
        framesRead += mmu.framesRead();
        iotlbHits += mmu.iotlb().hits();
        iotlbMisses += mmu.iotlb().misses();
        walkHits += mmu.walkCache().hits();
        walkMisses += mmu.walkCache().misses();
    }
    syscalls += s.kernel.syscallCount();
    metadataOps += s.ext4.metadataOps();
    journalCommits += s.ext4.journal().committedTxns();
    journalRecords += s.ext4.journal().records();
    fmaps += s.module.coldFmaps() + s.module.warmFmaps()
             + s.module.rejectedFmaps();
    revocations += s.module.revocations();
    s.kernel.forEachProcess([this](bpd::kern::Process &p) {
        if (!p.userLib)
            return;
        directOps += p.userLib->directReads() + p.userLib->directWrites();
        fallbackOps += p.userLib->kernelFallbackOps();
    });
    if (const bpd::qos::Registry *q = s.qos()) {
        qos = true;
        qosAdmits += q->admits();
        qosThrottles += q->throttles();
    }
}

void
Counters::sub(const Counters &b)
{
    for (auto [mine, theirs] :
         {std::pair{&events, &b.events}, {&devOps, &b.devOps},
          {&devWriteBytes, &b.devWriteBytes},
          {&vbaTranslations, &b.vbaTranslations},
          {&vbaFaults, &b.vbaFaults}, {&framesRead, &b.framesRead},
          {&iotlbHits, &b.iotlbHits}, {&iotlbMisses, &b.iotlbMisses},
          {&walkHits, &b.walkHits}, {&walkMisses, &b.walkMisses},
          {&syscalls, &b.syscalls}, {&metadataOps, &b.metadataOps},
          {&journalCommits, &b.journalCommits},
          {&journalRecords, &b.journalRecords}, {&fmaps, &b.fmaps},
          {&revocations, &b.revocations}, {&directOps, &b.directOps},
          {&fallbackOps, &b.fallbackOps}, {&qosAdmits, &b.qosAdmits},
          {&qosThrottles, &b.qosThrottles}})
        *mine -= *theirs;
}

void
checkTenantSums(Round &r, bpd::sys::System &s, const char *label)
{
    const std::string sums = s.verifyTenantSums();
    if (!sums.empty())
        r.failures.push_back(
            bpd::sim::strf("%s: tenant sums: %s", label, sums.c_str()));
}

void
digestTally(Fnv &h, const Tally &t)
{
    h.add(t.issued);
    h.add(t.completed);
    h.add(t.failed);
    h.add(t.dataOps);
    h.add(t.userWriteBytes);
    h.add(t.windowOps);
    for (std::uint32_t v : t.readNs)
        h.add(v);
    for (std::uint32_t v : t.writeNs)
        h.add(v);
    h.add(t.fsyncs);
    h.add(t.fsyncNs);
}

} // namespace pb
