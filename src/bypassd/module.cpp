#include "bypassd/module.hpp"

#include <algorithm>

#include "sim/logging.hpp"

namespace bpd::bypassd {

namespace {

std::uint64_t
roundUpPmd(std::uint64_t bytes)
{
    return (bytes + mem::kPmdSpan - 1) & ~(mem::kPmdSpan - 1);
}

} // namespace

BypassdModule::BypassdModule(kern::Kernel &kernel)
    : kernel_(kernel)
{
    kernel_.setBypassdHooks(this);
}

BypassdModule::~BypassdModule()
{
    kernel_.setBypassdHooks(nullptr);
}

void
BypassdModule::setTracer(obs::Tracer *t)
{
    trace_ = t;
    if (trace_)
        obsTrack_ = trace_->track("bypassd");
}

FileTableCache *
BypassdModule::cacheOf(fs::Inode &ino)
{
    return static_cast<FileTableCache *>(ino.fileTable.get());
}

iommu::Iommu &
BypassdModule::homeIommu(InodeNum ino)
{
    auto it = cacheHome_.find(ino);
    return kernel_.slotIommu(it == cacheHome_.end() ? 0 : it->second);
}

std::size_t
BypassdModule::homeSlotOf(const fs::Inode &ino) const
{
    if (homeSlot_)
        return homeSlot_(ino);
    // Default: derive from the first extent's physical block. Placement
    // guarantees every extent of an inode lives on one slot, so the
    // first is representative; extentless files go to slot 0.
    const auto &exts = ino.extents.extents();
    if (exts.empty())
        return 0;
    return kernel_.slotOf(exts.front().pblk * kBlockBytes);
}

FileTableCache *
BypassdModule::ensureCache(fs::Inode &ino, FmapResult *res)
{
    if (!ino.fileTable) {
        // Cold fmap: build the shared file tables from the extent tree
        // (Section 4.1). Cost: per-FTE writes plus extent walks. FTEs
        // carry the home device's DevID and slot-local block addresses.
        const std::size_t slot = homeSlotOf(ino);
        auto cache = std::make_shared<FileTableCache>(
            kernel_.frames(), kernel_.slotDevice(slot).devId(),
            kernel_.slotBase(slot) / kBlockBytes);
        FileTableCache::BuildStats stats
            = cache->buildFrom(ino.extents);
        cacheHome_[ino.ino] = slot;
        const kern::CostModel &c = kernel_.costs();
        res->cost += stats.ftesWritten * c.fmapBuildPerFteNs
                     + stats.extentsWalked * c.fmapExtentLookupNs;
        res->cold = true;
        coldFmaps_++;
        ino.fileTable = std::move(cache);
    } else {
        warmFmaps_++;
    }
    return cacheOf(ino);
}

FmapResult
BypassdModule::fmap(kern::Process &p, InodeNum inoNum, bool writable)
{
    FmapResult res;
    res.cost = kernel_.costs().fmapSyscallNs;

    fs::Inode *ino = kernel_.vfs().fs().inode(inoNum);
    if (!ino || ino->isDir()) {
        rejectedFmaps_++;
        if (acct_)
            acct_->of(p.pasid()).bypassdRejectedFmaps++;
        if (trace_ && trace_->wants(obs::Level::Layers))
            trace_->instant(obsTrack_, "bypassd.fmap_rejected", 0,
                            {{"ino", static_cast<std::int64_t>(inoNum)}});
        return res;
    }

    // A valid VBA must imply kernel-approved access (Section 5.3): the
    // caller needs an open descriptor for this inode, and write mappings
    // require a write-mode open.
    bool hasOpen = false;
    bool mayWrite = false;
    for (const auto &[fd, of] : p.fds()) {
        if (of.ino == inoNum) {
            hasOpen = true;
            if (of.flags & fs::kOpenWrite)
                mayWrite = true;
        }
    }
    if (!hasOpen) {
        rejectedFmaps_++;
        if (acct_)
            acct_->of(p.pasid()).bypassdRejectedFmaps++;
        if (trace_ && trace_->wants(obs::Level::Layers))
            trace_->instant(obsTrack_, "bypassd.fmap_rejected", 0,
                            {{"ino", static_cast<std::int64_t>(inoNum)}});
        return res;
    }
    writable = writable && mayWrite;

    // Stale revocation state clears once every opener is gone.
    if (revoked_.count(inoNum) && ino->bypassdOpeners.empty()
        && ino->kernelOpens == 0) {
        revoked_.erase(inoNum);
        ino->metadataMultiWriter = false;
        ino->lastMetadataWriter = 0;
    }

    // Eligibility (Sections 3.6, 4.5.2): reject when the file is open
    // through the kernel interface, when access was revoked, or when
    // multiple processes have been changing its metadata.
    if (ino->kernelOpens > 0 || revoked_.count(inoNum)
        || ino->metadataMultiWriter) {
        rejectedFmaps_++;
        if (acct_)
            acct_->of(p.pasid()).bypassdRejectedFmaps++;
        if (trace_ && trace_->wants(obs::Level::Layers))
            trace_->instant(obsTrack_, "bypassd.fmap_rejected", 0,
                            {{"ino", static_cast<std::int64_t>(inoNum)}});
        return res;
    }

    // Multi-device fleet: a file homed on an unattached or evicted
    // device gets no VBA — the caller falls back to the kernel
    // interface, where I/O to the dead device fails with ENODEV.
    const std::size_t home = homeSlotOf(*ino);
    if (home >= kernel_.slotCount()
        || kernel_.slotDevice(home).evicted()) {
        rejectedFmaps_++;
        if (acct_)
            acct_->of(p.pasid()).bypassdRejectedFmaps++;
        if (trace_ && trace_->wants(obs::Level::Layers))
            trace_->instant(obsTrack_, "bypassd.fmap_rejected", 0,
                            {{"ino", static_cast<std::int64_t>(inoNum)},
                             {"slot", static_cast<std::int64_t>(home)}});
        return res;
    }

    FileTableCache *cache = ensureCache(*ino, &res);
    res.slot = home;
    res.dev = cache->devId();
    // ensureCache bumped exactly one of coldFmaps_/warmFmaps_; it has
    // no Process, so the per-tenant twin lands here.
    if (acct_) {
        obs::TenantCounters &tc = acct_->of(p.pasid());
        if (res.cold)
            tc.bypassdColdFmaps++;
        else
            tc.bypassdWarmFmaps++;
    }

    // A re-fmap retires any quarantined region from a prior revocation:
    // the caller is about to replace its stale VBA.
    releaseQuarantine(p, inoNum);

    // Idempotent re-fmap by the same process.
    auto it = cache->attachments.find(p.pid());
    if (it != cache->attachments.end()) {
        res.vba = it->second.vba;
        res.mappedBytes = cache->mappedBlocks() * kBlockBytes;
        emitFmap(res, inoNum);
        return res;
    }

    // Reserve a PMD-aligned VBA region with growth headroom so appends
    // can extend the mapping in place (Section 4.1).
    const std::uint64_t regionBytes
        = roundUpPmd(std::max<std::uint64_t>(ino->size, 1))
          + kRegionHeadroom;
    const Vaddr vba = p.aspace().reserve(regionBytes, mem::kPmdSpan);
    if (vba == 0) {
        rejectedFmaps_++;
        if (acct_)
            acct_->of(p.pasid()).bypassdRejectedFmaps++;
        if (trace_ && trace_->wants(obs::Level::Layers))
            trace_->instant(obsTrack_, "bypassd.fmap_rejected", 0,
                            {{"ino", static_cast<std::int64_t>(inoNum)}});
        return res;
    }

    // Warm attach: link the shared leaf frames at PMD entries; the
    // per-open permission is set on the private path (Fig. 4).
    unsigned writes = 0;
    const auto &leaves = cache->leafFrames();
    for (std::size_t i = 0; i < leaves.size(); i++) {
        writes += p.aspace().pageTable().attachTable(
            vba + i * mem::kPmdSpan, 1, leaves[i], writable);
    }
    res.cost += static_cast<Time>(writes)
                * kernel_.costs().fmapAttachPerPmdNs;

    cache->attachments[p.pid()] = FileTableCache::Attachment{
        vba, regionBytes, writable, leaves.size()};
    ino->bypassdOpeners.insert(p.pid());

    res.vba = vba;
    res.mappedBytes = cache->mappedBlocks() * kBlockBytes;
    emitFmap(res, inoNum);
    return res;
}

void
BypassdModule::emitFmap(const FmapResult &res, InodeNum ino)
{
    if (!trace_ || !trace_->wants(obs::Level::Layers))
        return;
    // The caller charges res.cost after we return; model the fmap as a
    // span covering that upcoming work.
    const Time now = kernel_.eq().now();
    trace_->span(obsTrack_,
                 res.cold ? "bypassd.fmap_cold" : "bypassd.fmap_warm", 0,
                 now, now + res.cost,
                 {{"ino", static_cast<std::int64_t>(ino)},
                  {"bytes", static_cast<std::int64_t>(res.mappedBytes)}});
}

void
BypassdModule::detachOne(kern::Process &p, fs::Inode &ino,
                         FileTableCache &cache, bool quarantineVa)
{
    auto it = cache.attachments.find(p.pid());
    if (it == cache.attachments.end())
        return;
    const FileTableCache::Attachment &att = it->second;
    for (std::uint64_t i = 0; i < att.attachedLeaves; i++)
        p.aspace().pageTable().detachTable(att.vba + i * mem::kPmdSpan, 1);
    homeIommu(ino.ino).invalidateRange(p.pasid(), att.vba,
                                       att.regionBytes);
    if (quarantineVa) {
        quarantined_[{p.pid(), ino.ino}]
            = QuarantinedRegion{att.vba, att.regionBytes};
    } else {
        p.aspace().release(att.vba, att.regionBytes);
    }
    cache.attachments.erase(it);
    ino.bypassdOpeners.erase(p.pid());
}

void
BypassdModule::releaseQuarantine(kern::Process &p, InodeNum ino)
{
    auto it = quarantined_.find({p.pid(), ino});
    if (it == quarantined_.end())
        return;
    p.aspace().release(it->second.vba, it->second.bytes);
    quarantined_.erase(it);
}

void
BypassdModule::funmap(kern::Process &p, InodeNum inoNum)
{
    fs::Inode *ino = kernel_.vfs().fs().inode(inoNum);
    if (!ino)
        return;
    FileTableCache *cache = cacheOf(*ino);
    if (cache)
        detachOne(p, *ino, *cache, /*quarantineVa=*/false);
    releaseQuarantine(p, inoNum);
    if (revoked_.count(inoNum) && ino->bypassdOpeners.empty()
        && ino->kernelOpens == 0) {
        revoked_.erase(inoNum);
        ino->metadataMultiWriter = false;
        ino->lastMetadataWriter = 0;
    }
}

void
BypassdModule::revoke(fs::Inode &ino)
{
    FileTableCache *cache = cacheOf(ino);
    if (!cache || cache->attachments.empty()) {
        revoked_.insert(ino.ino);
        return;
    }
    revocations_++;
    if (trace_ && trace_->wants(obs::Level::Requests))
        trace_->instant(obsTrack_, "bypassd.revocation", 0,
                        {{"ino", static_cast<std::int64_t>(ino.ino)}});
    // Detach every process; their next direct I/O faults in the IOMMU,
    // UserLib re-fmap()s, gets VBA 0 and falls back (Section 3.6).
    std::vector<Pid> pids;
    for (const auto &[pid, att] : cache->attachments)
        pids.push_back(pid);
    for (Pid pid : pids) {
        kern::Process *p = kernel_.process(pid);
        if (p) {
            detachOne(*p, ino, *cache, /*quarantineVa=*/true);
            revokedVictims_++;
            if (acct_)
                acct_->of(p->pasid()).bypassdRevokedVictims++;
        } else {
            cache->attachments.erase(pid);
        }
    }
    revoked_.insert(ino.ino);
}

std::size_t
BypassdModule::revokeSlot(std::size_t slot)
{
    std::size_t n = 0;
    // std::map order => deterministic revocation sequence for digests.
    for (const auto &[inoNum, home] : cacheHome_) {
        if (home != slot)
            continue;
        fs::Inode *ino = kernel_.vfs().fs().inode(inoNum);
        if (!ino || !ino->fileTable)
            continue;
        revoke(*ino);
        n++;
    }
    if (trace_ && trace_->wants(obs::Level::Requests))
        trace_->instant(obsTrack_, "bypassd.slot_revoked", 0,
                        {{"slot", static_cast<std::int64_t>(slot)},
                         {"inodes", static_cast<std::int64_t>(n)}});
    return n;
}

void
BypassdModule::onKernelOpen(fs::Inode &ino)
{
    // A file mapped for userspace access got opened through the kernel
    // interface: concurrent access through both is not supported, so
    // revoke direct access (Section 4.5.2).
    if (!ino.bypassdOpeners.empty())
        revoke(ino);
}

void
BypassdModule::onMetadataChange(fs::Inode &ino, Pid pid)
{
    if (ino.lastMetadataWriter != 0 && ino.lastMetadataWriter != pid)
        ino.metadataMultiWriter = true;
    ino.lastMetadataWriter = pid;
    if (ino.metadataMultiWriter && !ino.bypassdOpeners.empty())
        revoke(ino);
}

void
BypassdModule::onExtentsAdded(fs::Inode &ino,
                              const std::vector<fs::Extent> &added)
{
    FileTableCache *cache = cacheOf(ino);
    if (!cache)
        return;
    const std::size_t oldLeaves = cache->leafFrames().size();
    cache->extend(added);
    const auto &leaves = cache->leafFrames();
    if (leaves.size() == oldLeaves)
        return; // growth stayed within existing shared leaves

    // New leaf frames must be linked into every attached process, inside
    // its reserved region; processes whose region is exhausted lose
    // direct access (fallback, Section 3.6).
    std::vector<Pid> toRevoke;
    for (auto &[pid, att] : cache->attachments) {
        if (leaves.size() * mem::kPmdSpan > att.regionBytes) {
            toRevoke.push_back(pid);
            continue;
        }
        kern::Process *p = kernel_.process(pid);
        if (!p)
            continue;
        for (std::size_t i = att.attachedLeaves; i < leaves.size(); i++) {
            p->aspace().pageTable().attachTable(
                att.vba + i * mem::kPmdSpan, 1, leaves[i], att.writable);
        }
        att.attachedLeaves = leaves.size();
    }
    if (!toRevoke.empty())
        revoke(ino);
}

void
BypassdModule::onTruncated(fs::Inode &ino)
{
    FileTableCache *cache = cacheOf(ino);
    if (!cache)
        return;
    const std::uint64_t newBlocks = ino.extents.logicalEnd();
    const std::uint64_t keepLeaves = FileTableCache::leavesFor(newBlocks);
    for (auto &[pid, att] : cache->attachments) {
        kern::Process *p = kernel_.process(pid);
        if (!p)
            continue;
        for (std::uint64_t i = keepLeaves; i < att.attachedLeaves; i++) {
            p->aspace().pageTable().detachTable(
                att.vba + i * mem::kPmdSpan, 1);
        }
        att.attachedLeaves = std::min(att.attachedLeaves, keepLeaves);
        homeIommu(ino.ino).invalidateRange(p->pasid(), att.vba,
                                           att.regionBytes);
    }
    cache->shrinkTo(newBlocks);
}

std::unique_ptr<UserQueues>
BypassdModule::createUserQueues(kern::Process &p, std::uint32_t depth,
                                std::uint64_t dmaBytes, std::size_t slot)
{
    auto uq = std::make_unique<UserQueues>();
    uq->slot = slot;
    uq->dispatcher = kernel_.slotDevice(slot).openQueue(p.pasid(), depth,
                                                        /*vbaMode=*/true);
    if (!uq->dispatcher)
        return nullptr;
    uq->dmaBuf.assign(dmaBytes, 0);
    uq->dmaIova = p.aspace().reserve(dmaBytes, kBlockBytes);
    // The DMA buffer is registered with the home device's IOMMU context;
    // that device resolves (pasid, iova) through it.
    kernel_.slotIommu(slot).mapDma(
        p.pasid(), uq->dmaIova,
        std::span<std::uint8_t>(uq->dmaBuf.data(), uq->dmaBuf.size()),
        /*writable=*/true);
    // One-time setup: queue registration + buffer pinning. Charged once
    // at initialization, like SPDK's hugepage setup (Section 3.3).
    uq->setupCost = 20 * kUs;
    return uq;
}

void
BypassdModule::destroyUserQueues(kern::Process &p, UserQueues &uq)
{
    if (!uq.dispatcher)
        return;
    kernel_.slotIommu(uq.slot).unmapDma(p.pasid(), uq.dmaIova);
    p.aspace().release(uq.dmaIova, uq.dmaBuf.size());
    uq.dispatcher.reset();
}

} // namespace bpd::bypassd
