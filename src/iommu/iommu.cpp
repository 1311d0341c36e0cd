#include "iommu/iommu.hpp"

#include "obs/trace.hpp"
#include "sim/logging.hpp"

namespace bpd::iommu {

Iommu::Iommu(sim::EventQueue &eq, IommuProfile profile)
    : eq_(eq), profile_(profile),
      iotlb_(profile.iotlbEntries, profile.iotlbWays),
      walkCache_(profile.walkCacheEntries, profile.walkCacheWays)
{
}

std::uint64_t
Iommu::wcKey(Pasid pasid, Vaddr va)
{
    // One walk-cache entry per 2 MiB region per PASID (caches the upper
    // three levels of the walk; the leaf line is never cached, Sec. 4.3).
    return (static_cast<std::uint64_t>(pasid) << 44) ^ (va >> 21);
}

std::uint64_t
Iommu::dmaKey(Pasid pasid, std::uint64_t iova)
{
    return (static_cast<std::uint64_t>(pasid) << 44) ^ (iova >> 12);
}

void
Iommu::bindPasid(Pasid pasid, const mem::PageTable *pt)
{
    sim::panicIf(pasid == kNoPasid, "cannot bind the null PASID");
    pasidTable_[pasid] = pt;
}

void
Iommu::unbindPasid(Pasid pasid)
{
    pasidTable_.erase(pasid);
    invalidateAll(pasid);
}

bool
Iommu::pasidBound(Pasid pasid) const
{
    return pasidTable_.count(pasid) != 0;
}

TransResult
Iommu::translateVbaSync(Pasid pasid, Vaddr vba, std::uint32_t len,
                        bool isWrite, DevId requester)
{
    std::vector<TransSeg> segs;
    TransResult res
        = translateVbaSync(pasid, vba, len, isWrite, requester, segs);
    res.segs = std::move(segs);
    return res;
}

TransResult
Iommu::translateVbaSync(Pasid pasid, Vaddr vba, std::uint32_t len,
                        bool isWrite, DevId requester,
                        std::vector<TransSeg> &segs)
{
    TransResult res;
    segs.clear();
    vbaTranslations_++;
    if (acct_) {
        acct_->of(pasid).iommuVbaTranslations++;
        acct_->dev(requester, pasid).iommuVbaTranslations++;
    }

    Time latency = profile_.pcieRoundTripNs + profile_.lookupNs;
    bool anyWalkCacheMiss = false;
    // Distinct leaf cachelines touched. Page VAs only increase, so a
    // line is new exactly when it differs from the previous page's.
    unsigned leafLines = 0;
    Vaddr lastLine = 0;

    auto finish = [&](Fault f) {
        res.fault = f;
        res.ok = (f == Fault::None);
        if (!res.ok) {
            segs.clear();
            vbaFaults_++;
            if (acct_) {
                acct_->of(pasid).iommuVbaFaults++;
                acct_->dev(requester, pasid).iommuVbaFaults++;
            }
        }
        if (profile_.fixedVbaLatencyNs >= 0) {
            res.latency = static_cast<Time>(profile_.fixedVbaLatencyNs);
        } else {
            latency += profile_.leafFetchNs;
            if (leafLines > 1)
                latency += (leafLines - 1) * profile_.extraLineNs;
            if (anyWalkCacheMiss)
                latency += 3 * profile_.upperLevelFetchNs;
            res.latency = latency;
        }
    };

    if (len == 0) {
        finish(Fault::NotPresent);
        return res;
    }

    auto it = pasidTable_.find(pasid);
    if (it == pasidTable_.end() || it->second == nullptr) {
        finish(Fault::NoPasid);
        return res;
    }
    const mem::PageTable &pt = *it->second;

    const Vaddr end = vba + len;
    Vaddr cur = vba;
    while (cur < end) {
        const Vaddr pageVa = cur & ~static_cast<Vaddr>(kBlockBytes - 1);
        // Each leaf cacheline holds 8 FTEs (64 B); count distinct lines
        // for the timing model (Fig. 5).
        const Vaddr line = pageVa >> 15;
        if (leafLines == 0 || line != lastLine) {
            leafLines++;
            lastLine = line;
        }

        std::uint64_t dummy;
        if (!walkCache_.lookup(wcKey(pasid, pageVa), dummy)) {
            anyWalkCacheMiss = true;
            walkCache_.insert(wcKey(pasid, pageVa), 1);
        }

        const mem::PageTable::Walk w = pt.walk(pageVa);
        framesRead_ += w.framesRead;
        if (acct_) {
            acct_->of(pasid).iommuPageWalkFrames += w.framesRead;
            acct_->dev(requester, pasid).iommuPageWalkFrames
                += w.framesRead;
        }
        res.framesRead += w.framesRead;
        Fault fault = Fault::None;
        if (!w.present)
            fault = Fault::NotPresent;
        else if (!mem::isFte(w.leaf))
            fault = Fault::NotFte;
        else if (isWrite && !w.writable)
            fault = Fault::Permission;
        else if (mem::fteDevId(w.leaf) != requester)
            fault = Fault::DevIdMismatch;
        if (fault != Fault::None) {
            finish(fault);
            return res;
        }

        const BlockNo block = mem::fteBlock(w.leaf);
        const std::uint64_t inPage = cur - pageVa;
        const std::uint32_t segLen = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(end - cur, kBlockBytes - inPage));
        const DevAddr addr = block * kBlockBytes + inPage;

        if (!segs.empty() && segs.back().addr + segs.back().len == addr)
            segs.back().len += segLen;
        else
            segs.push_back(TransSeg{addr, segLen});
        res.pages++;
        cur += segLen;
    }

    finish(Fault::None);
    return res;
}

void
Iommu::translateVba(Pasid pasid, Vaddr vba, std::uint32_t len, bool isWrite,
                    DevId requester, std::function<void(TransResult)> done)
{
    TransResult res = translateVbaSync(pasid, vba, len, isWrite, requester);
    eq_.after(res.latency, [res = std::move(res),
                            done = std::move(done)]() mutable {
        done(std::move(res));
    });
}

void
Iommu::setTracer(obs::Tracer *t)
{
    trace_ = t;
    obsTrack_ = t ? t->track("iommu") : 0;
}

void
Iommu::invalidateRange(Pasid pasid, Vaddr start, std::uint64_t len)
{
    if (trace_ && trace_->wants(obs::Level::Device)) {
        trace_->instant(obsTrack_, "iommu.invalidate_range", 0,
                        {{"pasid", static_cast<std::int64_t>(pasid)},
                         {"len", static_cast<std::int64_t>(len)}});
    }
    const Vaddr first = start >> 21;
    const Vaddr last = (start + (len ? len - 1 : 0)) >> 21;
    walkCache_.invalidateIf([=](std::uint64_t key) {
        for (Vaddr chunk = first; chunk <= last; chunk++) {
            if (key == wcKey(pasid, chunk << 21))
                return true;
        }
        return false;
    });
}

void
Iommu::invalidateAll(Pasid pasid)
{
    if (trace_ && trace_->wants(obs::Level::Device)) {
        trace_->instant(obsTrack_, "iommu.invalidate_all", 0,
                        {{"pasid", static_cast<std::int64_t>(pasid)}});
    }
    // Conservative: the key mixes PASID non-invertibly, so flush both
    // caches for correctness on PASID teardown.
    (void)pasid;
    walkCache_.clear();
    iotlb_.clear();
}

void
Iommu::mapDma(Pasid pasid, std::uint64_t iova, std::span<std::uint8_t> mem,
              bool writable)
{
    dmaMap_[pasid][iova] = DmaMapping{mem, writable};
}

void
Iommu::unmapDma(Pasid pasid, std::uint64_t iova)
{
    auto it = dmaMap_.find(pasid);
    if (it != dmaMap_.end())
        it->second.erase(iova);
    iotlb_.invalidate(dmaKey(pasid, iova));
}

std::optional<std::span<std::uint8_t>>
Iommu::resolveDma(Pasid pasid, std::uint64_t iova, std::uint32_t len,
                  bool deviceWrites)
{
    auto pit = dmaMap_.find(pasid);
    if (pit == dmaMap_.end() || pit->second.empty())
        return std::nullopt;
    // Find the registration with the largest base <= iova.
    auto it = pit->second.upper_bound(iova);
    if (it == pit->second.begin())
        return std::nullopt;
    --it;
    const std::uint64_t base = it->first;
    const DmaMapping &m = it->second;
    const std::uint64_t offset = iova - base;
    if (offset + len > m.mem.size())
        return std::nullopt;
    if (deviceWrites && !m.writable)
        return std::nullopt;
    return m.mem.subspan(offset, len);
}

Time
Iommu::dmaTranslateLatency(Pasid pasid, std::uint64_t iova)
{
    std::uint64_t dummy;
    if (iotlb_.lookup(dmaKey(pasid, iova), dummy))
        return profile_.lookupNs;
    iotlb_.insert(dmaKey(pasid, iova), 1);
    return profile_.lookupNs + profile_.leafFetchNs;
}

} // namespace bpd::iommu
