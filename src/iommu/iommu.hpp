/**
 * @file
 * The enhanced IOMMU of BypassD (Section 3.5, 4.3).
 *
 * Beyond classic IOVA-to-physical translation for DMA buffers, this IOMMU
 * services PCIe ATS translation requests that carry Virtual Block
 * Addresses. Using the PASID linked to the submitting NVMe queue it walks
 * the owning process' page table (SVA-style), interprets leaf entries with
 * the FT bit set as File Table Entries, verifies the R/W permission and
 * that the FTE's DevID matches the requester, and returns coalesced
 * (device-byte-address, length) segments.
 *
 * Timing is calibrated from the paper's measurements (Section 6.2): 345 ns
 * PCIe round trip, ~183 ns for the leaf cacheline fetch on a walk, small
 * extra for additional cachelines; FTEs are not inserted into the IOTLB.
 */

#ifndef BPD_IOMMU_IOMMU_HPP
#define BPD_IOMMU_IOMMU_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "iommu/iotlb.hpp"
#include "mem/page_table.hpp"
#include "obs/tenant.hpp"
#include "sim/event_queue.hpp"

namespace bpd::obs {
class Tracer;
}

namespace bpd::iommu {

/** Timing and geometry knobs. */
struct IommuProfile
{
    Time pcieRoundTripNs = 345;   //!< ATS request + response transit
    Time lookupNs = 15;           //!< IOTLB / walk-cache lookup
    Time leafFetchNs = 183;       //!< first page-table cacheline fetch
    Time extraLineNs = 12;        //!< each additional leaf cacheline
    Time upperLevelFetchNs = 120; //!< per level on walk-cache miss
    unsigned iotlbEntries = 256;
    unsigned iotlbWays = 4;
    unsigned walkCacheEntries = 2048;
    unsigned walkCacheWays = 4;
    /**
     * Override for the whole VBA translation latency; when >= 0 the
     * modeled components above are replaced by this constant (used by the
     * Fig. 8 sensitivity sweep). -1 means "use the component model".
     */
    std::int64_t fixedVbaLatencyNs = -1;
};

/** Why a translation failed. */
enum class Fault : std::uint8_t
{
    None,
    NoPasid,      //!< PASID not bound to any page table
    NotPresent,   //!< no present leaf for some page of the range
    Permission,   //!< write requested through a read-only path
    NotFte,       //!< present leaf is not a File Table Entry
    DevIdMismatch //!< FTE belongs to a different device
};

/** One translated extent on the device. */
struct TransSeg
{
    DevAddr addr; //!< device byte address
    std::uint32_t len;
};

/** Outcome of an ATS VBA translation. */
struct TransResult
{
    bool ok = false;
    Fault fault = Fault::None;
    std::vector<TransSeg> segs;
    Time latency = 0;        //!< modeled translation latency
    unsigned framesRead = 0; //!< page-table frames touched
    unsigned pages = 0;      //!< 4 KiB translations performed
};

/**
 * The system IOMMU. One instance serves all devices.
 */
class Iommu
{
  public:
    Iommu(sim::EventQueue &eq, IommuProfile profile = {});

    IommuProfile &profile() { return profile_; }

    /** @name PASID table (SVA binding) */
    ///@{
    void bindPasid(Pasid pasid, const mem::PageTable *pt);
    void unbindPasid(Pasid pasid);
    bool pasidBound(Pasid pasid) const;
    ///@}

    /**
     * Service an ATS translation request for a VBA range, asynchronously:
     * @p done fires after the modeled translation latency.
     */
    void translateVba(Pasid pasid, Vaddr vba, std::uint32_t len,
                      bool isWrite, DevId requester,
                      std::function<void(TransResult)> done);

    /** Synchronous variant (functional result + latency estimate). */
    TransResult translateVbaSync(Pasid pasid, Vaddr vba, std::uint32_t len,
                                 bool isWrite, DevId requester);

    /**
     * Allocation-free form for the device hot path: the segments go to
     * @p segs (cleared first, left empty on a fault), whose capacity
     * the caller reuses across commands; the result's own segs stay
     * empty.
     */
    TransResult translateVbaSync(Pasid pasid, Vaddr vba, std::uint32_t len,
                                 bool isWrite, DevId requester,
                                 std::vector<TransSeg> &segs);

    /**
     * Invalidate cached translation state for a VBA range (issued by the
     * kernel when FTEs are detached, Section 3.6).
     */
    void invalidateRange(Pasid pasid, Vaddr start, std::uint64_t len);

    /** Invalidate everything for a PASID. */
    void invalidateAll(Pasid pasid);

    /** @name DMA buffer registry (classic IOVA mappings)
     * Pinned DMA buffers are registered with the IOMMU; devices resolve
     * (pasid, iova) to host memory through it. A rogue device or a bad
     * IOVA resolves to nothing and the DMA is rejected.
     */
    ///@{
    void mapDma(Pasid pasid, std::uint64_t iova, std::span<std::uint8_t> mem,
                bool writable);
    void unmapDma(Pasid pasid, std::uint64_t iova);

    /**
     * Resolve a DMA target.
     * @param deviceWrites True when the device writes to host memory.
     * @return Host span, or nullopt on any violation.
     */
    std::optional<std::span<std::uint8_t>>
    resolveDma(Pasid pasid, std::uint64_t iova, std::uint32_t len,
               bool deviceWrites);

    /** Modeled latency for one DMA IOVA translation (Table 4 model). */
    Time dmaTranslateLatency(Pasid pasid, std::uint64_t iova);
    ///@}

    /** @name Statistics */
    ///@{
    std::uint64_t vbaTranslations() const { return vbaTranslations_; }
    std::uint64_t vbaFaults() const { return vbaFaults_; }
    std::uint64_t framesRead() const { return framesRead_; }
    const TranslationCache &iotlb() const { return iotlb_; }
    const TranslationCache &walkCache() const { return walkCache_; }
    TranslationCache &walkCacheMut() { return walkCache_; }
    ///@}

    /**
     * Attach a span tracer (null = disabled). Emits instant events on
     * translation-cache invalidations; read-only, timing-neutral.
     */
    void setTracer(obs::Tracer *t);

    /**
     * Attach the per-tenant counter table (null = disabled). The
     * translating PASID is the tenant. IOTLB/walk-cache hit counters
     * stay system-only on purpose: the caches are shared, so a hit
     * caused by one tenant's fill serving another has no honest owner.
     */
    void setTenantAccounting(obs::TenantAccounting *a) { acct_ = a; }

  private:
    static std::uint64_t wcKey(Pasid pasid, Vaddr va);
    static std::uint64_t dmaKey(Pasid pasid, std::uint64_t iova);

    sim::EventQueue &eq_;
    IommuProfile profile_;
    std::unordered_map<Pasid, const mem::PageTable *> pasidTable_;

    struct DmaMapping
    {
        std::span<std::uint8_t> mem;
        bool writable;
    };
    /** Per-PASID registered DMA regions, keyed by base IOVA. */
    std::unordered_map<Pasid, std::map<std::uint64_t, DmaMapping>> dmaMap_;

    TranslationCache iotlb_;
    TranslationCache walkCache_;

    obs::Tracer *trace_ = nullptr;
    std::uint16_t obsTrack_ = 0;
    obs::TenantAccounting *acct_ = nullptr;

    std::uint64_t vbaTranslations_ = 0;
    std::uint64_t vbaFaults_ = 0;
    std::uint64_t framesRead_ = 0;
};

} // namespace bpd::iommu

#endif // BPD_IOMMU_IOMMU_HPP
