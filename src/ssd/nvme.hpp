/**
 * @file
 * NVMe SSD model with BypassD device extensions (Section 4.3).
 *
 * The device exposes queue pairs (SQ/CQ). Each queue is linked to the
 * PASID of the process that owns it; commands on a VBA-mode queue carry
 * Virtual Block Addresses which the device translates through the IOMMU
 * over PCIe ATS before touching media. Reads serialize translation before
 * media access; writes overlap translation with the data-in transfer and
 * therefore observe no translation latency (Section 4.3).
 *
 * Timing model (calibrated to Intel Optane P5800X, Table 1 / Fig. 6):
 *  - media access: base latency + size / bandwidth, lognormal jitter;
 *  - a bounded number of internal units limits concurrency (~1.5 M IOPS);
 *  - a shared transfer link serializes data movement (caps GB/s);
 *  - round-robin arbitration across submission queues (Fig. 11), found
 *    through a ready bitmap so its cost tracks the non-empty queues.
 */

#ifndef BPD_SSD_NVME_HPP
#define BPD_SSD_NVME_HPP

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "iommu/iommu.hpp"
#include "obs/tenant.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/slot_pool.hpp"
#include "ssd/block_store.hpp"

namespace bpd::obs {
class Tracer;
}

namespace bpd::qos {
class Registry;
}

namespace bpd::ssd {

/** Device timing/geometry profile. */
struct SsdProfile
{
    Time readBaseNs = 3355;      //!< fetch+base+xfer(4KiB) = 4020 ns
    Time writeBaseNs = 3470;
    double readBwBytesPerNs = 7.0;  //!< ~7 GB/s
    double writeBwBytesPerNs = 6.2; //!< ~6.2 GB/s
    unsigned units = 6;          //!< internal parallelism (~1.5 M IOPS)
    Time cmdFetchNs = 80;        //!< doorbell-to-command-fetch cost
    Time flushNs = 6000;
    double jitterSigma = 0.03;   //!< lognormal sigma on media latency
    std::uint32_t maxQueueDepth = 1024;

    /** @name Injected health models (0 = healthy, the default)
     * Deterministic fault models for the device-map health machinery:
     * every Nth media op fails with Status::MediaError (no RNG draw is
     * added or removed, so healthy-device digests are unaffected), and
     * past degradeAfterOps every media op pays degradeLatencyNs extra —
     * the "slowly dying device" a health monitor is meant to catch.
     */
    ///@{
    std::uint64_t mediaErrorEvery = 0;
    std::uint64_t degradeAfterOps = 0;
    Time degradeLatencyNs = 0;
    ///@}

    /** The evaluation device. */
    static SsdProfile optaneP5800X() { return SsdProfile{}; }
};

/** NVMe command opcode subset. */
enum class Op : std::uint8_t { Read, Write, Flush };

/** Completion status. */
enum class Status : std::uint8_t
{
    Success,
    TranslationFault, //!< IOMMU could not translate the VBA
    PermissionFault,  //!< R/W check failed in the IOMMU
    DevIdFault,       //!< FTE names another device
    InvalidCommand,   //!< malformed / queue not VBA-capable / disabled
    OutOfRange,       //!< LBA beyond capacity
    DmaFault,         //!< host buffer not mapped for DMA
    MediaError,       //!< injected media failure (health model)
    DeviceEvicted     //!< device evicted from the map; command refused
};

/** Convert an IOMMU fault to a completion status. */
Status statusFromFault(iommu::Fault f);

/** An NVMe submission-queue entry. */
struct Command
{
    Op op = Op::Read;
    std::uint32_t tag = 0;    //!< submitter's slot, echoed in Completion
    std::uint64_t cid = 0;    //!< caller-chosen command id
    std::uint64_t addr = 0;   //!< device byte address (LBA*512) or VBA
    bool addrIsVba = false;   //!< interpret addr as a VBA (BypassD)
    std::uint32_t len = 0;    //!< bytes; sector (512 B) granularity

    /** Host buffer: either an IOVA resolved through the IOMMU... */
    std::uint64_t dmaIova = 0;
    bool useIova = false;
    /** ...or a direct host span (kernel/driver-owned buffers). */
    std::span<std::uint8_t> hostBuf;

    /** @name Observability (no effect on simulated behavior)
     * Request trace id carried across layers, the SQ enqueue time
     * stamped by submit() when device tracing is enabled (for the
     * sq_wait arbitration span), and the tenant the command is
     * attributed to. Tenant 0 means "owner of the submitting queue"
     * (qp.pasid()), so user queues need not set it; the kernel sets it
     * on shared-queue commands it issues on a process's behalf.
     */
    ///@{
    std::uint64_t trace = 0;
    Time enq = 0;
    TenantId tenant = kSystemTenant;
    ///@}
};

/** A completion-queue entry. */
struct Completion
{
    std::uint64_t cid = 0;
    std::uint16_t qid = 0;
    Status status = Status::Success;
    std::uint32_t tag = 0; //!< Command::tag of the completed command
    Time submitTime = 0;
    Time completeTime = 0;
    Time translateNs = 0; //!< modeled VBA translation latency component
    std::uint64_t trace = 0; //!< request trace id (observability only)
};

class NvmeDevice;
class CommandDispatcher;

/**
 * One SQ/CQ pair. Created by NvmeDevice and owned by it; released
 * through the CommandDispatcher that routes its completions.
 */
class QueuePair
{
  public:
    std::uint16_t qid() const { return qid_; }
    Pasid pasid() const { return pasid_; }
    bool vbaMode() const { return vbaMode_; }
    bool disabled() const { return disabled_; }

    /**
     * Enqueue a command and ring the doorbell.
     * @retval false when the SQ is full (caller must retry later).
     */
    bool submit(const Command &cmd);

    /** Pop one completion if available (pull-style polling). */
    std::optional<Completion> pollCq();

    /**
     * Push-style completion delivery: invoked at completion time, which
     * models a poller noticing the CQ doorbell with zero extra delay. When
     * set, completions are not queued in the CQ.
     */
    void setCompletionHook(std::function<void(const Completion &)> hook);

    std::uint32_t inflight() const { return inflight_; }

    /** @name SR-IOV partition window (Section 5.2)
     * When a queue belongs to a virtual function, every device address
     * (raw LBA or IOMMU-translated) is offset into — and bounds-checked
     * against — the VF's block partition, giving VMs block-level
     * isolation in hardware.
     */
    ///@{
    DevAddr partitionBase() const { return partBase_; }
    /** Partition size in bytes; 0 = unrestricted (physical function). */
    std::uint64_t partitionBytes() const { return partBytes_; }
    ///@}

    /** @name Per-queue statistics (fairness experiments) */
    ///@{
    std::uint64_t completedOps() const { return completedOps_; }
    std::uint64_t completedBytes() const { return completedBytes_; }
    std::uint64_t faults() const { return faults_; }
    ///@}

    /** @name Weighted-fair arbitration identity
     * The tenant whose QoS weight governs this queue's share of the RR
     * scan. Defaults to the owning PASID; the fabric target points it
     * at the connection tenant (kConnTenantBase + id) so remote lanes
     * can be weighted individually even though every connection queue
     * is owned by the same kFabricOwnerPasid.
     */
    ///@{
    TenantId qosTenant() const { return qosTenant_; }
    void setQosTenant(TenantId t) { qosTenant_ = t; }
    ///@}

  private:
    friend class NvmeDevice;
    friend class CommandDispatcher;

    QueuePair(NvmeDevice &dev, std::uint16_t qid, Pasid pasid,
              std::uint32_t depth, bool vbaMode);

    NvmeDevice &dev_;
    std::uint16_t qid_;
    Pasid pasid_;
    std::uint32_t depth_;
    bool vbaMode_;
    bool disabled_ = false;

    /** @name SQ ring
     * Grown on demand (doubling from 4) up to the queue depth, so a
     * steady state submit/fetch cycle never allocates. The capacity is
     * therefore always a power of two and indices wrap with a mask.
     * sqPush/sqPop keep this queue's bit in NvmeDevice::ready_ equal to
     * (sqCount_ != 0).
     */
    ///@{
    void sqPush(const Command &cmd);
    Command sqPop();
    std::vector<Command> sq_;
    std::uint32_t sqHead_ = 0;
    std::uint32_t sqCount_ = 0;
    ///@}
    std::uint32_t rrPos_ = 0; //!< index in NvmeDevice::rrOrder_
    std::deque<Completion> cq_;
    std::function<void(const Completion &)> hook_;
    std::uint32_t inflight_ = 0; //!< dispatched, not yet completed

    Time lastWriteDone_ = 0; //!< for flush ordering

    DevAddr partBase_ = 0;
    std::uint64_t partBytes_ = 0; //!< 0 = whole device

    TenantId qosTenant_ = kSystemTenant; //!< weight lookup key

    std::uint64_t completedOps_ = 0;
    std::uint64_t completedBytes_ = 0;
    std::uint64_t faults_ = 0;

    std::uint16_t obsTrack_ = 0; //!< interned "nvme.q<qid>" track
};

/**
 * The SSD. One instance per simulated device.
 */
class NvmeDevice
{
  public:
    NvmeDevice(sim::EventQueue &eq, BlockStore &store, iommu::Iommu &iommu,
               DevId devId, SsdProfile profile = SsdProfile::optaneP5800X(),
               std::uint64_t seed = 1);

    DevId devId() const { return devId_; }
    const SsdProfile &profile() const { return profile_; }
    SsdProfile &profileMut() { return profile_; }
    BlockStore &store() { return store_; }

    /**
     * Open a queue pair and return the dispatcher that owns it; the
     * queue is released when the dispatcher is destroyed.
     * @param pasid Owning process address-space id (0 = kernel).
     * @param depth SQ depth.
     * @param vbaMode Whether commands may carry VBAs.
     * @return Null when the device is claimed by another owner.
     */
    std::unique_ptr<CommandDispatcher>
    openQueue(Pasid pasid, std::uint32_t depth, bool vbaMode);

    /**
     * VF form: the queue is confined to partition [base, base+bytes)
     * (Section 5.2: SR-IOV / Scalable-IOV block-level isolation).
     */
    std::unique_ptr<CommandDispatcher>
    openQueue(Pasid pasid, std::uint32_t depth, bool vbaMode,
              DevAddr base, std::uint64_t bytes);

    /**
     * Create a bare queue pair (nullptr when claimed by another owner).
     * Wrap it in a CommandDispatcher to route completions per command
     * and to release it; openQueue() does both.
     */
    QueuePair *createQueuePair(Pasid pasid, std::uint32_t depth,
                               bool vbaMode);

    /**
     * Claim the device exclusively (SPDK-style: unbinds everyone else).
     * All other queues are disabled; their future submissions fail.
     * @retval false when already claimed by a different owner.
     */
    bool claimExclusive(Pasid owner);

    /** Release an exclusive claim and re-enable other queues. */
    void releaseExclusive(Pasid owner);

    bool claimed() const { return claimOwner_ != kNoPasid; }

    /**
     * Attach a span tracer (null = disabled, the default). All device
     * instrumentation is guarded by one branch on this pointer and only
     * reads simulator state, so enabling it cannot change timing.
     */
    void setTracer(obs::Tracer *t) { trace_ = t; }
    obs::Tracer *tracer() const { return trace_; }

    /**
     * Attach the per-tenant counter table (null = disabled, the
     * default). Attribution only increments counters at the same
     * program points as the aggregate stats, so enabling it cannot
     * change timing and the per-tenant sums equal the totals exactly.
     */
    void setTenantAccounting(obs::TenantAccounting *a) { acct_ = a; }

    /**
     * Attach the QoS registry (null = disabled, the default). The
     * device only reads per-tenant weights from it: SQ arbitration
     * becomes weighted round-robin, a queue draining up to
     * weight(qosTenant) commands per scan turn. With no registry — or
     * with every weight at 1 — the scan is the plain round-robin the
     * paper describes, bit-identically.
     */
    void setQos(qos::Registry *q) { qos_ = q; }

    /** @name Aggregate statistics */
    ///@{
    std::uint64_t totalOps() const { return totalOps_; }
    std::uint64_t readBytes() const { return readBytes_; }
    std::uint64_t writeBytes() const { return writeBytes_; }
    std::uint64_t translationFaults() const { return translationFaults_; }
    unsigned busyUnits() const { return busyUnits_; }
    ///@}

    /** @name Health and eviction
     * An evicted device refuses every new command with
     * Status::DeviceEvicted after the command-fetch cost; commands
     * already past fetch drain normally, so eviction never hangs
     * in-flight I/O. mediaOps/mediaErrors feed the health monitor; the
     * health hook fires (same event, after the failing completion is
     * queued) each time an injected media error lands.
     */
    ///@{
    void setEvicted(bool on) { evicted_ = on; }
    bool evicted() const { return evicted_; }
    std::uint64_t mediaOps() const { return mediaOps_; }
    std::uint64_t mediaErrors() const { return mediaErrors_; }
    void setHealthHook(std::function<void(std::uint64_t)> hook)
    {
        healthHook_ = std::move(hook);
    }
    ///@}

  private:
    friend class QueuePair;
    friend class CommandDispatcher;

    /** Destroy a queue pair (outstanding commands complete first). */
    void destroyQueuePair(std::uint16_t qid);

    static constexpr std::uint32_t kNoJob = 0xffffffffu;

    /**
     * A data command between fetch and completion. Jobs live in the
     * jobs_ pool and events refer to them by index; segs and staged
     * keep their capacity across reuse, so steady-state I/O does not
     * allocate.
     */
    struct MediaJob
    {
        QueuePair *qp = nullptr;
        Op op = Op::Read;
        std::uint32_t len = 0;
        std::vector<iommu::TransSeg> segs;
        std::span<std::uint8_t> host;
        std::vector<std::uint8_t> staged; //!< write data snapshot
        Completion comp;
        Time minDone = 0; //!< completion cannot precede this (write ATS)
        Time mediaStart = 0; //!< service start (observability only)
        bool mediaError = false; //!< injected failure (health model)
        std::uint32_t next = kNoJob; //!< media-queue link
    };

    void ring();
    std::uint16_t qtrack(QueuePair &qp);
    void tryDispatch();
    std::size_t readyDistance(std::size_t from) const;
    void process(QueuePair &qp, Command cmd);
    void finish(QueuePair &qp, Completion comp);
    void enqueueMedia(std::uint32_t ji);
    void startMedia();
    void mediaDone(std::uint32_t ji);
    Time mediaTime(Op op, std::uint32_t len);
    std::optional<std::span<std::uint8_t>>
    hostSpan(QueuePair &qp, const Command &cmd, bool deviceWrites);

    sim::EventQueue &eq_;
    BlockStore &store_;
    iommu::Iommu &iommu_;
    DevId devId_;
    SsdProfile profile_;
    sim::Rng rng_;

    std::unordered_map<std::uint16_t, std::unique_ptr<QueuePair>> queues_;
    /** Round-robin arbitration order; owning entries live in queues_. */
    std::vector<QueuePair *> rrOrder_;
    /** Bit i set iff rrOrder_[i] has SQ entries; bits past the end stay 0. */
    std::vector<std::uint64_t> ready_;
    std::size_t rrNext_ = 0; //!< next rrOrder_ position to visit
    std::uint16_t nextQid_ = 1;

    unsigned busyUnits_ = 0;    //!< units doing media work
    unsigned translating_ = 0;  //!< commands in the ATS phase
    sim::SlotPool<MediaJob> jobs_;
    /** FIFO of jobs awaiting a media unit, linked through next. */
    std::uint32_t mediaHead_ = kNoJob;
    std::uint32_t mediaTail_ = kNoJob;
    std::size_t mediaQueued_ = 0;
    Time linkFreeAt_ = 0;
    bool dispatchScheduled_ = false;

    Pasid claimOwner_ = kNoPasid;

    obs::Tracer *trace_ = nullptr;
    obs::TenantAccounting *acct_ = nullptr;
    qos::Registry *qos_ = nullptr;

    std::uint64_t totalOps_ = 0;
    std::uint64_t readBytes_ = 0;
    std::uint64_t writeBytes_ = 0;
    std::uint64_t translationFaults_ = 0;

    bool evicted_ = false;
    std::uint64_t mediaOps_ = 0;
    std::uint64_t mediaErrors_ = 0;
    std::function<void(std::uint64_t)> healthHook_;
};

} // namespace bpd::ssd

#endif // BPD_SSD_NVME_HPP
