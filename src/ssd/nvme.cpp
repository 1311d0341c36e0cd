#include "ssd/nvme.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "obs/trace.hpp"
#include "qos/qos.hpp"
#include "sim/logging.hpp"
#include "ssd/dispatcher.hpp"

namespace bpd::ssd {

Status
statusFromFault(iommu::Fault f)
{
    switch (f) {
      case iommu::Fault::None:
        return Status::Success;
      case iommu::Fault::Permission:
        return Status::PermissionFault;
      case iommu::Fault::DevIdMismatch:
        return Status::DevIdFault;
      case iommu::Fault::NoPasid:
      case iommu::Fault::NotPresent:
      case iommu::Fault::NotFte:
        return Status::TranslationFault;
    }
    return Status::TranslationFault;
}

QueuePair::QueuePair(NvmeDevice &dev, std::uint16_t qid, Pasid pasid,
                     std::uint32_t depth, bool vbaMode)
    : dev_(dev), qid_(qid), pasid_(pasid), depth_(depth), vbaMode_(vbaMode)
{
    qosTenant_ = pasid;
}

bool
QueuePair::submit(const Command &cmd)
{
    if (sqCount_ + inflight_ >= depth_)
        return false;
    sqPush(cmd);
    dev_.ring();
    return true;
}

void
QueuePair::sqPush(const Command &cmd)
{
    if (sqCount_ == sq_.size()) {
        // Full ring: re-linearize into double the capacity. The depth
        // check in submit() bounds the ring at depth_ entries.
        std::vector<Command> grown(std::max<std::size_t>(4, 2 * sq_.size()));
        const std::size_t mask = sq_.size() - 1;
        for (std::uint32_t i = 0; i < sqCount_; i++)
            grown[i] = sq_[(sqHead_ + i) & mask];
        sq_ = std::move(grown);
        sqHead_ = 0;
    }
    Command &c = sq_[(sqHead_ + sqCount_) & (sq_.size() - 1)];
    c = cmd;
    if (dev_.trace_)
        c.enq = dev_.eq_.now();
    if (sqCount_++ == 0)
        dev_.ready_[rrPos_ / 64] |= std::uint64_t{1} << (rrPos_ % 64);
}

Command
QueuePair::sqPop()
{
    const Command cmd = sq_[sqHead_];
    sqHead_ = (sqHead_ + 1) & static_cast<std::uint32_t>(sq_.size() - 1);
    if (--sqCount_ == 0)
        dev_.ready_[rrPos_ / 64] &= ~(std::uint64_t{1} << (rrPos_ % 64));
    return cmd;
}

std::optional<Completion>
QueuePair::pollCq()
{
    if (cq_.empty())
        return std::nullopt;
    Completion c = cq_.front();
    cq_.pop_front();
    return c;
}

void
QueuePair::setCompletionHook(std::function<void(const Completion &)> hook)
{
    hook_ = std::move(hook);
}

NvmeDevice::NvmeDevice(sim::EventQueue &eq, BlockStore &store,
                       iommu::Iommu &iommu, DevId devId, SsdProfile profile,
                       std::uint64_t seed)
    : eq_(eq), store_(store), iommu_(iommu), devId_(devId),
      profile_(profile), rng_(seed)
{
}

QueuePair *
NvmeDevice::createQueuePair(Pasid pasid, std::uint32_t depth, bool vbaMode)
{
    if (claimOwner_ != kNoPasid && pasid != claimOwner_)
        return nullptr;
    depth = std::min(depth, profile_.maxQueueDepth);
    const std::uint16_t qid = nextQid_++;
    auto qp = std::unique_ptr<QueuePair>(
        new QueuePair(*this, qid, pasid, depth, vbaMode));
    QueuePair *raw = qp.get();
    queues_[qid] = std::move(qp);
    raw->rrPos_ = static_cast<std::uint32_t>(rrOrder_.size());
    rrOrder_.push_back(raw);
    if (rrOrder_.size() > 64 * ready_.size())
        ready_.push_back(0);
    return raw;
}

std::unique_ptr<CommandDispatcher>
NvmeDevice::openQueue(Pasid pasid, std::uint32_t depth, bool vbaMode)
{
    QueuePair *qp = createQueuePair(pasid, depth, vbaMode);
    return qp ? std::make_unique<CommandDispatcher>(*qp) : nullptr;
}

std::unique_ptr<CommandDispatcher>
NvmeDevice::openQueue(Pasid pasid, std::uint32_t depth, bool vbaMode,
                      DevAddr base, std::uint64_t bytes)
{
    sim::panicIf(base % kBlockBytes != 0 || bytes % kBlockBytes != 0,
                 "VF partition must be block aligned");
    sim::panicIf(base + bytes > store_.capacity(),
                 "VF partition exceeds device");
    auto q = openQueue(pasid, depth, vbaMode);
    if (q) {
        q->queue().partBase_ = base;
        q->queue().partBytes_ = bytes;
    }
    return q;
}

void
NvmeDevice::destroyQueuePair(std::uint16_t qid)
{
    auto it = queues_.find(qid);
    if (it == queues_.end())
        return;
    // Outstanding completions reference the QueuePair; defer the erase
    // until it drains.
    QueuePair *qp = it->second.get();
    if (qp->inflight_ > 0 || qp->sqCount_ != 0) {
        qp->disabled_ = true;
        eq_.after(10 * kUs, [this, qid]() { destroyQueuePair(qid); });
        return;
    }
    // Positions after the erased queue shift down by one: renumber the
    // queues and rebuild the ready bitmap from their SQ counts.
    rrOrder_.erase(rrOrder_.begin() + qp->rrPos_);
    ready_.assign((rrOrder_.size() + 63) / 64, 0);
    for (std::uint32_t i = 0; i < rrOrder_.size(); i++) {
        rrOrder_[i]->rrPos_ = i;
        if (rrOrder_[i]->sqCount_ != 0)
            ready_[i / 64] |= std::uint64_t{1} << (i % 64);
    }
    if (rrNext_ >= rrOrder_.size())
        rrNext_ = 0;
    queues_.erase(it);
}

bool
NvmeDevice::claimExclusive(Pasid owner)
{
    if (claimOwner_ != kNoPasid && claimOwner_ != owner)
        return false;
    claimOwner_ = owner;
    for (auto &[qid, qp] : queues_) {
        if (qp->pasid() != owner)
            qp->disabled_ = true;
    }
    return true;
}

void
NvmeDevice::releaseExclusive(Pasid owner)
{
    if (claimOwner_ != owner)
        return;
    claimOwner_ = kNoPasid;
    for (auto &[qid, qp] : queues_)
        qp->disabled_ = false;
}

std::uint16_t
NvmeDevice::qtrack(QueuePair &qp)
{
    if (qp.obsTrack_ == 0)
        qp.obsTrack_
            = trace_->track("nvme.q" + std::to_string(qp.qid_));
    return qp.obsTrack_;
}

void
NvmeDevice::ring()
{
    if (!dispatchScheduled_) {
        dispatchScheduled_ = true;
        eq_.after(0, [this]() {
            dispatchScheduled_ = false;
            tryDispatch();
        });
    }
}

std::size_t
NvmeDevice::readyDistance(std::size_t from) const
{
    // Scan the word holding `from` (bits at or after it), the words
    // after it with wrap-around, then that first word again in full;
    // a hit on the last step lies before `from`.
    const std::size_t n = rrOrder_.size();
    const std::size_t words = ready_.size();
    std::size_t w = from / 64;
    std::uint64_t bits = ready_[w] & (~std::uint64_t{0} << (from % 64));
    for (std::size_t i = 0; i <= words; i++) {
        if (bits != 0) {
            const std::size_t pos = 64 * w + std::countr_zero(bits);
            return pos >= from ? pos - from : pos + n - from;
        }
        w = w + 1 == words ? 0 : w + 1;
        bits = ready_[w];
    }
    return n;
}

void
NvmeDevice::tryDispatch()
{
    // Weighted round-robin arbitration: each queue's turn drains up to
    // weight(qosTenant) commands (one without a QoS registry — the
    // paper's plain round-robin, bit-identically). Admission is bounded
    // by total device occupancy (media units busy + commands
    // translating + media backlog) so arbitration stays fair under
    // load, while ATS translations overlap media work.
    //
    // Visit order (DESIGN.md section 16): a pass makes rrOrder_.size()
    // visits from the cursor and the cursor advances on every visit,
    // empty queues included. A completed pass therefore leaves the
    // cursor where the pass started; it lands elsewhere only when
    // admission closes partway through a pass. The ready bitmap lets a
    // pass jump straight to the next non-empty queue, charging the
    // skipped empty visits to the pass budget `left`.
    auto admitting = [this]() {
        return busyUnits_ + translating_ + mediaQueued_
               < 2 * profile_.units;
    };
    while (admitting()) {
        const std::size_t n = rrOrder_.size();
        bool any = false;
        for (std::size_t left = n; left != 0 && admitting();) {
            const std::size_t skip = readyDistance(rrNext_);
            if (skip >= left) {
                // No ready queue in the rest of the pass.
                rrNext_ = (rrNext_ + left) % n;
                break;
            }
            left -= skip + 1;
            std::size_t pos = rrNext_ + skip;
            if (pos >= n)
                pos -= n;
            rrNext_ = pos + 1 == n ? 0 : pos + 1;
            QueuePair &qp = *rrOrder_[pos];
            const std::uint32_t weight
                = qos_ ? qos_->weightOf(qp.qosTenant()) : 1;
            for (std::uint32_t took = 0;
                 took < weight && qp.sqCount_ != 0 && admitting();
                 took++) {
                const Command cmd = qp.sqPop();
                qp.inflight_++;
                any = true;
                process(qp, cmd);
            }
        }
        if (!any)
            break;
    }
}

Time
NvmeDevice::mediaTime(Op op, std::uint32_t len)
{
    // Media latency is size-independent (the transfer term handles size).
    (void)len;
    const Time base = (op == Op::Read) ? profile_.readBaseNs
                                       : profile_.writeBaseNs;
    const double jitter = rng_.lognormalJitter(profile_.jitterSigma);
    return static_cast<Time>(static_cast<double>(base) * jitter);
}

std::optional<std::span<std::uint8_t>>
NvmeDevice::hostSpan(QueuePair &qp, const Command &cmd, bool deviceWrites)
{
    if (cmd.useIova)
        return iommu_.resolveDma(qp.pasid(), cmd.dmaIova, cmd.len,
                                 deviceWrites);
    if (cmd.hostBuf.size() >= cmd.len)
        return cmd.hostBuf.subspan(0, cmd.len);
    return std::nullopt;
}

void
NvmeDevice::finish(QueuePair &qp, Completion comp)
{
    comp.qid = qp.qid();
    if (trace_ && trace_->wants(obs::Level::Layers)) {
        // Full device-side command lifetime: SQ fetch through CQ post.
        trace_->span(
            qtrack(qp), "nvme.cmd", comp.trace, comp.submitTime,
            comp.completeTime,
            {{"xlate_ns", static_cast<std::int64_t>(comp.translateNs)},
             {"status", static_cast<std::int64_t>(comp.status)}});
    }
    qp.inflight_--;
    qp.completedOps_++;
    if (comp.status != Status::Success)
        qp.faults_++;
    if (qp.hook_)
        qp.hook_(comp);
    else
        qp.cq_.push_back(comp);
    // Occupancy changed; more SQ entries may now be admissible.
    tryDispatch();
}

void
NvmeDevice::enqueueMedia(std::uint32_t ji)
{
    jobs_[ji].next = kNoJob;
    if (mediaTail_ == kNoJob)
        mediaHead_ = ji;
    else
        jobs_[mediaTail_].next = ji;
    mediaTail_ = ji;
    mediaQueued_++;
}

void
NvmeDevice::startMedia()
{
    while (busyUnits_ < profile_.units && mediaHead_ != kNoJob) {
        const std::uint32_t ji = mediaHead_;
        MediaJob &job = jobs_[ji];
        mediaHead_ = job.next;
        if (mediaHead_ == kNoJob)
            mediaTail_ = kNoJob;
        mediaQueued_--;
        busyUnits_++;
        mediaOps_++;

        // Health models: a deterministic every-Nth media failure and a
        // constant latency penalty once the device has worn past its
        // threshold. Disabled (the default) both are exact no-ops.
        if (profile_.mediaErrorEvery != 0
            && mediaOps_ % profile_.mediaErrorEvery == 0) {
            job.mediaError = true;
            job.comp.status = Status::MediaError;
        }

        const double bw = (job.op == Op::Read)
                              ? profile_.readBwBytesPerNs
                              : profile_.writeBwBytesPerNs;
        const Time xfer
            = static_cast<Time>(static_cast<double>(job.len) / bw);
        const Time serviceStart = std::max(eq_.now(), linkFreeAt_);
        linkFreeAt_ = serviceStart + xfer;
        Time done = serviceStart + mediaTime(job.op, job.len) + xfer;
        if (profile_.degradeAfterOps != 0
            && mediaOps_ > profile_.degradeAfterOps)
            done += profile_.degradeLatencyNs;
        done = std::max(done, job.minDone);
        job.mediaStart = serviceStart;
        if (job.op == Op::Write) {
            job.qp->lastWriteDone_
                = std::max(job.qp->lastWriteDone_, done);
        }

        eq_.schedule(done, [this, ji]() { mediaDone(ji); });
    }
}

void
NvmeDevice::mediaDone(std::uint32_t ji)
{
    MediaJob &job = jobs_[ji];
    // Functional data movement at completion time. A media error means
    // the bytes never made it to/from the media.
    if (!job.mediaError) {
        std::size_t off = 0;
        for (const auto &seg : job.segs) {
            if (job.op == Op::Read) {
                store_.read(seg.addr, job.host.subspan(off, seg.len));
            } else {
                store_.write(seg.addr, std::span<const std::uint8_t>(
                                           job.staged.data() + off,
                                           seg.len));
            }
            off += seg.len;
        }
    }
    job.comp.completeTime = eq_.now();
    if (trace_ && trace_->wants(obs::Level::Device)) {
        trace_->span(qtrack(*job.qp), "nvme.media", job.comp.trace,
                     job.mediaStart, eq_.now(),
                     {{"bytes", static_cast<std::int64_t>(job.len)},
                      {"write",
                       static_cast<std::int64_t>(job.op == Op::Write)}});
    }
    QueuePair &qp = *job.qp;
    const Completion comp = job.comp;
    const bool mediaError = job.mediaError;
    // Release before finish(): its tryDispatch() may process new
    // commands, which can grow (and so move) the pool.
    jobs_.release(ji);
    busyUnits_--;
    startMedia();
    if (mediaError) {
        mediaErrors_++;
        if (healthHook_)
            healthHook_(mediaErrors_);
    }
    finish(qp, comp);
}

void
NvmeDevice::process(QueuePair &qp, Command cmd)
{
    const Time submitTime = eq_.now();
    // Effective tenant: explicit command tag (kernel shared-queue
    // traffic issued on a process's behalf) or the queue owner (user
    // queues, whose PASID is the tenant by construction).
    const TenantId tenant
        = cmd.tenant != kSystemTenant ? cmd.tenant : qp.pasid();
    totalOps_++;
    if (acct_) {
        acct_->of(tenant).ssdOps++;
        acct_->dev(devId_, tenant).ssdOps++;
    }

    if (trace_ && trace_->wants(obs::Level::Device) && cmd.enq != 0
        && submitTime > cmd.enq) {
        // Time spent queued in the SQ before round-robin arbitration
        // fetched the command.
        trace_->span(qtrack(qp), "nvme.sq_wait", cmd.trace, cmd.enq,
                     submitTime);
    }

    auto fail = [&](Status st, Time extraDelay) {
        if (st == Status::TranslationFault || st == Status::PermissionFault
            || st == Status::DevIdFault) {
            translationFaults_++;
            if (acct_) {
                acct_->of(tenant).ssdTranslationFaults++;
                acct_->dev(devId_, tenant).ssdTranslationFaults++;
            }
        }
        Completion comp;
        comp.cid = cmd.cid;
        comp.tag = cmd.tag;
        comp.status = st;
        comp.submitTime = submitTime;
        comp.trace = cmd.trace;
        eq_.after(profile_.cmdFetchNs + extraDelay,
                  [this, &qp, comp]() mutable {
                      comp.completeTime = eq_.now();
                      finish(qp, comp);
                  });
    };

    if (qp.disabled_) {
        fail(Status::InvalidCommand, 0);
        return;
    }
    if (evicted_) {
        fail(Status::DeviceEvicted, 0);
        return;
    }
    if (cmd.addrIsVba && !qp.vbaMode_) {
        fail(Status::InvalidCommand, 0);
        return;
    }
    // User (VBA-mode) queues accept only VBA-addressed data commands: a
    // raw LBA from userspace would bypass the IOMMU protection entirely.
    if (!cmd.addrIsVba && qp.vbaMode_ && cmd.op != Op::Flush) {
        fail(Status::InvalidCommand, 0);
        return;
    }

    if (cmd.op == Op::Flush) {
        // Flush completes after prior writes on this queue have drained.
        const Time base = eq_.now() + profile_.cmdFetchNs;
        const Time done
            = std::max(base, qp.lastWriteDone_) + profile_.flushNs;
        Completion comp;
        comp.cid = cmd.cid;
        comp.tag = cmd.tag;
        comp.status = Status::Success;
        comp.submitTime = submitTime;
        comp.trace = cmd.trace;
        eq_.schedule(done, [this, &qp, comp]() mutable {
            comp.completeTime = eq_.now();
            finish(qp, comp);
        });
        return;
    }

    if (cmd.len == 0 || cmd.len % kSectorBytes != 0) {
        fail(Status::InvalidCommand, 0);
        return;
    }

    // Resolve the device-side extents (functionally now; the latency is
    // charged on the command's own timeline below) into a job slot.
    // Nothing below re-enters the device, so the reference stays valid.
    const std::uint32_t ji = jobs_.acquire();
    MediaJob &job = jobs_[ji];
    auto failJob = [&](Status st, Time extraDelay) {
        jobs_.release(ji);
        fail(st, extraDelay);
    };
    Time translateNs = 0;
    if (cmd.addrIsVba) {
        const bool devTrace = trace_ && trace_->wants(obs::Level::Device);
        std::uint64_t wcMiss0 = 0, tlbMiss0 = 0, tlbHit0 = 0;
        if (devTrace) {
            wcMiss0 = iommu_.walkCache().misses();
            tlbMiss0 = iommu_.iotlb().misses();
            tlbHit0 = iommu_.iotlb().hits();
        }
        const iommu::TransResult tr = iommu_.translateVbaSync(
            qp.pasid(), cmd.addr, cmd.len, cmd.op == Op::Write, devId_,
            job.segs);
        translateNs = tr.latency;
        if (devTrace) {
            // ATS request goes out once the command is fetched; for
            // writes it overlaps the data-in transfer (Section 4.3).
            const Time ats = submitTime + profile_.cmdFetchNs;
            trace_->span(
                qtrack(qp), "iommu.ats_translate", cmd.trace, ats,
                ats + tr.latency,
                {{"pages", static_cast<std::int64_t>(tr.pages)},
                 {"frames_read",
                  static_cast<std::int64_t>(tr.framesRead)},
                 {"wc_miss", static_cast<std::int64_t>(
                                 iommu_.walkCache().misses() - wcMiss0)},
                 {"iotlb_miss", static_cast<std::int64_t>(
                                    iommu_.iotlb().misses() - tlbMiss0)},
                 {"iotlb_hit", static_cast<std::int64_t>(
                                   iommu_.iotlb().hits() - tlbHit0)},
                 {"fault", static_cast<std::int64_t>(!tr.ok)}});
        }
        if (!tr.ok) {
            failJob(statusFromFault(tr.fault), tr.latency);
            return;
        }
    } else {
        if (cmd.addr + cmd.len > store_.capacity()) {
            failJob(Status::OutOfRange, 0);
            return;
        }
        job.segs.clear();
        job.segs.push_back(iommu::TransSeg{cmd.addr, cmd.len});
    }

    // VF partition window (Section 5.2): offset every address into the
    // partition and reject anything escaping it — block-level isolation
    // between VMs enforced by the device, independent of page tables.
    if (qp.partitionBytes() != 0) {
        for (auto &seg : job.segs) {
            const DevAddr translated = seg.addr + qp.partitionBase();
            if (seg.addr + seg.len > qp.partitionBytes()
                || translated + seg.len
                       > qp.partitionBase() + qp.partitionBytes()) {
                failJob(Status::OutOfRange, translateNs);
                return;
            }
            seg.addr = translated;
        }
    }

    // Resolve the host DMA target.
    const bool deviceWrites = (cmd.op == Op::Read);
    auto span = hostSpan(qp, cmd, deviceWrites);
    if (!span) {
        failJob(Status::DmaFault, translateNs);
        return;
    }

    // Writes: data-in DMA overlaps translation (no VBA penalty); snapshot
    // the host buffer now ("copied into device memory first").
    if (cmd.op == Op::Write)
        job.staged.assign(span->begin(), span->end());

    if (cmd.op == Op::Read)
        readBytes_ += cmd.len;
    else
        writeBytes_ += cmd.len;
    if (acct_) {
        obs::TenantCounters &tc = acct_->of(tenant);
        obs::DeviceTenantCounters &dc = acct_->dev(devId_, tenant);
        if (cmd.op == Op::Read) {
            tc.ssdReadBytes += cmd.len;
            dc.ssdReadBytes += cmd.len;
        } else {
            tc.ssdWriteBytes += cmd.len;
            dc.ssdWriteBytes += cmd.len;
        }
    }
    qp.completedBytes_ += cmd.len;

    job.qp = &qp;
    job.op = cmd.op;
    job.len = cmd.len;
    job.host = *span;
    job.comp = Completion{};
    job.comp.cid = cmd.cid;
    job.comp.tag = cmd.tag;
    job.comp.status = Status::Success;
    job.comp.submitTime = submitTime;
    job.comp.translateNs = translateNs;
    job.comp.trace = cmd.trace;
    job.minDone = 0;
    job.mediaStart = 0;
    job.mediaError = false;

    // Reads serialize the ATS translation before media access (and do
    // not occupy a media unit meanwhile); writes start media immediately
    // but cannot complete before the ATS response arrives (Section 4.3).
    if (cmd.op == Op::Read && translateNs > 0) {
        translating_++;
        eq_.after(profile_.cmdFetchNs + translateNs, [this, ji]() {
            translating_--;
            enqueueMedia(ji);
            startMedia();
            tryDispatch();
        });
    } else {
        job.minDone = submitTime + profile_.cmdFetchNs + translateNs;
        eq_.after(profile_.cmdFetchNs, [this, ji]() {
            enqueueMedia(ji);
            startMedia();
        });
    }
}

} // namespace bpd::ssd
