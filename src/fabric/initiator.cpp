#include "fabric/initiator.hpp"

#include <algorithm>
#include <string>

#include "fabric/target.hpp"
#include "qos/qos.hpp"
#include "sim/logging.hpp"

namespace bpd::fab {

FabricInitiator::FabricInitiator(sys::System &host, FabricTarget &target)
    : host_(host), target_(target), prof_(target.profile())
{
}

FabricInitiator::~FabricInitiator()
{
    *alive_ = false; // queued submit/drain events must not fire
}

void
FabricInitiator::bind(sim::SimExecutor &exec, std::uint32_t domain)
{
    exec_ = &exec;
    domain_ = domain;
}

void
FabricInitiator::connect(Pasid clientPasid, ConnectCb cb,
                         std::size_t deviceSlot)
{
    sim::panicIf(exec_ == nullptr, "fabric initiator not bound");
    sim::panicIf(state_ != ConnState::Idle,
                 "fabric connect from non-idle state");
    state_ = ConnState::Connecting;
    pasid_ = clientPasid;
    slot_ = deviceSlot == kProfileSlot ? prof_.serveSlot : deviceSlot;
    connectCb_ = std::move(cb);
    connectSentAt_ = host_.eq.now();
    FabricTarget *tgt = &target_;
    FabricInitiator *self = this;
    const std::uint32_t gen = gen_;
    const std::uint32_t dom = domain_;
    const std::size_t slot = slot_;
    exec_->post(domain_, target_.domain(),
                host_.eq.now() + prof_.wireNs(0),
                [tgt, self, gen, clientPasid, dom, slot] {
                    tgt->rpcConnect(self, gen, clientPasid, dom, slot);
                });
}

void
FabricInitiator::disconnect(std::function<void()> cb)
{
    sim::panicIf(state_ != ConnState::Connected,
                 "fabric disconnect from non-connected state");
    state_ = ConnState::Draining;
    disconnectCb_ = std::move(cb);
    scheduleDrainPoll();
}

void
FabricInitiator::scheduleDrainPoll()
{
    host_.eq.after(kUs, [this, gen = gen_, alive = alive_] {
        if (!*alive || gen != gen_ || state_ != ConnState::Draining)
            return; // a reset raced the drain and already tore down
        if (!pending_.empty()) {
            scheduleDrainPoll();
            return;
        }
        FabricTarget *tgt = &target_;
        const std::uint32_t connId = connId_;
        exec_->post(domain_, target_.domain(),
                    host_.eq.now() + prof_.wireNs(0),
                    [tgt, connId, gen] { tgt->rpcDisconnect(connId, gen); });
        state_ = ConnState::Idle;
        connId_ = 0;
        tenant_ = kSystemTenant;
        if (disconnectCb_) {
            auto cb = std::move(disconnectCb_);
            disconnectCb_ = {};
            cb();
        }
    });
}

void
FabricInitiator::reset()
{
    const bool hadConn = state_ == ConnState::Connected
                         || state_ == ConnState::Draining;
    const std::uint32_t oldGen = gen_;
    const std::uint32_t oldConn = connId_;
    if (state_ == ConnState::Idle && pending_.empty())
        return;
    stats_.resets++;
    gen_++; // fences every capsule and response still on the wire
    state_ = ConnState::Idle;
    connId_ = 0;
    tenant_ = kSystemTenant;
    preConnectQueue_.clear();
    depthQueue_.clear(); // queued-over-depth I/O fails with the rest
    // Detach the connection callbacks BEFORE failing anything: failure
    // callbacks are free to call connect() again, and the fresh
    // connectCb_ they install must not be stomped by this reset's
    // Refused notification (the pre-reset callback, captured here, is
    // the one that gets it).
    ConnectCb connCb = std::move(connectCb_);
    connectCb_ = {};
    disconnectCb_ = {};
    std::vector<std::uint64_t> cids;
    cids.reserve(pending_.size());
    for (const auto &[cid, p] : pending_)
        cids.push_back(cid);
    // Every pending I/O — admitted and in flight, parked on the depth
    // queue, or parked on the QoS FIFO — fails through the same path
    // with the same error surface; failIo defers the callbacks so none
    // of them reenters this initiator mid-teardown.
    for (std::uint64_t cid : cids)
        failIo(cid, host_.eq.now());
    sim::panicIf(inflight_ != 0, "fabric reset leaked a depth slot");
    if (connCb)
        connCb(ConnectStatus::Refused);
    if (hadConn) {
        FabricTarget *tgt = &target_;
        exec_->post(domain_, target_.domain(),
                    host_.eq.now() + prof_.wireNs(0),
                    [tgt, oldConn, oldGen] {
                        tgt->rpcAbort(oldConn, oldGen);
                    });
    }
    // While Connecting the connect capsule is still in flight: the ack
    // will arrive carrying the old generation and onConnectAck posts
    // the abort for whatever connection the target granted.
}

void
FabricInitiator::read(Tid tid, DevAddr addr, std::span<std::uint8_t> buf,
                      kern::IoCb cb)
{
    doIo(tid, ssd::Op::Read, addr, buf, std::move(cb));
}

void
FabricInitiator::write(Tid tid, DevAddr addr,
                       std::span<const std::uint8_t> buf, kern::IoCb cb)
{
    doIo(tid, ssd::Op::Write, addr,
         std::span<std::uint8_t>(const_cast<std::uint8_t *>(buf.data()),
                                 buf.size()),
         std::move(cb));
}

void
FabricInitiator::doIo(Tid tid, ssd::Op op, DevAddr addr,
                      std::span<std::uint8_t> buf, kern::IoCb cb)
{
    if (state_ == ConnState::Idle || state_ == ConnState::Draining) {
        stats_.rejected++;
        host_.eq.after(0, [cb = std::move(cb)] {
            cb(kern::errOf(fs::FsStatus::Inval), kern::IoTrace{});
        });
        return;
    }
    const std::uint64_t cid = nextCid_++;
    PendingIo &p = pending_[cid];
    p.op = op;
    p.addr = addr;
    p.buf = buf;
    p.cb = std::move(cb);
    p.start = host_.eq.now();
    p.tid = tid;
    p.inCapsule = op != ssd::Op::Write
                  || prof_.inCapsule(static_cast<std::uint32_t>(buf.size()));
    if (obs::Tracer *t = host_.tracer())
        p.trace = t->newTrace(pasid_);
    if (state_ == ConnState::Connecting) {
        stats_.queuedBeforeConnect++;
        preConnectQueue_.push_back(cid);
        return;
    }
    gateAndAdmit(cid);
}

void
FabricInitiator::gateAndAdmit(std::uint64_t cid)
{
    // The rate cap is enforced here on the CLIENT host's registry (the
    // submission site), keyed by the connection tenant the target
    // granted. The target-side registry only supplies dispatch weights;
    // touching it from the client domain would race under sharding.
    qos::admit(host_.qos(), tenant_, 1, pending_.at(cid).buf.size(),
               [this, cid, gen = gen_, alive = alive_] {
                   if (!*alive || gen != gen_ || !pending_.count(cid))
                       return; // a reset already failed this cid
                   admit(cid);
               });
}

void
FabricInitiator::admit(std::uint64_t cid)
{
    if (prof_.enforceDepth && inflight_ >= prof_.queueDepth) {
        stats_.queuedOnDepth++;
        depthQueue_.push_back(cid);
        return;
    }
    auto it = pending_.find(cid);
    if (it == pending_.end())
        return;
    it->second.admitted = true;
    inflight_++;
    stats_.maxInflight = std::max(stats_.maxInflight, inflight_);
    sendCapsule(cid);
}

void
FabricInitiator::drainDepthQueue()
{
    // Admission frees one slot per completion, so at most one queued
    // cid can start here — but tolerate stale entries whose PendingIo
    // was already failed away.
    while (!depthQueue_.empty()
           && (!prof_.enforceDepth || inflight_ < prof_.queueDepth)) {
        const std::uint64_t cid = depthQueue_.front();
        depthQueue_.pop_front();
        if (!pending_.count(cid))
            continue;
        admit(cid);
    }
}

void
FabricInitiator::sendCapsule(std::uint64_t cid)
{
    const Time submitCost
        = host_.kernel.cpu().scaled(prof_.initiatorSubmitNs);
    host_.eq.after(submitCost, [this, cid, gen = gen_, alive = alive_] {
        if (!*alive || gen != gen_)
            return; // reset raced the submit cost; I/O already failed
        auto it = pending_.find(cid);
        if (it == pending_.end())
            return;
        PendingIo &p = it->second;
        std::shared_ptr<std::vector<std::uint8_t>> payload;
        std::uint64_t wireBytes = 0;
        if (p.op == ssd::Op::Write && p.inCapsule) {
            payload = std::make_shared<std::vector<std::uint8_t>>(
                p.buf.begin(), p.buf.end());
            wireBytes = p.buf.size();
        }
        FabricTarget *tgt = &target_;
        const std::uint32_t connId = connId_;
        const ssd::Op op = p.op;
        const DevAddr addr = p.addr;
        const auto len = static_cast<std::uint32_t>(p.buf.size());
        exec_->post(domain_, target_.domain(),
                    host_.eq.now() + prof_.wireNs(wireBytes),
                    [tgt, connId, gen, cid, op, addr, len,
                     payload = std::move(payload)] {
                        tgt->rpcIo(connId, gen, cid, op, addr, len,
                                   payload);
                    });
    });
}

void
FabricInitiator::onConnectAck(std::uint32_t gen, ConnectStatus st,
                              std::uint32_t connId, TenantId tenant)
{
    if (gen != gen_) {
        // This ack answers a connect that was reset away. The target
        // granted (or refused) a connection nobody will use; abort it.
        if (st == ConnectStatus::Ok) {
            FabricTarget *tgt = &target_;
            exec_->post(domain_, target_.domain(),
                        host_.eq.now() + prof_.wireNs(0),
                        [tgt, connId, gen] { tgt->rpcAbort(connId, gen); });
        }
        return;
    }
    sim::panicIf(state_ != ConnState::Connecting,
                 "fabric connect ack in unexpected state");
    if (st != ConnectStatus::Ok) {
        state_ = ConnState::Idle;
        auto q = std::move(preConnectQueue_);
        preConnectQueue_.clear();
        for (std::uint64_t cid : q)
            failIo(cid, host_.eq.now());
        if (connectCb_) {
            auto cb = std::move(connectCb_);
            connectCb_ = {};
            cb(st);
        }
        return;
    }
    state_ = ConnState::Connected;
    connId_ = connId;
    tenant_ = tenant;
    stats_.connectLatencyNs = host_.eq.now() - connectSentAt_;
    if (connectCb_) {
        auto cb = std::move(connectCb_);
        connectCb_ = {};
        cb(ConnectStatus::Ok);
    }
    auto q = std::move(preConnectQueue_);
    preConnectQueue_.clear();
    for (std::uint64_t cid : q)
        if (pending_.count(cid))
            gateAndAdmit(cid); // QoS + depth apply to the flushed queue
}

void
FabricInitiator::onRdmaRead(std::uint32_t gen, std::uint64_t cid)
{
    if (gen != gen_) {
        stats_.staleDrops++;
        return; // target's parked transfer dies with the abort
    }
    auto it = pending_.find(cid);
    if (it == pending_.end())
        return;
    PendingIo &p = it->second;
    auto payload = std::make_shared<std::vector<std::uint8_t>>(
        p.buf.begin(), p.buf.end());
    FabricTarget *tgt = &target_;
    const std::uint32_t connId = connId_;
    // The NIC serves the RDMA read without client CPU involvement: no
    // cpu cost, just wire time for the raw data.
    exec_->post(domain_, target_.domain(),
                host_.eq.now() + prof_.rdmaDataNs(p.buf.size()),
                [tgt, connId, gen, cid, payload = std::move(payload)] {
                    tgt->rpcRdmaData(connId, gen, cid, payload);
                });
}

void
FabricInitiator::onResponse(std::uint32_t gen, std::uint64_t cid,
                            ssd::Status st, Time deviceNs,
                            std::shared_ptr<std::vector<std::uint8_t>> data)
{
    if (gen != gen_) {
        stats_.staleDrops++;
        return;
    }
    const Time completeCost
        = host_.kernel.cpu().scaled(prof_.initiatorCompleteNs);
    host_.eq.after(completeCost, [this, gen, cid, st, deviceNs,
                                  data = std::move(data),
                                  alive = alive_] {
        if (!*alive || gen != gen_)
            return;
        finishIo(cid, st, deviceNs, data);
    });
}

void
FabricInitiator::finishIo(
    std::uint64_t cid, ssd::Status st, Time deviceNs,
    const std::shared_ptr<std::vector<std::uint8_t>> &data)
{
    const bool ok = st == ssd::Status::Success;
    auto it = pending_.find(cid);
    if (it == pending_.end())
        return;
    PendingIo p = std::move(it->second);
    pending_.erase(it);
    if (p.admitted) {
        inflight_--;
        // Draining still drains the depth queue: disconnect() promises
        // every accepted I/O completes, including queued-over-depth
        // ones that have never touched the wire yet.
        if (state_ == ConnState::Connected
            || state_ == ConnState::Draining)
            drainDepthQueue();
    }
    const Time now = host_.eq.now();
    const Time total = now - p.start;
    if (ok && p.op == ssd::Op::Read && data) {
        const std::size_t n = std::min(p.buf.size(), data->size());
        std::copy_n(data->begin(), n, p.buf.begin());
    }
    if (p.op == ssd::Op::Read) {
        stats_.reads++;
        stats_.readBytes += p.buf.size();
    } else {
        stats_.writes++;
        stats_.writeBytes += p.buf.size();
        if (p.inCapsule)
            stats_.inCapsuleWrites++;
        else
            stats_.rdmaWrites++;
    }
    stats_.latency.record(total);
    kern::IoTrace tr;
    tr.deviceNs = deviceNs;
    tr.userNs = total - deviceNs;
    if (obs::Tracer *t = host_.tracer()) {
        const std::uint16_t track
            = t->track("fabric.c" + std::to_string(connId_));
        t->span(track, "fabric.capsule", p.trace, p.start, now,
                {{"conn", static_cast<std::int64_t>(connId_)},
                 {"in_capsule", p.inCapsule ? 1 : 0},
                 {"bytes", static_cast<std::int64_t>(p.buf.size())}});
        kern::emitRequest(
            *t, track, p.op == ssd::Op::Write ? "fabric.write" : "fabric.read",
            p.trace, p.start, tr, ok ? p.buf.size() : 0);
    }
    // An evicted remote device fails distinctly so fabric clients can
    // fail over, mirroring the local kernel path's ENODEV.
    p.cb(ok ? static_cast<long long>(p.buf.size())
            : kern::errOf(st == ssd::Status::DeviceEvicted
                              ? fs::FsStatus::NoDev
                              : fs::FsStatus::Inval),
         tr);
}

void
FabricInitiator::failIo(std::uint64_t cid, Time)
{
    auto it = pending_.find(cid);
    if (it == pending_.end())
        return;
    PendingIo p = std::move(it->second);
    pending_.erase(it);
    if (p.admitted)
        inflight_--;
    // Non-admitted cids may still sit in depthQueue_; drainDepthQueue
    // skips them once their PendingIo is gone, and reset() clears the
    // queue wholesale before failing, so no eager erase is needed.
    //
    // The caller's callback is deferred to the next event-queue round:
    // failIo runs inside reset()/onConnectAck teardown loops, and a
    // callback that resubmits or reconnects must observe the initiator
    // fully torn down (state Idle, depth slots released), not a
    // half-cleared one.
    host_.eq.after(0, [cb = std::move(p.cb)] {
        cb(kern::errOf(fs::FsStatus::Inval), kern::IoTrace{});
    });
}

} // namespace bpd::fab
