#include "fabric/target.hpp"

#include <algorithm>

#include "fabric/initiator.hpp"
#include "sim/logging.hpp"

namespace bpd::fab {

const char *
toString(ConnState s)
{
    switch (s) {
    case ConnState::Idle:
        return "idle";
    case ConnState::Connecting:
        return "connecting";
    case ConnState::Connected:
        return "connected";
    case ConnState::Draining:
        return "draining";
    }
    return "?";
}

const char *
toString(ConnectStatus s)
{
    switch (s) {
    case ConnectStatus::Ok:
        return "ok";
    case ConnectStatus::Refused:
        return "refused";
    case ConnectStatus::NoDevice:
        return "no-device";
    case ConnectStatus::DeviceEvicted:
        return "device-evicted";
    }
    return "?";
}

FabricTarget::FabricTarget(sys::System &target, FabricProfile profile,
                           spdk::SpdkCosts costs)
    : sys_(target), prof_(profile), costs_(costs)
{
    ioFreeAt_.assign(reactorCount(), 0);
    reactorStats_.assign(reactorCount(), ReactorStats{});
}

FabricTarget::~FabricTarget()
{
    *alive_ = false; // queued polls/reactor events must not fire
    if (!serving_)
        return;
    sim::panicIf(pendingIos_ > 0,
                 "fabric target destroyed with I/O in flight");
    conns_.clear(); // each dispatcher releases its queue pair
    for (std::size_t slot : claimedSlots_)
        sys_.kernel.slotDevice(slot).releaseExclusive(kFabricOwnerPasid);
    claimedSlots_.clear();
    sys_.kernel.cpu().release(reactorCount());
    serving_ = false;
}

void
FabricTarget::bind(sim::SimExecutor &exec, std::uint32_t domain)
{
    exec_ = &exec;
    domain_ = domain;
}

bool
FabricTarget::serve()
{
    if (serving_)
        return true;
    if (admitSlot(prof_.serveSlot) != ConnectStatus::Ok)
        return false;
    sys_.kernel.cpu().acquire(reactorCount()); // one core per reactor
    serving_ = true;
    // The target's own trace stream carries device spans for I/O whose
    // issuing loops live on remote machines, so it cannot be replayed
    // as a standalone workload.
    if (obs::Tracer *t = sys_.tracer())
        t->replayUnsupported("fabric target serves remote initiators");
    return true;
}

FabricTarget::Conn *
FabricTarget::conn(std::uint32_t connId, std::uint32_t gen)
{
    auto it = conns_.find(connId);
    if (it == conns_.end() || !it->second->open || it->second->gen != gen)
        return nullptr;
    return it->second.get();
}

void
FabricTarget::rpcConnect(FabricInitiator *ini, std::uint32_t gen,
                         Pasid clientPasid, std::uint32_t clientDomain,
                         std::size_t slot)
{
    sim::panicIf(!serving_, "fabric connect to a target not serving");
    const Time capsuleAt = sys_.eq.now();
    const Time startT = std::max(capsuleAt, adminFreeAt_);
    adminFreeAt_ = startT + sys_.kernel.cpu().scaled(prof_.adminProcessNs);
    sys_.eq.schedule(adminFreeAt_, [this, ini, gen, clientPasid,
                                    clientDomain, slot, capsuleAt,
                                    alive = alive_] {
        if (!*alive)
            return;
        finishConnect(ini, gen, clientPasid, clientDomain, slot,
                      capsuleAt);
    });
}

ConnectStatus
FabricTarget::admitSlot(std::size_t slot)
{
    if (slot >= sys_.kernel.slotCount())
        return ConnectStatus::NoDevice;
    if (sys_.devices.evicted(slot))
        return ConnectStatus::DeviceEvicted;
    if (std::find(claimedSlots_.begin(), claimedSlots_.end(), slot)
        != claimedSlots_.end())
        return ConnectStatus::Ok;
    if (!sys_.kernel.slotDevice(slot).claimExclusive(kFabricOwnerPasid))
        return ConnectStatus::Refused;
    claimedSlots_.push_back(slot);
    return ConnectStatus::Ok;
}

void
FabricTarget::finishConnect(FabricInitiator *ini, std::uint32_t gen,
                            Pasid clientPasid, std::uint32_t clientDomain,
                            std::size_t slot, Time capsuleAt)
{
    const std::uint32_t id = nextConnId_++;
    ConnectStatus st = admitSlot(slot);
    auto c = std::make_unique<Conn>();
    c->id = id;
    c->gen = gen;
    c->ini = ini;
    c->clientDomain = clientDomain;
    c->reactor = sys::connReactor(id, reactorCount());
    c->slot = slot;
    if (st == ConnectStatus::Ok) {
        c->disp = sys_.kernel.slotDevice(slot).openQueue(
            kFabricOwnerPasid, prof_.queueDepth, /*vbaMode=*/false);
        if (!c->disp)
            st = ConnectStatus::Refused;
    }
    const TenantId tenant = kConnTenantBase + id;
    if (st == ConnectStatus::Ok) {
        // Weighted-fair SQ arbitration keys on the connection tenant,
        // not the shared kFabricOwnerPasid, so per-lane weights work.
        c->disp->queue().setQosTenant(tenant);
        c->open = true;
        accepts_++;
        ConnInfo info;
        info.remotePasid = clientPasid;
        info.tenant = tenant;
        info.reactor = c->reactor;
        info.slot = slot;
        info.dev = sys_.kernel.slotDevice(slot).devId();
        info.connectedAt = sys_.eq.now();
        info.open = true;
        info_[id] = info;
        conns_[id] = std::move(c);
    }
    if (obs::Tracer *t = sys_.tracer())
        t->span(t->track("fabric.target"), "fabric.connect", 0, capsuleAt,
                sys_.eq.now(),
                {{"conn", static_cast<std::int64_t>(id)},
                 {"pasid", static_cast<std::int64_t>(clientPasid)},
                 {"slot", static_cast<std::int64_t>(slot)},
                 {"ok", st == ConnectStatus::Ok ? 1 : 0}});
    exec_->post(domain_, clientDomain,
                sys_.eq.now() + prof_.wireNs(0),
                [ini, gen, st, id, tenant] {
                    ini->onConnectAck(gen, st, id, tenant);
                });
}

void
FabricTarget::rpcDisconnect(std::uint32_t connId, std::uint32_t gen)
{
    Conn *c = conn(connId, gen);
    if (!c) {
        staleCapsules_++;
        return;
    }
    disconnects_++;
    const Time startT = std::max(sys_.eq.now(), adminFreeAt_);
    adminFreeAt_ = startT + sys_.kernel.cpu().scaled(prof_.adminProcessNs);
    // Admin-queue work is deliberately conn-less: the span covers the
    // shared admin processor, not any one connection's lane.
    // trace_view folds these into its explicit "admin" row.
    if (obs::Tracer *t = sys_.tracer())
        t->span(t->track("fabric.target"), "fabric.admin", 0, startT,
                adminFreeAt_, {{"op", std::int64_t{0} /* disconnect */}});
    sys_.eq.schedule(adminFreeAt_, [this, connId, alive = alive_] {
        if (*alive)
            beginTeardown(connId);
    });
}

void
FabricTarget::rpcAbort(std::uint32_t connId, std::uint32_t gen)
{
    Conn *c = conn(connId, gen);
    if (!c) {
        staleCapsules_++;
        return;
    }
    aborts_++;
    // The client already failed every in-flight I/O; parked RDMA pulls
    // will never see their data capsule, so drop them now or the drain
    // below would wait forever. Overflow-parked commands likewise die
    // here — nothing will reap to retry them once in-flight I/O drains.
    c->xfers.clear();
    for (std::size_t i = 0; i < c->parked.size(); ++i) {
        c->inflight--;
        pendingIos_--;
    }
    c->parked.clear();
    const Time startT = std::max(sys_.eq.now(), adminFreeAt_);
    adminFreeAt_ = startT + sys_.kernel.cpu().scaled(prof_.adminProcessNs);
    if (obs::Tracer *t = sys_.tracer())
        t->span(t->track("fabric.target"), "fabric.admin", 0, startT,
                adminFreeAt_, {{"op", std::int64_t{1} /* abort */}});
    sys_.eq.schedule(adminFreeAt_, [this, connId, alive = alive_] {
        if (*alive)
            beginTeardown(connId);
    });
}

void
FabricTarget::rpcIo(std::uint32_t connId, std::uint32_t gen,
                    std::uint64_t cid, ssd::Op op, DevAddr addr,
                    std::uint32_t len,
                    std::shared_ptr<std::vector<std::uint8_t>> payload)
{
    capsules_++;
    Conn *c = conn(connId, gen);
    if (!c) {
        staleCapsules_++;
        return;
    }
    const Time capsuleAt = sys_.eq.now();
    // Each reactor is its own busy clock: capsules from connections on
    // different lanes overlap, capsules on one lane serialize.
    const std::uint32_t lane = c->reactor;
    ReactorStats &rs = reactorStats_[lane];
    rs.capsules++;
    const Time startT = std::max(capsuleAt, ioFreeAt_[lane]);
    if (op == ssd::Op::Write && !prof_.inCapsule(len)) {
        // Two-phase transfer: the reactor parses the header-only
        // capsule, builds an RDMA-read work request and pulls the
        // payload from the client; the I/O resumes in rpcRdmaData.
        info_[connId].rdmaWrites++;
        rs.rdmaSetups++;
        ioFreeAt_[lane] = startT
                          + sys_.kernel.cpu().scaled(prof_.targetProcessNs
                                                     + prof_.rdmaSetupNs);
        rs.busyNs += ioFreeAt_[lane] - startT;
        c->xfers[cid] = PendingXfer{addr, len, capsuleAt};
        FabricInitiator *ini = c->ini;
        const std::uint32_t clientDom = c->clientDomain;
        sys_.eq.schedule(ioFreeAt_[lane], [this, ini, clientDom, gen, cid,
                                           alive = alive_] {
            if (!*alive)
                return;
            exec_->post(domain_, clientDom,
                        sys_.eq.now() + prof_.wireNs(0),
                        [ini, gen, cid] { ini->onRdmaRead(gen, cid); });
        });
        return;
    }
    if (op == ssd::Op::Write)
        info_[connId].inCapsuleWrites++;
    ioFreeAt_[lane]
        = startT + sys_.kernel.cpu().scaled(prof_.targetProcessNs);
    rs.busyNs += ioFreeAt_[lane] - startT;
    sys_.eq.schedule(ioFreeAt_[lane], [this, connId, cid, op, addr, len,
                                       payload, capsuleAt,
                                       alive = alive_] {
        if (*alive)
            execIo(connId, cid, op, addr, len, payload, capsuleAt);
    });
}

void
FabricTarget::rpcRdmaData(std::uint32_t connId, std::uint32_t gen,
                          std::uint64_t cid,
                          std::shared_ptr<std::vector<std::uint8_t>> payload)
{
    Conn *c = conn(connId, gen);
    if (!c) {
        staleCapsules_++;
        return;
    }
    auto it = c->xfers.find(cid);
    if (it == c->xfers.end())
        return;
    const PendingXfer x = it->second;
    c->xfers.erase(it);
    rdmaTransfers_++;
    if (obs::Tracer *t = sys_.tracer())
        t->span(t->track("fabric.target"), "fabric.rdma", 0, x.capsuleAt,
                sys_.eq.now(),
                {{"conn", static_cast<std::int64_t>(connId)},
                 {"bytes", static_cast<std::int64_t>(x.len)}});
    // The reactor cost for this command was paid when the capsule was
    // parsed (rpcIo); the pulled payload goes straight to submission.
    execIo(connId, cid, ssd::Op::Write, x.addr, x.len, std::move(payload),
           x.capsuleAt);
}

void
FabricTarget::execIo(std::uint32_t connId, std::uint64_t cid, ssd::Op op,
                     DevAddr addr, std::uint32_t len,
                     std::shared_ptr<std::vector<std::uint8_t>> payload,
                     Time capsuleAt)
{
    auto it = conns_.find(connId);
    if (it == conns_.end() || !it->second->open) {
        staleCapsules_++; // raced an abort between capsule and reactor
        return;
    }
    Conn *cp = it->second.get();
    const TenantId tenant = info_[connId].tenant;
    obs::TraceId trace = 0;
    if (obs::Tracer *t = sys_.tracer())
        trace = t->newTrace(tenant);
    // inflight > 0 pins the Conn in conns_ (teardown drains first), so
    // the submit/reap closures below may hold the raw pointer. Parked
    // overflow keeps its increment until it reaps or an abort drops it.
    cp->inflight++;
    pendingIos_++;
    const Time submitCost = sys_.kernel.cpu().scaled(costs_.submitNs);
    sys_.eq.after(submitCost, [this, cp, cid, op, addr, len, payload,
                               capsuleAt, trace,
                               alive = alive_]() mutable {
        if (!*alive)
            return;
        std::shared_ptr<std::vector<std::uint8_t>> buf
            = std::move(payload);
        if (op == ssd::Op::Read)
            buf = std::make_shared<std::vector<std::uint8_t>>(len);
        sim::panicIf(!buf || buf->size() < len,
                     "fabric write capsule without payload");
        ParkedIo io;
        io.cid = cid;
        io.op = op;
        io.addr = addr;
        io.len = len;
        io.buf = std::move(buf);
        io.capsuleAt = capsuleAt;
        io.trace = trace;
        // FIFO behind earlier parked commands: device order per
        // connection must stay admission order even while the SQ is
        // full, or the disabled-admission path would reorder.
        if (!cp->parked.empty() || !submitIo(cp, io)) {
            overflowParks_++;
            cp->parked.push_back(std::move(io));
        }
    });
}

bool
FabricTarget::submitIo(Conn *cp, ParkedIo io)
{
    ssd::Command cmd;
    cmd.op = io.op;
    cmd.addr = io.addr;
    cmd.addrIsVba = false;
    cmd.len = io.len;
    cmd.hostBuf = std::span<std::uint8_t>(io.buf->data(), io.len);
    cmd.trace = io.trace;
    // Remote attribution, not the owner PASID.
    cmd.tenant = info_[cp->id].tenant;
    const Time tSubmit = sys_.eq.now();
    const std::uint64_t cid = io.cid;
    const ssd::Op op = io.op;
    const std::uint32_t len = io.len;
    const Time capsuleAt = io.capsuleAt;
    const obs::TraceId trace = io.trace;
    auto buf = io.buf;
    const bool submitted = cp->disp->submit(
        cmd, [this, cp, cid, op, len, buf, capsuleAt, trace, tSubmit,
              alive = alive_](const ssd::Completion &comp) {
            const Time reap = sys_.kernel.cpu().scaled(costs_.reapNs);
            sys_.eq.after(reap, [this, cp, cid, op, len, buf,
                                 capsuleAt, trace, tSubmit, comp,
                                 alive]() {
                if (!*alive)
                    return;
                const Time now = sys_.eq.now();
                const Time deviceNs = comp.completeTime - tSubmit;
                cp->inflight--;
                cp->devInflight--;
                pendingIos_--;
                ConnInfo &info = info_[cp->id];
                info.ops++;
                if (op == ssd::Op::Read)
                    info.readBytes += len;
                else
                    info.writeBytes += len;
                if (obs::Tracer *t = sys_.tracer())
                    t->span(
                        t->track("fabric.target"), "fabric.sq",
                        trace, capsuleAt, now,
                        {{"conn",
                          static_cast<std::int64_t>(cp->id)},
                         {"reactor",
                          static_cast<std::int64_t>(cp->reactor)},
                         {"slot",
                          static_cast<std::int64_t>(cp->slot)},
                         {"bytes", static_cast<std::int64_t>(len)},
                         {"device_ns",
                          static_cast<std::int64_t>(deviceNs)}});
                const ssd::Status st = comp.status;
                std::shared_ptr<std::vector<std::uint8_t>> data;
                if (st == ssd::Status::Success
                    && op == ssd::Op::Read)
                    data = buf;
                FabricInitiator *ini = cp->ini;
                const std::uint32_t gen = cp->gen;
                exec_->post(
                    domain_, cp->clientDomain,
                    now
                        + prof_.wireNs(op == ssd::Op::Read ? len
                                                           : 0),
                    [ini, gen, cid, st, deviceNs, data] {
                        ini->onResponse(gen, cid, st, deviceNs,
                                        data);
                    });
                // The reap freed one SQ slot; the front parked
                // command (if any) takes it immediately.
                retryParked(cp);
            });
        });
    if (submitted) {
        cp->devInflight++;
        ConnInfo &info = info_[cp->id];
        info.peakInflight
            = std::max(info.peakInflight, cp->devInflight);
    }
    return submitted;
}

void
FabricTarget::retryParked(Conn *cp)
{
    while (!cp->parked.empty()) {
        ParkedIo io = std::move(cp->parked.front());
        cp->parked.pop_front();
        if (!submitIo(cp, io)) {
            cp->parked.push_front(std::move(io));
            return;
        }
        // Re-arming a parked command is reactor work just like parsing
        // a fresh capsule — without this charge an over-depth flood
        // rides the SQ for free after its arrival burst, and admission
        // would look *worse* than parking in the victim-tail study.
        const std::uint32_t lane = cp->reactor;
        const Time start = std::max(sys_.eq.now(), ioFreeAt_[lane]);
        ioFreeAt_[lane]
            = start + sys_.kernel.cpu().scaled(prof_.targetProcessNs);
        reactorStats_[lane].busyNs += ioFreeAt_[lane] - start;
    }
}

void
FabricTarget::beginTeardown(std::uint32_t connId)
{
    auto it = conns_.find(connId);
    if (it == conns_.end() || !it->second->open)
        return;
    it->second->open = false;
    info_[connId].open = false;
    teardownPoll(connId);
}

void
FabricTarget::teardownPoll(std::uint32_t connId)
{
    auto it = conns_.find(connId);
    if (it == conns_.end())
        return;
    Conn &c = *it->second;
    if (c.inflight > 0 || !c.xfers.empty()
        || (c.disp && c.disp->outstanding() > 0)) {
        // The dispatcher must outlive its completions; poll until the
        // last one reaps (mirrors SpdkDriver teardown).
        sys_.eq.after(kUs, [this, connId, alive = alive_] {
            if (*alive)
                teardownPoll(connId);
        });
        return;
    }
    conns_.erase(it);
}

} // namespace bpd::fab
