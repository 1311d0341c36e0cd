#include "spdk/spdk.hpp"

#include "qos/qos.hpp"
#include "sim/logging.hpp"

namespace bpd::spdk {

SpdkDriver::SpdkDriver(sim::EventQueue &eq, ssd::NvmeDevice &dev,
                       kern::CpuModel &cpu, Pasid owner, SpdkCosts costs)
    : eq_(eq), dev_(dev), cpu_(cpu), owner_(owner), costs_(costs)
{
}

SpdkDriver::~SpdkDriver()
{
    *alive_ = false; // queued drain polls must not touch freed state
    teardown();
}

bool
SpdkDriver::init()
{
    if (initialized_)
        return true;
    if (!dev_.claimExclusive(owner_))
        return false;
    initialized_ = true;
    return true;
}

void
SpdkDriver::shutdown()
{
    if (!initialized_)
        return;
    if (pendingIos_ > 0) {
        // Completions are still in flight. Destroying queue pairs and
        // dispatchers now would let device callbacks fire into freed
        // state, and releasing the claim would re-enable other users
        // while our DMA is outstanding. Drain first.
        if (!draining_) {
            draining_ = true;
            scheduleDrainPoll();
        }
        return;
    }
    teardown();
}

void
SpdkDriver::scheduleDrainPoll()
{
    eq_.after(kUs, [this, alive = alive_] {
        if (!*alive)
            return;
        if (pendingIos_ > 0) {
            scheduleDrainPoll();
            return;
        }
        teardown();
    });
}

void
SpdkDriver::teardown()
{
    if (!initialized_)
        return;
    sim::panicIf(pendingIos_ > 0, "SPDK teardown with I/O in flight");
    queues_.clear(); // each dispatcher releases its queue pair
    dev_.releaseExclusive(owner_);
    draining_ = false;
    initialized_ = false;
}

ssd::CommandDispatcher &
SpdkDriver::queue(Tid tid)
{
    std::unique_ptr<ssd::CommandDispatcher> &q = queues_[tid];
    if (!q) {
        q = dev_.openQueue(owner_, 1024, /*vbaMode=*/false);
        sim::panicIf(q == nullptr, "SPDK queue creation failed");
    }
    return *q;
}

void
SpdkDriver::read(Tid tid, DevAddr addr, std::span<std::uint8_t> buf,
                 kern::IoCb cb)
{
    doIo(tid, ssd::Op::Read, addr, buf, std::move(cb));
}

void
SpdkDriver::write(Tid tid, DevAddr addr,
                  std::span<const std::uint8_t> buf, kern::IoCb cb)
{
    doIo(tid, ssd::Op::Write, addr,
         std::span<std::uint8_t>(const_cast<std::uint8_t *>(buf.data()),
                                 buf.size()),
         std::move(cb));
}

void
SpdkDriver::doIo(Tid tid, ssd::Op op, DevAddr addr,
                 std::span<std::uint8_t> buf, kern::IoCb cb)
{
    sim::panicIf(!initialized_, "SPDK I/O before init()");
    sim::panicIf(draining_, "SPDK I/O submitted during shutdown drain");
    // QoS: charge the owner tenant before the submit-cost model runs.
    // An I/O counts as pending from here, parked or not, so a shutdown
    // drain waits for parked ones too; the alive guard covers a driver
    // destroyed while one is parked.
    pendingIos_++;
    qos::admit(qos_, owner_, 1, buf.size(),
               [this, alive = alive_, tid, op, addr, buf,
                cb = std::move(cb)]() mutable {
        if (!*alive)
            return;
        const Time start = eq_.now();
        obs::TraceId trace = 0;
        if (obs::Tracer *t = dev_.tracer()) {
            trace = t->newTrace(owner_);
            cb = kern::traceRequest(
                *t, t->track("spdk.t" + std::to_string(tid)),
                op == ssd::Op::Write ? "spdk.write" : "spdk.read", trace,
                std::move(cb));
        }

        const Time submitCost = cpu_.scaled(costs_.submitNs);
        eq_.after(submitCost, [this, tid, op, addr, buf, start, trace,
                               cb = std::move(cb)]() {
            ssd::Command cmd;
            cmd.op = op;
            cmd.addr = addr;
            cmd.addrIsVba = false;
            cmd.len = static_cast<std::uint32_t>(buf.size());
            cmd.hostBuf = buf; // zero-copy: DMA straight into the caller
            cmd.trace = trace;
            const Time tSubmit = eq_.now();
            const bool ok = queue(tid).submit(
                cmd, [this, buf, start, tSubmit,
                      cb = std::move(cb)](const ssd::Completion &comp) {
                    const Time reap = cpu_.scaled(costs_.reapNs);
                    eq_.after(reap, [this, buf, start, tSubmit, comp,
                                     cb = std::move(cb)]() {
                        kern::IoTrace tr;
                        const Time total = eq_.now() - start;
                        tr.deviceNs = comp.completeTime - tSubmit;
                        tr.userNs = total - tr.deviceNs;
                        pendingIos_--;
                        cb(comp.status == ssd::Status::Success
                               ? static_cast<long long>(buf.size())
                               : kern::devErr(comp.status),
                           tr);
                    });
                });
            sim::panicIf(!ok, "SPDK queue overflow");
        });
    });
}

} // namespace bpd::spdk
