/**
 * @file
 * SPDK-like baseline: a userspace NVMe driver with exclusive device
 * ownership. No file system, no kernel in the data path, raw LBA
 * addressing, zero-copy into caller buffers — the paper's lower bound on
 * latency (Section 6.3). Claiming the device disables every other queue
 * (the kernel driver is unbound), which is precisely why SPDK cannot
 * share the device (Fig. 10 has no SPDK bars).
 */

#ifndef BPD_SPDK_SPDK_HPP
#define BPD_SPDK_SPDK_HPP

#include <functional>
#include <map>
#include <memory>
#include <span>

#include "common/types.hpp"
#include "kern/cost_model.hpp"
#include "kern/cpu_model.hpp"
#include "kern/kernel.hpp"
#include "sim/event_queue.hpp"
#include "ssd/dispatcher.hpp"
#include "ssd/nvme.hpp"

namespace bpd::spdk {

struct SpdkCosts
{
    Time submitNs = 100; //!< build command + doorbell
    Time reapNs = 80;    //!< poll CQ + complete
};

class SpdkDriver
{
  public:
    SpdkDriver(sim::EventQueue &eq, ssd::NvmeDevice &dev,
               kern::CpuModel &cpu, Pasid owner, SpdkCosts costs = {});
    ~SpdkDriver();
    SpdkDriver(const SpdkDriver &) = delete;
    SpdkDriver &operator=(const SpdkDriver &) = delete;

    /**
     * Claim the device (unbind everyone else).
     * @retval false when another owner already claimed it.
     */
    bool init();

    /**
     * Release the claim and re-enable other users. With I/O still in
     * flight the release is deferred: queue pairs and dispatchers
     * must outlive their completions, and the exclusive claim must
     * hold while DMA is outstanding, so teardown polls until the last
     * completion reaps and only then destroys queues and releases the
     * device. initialized() stays true until that happens.
     */
    void shutdown();

    bool initialized() const { return initialized_; }

    /** I/Os submitted but not yet reaped. */
    std::uint64_t pendingIos() const { return pendingIos_; }

    /** Raw read of @p buf.size() bytes at device byte address @p addr. */
    void read(Tid tid, DevAddr addr, std::span<std::uint8_t> buf,
              kern::IoCb cb);

    /** Raw write. */
    void write(Tid tid, DevAddr addr, std::span<const std::uint8_t> buf,
               kern::IoCb cb);

    /**
     * Attach the QoS registry (null = disabled, the default). The
     * baseline then charges the owner tenant's token buckets per I/O;
     * over-limit submissions park and issue in order on refill, so
     * even the kernel-bypass lower bound honors tenant caps.
     */
    void setQos(qos::Registry *q) { qos_ = q; }

  private:
    /** Thread @p tid's queue, created on first use. */
    ssd::CommandDispatcher &queue(Tid tid);
    void doIo(Tid tid, ssd::Op op, DevAddr addr,
              std::span<std::uint8_t> buf, kern::IoCb cb);
    void scheduleDrainPoll();
    void teardown();

    sim::EventQueue &eq_;
    ssd::NvmeDevice &dev_;
    kern::CpuModel &cpu_;
    Pasid owner_;
    SpdkCosts costs_;
    bool initialized_ = false;
    bool draining_ = false;        //!< shutdown requested, I/O pending
    std::uint64_t pendingIos_ = 0; //!< submitted, not yet reaped
    /** Cancels queued drain polls if the driver is destroyed first. */
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
    std::map<Tid, std::unique_ptr<ssd::CommandDispatcher>> queues_;
    qos::Registry *qos_ = nullptr;
};

} // namespace bpd::spdk

#endif // BPD_SPDK_SPDK_HPP
