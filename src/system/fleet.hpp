/**
 * @file
 * A fleet of simulated machines coupled through a fabric-latency
 * control plane, executed in parallel by the sharded executor.
 *
 * Each System is one executor domain (see placement.hpp for why the
 * machine is the placement unit); a lightweight fleet controller is
 * one more domain. Every machine sends the controller a periodic
 * health beacon carrying its device-op and event counters; the
 * controller folds each receipt — in delivered order — into a running
 * digest and acks, and the ack schedules the machine's next beacon.
 * The beacon round-trips make the fleet digest depend on the executor
 * merge order, so the 1-vs-N-shard digest gates exercise real
 * cross-shard traffic rather than N independent runs.
 *
 * Workloads are armed by the caller on each system (e.g.
 * FioRunner::arm) before run(); the fleet only owns the machines, the
 * controller and the clock coupling.
 */

#ifndef BPD_SYSTEM_FLEET_HPP
#define BPD_SYSTEM_FLEET_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/hash.hpp"
#include "system/placement.hpp"
#include "system/system.hpp"

namespace bpd::sys {

/** How the member machines are wired together. */
enum class FleetTopology : std::uint8_t {
    /** Beacon-coupled peers: every machine talks to the controller
     *  only (the PR-6 fleet_fio shape). */
    ControlPlane,
    /** NVMe-oF shape: system 0 is the storage target and systems 1..N-1
     *  are client machines, each wired to the target both ways at
     *  fabricIoLatencyNs (the I/O-plane channels the fabric initiator/
     *  target pair posts capsules over). The control plane above stays
     *  wired too, so the fleet digest still sees beacon traffic. */
    FabricClientsTarget,
};

struct FleetConfig
{
    unsigned systems = 4;
    unsigned shards = 1;
    bool pinThreads = false;
    std::uint64_t deviceBytes = 8ull << 30;
    std::uint64_t seed = 42; //!< system i runs with seed + i
    /** One-way control-plane message latency = executor lookahead. */
    Time fabricLatencyNs = 25 * kUs;
    /** Beacon cadence per machine (ack-clocked, so the effective
     *  period is this plus one round trip). */
    Time beaconPeriodNs = 250 * kUs;
    FleetTopology topology = FleetTopology::ControlPlane;
    /**
     * One-way I/O-plane latency for FabricClientsTarget channels. Must
     * not exceed the FabricProfile::oneWayNs used by the initiators:
     * the channel floor is what the executor checks posts against, and
     * capsules travel at wireNs() >= oneWayNs.
     */
    Time fabricIoLatencyNs = 5 * kUs;
    SystemConfig base; //!< template for every member system
};

class Fleet
{
  public:
    explicit Fleet(FleetConfig cfg);

    unsigned size() const { return static_cast<unsigned>(systems_.size()); }
    System &system(unsigned i) { return *systems_.at(i); }
    sim::SimExecutor &executor() { return exec_; }

    /** Executor domain id of system @p i (for fabric bind()s). */
    std::uint32_t domainOf(unsigned i) const { return domainOf_.at(i); }

    /** The storage target machine under FabricClientsTarget. */
    System &target() { return *systems_.at(0); }

    /**
     * Bind every system to the executor and start each machine's
     * beacon loop, which self-reschedules until the machine's clock
     * passes @p tEnd. Call after workloads are armed: arming drives
     * run() internally, which must still mean "this machine only".
     */
    void start(Time tEnd);

    /** Run the whole fleet to quiescence (parallel across shards). */
    void run() { exec_.run(); }

    /**
     * Align every machine clock (controller included) to the fleet-wide
     * maximum by scheduling a no-op there and running to quiescence.
     * Lets one fleet host several bench cells back to back: after
     * settle() all domains share a start time, so the next cell's
     * schedule is a pure function of the cell sequence, not of which
     * machine happened to finish the previous cell last. Digests stay
     * bit-identical at any shard count across the whole sequence.
     */
    void settle();

    /** Controller receipts (beacons heard across all machines). */
    std::uint64_t beacons() const { return beacons_; }

    /**
     * Order-sensitive FNV fold of every beacon receipt; bit-identical
     * across shard counts by the executor's merge-order guarantee.
     */
    std::uint64_t controllerDigest() const { return ctrlHash_; }

    /** Events executed fleet-wide, controller included. */
    std::uint64_t totalEvents() const;

  private:
    void beacon(unsigned i, Time tEnd);

    FleetConfig cfg_;
    ShardPlacement place_;
    std::vector<std::unique_ptr<System>> systems_;
    std::vector<std::uint32_t> domainOf_;
    sim::EventQueue ctrlEq_;
    std::uint32_t ctrlDomain_ = 0;
    std::uint64_t ctrlHash_ = sim::kFnvSeed;
    std::uint64_t beacons_ = 0;
    sim::SimExecutor exec_;
};

} // namespace bpd::sys

#endif // BPD_SYSTEM_FLEET_HPP
