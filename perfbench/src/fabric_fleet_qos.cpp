/**
 * @file
 * fabric_fleet_qos: sys::Fleet in the FabricClientsTarget topology, one
 * storage target and four client machines, run by the sharded
 * executor. Each client runs 6 QD1 closed-loop jobs through its
 * FabricInitiator against raw regions of the target device: 60% 4 KiB
 * reads, 30% 4 KiB in-capsule writes, 10% 16 KiB RDMA-read writes.
 * Target-side QoS weights are 4:1 between clients {1,2} and {3,4};
 * client 4 is also IOPS-capped on its own host.
 *
 * This is the only workload whose host work is the executor (windows
 * and mailbox; barriers when run on several shards), the fabric
 * initiator/target/reactors and weighted SQ arbitration.
 */

#include <memory>

#include "bench.hpp"
#include "fabric/initiator.hpp"
#include "fabric/target.hpp"
#include "sim/logging.hpp"
#include "system/fleet.hpp"

namespace pb {
namespace {

constexpr unsigned kClients = 4;
constexpr unsigned kJobs = 6;
constexpr std::uint64_t kRegionBytes = 64ull << 20;
constexpr std::uint64_t kRegionBlocks = kRegionBytes / bpd::kBlockBytes;
constexpr unsigned kReadPct = 60;
constexpr unsigned kSmallWritePct = 30; //!< the rest are 16 KiB writes
constexpr std::uint32_t kLargeBytes = 16384;
constexpr std::uint32_t kHeavyWeight = 4;
/** Client 4's cap, below what its six loops complete uncapped. */
constexpr std::uint64_t kCappedIops = 150'000;
constexpr unsigned kCappedClient = 4;
constexpr Time kWarmup = 1 * kMs;
constexpr Time kWindow = 40 * kMs;

class FabricFleetQos
{
  public:
    struct Client;

    struct Job
    {
        Client *cl = nullptr;
        unsigned idx = 0;
        std::uint32_t region = 0;
        bpd::DevAddr base = 0;
        Gen gen{0};
        std::vector<std::uint8_t> buf;
        std::uint32_t len = 0;
        bool write = false;
        std::uint64_t block = 0;
        Time issuedAt = 0;
        Shadow::Ticket ticket;
    };

    /** One client machine; touched only by its own shard thread. */
    struct Client
    {
        unsigned idx = 0;
        bpd::sys::System *s = nullptr;
        std::unique_ptr<bpd::fab::FabricInitiator> ini;
        std::vector<std::unique_ptr<Job>> jobs;
        Tally io;
        Shadow shadow;
        HostSpans host;
        SpanAgg spans;
        Window w;
        std::uint64_t windowOps = 0;
    };

    FabricFleetQos(bpd::sys::Fleet &fleet, bool traced)
        : fleet_(fleet), target_(fleet.target())
    {
        traced_ = traced;
        for (unsigned c = 1; c <= kClients; c++) {
            clients_.push_back(std::make_unique<Client>());
            clients_.back()->idx = c;
            clients_.back()->s = &fleet.system(c);
            clients_.back()->host.on = traced;
            clients_.back()->host.idsAfter(std::uint64_t{c} << 48);
        }
    }

    void
    boot()
    {
        for (unsigned i = 0; i < fleet_.size(); i++) {
            bpd::sys::System &s = fleet_.system(i);
            s.enableTenantAccounting();
            if (traced_)
                s.enableTracing(bpd::obs::Level::Device)
                    .setStream(i == 0 ? &targetSpans
                                      : &clients_[i - 1]->spans);
        }
        target_.enableQos();
        tgt_ = std::make_unique<bpd::fab::FabricTarget>(
            target_, bpd::fab::FabricProfile{});
        tgt_->bind(fleet_.executor(), fleet_.domainOf(0));
        bpd::sim::panicIf(!tgt_->serve(),
                          "fabric_fleet_qos: target could not claim");
    }

    /** Carve each job's raw region and stamp known blocks into it. */
    void
    populate(const Gen &g)
    {
        const bpd::DevAddr half = target_.cfg.deviceBytes / 2;
        for (auto &cp : clients_) {
            Client &c = *cp;
            for (unsigned j = 0; j < kJobs; j++) {
                c.jobs.push_back(std::make_unique<Job>());
                Job &job = *c.jobs.back();
                job.cl = &c;
                job.idx = j;
                job.region = c.shadow.addRegion(kRegionBlocks);
                job.base = half
                           + ((c.idx - 1) * kJobs + j) * kRegionBytes;
                job.gen = g.fork(100 * c.idx + j);
                job.buf.assign(kLargeBytes, 0);
                c.shadow.stampRun(
                    job.region, kRegionBlocks,
                    g.fork(10'000 + 100 * c.idx + j),
                    [&](std::uint64_t b,
                        std::span<const std::uint8_t> data) {
                        target_.store.write(job.base
                                                + b * bpd::kBlockBytes,
                                            data);
                    });
            }
        }
    }

    /** Connect every initiator, then install weights and the cap. */
    void
    open()
    {
        for (auto &cp : clients_) {
            Client &c = *cp;
            c.ini = std::make_unique<bpd::fab::FabricInitiator>(*c.s, *tgt_);
            c.ini->bind(fleet_.executor(), fleet_.domainOf(c.idx));
            const bpd::Pasid pasid = c.s->newProcess(1000, 1000).pasid();
            bpd::fab::FabricInitiator *ini = c.ini.get();
            c.s->eq.schedule(c.s->now(),
                             [ini, pasid]() { ini->connect(pasid); });
        }
        fleet_.settle();
        bpd::qos::Registry &weights = *target_.qos();
        for (auto &cp : clients_) {
            Client &c = *cp;
            bpd::sim::panicIf(!c.ini->connected(),
                              "fabric_fleet_qos: connect did not settle");
            const bpd::TenantId tenant
                = bpd::fab::kConnTenantBase + c.ini->connId();
            bpd::qos::TenantLimit w;
            w.weight = c.idx <= 2 ? kHeavyWeight : 1;
            weights.setLimit(tenant, w);
            if (c.idx == kCappedClient) {
                bpd::qos::TenantLimit cap;
                cap.iopsLimit = kCappedIops;
                c.s->enableQos().setLimit(tenant, cap);
            }
        }
    }

    void
    arm(Window win)
    {
        for (auto &cp : clients_) {
            Client &c = *cp;
            c.w = win;
            c.s->kernel.cpu().acquire(kJobs);
            for (auto &jp : c.jobs) {
                Job *j = jp.get();
                c.s->eq.schedule(c.s->now(),
                                 [j]() { FabricFleetQos::issue(*j); });
            }
        }
    }

    static void
    issue(Job &j)
    {
        Client &c = *j.cl;
        if (c.s->now() >= c.w.end)
            return;
        const std::uint64_t pick = j.gen.below(100);
        j.write = pick >= kReadPct;
        j.len = pick >= kReadPct + kSmallWritePct ? kLargeBytes
                                                  : bpd::kBlockBytes;
        const std::uint64_t span = j.len / bpd::kBlockBytes;
        j.block = j.gen.below(kRegionBlocks / span) * span;
        const std::span<std::uint8_t> buf(j.buf.data(), j.len);
        if (j.write)
            for (std::uint64_t b = 0; b < span; b++)
                c.shadow.beginWrite(j.region, j.block + b,
                                    buf.subspan(b * bpd::kBlockBytes,
                                                bpd::kBlockBytes));
        else
            j.ticket = c.shadow.beginRead(j.region, j.block);
        j.issuedAt = c.s->now();
        c.io.issued++;
        const bpd::DevAddr addr = j.base + j.block * bpd::kBlockBytes;
        Job *jp = &j;
        auto done = [jp](long long n, bpd::kern::IoTrace) {
            FabricFleetQos::done(*jp, n);
        };
        c.host.call(HostLayer::Fabric, c.host.nextReq(), [&]() {
            if (j.write)
                c.ini->write(j.idx, addr, buf, done);
            else
                c.ini->read(j.idx, addr, buf, done);
        });
    }

    static void
    done(Job &j, long long n)
    {
        Client &c = *j.cl;
        const std::span<std::uint8_t> buf(j.buf.data(), j.len);
        const bool ok = c.io.data(c.w, j.issuedAt, c.s->now(), j.write, n,
                                  j.len);
        if (j.write) {
            for (std::uint64_t b = 0; b < j.len / bpd::kBlockBytes; b++)
                c.shadow.endWrite(j.region, j.block + b,
                                  buf.subspan(b * bpd::kBlockBytes,
                                              bpd::kBlockBytes),
                                  ok);
        } else if (ok) {
            c.shadow.endRead(j.ticket, buf);
        }
        if (ok && c.w.contains(j.issuedAt, c.s->now()))
            c.windowOps++;
        issue(j);
    }

    void
    finish(Round &r)
    {
        for (auto &cp : clients_) {
            Client &c = *cp;
            c.s->kernel.cpu().release(kJobs);
            c.shadow.verifyAll([&](std::uint32_t region, std::uint64_t blk,
                                   std::span<std::uint8_t> out) {
                target_.store.read(c.jobs[region]->base
                                       + blk * bpd::kBlockBytes,
                                   out);
            });
            r.dataChecks += c.shadow.checks;
            if (c.shadow.mismatches)
                r.failures.push_back(bpd::sim::strf(
                    "fabric_fleet_qos client %u: %s", c.idx,
                    c.shadow.firstMismatch.c_str()));
            if (c.idx == kCappedClient)
                r.cappedOps = c.windowOps;
        }
    }

    /** Digest of every simulated output, shard-count independent. */
    std::uint64_t
    digest()
    {
        Fnv h;
        for (auto &cp : clients_) {
            Client &c = *cp;
            digestTally(h, c.io);
            const auto &st = c.ini->stats();
            for (std::uint64_t v :
                 {st.reads, st.writes, st.inCapsuleWrites, st.rdmaWrites,
                  st.readBytes, st.writeBytes, st.queuedOnDepth})
                h.add(v);
        }
        for (const auto &[id, info] : tgt_->connections())
            for (std::uint64_t v :
                 {std::uint64_t{id}, std::uint64_t{info.tenant},
                  info.ops, info.readBytes, info.writeBytes,
                  std::uint64_t{info.peakInflight}})
                h.add(v);
        for (unsigned i = 0; i < fleet_.size(); i++) {
            h.add(fleet_.system(i).now());
            h.add(fleet_.system(i).eq.executed());
            h.add(fleet_.system(i).dev.totalOps());
        }
        h.add(fleet_.controllerDigest());
        h.add(fleet_.beacons());
        return h.h;
    }

    void
    collect(Round &r)
    {
        r.layers.fabric = true;
        for (unsigned i = 0; i < fleet_.size(); i++)
            r.layers.add(fleet_.system(i));
        r.spans.merge(targetSpans);
        for (auto &cp : clients_) {
            Client &c = *cp;
            r.io.merge(c.io);
            r.spans.merge(c.spans);
            r.layers.fabricIos += c.ini->stats().reads
                                  + c.ini->stats().writes;
            r.layers.fabricDepthQueued += c.ini->stats().queuedOnDepth;
            r.host.spans.insert(r.host.spans.end(), c.host.spans.begin(),
                                c.host.spans.end());
        }
    }

    SpanAgg targetSpans;

  private:
    bpd::sys::Fleet &fleet_;
    bpd::sys::System &target_;
    bool traced_ = false;
    std::unique_ptr<bpd::fab::FabricTarget> tgt_;
    std::vector<std::unique_ptr<Client>> clients_;
};

/** Executor counters, for deltas over the measured run. */
ExecStats
execSnapshot(const bpd::sim::SimExecutor &ex)
{
    ExecStats e;
    e.used = true;
    e.shards = ex.shardCount();
    e.windows = ex.windows();
    e.messages = ex.delivered();
    for (unsigned s = 0; s < ex.shardCount(); s++) {
        e.shardEvents.push_back(ex.shardEvents(s));
        e.stallSec += ex.shardStallSec(s);
    }
    return e;
}

} // namespace

Round
runFabricFleetQos(const RoundCfg &cfg)
{
    Round r;
    r.traced = cfg.traced;
    r.queuePairs = kClients; // one target queue pair per connection
    r.readPct = kReadPct;
    r.capIops = kCappedIops;
    r.xlate.why = "the fabric target serves raw device addresses; no "
                  "VBA translation or page-table walk happens";
    const Gen g(cfg.seed);
    bpd::sim::setVerbose(false);

    const std::uint64_t t0 = hostNs();
    bpd::sys::FleetConfig fc;
    fc.systems = kClients + 1;
    fc.shards = cfg.shards;
    fc.topology = bpd::sys::FleetTopology::FabricClientsTarget;
    fc.deviceBytes = 4ull << 30;
    fc.seed = g.fork(1).next();
    bpd::sys::Fleet fleet(fc);
    FabricFleetQos w(fleet, cfg.traced);
    w.boot();
    const std::uint64_t t1 = hostNs();
    w.populate(g);
    const std::uint64_t t2 = hostNs();
    w.open();
    Window win;
    win.start = fleet.system(1).now()
                + static_cast<Time>(kWarmup * cfg.windowScale);
    win.end = win.start + static_cast<Time>(kWindow * cfg.windowScale);
    w.arm(win);
    fleet.start(win.end);
    const ExecStats execBefore = execSnapshot(fleet.executor());
    const std::uint64_t t3 = hostNs();

    Counters before;
    for (unsigned i = 0; i < fleet.size(); i++)
        before.add(fleet.system(i));
    const std::uint64_t a0 = heapAllocs();
    fleet.run();
    const std::uint64_t t4 = hostNs();
    r.allocs = heapAllocs() - a0;
    r.bootS = static_cast<double>(t1 - t0) / 1e9;
    r.populateS = static_cast<double>(t2 - t1) / 1e9;
    r.openS = static_cast<double>(t3 - t2) / 1e9;
    r.runS = static_cast<double>(t4 - t3) / 1e9;
    r.window = win;
    if (cfg.traced)
        r.host.spans.push_back({0, t3, t4 - t3, HostLayer::RunLoop});

    ExecStats after = execSnapshot(fleet.executor());
    after.windows -= execBefore.windows;
    after.messages -= execBefore.messages;
    after.stallSec -= execBefore.stallSec;
    for (unsigned s = 0; s < after.shardEvents.size(); s++)
        after.shardEvents[s] -= execBefore.shardEvents[s];
    r.exec = after;

    w.finish(r);
    w.collect(r);
    r.layers.sub(before);
    r.digest = w.digest();
    for (unsigned i = 0; i < fleet.size(); i++) {
        checkTenantSums(r, fleet.system(i),
                        i == 0 ? "fabric_fleet_qos target"
                               : "fabric_fleet_qos client");
        // The span sinks live in `w`, which dies before the fleet.
        if (bpd::obs::Tracer *t = fleet.system(i).tracer())
            t->setStream(nullptr);
    }
    return r;
}

} // namespace pb
