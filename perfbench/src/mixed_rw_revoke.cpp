/**
 * @file
 * mixed_rw_revoke: one machine with QoS on and four processes.
 *
 *  - A: 8 BypassD threads, 70% pread / 30% pwrite of 4 KiB at random
 *    offsets in a shared 1 GiB file.
 *  - B: 2 BypassD threads, each appending 4 KiB records to its own log
 *    and calling fsync every 16 appends.
 *  - C: 4 threads on the kernel path (Kernel::sysPread/sysPwrite,
 *    O_DIRECT, 50/50) over private 256 MiB files, IOPS-capped below
 *    their uncapped rate so their I/O parks.
 *  - D: at the midpoint of the window, opens A's file without
 *    O_DIRECT, revoking A's direct access; A's second half runs
 *    through the kernel fallback (Fig. 12).
 *
 * Most of the work here is kernel syscalls, ext4 allocation and
 * journal, BypassD fmap/revocation/fallback and the QoS gates, beside
 * reads and writes on the same ssd/iommu layers.
 */

#include <memory>

#include "bench.hpp"
#include "sim/logging.hpp"

namespace pb {
namespace {

constexpr unsigned kAThreads = 8;
constexpr unsigned kBThreads = 2;
constexpr unsigned kCThreads = 4;
constexpr std::uint64_t kAFileBytes = 1ull << 30;
constexpr std::uint64_t kCFileBytes = 256ull << 20;
constexpr unsigned kAReadPct = 70;
constexpr unsigned kCReadPct = 50;
constexpr unsigned kFsyncEvery = 16;
/** C's cap, below what its four QD1 loops complete uncapped. */
constexpr std::uint64_t kCIopsCap = 120'000;
constexpr Time kWarmup = 2 * kMs;
constexpr Time kWindow = 60 * kMs;
constexpr std::size_t kProbeOffsets = 1 << 16;

class MixedRwRevoke
{
  public:
    enum class Group : std::uint8_t { A, B, C };

    struct Client
    {
        MixedRwRevoke *w = nullptr;
        Group group = Group::A;
        bpd::kern::Process *proc = nullptr;
        unsigned tid = 0;
        int fd = -1;
        std::uint32_t region = 0;
        std::uint64_t blocks = 0;
        Gen gen{0};
        std::vector<std::uint8_t> buf;
        Time issuedAt = 0;
        Shadow::Ticket ticket;
        std::uint64_t block = 0;
        bool write = false;
        std::uint64_t appends = 0; //!< B: completed appends
        bool synced = false;       //!< B: fsync done for this batch
    };

    MixedRwRevoke(bpd::sys::System &s, bool traced) : s_(s)
    {
        host.on = traced;
    }

    void
    populate(const Gen &g)
    {
        a_ = &s_.newProcess(1000, 1000);
        b_ = &s_.newProcess(1000, 1000);
        c_ = &s_.newProcess(1000, 1000);
        d_ = &s_.newProcess(1000, 1000);
        const std::uint32_t aRegion
            = create(*a_, "/mixA.db", kAFileBytes, g, 1, nullptr);
        for (unsigned i = 0; i < kAThreads; i++)
            add(Group::A, a_, i, aRegion, kAFileBytes, g);
        for (unsigned i = 0; i < kBThreads; i++)
            add(Group::B, b_, i,
                create(*b_, bpd::sim::strf("/mixB%u.log", i), 0, g, 10 + i,
                       nullptr),
                0, g);
        for (unsigned i = 0; i < kCThreads; i++) {
            int fd = -1;
            const std::uint32_t region
                = create(*c_, bpd::sim::strf("/mixC%u.dat", i),
                         kCFileBytes, g, 20 + i, &fd);
            add(Group::C, c_, i, region, kCFileBytes, g);
            clients_.back()->fd = fd;
        }
    }

    void
    open()
    {
        libA_ = &s_.userLib(*a_);
        libB_ = &s_.userLib(*b_);
        int aFd = openDirect(*libA_, "/mixA.db");
        for (auto &cp : clients_) {
            Client &c = *cp;
            if (c.group == Group::A) {
                c.fd = aFd;
                libA_->prepareThread(c.tid);
            } else if (c.group == Group::B) {
                c.fd = openDirect(*libB_,
                                  bpd::sim::strf("/mixB%u.log", c.tid));
                libB_->prepareThread(c.tid);
            }
        }
        bpd::qos::Registry &q = s_.enableQos();
        bpd::qos::TenantLimit cap;
        cap.iopsLimit = kCIopsCap;
        q.setLimit(c_->pasid(), cap);
        offsets.reserve(kProbeOffsets);
    }

    void
    arm(Window win)
    {
        w_ = win;
        s_.kernel.cpu().acquire(kAThreads + kBThreads + kCThreads);
        for (auto &cp : clients_) {
            Client *c = cp.get();
            s_.eq.schedule(s_.now(), [c]() { c->w->issue(*c); });
        }
        s_.eq.schedule(win.start + (win.end - win.start) / 2,
                       [this]() { intrude(); });
    }

    void
    issue(Client &c)
    {
        if (s_.now() >= w_.end)
            return;
        c.issuedAt = s_.now();
        io.issued++;
        Client *cp = &c;
        auto done = [cp](long long n, bpd::kern::IoTrace) {
            cp->w->done(*cp, n);
        };
        const std::uint64_t req = host.nextReq();
        if (c.group == Group::B) {
            if (c.appends > 0 && c.appends % kFsyncEvery == 0
                && !c.synced) {
                // Every 16th append is followed by an fsync.
                c.synced = true;
                host.call(HostLayer::UserLib, req, [&]() {
                    libB_->fsync(c.tid, c.fd, [cp](int rc) {
                        cp->w->fsynced(*cp, rc);
                    });
                });
                return;
            }
            c.synced = false;
            c.write = true;
            c.block = c.appends;
            if (c.tid == 0 && offsets.size() < kProbeOffsets)
                offsets.push_back(c.block * bpd::kBlockBytes);
            shadow.beginWrite(c.region, c.block, c.buf);
            host.call(HostLayer::UserLib, req, [&]() {
                libB_->write(c.tid, c.fd, c.buf, done);
            });
            return;
        }
        c.write = !c.gen.percent(c.group == Group::A ? kAReadPct
                                                      : kCReadPct);
        c.block = c.gen.below(c.blocks);
        const std::uint64_t off = c.block * bpd::kBlockBytes;
        if (c.write)
            shadow.beginWrite(c.region, c.block, c.buf);
        else
            c.ticket = shadow.beginRead(c.region, c.block);
        if (c.group == Group::A) {
            host.call(HostLayer::UserLib, req, [&]() {
                if (c.write)
                    libA_->pwrite(c.tid, c.fd, c.buf, off, done);
                else
                    libA_->pread(c.tid, c.fd, c.buf, off, done);
            });
        } else {
            host.call(HostLayer::Kernel, req, [&]() {
                if (c.write)
                    s_.kernel.sysPwrite(*c.proc, c.fd, c.buf, off, done);
                else
                    s_.kernel.sysPread(*c.proc, c.fd, c.buf, off, done);
            });
        }
    }

    void
    done(Client &c, long long n)
    {
        const bool ok
            = io.data(w_, c.issuedAt, s_.now(), c.write, n, c.buf.size());
        if (c.write) {
            shadow.endWrite(c.region, c.block, c.buf, ok);
            if (ok && c.group == Group::B)
                c.appends++;
        } else if (ok) {
            shadow.endRead(c.ticket, c.buf);
        }
        if (ok && c.group == Group::C && w_.contains(c.issuedAt, s_.now()))
            cappedOps++;
        issue(c);
    }

    void
    fsynced(Client &c, int rc)
    {
        if (io.other(rc, "fsync")) {
            io.fsyncs++;
            io.fsyncNs += s_.now() - c.issuedAt;
        }
        issue(c);
    }

    /** D's buffered open of A's file: revokes A's direct access. */
    void
    intrude()
    {
        io.issued++;
        host.call(HostLayer::Kernel, host.nextReq(), [&]() {
            s_.kernel.sysOpen(*d_, "/mixA.db", bpd::fs::kOpenRead, 0,
                              [this](int fd) { io.other(fd, "D open"); });
        });
    }

    void
    finish()
    {
        s_.kernel.cpu().release(kAThreads + kBThreads + kCThreads);
        shadow.verifyAll([&](std::uint32_t region, std::uint64_t blk,
                             std::span<std::uint8_t> out) {
            const Client &c = *regionOwner_.at(region);
            s_.kernel.setupRead(*c.proc, c.fd, out, blk * bpd::kBlockBytes);
        });
    }

    bpd::kern::Process &logOwner() { return *b_; }

    Tally io;
    Shadow shadow;
    HostSpans host;
    std::uint64_t cappedOps = 0;        //!< C's window completions
    std::vector<std::uint64_t> offsets; //!< B0's append offsets

  private:
    /**
     * Create a file (stamped with known blocks when it has a size) and
     * register its shadow region. Kernel-path files keep their O_DIRECT
     * descriptor (through @p keepFd); direct-path files are closed again
     * so the later UserLib open can fmap.
     */
    std::uint32_t
    create(bpd::kern::Process &p, const std::string &path,
           std::uint64_t bytes, const Gen &g, std::uint64_t salt,
           int *keepFd)
    {
        const int fd = s_.kernel.setupCreateFile(p, path, bytes, 0);
        bpd::sim::panicIf(fd < 0, "mixed_rw_revoke: create failed");
        const std::uint64_t blocks = bytes / bpd::kBlockBytes;
        const std::uint32_t region = shadow.addRegion(blocks);
        shadow.stampRun(region, blocks, g.fork(salt),
                        [&](std::uint64_t b,
                            std::span<const std::uint8_t> data) {
                            s_.kernel.setupWrite(p, fd, data,
                                                 b * bpd::kBlockBytes);
                        });
        if (keepFd) {
            *keepFd = fd;
        } else {
            int rc = -1;
            s_.kernel.sysClose(p, fd, [&rc](int x) { rc = x; });
            s_.run();
            bpd::sim::panicIf(rc < 0, "mixed_rw_revoke: close failed");
        }
        return region;
    }

    void
    add(Group grp, bpd::kern::Process *p, unsigned tid,
        std::uint32_t region, std::uint64_t bytes, const Gen &g)
    {
        clients_.push_back(std::make_unique<Client>());
        Client &c = *clients_.back();
        c.w = this;
        c.group = grp;
        c.proc = p;
        c.tid = tid;
        c.region = region;
        c.blocks = bytes / bpd::kBlockBytes;
        c.gen = g.fork(1000 + clients_.size());
        c.buf.assign(bpd::kBlockBytes, 0);
        if (regionOwner_.size() <= region)
            regionOwner_.resize(region + 1, nullptr);
        if (!regionOwner_[region])
            regionOwner_[region] = &c;
    }

    int
    openDirect(bpd::bypassd::UserLib &lib, const std::string &path)
    {
        int fd = -1;
        lib.open(path,
                 bpd::fs::kOpenRead | bpd::fs::kOpenWrite
                     | bpd::fs::kOpenDirect,
                 0644, [&fd](int f) { fd = f; });
        s_.run();
        bpd::sim::panicIf(fd < 0 || !lib.isDirect(fd),
                          "mixed_rw_revoke: open not direct");
        return fd;
    }

    bpd::sys::System &s_;
    bpd::kern::Process *a_ = nullptr, *b_ = nullptr, *c_ = nullptr,
                       *d_ = nullptr;
    bpd::bypassd::UserLib *libA_ = nullptr, *libB_ = nullptr;
    std::vector<std::unique_ptr<Client>> clients_;
    std::vector<const Client *> regionOwner_;
    Window w_;
};

} // namespace

Round
runMixedRwRevoke(const RoundCfg &cfg)
{
    Round r;
    r.traced = cfg.traced;
    r.queuePairs = kAThreads + kBThreads + 1; // + the kernel's queue
    r.readPct = 50;
    r.capIops = kCIopsCap;
    const Gen g(cfg.seed);
    bpd::sim::setVerbose(false);

    const std::uint64_t t0 = hostNs();
    bpd::sys::SystemConfig sc;
    sc.deviceBytes = 16ull << 30;
    sc.seed = g.fork(1).next();
    bpd::sys::System s(sc);
    s.enableTenantAccounting();
    if (cfg.traced)
        s.enableTracing(bpd::obs::Level::Device).setStream(&r.spans);
    MixedRwRevoke w(s, cfg.traced);
    const std::uint64_t t1 = hostNs();

    w.populate(g);
    const std::uint64_t t2 = hostNs();
    w.open();
    Window win;
    win.start = s.now() + static_cast<Time>(kWarmup * cfg.windowScale);
    win.end = win.start + static_cast<Time>(kWindow * cfg.windowScale);
    w.arm(win);
    const std::uint64_t t3 = hostNs();

    Counters before;
    before.add(s);
    const std::uint64_t a0 = heapAllocs();
    w.host.call(HostLayer::RunLoop, 0, [&]() { s.run(); });
    const std::uint64_t t4 = hostNs();
    r.allocs = heapAllocs() - a0;
    r.bootS = static_cast<double>(t1 - t0) / 1e9;
    r.populateS = static_cast<double>(t2 - t1) / 1e9;
    r.openS = static_cast<double>(t3 - t2) / 1e9;
    r.runS = static_cast<double>(t4 - t3) / 1e9;
    r.window = win;

    w.finish();
    r.layers.add(s);
    r.layers.sub(before);
    r.cappedOps = w.cappedOps;
    Fnv h;
    digestTally(h, w.io);
    h.add(w.cappedOps);
    h.add(s.now());
    h.add(s.eq.executed());
    h.add(r.layers.devOps);
    h.add(r.layers.devWriteBytes);
    h.add(r.layers.syscalls);
    h.add(r.layers.journalRecords);
    h.add(r.layers.revocations);
    h.add(r.layers.fallbackOps);
    h.add(r.layers.qosThrottles);
    r.digest = h.h;
    if (r.layers.revocations == 0)
        r.failures.push_back("mixed_rw_revoke: D's open revoked nothing");
    r.dataChecks = w.shadow.checks;
    if (w.shadow.mismatches)
        r.failures.push_back("mixed_rw_revoke: " + w.shadow.firstMismatch);
    checkTenantSums(r, s, "mixed_rw_revoke");
    if (cfg.probe)
        r.xlate = probeTranslation(s, w.logOwner(), "/mixB0.log",
                                   w.offsets);
    r.io = std::move(w.io);
    r.host = std::move(w.host);
    return r;
}

} // namespace pb
