/**
 * @file
 * direct_randread: the paper's headline path. One machine with a
 * 16 GiB Optane-profile device; one process runs 24 threads, each a
 * QD1 closed loop of 4 KiB random UserLib::pread over its own 256 MiB
 * O_DIRECT file (6 GiB in total). After set-up only the event queue,
 * SSD arbitration over 24 queue pairs, VBA translation and page-table
 * walks do work; kern, fs, qos and fabric stay idle.
 */

#include <memory>

#include "bench.hpp"
#include "sim/logging.hpp"

namespace pb {
namespace {

constexpr unsigned kThreads = 24;
constexpr std::uint64_t kFileBytes = 256ull << 20;
constexpr std::uint64_t kBlocks = kFileBytes / bpd::kBlockBytes;
constexpr Time kWarmup = 2 * kMs;
constexpr Time kWindow = 150 * kMs;
constexpr std::size_t kProbeOffsets = 1 << 16;

class DirectRandread
{
  public:
    struct Thread
    {
        DirectRandread *w = nullptr;
        unsigned tid = 0;
        int fd = -1;
        std::uint32_t region = 0;
        Gen gen{0};
        std::vector<std::uint8_t> buf;
        Time issuedAt = 0;
        Shadow::Ticket ticket;
    };

    DirectRandread(bpd::sys::System &s, bool traced) : s_(s)
    {
        host.on = traced;
    }

    void
    populate(bpd::kern::Process &p, const Gen &g)
    {
        proc_ = &p;
        for (unsigned i = 0; i < kThreads; i++) {
            const std::string path = bpd::sim::strf("/dr%u.dat", i);
            const int cfd
                = s_.kernel.setupCreateFile(p, path, kFileBytes, 0);
            bpd::sim::panicIf(cfd < 0, "direct_randread: create failed");
            const std::uint32_t region = shadow.addRegion(kBlocks);
            shadow.stampRun(region, kBlocks, g.fork(100 + i),
                            [&](std::uint64_t b,
                                std::span<const std::uint8_t> data) {
                                s_.kernel.setupWrite(p, cfd, data,
                                                     b * bpd::kBlockBytes);
                            });
            int rc = -1;
            s_.kernel.sysClose(p, cfd, [&rc](int x) { rc = x; });
            s_.run();
            bpd::sim::panicIf(rc < 0, "direct_randread: close failed");
            threads_.push_back(std::make_unique<Thread>());
            Thread &t = *threads_.back();
            t.w = this;
            t.tid = i;
            t.region = region;
            t.gen = g.fork(200 + i);
            t.buf.assign(bpd::kBlockBytes, 0);
        }
    }

    void
    open()
    {
        lib_ = &s_.userLib(*proc_);
        for (auto &tp : threads_) {
            Thread &t = *tp;
            lib_->open(bpd::sim::strf("/dr%u.dat", t.tid),
                       bpd::fs::kOpenRead | bpd::fs::kOpenDirect, 0644,
                       [&t](int fd) { t.fd = fd; });
            s_.run();
            bpd::sim::panicIf(t.fd < 0 || !lib_->isDirect(t.fd),
                              "direct_randread: open not direct");
            lib_->prepareThread(t.tid);
        }
        offsets.reserve(kProbeOffsets);
    }

    /** Start every loop at the current instant, inside the run loop. */
    void
    arm(Window win)
    {
        w_ = win;
        s_.kernel.cpu().acquire(kThreads);
        for (auto &tp : threads_) {
            Thread *t = tp.get();
            s_.eq.schedule(s_.now(), [t]() { t->w->issue(*t); });
        }
    }

    void
    issue(Thread &t)
    {
        if (s_.now() >= w_.end)
            return;
        const std::uint64_t blk = t.gen.below(kBlocks);
        const std::uint64_t off = blk * bpd::kBlockBytes;
        if (t.tid == 0 && offsets.size() < kProbeOffsets)
            offsets.push_back(off);
        t.issuedAt = s_.now();
        t.ticket = shadow.beginRead(t.region, blk);
        io.issued++;
        Thread *tp = &t;
        host.call(HostLayer::UserLib, host.nextReq(), [&]() {
            lib_->pread(t.tid, t.fd, t.buf, off,
                        [tp](long long n, bpd::kern::IoTrace) {
                            tp->w->done(*tp, n);
                        });
        });
    }

    void
    done(Thread &t, long long n)
    {
        if (io.data(w_, t.issuedAt, s_.now(), false, n, t.buf.size()))
            shadow.endRead(t.ticket, t.buf);
        issue(t);
    }

    void
    finish()
    {
        s_.kernel.cpu().release(kThreads);
        shadow.verifyAll([&](std::uint32_t region, std::uint64_t blk,
                             std::span<std::uint8_t> out) {
            s_.kernel.setupRead(*proc_, threads_[region]->fd, out,
                                blk * bpd::kBlockBytes);
        });
    }

    Tally io;
    Shadow shadow;
    HostSpans host;
    std::vector<std::uint64_t> offsets; //!< thread 0's, for the probes

  private:
    bpd::sys::System &s_;
    bpd::kern::Process *proc_ = nullptr;
    bpd::bypassd::UserLib *lib_ = nullptr;
    std::vector<std::unique_ptr<Thread>> threads_;
    Window w_;
};

} // namespace

Round
runDirectRandread(const RoundCfg &cfg)
{
    Round r;
    r.traced = cfg.traced;
    r.queuePairs = kThreads;
    r.readPct = 100;
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
    DirectRandread w(s, cfg.traced);
    const std::uint64_t t1 = hostNs();

    bpd::kern::Process &p = s.newProcess(1000, 1000);
    w.populate(p, g);
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
    Fnv h;
    digestTally(h, w.io);
    h.add(s.now());
    h.add(s.eq.executed());
    h.add(r.layers.devOps);
    h.add(r.layers.vbaTranslations);
    h.add(r.layers.framesRead);
    r.digest = h.h;
    r.dataChecks = w.shadow.checks;
    if (w.shadow.mismatches)
        r.failures.push_back("direct_randread: " + w.shadow.firstMismatch);
    checkTenantSums(r, s, "direct_randread");
    if (cfg.probe)
        r.xlate = probeTranslation(s, p, "/dr0.dat", w.offsets);
    r.io = std::move(w.io);
    r.host = std::move(w.host);
    return r;
}

} // namespace pb
