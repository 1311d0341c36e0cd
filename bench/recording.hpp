/**
 * @file
 * Replay-stream recording shim for benches that drive UserLib or the
 * kernel syscall layer directly (fig11/fig12/table1/table5) instead of
 * going through wl::FioRunner, and the fig12 revocation timeline that
 * fig12_revocation and perf_harness both run. Each wrapper issues the
 * underlying call and books the matching obs::ReplayRec, so traces
 * captured from these benches are replayable with trace_replay exactly
 * like runner workloads. Null-safe: with tracing off every wrapper
 * degenerates to the plain call (same zero-cost-when-disabled contract
 * as the tracer sites in src/).
 *
 * Lane discipline follows src/obs/replay.cpp: sequential setup steps
 * (create, close, open) go on the main lane so they barrier on
 * everything before them; closed-loop drive ops go on a numbered lane
 * so their recorded think-time chains survive replay. A record issued
 * at an absolute time while other lanes are mid-flight (fig12's
 * intruder open) must use a fresh numbered lane of its own process —
 * a main-lane record would barrier on in-flight ops and drift.
 */

#ifndef BPD_BENCH_RECORDING_HPP
#define BPD_BENCH_RECORDING_HPP

#include <functional>
#include <string>
#include <vector>

#include "bench/bench_json.hpp"
#include "bypassd/userlib.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "system/system.hpp"
#include "workloads/fio.hpp"

namespace bpd::bench {

class Recorder
{
  public:
    explicit Recorder(sys::System &s) : s_(s) {}

    /** Intern @p path for ReplayRec::file (kNoFile when not tracing). */
    std::uint32_t
    file(const std::string &path)
    {
        obs::Tracer *t = s_.tracer();
        return t ? t->replayFile(path) : obs::ReplayRec::kNoFile;
    }

    /** setupCreateFile + main-lane Create record. */
    int
    createFile(kern::Process &p, std::uint32_t fileId,
               const std::string &path, std::uint64_t bytes,
               std::uint64_t fillSeed,
               wl::Engine eng = wl::Engine::Sync)
    {
        const int fd
            = s_.kernel.setupCreateFile(p, path, bytes, fillSeed);
        if (obs::Tracer *t = s_.tracer()) {
            obs::ReplayRec r = base(obs::ReplayRec::Create, eng,
                                    p.pasid(), fileId);
            r.offset = bytes;
            r.aux = fillSeed;
            t->replayMark(r, fd);
        }
        return fd;
    }

    /** sysClose + timed main-lane Close record. */
    void
    sysClose(kern::Process &p, int fd, std::uint32_t fileId,
             std::function<void(int)> cb,
             wl::Engine eng = wl::Engine::Sync)
    {
        obs::Tracer *t = s_.tracer();
        std::uint32_t ri = 0;
        if (t)
            ri = t->replayBegin(
                base(obs::ReplayRec::Close, eng, p.pasid(), fileId));
        s_.kernel.sysClose(p, fd, [t, ri, cb = std::move(cb)](int rc) {
            if (t)
                t->replayEnd(ri, rc);
            cb(rc);
        });
    }

    /** UserLib::open + timed main-lane Open record (engine Bypassd). */
    void
    open(bypassd::UserLib &lib, kern::Process &p, std::uint32_t fileId,
         const std::string &path, std::uint32_t flags,
         std::function<void(int)> cb)
    {
        obs::Tracer *t = s_.tracer();
        std::uint32_t ri = 0;
        if (t) {
            obs::ReplayRec r = base(obs::ReplayRec::Open,
                                    wl::Engine::Bypassd, p.pasid(),
                                    fileId);
            r.aux = flags;
            ri = t->replayBegin(r);
        }
        lib.open(path, flags, 0644,
                 [t, ri, cb = std::move(cb)](int fd) {
                     if (t)
                         t->replayEnd(ri, fd);
                     cb(fd);
                 });
    }

    /** sysOpen + timed Open record; @p lane per the lane discipline. */
    void
    sysOpen(kern::Process &p, std::uint32_t fileId,
            const std::string &path, std::uint32_t flags,
            std::function<void(int)> cb,
            std::uint16_t lane = obs::ReplayRec::kMainLane,
            wl::Engine eng = wl::Engine::Sync)
    {
        obs::Tracer *t = s_.tracer();
        std::uint32_t ri = 0;
        if (t) {
            obs::ReplayRec r
                = base(obs::ReplayRec::Open, eng, p.pasid(), fileId);
            r.lane = lane;
            r.aux = flags;
            ri = t->replayBegin(r);
        }
        s_.kernel.sysOpen(p, path, flags, 0644,
                          [t, ri, cb = std::move(cb)](int fd) {
                              if (t)
                                  t->replayEnd(ri, fd);
                              cb(fd);
                          });
    }

    /** UserLib::prepareThread + main-lane PrepThread record. */
    void
    prepareThread(bypassd::UserLib &lib, kern::Process &p,
                  std::uint32_t tid)
    {
        lib.prepareThread(tid);
        if (obs::Tracer *t = s_.tracer()) {
            obs::ReplayRec r
                = base(obs::ReplayRec::PrepThread, wl::Engine::Bypassd,
                       p.pasid(), obs::ReplayRec::kNoFile);
            r.tid = tid;
            t->replayMark(r);
        }
    }

    /** UserLib::pread + timed Read record on @p lane. */
    void
    pread(bypassd::UserLib &lib, kern::Process &p, std::uint32_t tid,
          int fd, std::span<std::uint8_t> buf, std::uint64_t off,
          std::uint16_t lane, std::uint32_t fileId, kern::IoCb cb)
    {
        obs::Tracer *t = s_.tracer();
        const std::uint32_t ri
            = beginData(t, obs::ReplayRec::Read, wl::Engine::Bypassd,
                        p.pasid(), tid, fileId, lane, off, buf.size());
        lib.pread(tid, fd, buf, off,
                  [t, ri, cb = std::move(cb)](long long n,
                                              kern::IoTrace tr) {
                      if (t)
                          t->replayEnd(ri, n);
                      cb(n, tr);
                  });
    }

    /** Kernel sysPread + timed Read record on @p lane. */
    void
    sysPread(kern::Process &p, int fd, std::span<std::uint8_t> buf,
             std::uint64_t off, std::uint16_t lane,
             std::uint32_t fileId, kern::IoCb cb)
    {
        obs::Tracer *t = s_.tracer();
        const std::uint32_t ri
            = beginData(t, obs::ReplayRec::Read, wl::Engine::Sync,
                        p.pasid(), 0, fileId, lane, off, buf.size());
        s_.kernel.sysPread(p, fd, buf, off,
                           [t, ri, cb = std::move(cb)](long long n,
                                                       kern::IoTrace tr) {
                               if (t)
                                   t->replayEnd(ri, n);
                               cb(n, tr);
                           });
    }

    /** CpuModel::acquire + main-lane CpuAcquire record. */
    void
    cpuAcquire(kern::Process &p, unsigned n)
    {
        s_.kernel.cpu().acquire(n);
        cpuMark(obs::ReplayRec::CpuAcquire, p, n);
    }

    /** CpuModel::release + main-lane CpuRelease record. */
    void
    cpuRelease(kern::Process &p, unsigned n)
    {
        s_.kernel.cpu().release(n);
        cpuMark(obs::ReplayRec::CpuRelease, p, n);
    }

    /** Flag an op the record format cannot express (e.g. raw fmap). */
    void
    unsupported(const char *what)
    {
        if (obs::Tracer *t = s_.tracer())
            t->replayUnsupported(what);
    }

  private:
    static obs::ReplayRec
    base(obs::ReplayRec::Op op, wl::Engine eng, std::uint32_t proc,
         std::uint32_t fileId)
    {
        obs::ReplayRec r;
        r.op = op;
        r.engine = static_cast<std::uint8_t>(eng);
        r.proc = proc;
        r.file = fileId;
        return r;
    }

    static std::uint32_t
    beginData(obs::Tracer *t, obs::ReplayRec::Op op, wl::Engine eng,
              std::uint32_t proc, std::uint32_t tid,
              std::uint32_t fileId, std::uint16_t lane,
              std::uint64_t off, std::uint64_t len)
    {
        if (!t)
            return 0;
        obs::ReplayRec r = base(op, eng, proc, fileId);
        r.lane = lane;
        r.tid = tid;
        r.offset = off;
        r.len = len;
        return t->replayBegin(r);
    }

    void
    cpuMark(obs::ReplayRec::Op op, kern::Process &p, unsigned n)
    {
        if (obs::Tracer *t = s_.tracer()) {
            obs::ReplayRec r = base(op, wl::Engine::Sync, p.pasid(),
                                    obs::ReplayRec::kNoFile);
            r.offset = n;
            t->replayMark(r);
        }
    }

    sys::System &s_;
};

/** What one fig12 revocation timeline observed. */
struct RevocationRun
{
    sim::TimeSeries throughput{250 * kMs}; //!< reader bytes per bucket
    Time revokeAt = 0;            //!< when the intruder's open returned
    std::uint64_t readerFaults = 0; //!< IOMMU faults the reader's UserLib saw
    double wallSec = 0;           //!< host seconds of the drive loop
};

/**
 * The fig12 timeline on @p s: a reader opens a 1 GiB file through
 * BypassD and issues QD1 4 KiB random reads for @p horizon; at absolute
 * time @p revokeT a second process opens the file through the kernel
 * (buffered), the kernel revokes direct access, and the reader falls
 * back to the kernel interface. Every step is recorded for replay.
 */
inline RevocationRun
runRevocation(sys::System &s, Time horizon, Time revokeT)
{
    Recorder rec(s);
    kern::Process &reader = s.newProcess(1000, 1000);
    const std::uint32_t sharedDb = rec.file("/shared.db");
    const int cfd = rec.createFile(reader, sharedDb, "/shared.db",
                                   1ull << 30, 0, wl::Engine::Bypassd);
    rec.sysClose(reader, cfd, sharedDb, [](int) {}, wl::Engine::Bypassd);
    s.run();

    bypassd::UserLib &lib = s.userLib(reader);
    int fd = -1;
    rec.open(lib, reader, sharedDb, "/shared.db",
             fs::kOpenRead | fs::kOpenDirect, [&fd](int f) { fd = f; });
    s.run();
    sim::panicIf(fd < 0 || !lib.isDirect(fd), "reader open failed");
    rec.prepareThread(lib, reader, 0);
    rec.cpuAcquire(reader, 1);

    RevocationRun out;
    const double t0 = wallNow();
    const Time tEnd = s.now() + horizon;
    std::vector<std::uint8_t> buf(4096);
    sim::Rng rng(5);

    // Owned by this frame, which outlives s.run(); each completion
    // re-arms the loop through a reference.
    std::function<void()> loop;
    loop = [&]() {
        if (s.now() >= tEnd)
            return;
        const std::uint64_t off
            = rng.nextUint((1ull << 30) / 4096) * 4096;
        rec.pread(lib, reader, 0, fd, buf, off, 0, sharedDb,
                  [&](long long n, kern::IoTrace) {
                      if (n > 0)
                          out.throughput.record(s.now(),
                                                static_cast<double>(n));
                      loop();
                  });
    };
    loop();

    // The intruder's open fires at an absolute time while reads are in
    // flight, so it records on a numbered lane of its own process: a
    // main-lane record would barrier on the reads in flight.
    kern::Process &intruder = s.newProcess(1000, 1000);
    s.eq.schedule(revokeT, [&]() {
        rec.sysOpen(intruder, sharedDb, "/shared.db", fs::kOpenRead,
                    [&](int f) {
                        sim::panicIf(f < 0, "buffered open failed");
                        out.revokeAt = s.now();
                    },
                    /*lane=*/0);
    });

    s.run();
    rec.cpuRelease(reader, 1);
    out.wallSec = wallNow() - t0;
    out.readerFaults = lib.iommuFaults();
    return out;
}

} // namespace bpd::bench

#endif // BPD_BENCH_RECORDING_HPP
