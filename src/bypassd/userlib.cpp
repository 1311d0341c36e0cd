#include "bypassd/userlib.hpp"

#include <algorithm>
#include <cstring>

#include "qos/qos.hpp"
#include "sim/logging.hpp"

namespace bpd::bypassd {

namespace {

std::uint64_t
alignDown(std::uint64_t x, std::uint64_t a)
{
    return x & ~(a - 1);
}

std::uint64_t
alignUp(std::uint64_t x, std::uint64_t a)
{
    return (x + a - 1) & ~(a - 1);
}

/** Map a device completion status to the errno handed to callers. */
int
devErrno(ssd::Status st)
{
    return kern::errOf(st == ssd::Status::DeviceEvicted
                           ? fs::FsStatus::NoDev
                           : fs::FsStatus::Inval);
}

} // namespace

UserLib::UserLib(kern::Kernel &kernel, BypassdModule &module,
                 kern::Process &p, UserLibConfig cfg)
    : kernel_(kernel), module_(module), proc_(p), cfg_(cfg)
{
    proc_.userLib = this;
}

UserLib::~UserLib()
{
    for (auto &[tid, tc] : threads_) {
        for (auto &[slot, q] : tc.uq) {
            if (q)
                module_.destroyUserQueues(proc_, *q);
        }
    }
    proc_.userLib = nullptr;
}

UserQueues &
UserLib::uq(Tid tid, std::size_t slot)
{
    ThreadCtx &tc = threads_[tid];
    std::unique_ptr<UserQueues> &q = tc.uq[slot];
    if (!q) {
        q = module_.createUserQueues(proc_, cfg_.queueDepth,
                                     cfg_.dmaBufBytes, slot);
        sim::panicIf(q == nullptr,
                     "user queue creation failed (device claimed?)");
    }
    return *q;
}

void
UserLib::prepareThread(Tid tid, std::size_t slot)
{
    uq(tid, slot);
}

UserLib::FileInfo *
UserLib::info(int fd)
{
    auto it = files_.find(fd);
    return it == files_.end() ? nullptr : &it->second;
}

const UserLib::FileInfo *
UserLib::info(int fd) const
{
    auto it = files_.find(fd);
    return it == files_.end() ? nullptr : &it->second;
}

std::uint64_t
UserLib::fileSize(int fd) const
{
    const FileInfo *fi = info(fd);
    return fi ? fi->size : 0;
}

bool
UserLib::isDirect(int fd) const
{
    const FileInfo *fi = info(fd);
    return fi && fi->direct;
}

void
UserLib::open(const std::string &path, std::uint32_t flags,
              std::uint16_t mode, kern::IntCb cb)
{
    // Forward to the kernel, then fmap() to set up direct access
    // (Table 3). The intent flag keeps this open from counting as a
    // kernel-interface open in the sharing policy.
    kernel_.sysOpen(
        proc_, path, flags | kern::kOpenBypassdIntent, mode,
        [this, flags, cb = std::move(cb)](int fd) {
            if (fd < 0) {
                cb(fd);
                return;
            }
            kern::OpenFile *of = proc_.file(fd);
            FmapResult res = module_.fmap(proc_, of->ino,
                                          (flags & fs::kOpenWrite) != 0);
            kernel_.eq().after(res.cost, [this, fd, flags, of, res,
                                          cb = std::move(cb)]() {
                FileInfo fi;
                fi.ino = of->ino;
                fi.flags = flags;
                const fs::Inode *node
                    = kernel_.vfs().fs().inode(of->ino);
                fi.size = node ? node->size : 0;
                fi.vba = res.vba;
                fi.slot = res.slot;
                fi.direct = res.vba != 0;
                fi.preallocEnd = fi.size;
                files_[fd] = std::move(fi);
                cb(fd);
            });
        });
}

void
UserLib::close(int fd, kern::IntCb cb)
{
    FileInfo *fi = info(fd);
    if (fi) {
        module_.funmap(proc_, fi->ino);
        files_.erase(fd);
    }
    kernel_.sysClose(proc_, fd, std::move(cb));
}

void
UserLib::read(Tid tid, int fd, std::span<std::uint8_t> buf, kern::IoCb cb)
{
    FileInfo *fi = info(fd);
    const std::uint64_t off = fi ? fi->offset : 0;
    pread(tid, fd, buf, off,
          [this, fd, cb = std::move(cb)](long long n, kern::IoTrace tr) {
              if (n > 0) {
                  if (FileInfo *f = info(fd))
                      f->offset += static_cast<std::uint64_t>(n);
              }
              cb(n, tr);
          });
}

void
UserLib::write(Tid tid, int fd, std::span<const std::uint8_t> buf,
               kern::IoCb cb)
{
    FileInfo *fi = info(fd);
    const std::uint64_t off = fi ? fi->offset : 0;
    pwrite(tid, fd, buf, off,
           [this, fd, cb = std::move(cb)](long long n, kern::IoTrace tr) {
               if (n > 0) {
                   if (FileInfo *f = info(fd))
                       f->offset += static_cast<std::uint64_t>(n);
               }
               cb(n, tr);
           });
}

std::uint16_t
UserLib::obsTrack()
{
    if (!obsTrackInit_) {
        obsTrack_ = kernel_.tracer()->track(
            "bypassd.p" + std::to_string(proc_.pid()));
        obsTrackInit_ = true;
    }
    return obsTrack_;
}

void
UserLib::pread(Tid tid, int fd, std::span<std::uint8_t> buf,
               std::uint64_t off, kern::IoCb cb)
{
    FileInfo *fi = info(fd);
    if (!fi || !(fi->flags & fs::kOpenRead)) {
        kernel_.eq().after(kernel_.costs().userlibSubmitNs,
                           [cb = std::move(cb)]() {
                               cb(kern::errOf(fs::FsStatus::Inval),
                                  kern::IoTrace{});
                           });
        return;
    }
    obs::TraceId trace = 0;
    if (obs::Tracer *t = kernel_.tracer()) {
        trace = t->newTrace(proc_.pasid());
        cb = kern::traceRequest(*t, obsTrack(), "bypassd.pread", trace,
                                std::move(cb));
    }
    preadResume(tid, fd, buf, off, std::move(cb), trace);
}

void
UserLib::preadResume(Tid tid, int fd, std::span<std::uint8_t> buf,
                     std::uint64_t off, kern::IoCb cb, obs::TraceId trace)
{
    FileInfo *fi = info(fd);
    if (!fi) {
        kernel_.eq().after(kernel_.costs().userlibSubmitNs,
                           [cb = std::move(cb)]() {
                               cb(kern::errOf(fs::FsStatus::Inval),
                                  kern::IoTrace{});
                           });
        return;
    }
    if (!fi->direct) {
        fallbackOps_++;
        kernel_.sysPread(proc_, fd, buf, off, std::move(cb), trace);
        return;
    }
    // Non-blocking-write mode: reads must observe buffered writes.
    if (cfg_.nonBlockingWrites
        && consultPendingWrites(tid, fd, buf, off, cb, trace)) {
        return;
    }
    directRead(tid, fd, buf, off, std::move(cb), trace);
}

void
UserLib::pwrite(Tid tid, int fd, std::span<const std::uint8_t> buf,
                std::uint64_t off, kern::IoCb cb)
{
    FileInfo *fi = info(fd);
    if (!fi || !(fi->flags & fs::kOpenWrite)) {
        kernel_.eq().after(kernel_.costs().userlibSubmitNs,
                           [cb = std::move(cb)]() {
                               cb(kern::errOf(fs::FsStatus::Inval),
                                  kern::IoTrace{});
                           });
        return;
    }
    obs::TraceId trace = 0;
    if (obs::Tracer *t = kernel_.tracer()) {
        trace = t->newTrace(proc_.pasid());
        cb = kern::traceRequest(*t, obsTrack(), "bypassd.pwrite", trace,
                                std::move(cb));
    }
    pwriteResume(tid, fd, buf, off, std::move(cb), trace);
}

void
UserLib::pwriteResume(Tid tid, int fd, std::span<const std::uint8_t> buf,
                      std::uint64_t off, kern::IoCb cb, obs::TraceId trace)
{
    FileInfo *fi = info(fd);
    if (!fi) {
        kernel_.eq().after(kernel_.costs().userlibSubmitNs,
                           [cb = std::move(cb)]() {
                               cb(kern::errOf(fs::FsStatus::Inval),
                                  kern::IoTrace{});
                           });
        return;
    }
    if (!fi->direct) {
        fallbackOps_++;
        kernel_.sysPwrite(proc_, fd, buf, off, std::move(cb), trace);
        return;
    }
    if (off + buf.size() > fi->size) {
        appendWrite(tid, fd, buf, off, std::move(cb), trace);
        return;
    }
    const bool partial = (off % kSectorBytes) != 0
                         || (buf.size() % kSectorBytes) != 0;
    if (partial)
        partialWrite(tid, fd, buf, off, std::move(cb), trace);
    else if (cfg_.nonBlockingWrites)
        nonBlockingWrite(tid, fd, buf, off, std::move(cb), trace);
    else
        directOverwrite(tid, fd, buf, off, std::move(cb), trace);
}

void
UserLib::nonBlockingWrite(Tid tid, int fd,
                          std::span<const std::uint8_t> buf,
                          std::uint64_t off, kern::IoCb cb,
                          obs::TraceId trace)
{
    FileInfo *fi = info(fd);
    const std::uint64_t end = off + buf.size();

    // Overlapping an in-flight non-blocking write: serialize behind it
    // (per-inode range tracking, Section 5.1 / CrossFS).
    for (auto &[poff, pw] : fi->pendingWrites) {
        const std::uint64_t pend = poff + pw->data.size();
        if (off < pend && poff < end) {
            auto data = std::make_shared<std::vector<std::uint8_t>>(
                buf.begin(), buf.end());
            pw->waiters.push_back([this, tid, fd, data, off, trace,
                                   cb = std::move(cb)]() {
                nonBlockingWrite(
                    tid, fd,
                    std::span<const std::uint8_t>(data->data(),
                                                  data->size()),
                    off, cb, trace);
            });
            return;
        }
    }

    nbWrites_++;
    directWrites_++;
    auto pw = std::make_shared<FileInfo::PendingWrite>();
    pw->off = off;
    pw->data.assign(buf.begin(), buf.end());
    fi->pendingWrites[off] = pw;

    // The caller sees completion right after the buffer copy.
    const kern::CostModel &c = kernel_.costs();
    const Time ackCost = kernel_.cpu().scaled(c.userlibSubmitNs
                                              + c.copyCost(buf.size()));
    const Time start = kernel_.eq().now();
    kernel_.eq().after(ackCost, [start, n = buf.size(), this,
                                 cb = std::move(cb)]() {
        kern::IoTrace tr;
        tr.userNs = kernel_.eq().now() - start;
        cb(static_cast<long long>(n), tr);
    });

    // Background device write from the pending buffer (its own pinned
    // staging area, so per-thread DMA buffers stay free for reads).
    auto issue = std::make_shared<std::function<void()>>();
    auto complete = [this, fd, pw, issue]() {
        pw->devDone = true;
        FileInfo *fi2 = info(fd);
        if (fi2) {
            fi2->pendingWrites.erase(pw->off);
            for (auto &w : pw->waiters)
                w();
            if (fi2->pendingWrites.empty()) {
                auto drains = std::move(fi2->drainWaiters);
                fi2->drainWaiters.clear();
                for (auto &d : drains)
                    d();
            }
        } else {
            for (auto &w : pw->waiters)
                w();
        }
        // Break the issue-closure reference cycle now that the write is
        // done (it captures this shared function object for retries).
        *issue = nullptr;
    };

    *issue = [this, tid, fd, pw, off, trace, issue, complete]() {
        FileInfo *fi2 = info(fd);
        if (!fi2 || !fi2->direct) {
            // Revoked or closed: write back through the kernel.
            kernel_.sysPwrite(proc_, fd,
                              std::span<const std::uint8_t>(
                                  pw->data.data(), pw->data.size()),
                              off,
                              [complete](long long, kern::IoTrace) {
                                  complete();
                              },
                              trace);
            return;
        }
        ssd::Command cmd;
        cmd.op = ssd::Op::Write;
        cmd.addr = fi2->vba + off;
        cmd.addrIsVba = true;
        cmd.len = static_cast<std::uint32_t>(pw->data.size());
        cmd.hostBuf = std::span<std::uint8_t>(pw->data.data(),
                                              pw->data.size());
        cmd.trace = trace;
        submit(uq(tid, fi2->slot), cmd,
               [this, fd, trace, issue, complete](
                   const ssd::Completion &comp) {
            if (comp.status != ssd::Status::Success) {
                handleFault(fd, [issue]() { (*issue)(); },
                            [issue]() { (*issue)(); }, trace);
                return;
            }
            complete();
        });
    };
    (*issue)();
}

bool
UserLib::consultPendingWrites(Tid tid, int fd,
                              std::span<std::uint8_t> buf,
                              std::uint64_t off, const kern::IoCb &cb,
                              obs::TraceId trace)
{
    FileInfo *fi = info(fd);
    if (!fi || fi->pendingWrites.empty())
        return false;
    const std::uint64_t n
        = off >= fi->size
              ? 0
              : std::min<std::uint64_t>(buf.size(), fi->size - off);
    if (n == 0)
        return false;
    const std::uint64_t end = off + n;

    std::vector<std::shared_ptr<FileInfo::PendingWrite>> overlaps;
    for (auto &[poff, pw] : fi->pendingWrites) {
        if (off < poff + pw->data.size() && poff < end)
            overlaps.push_back(pw);
    }
    if (overlaps.empty())
        return false;

    // Fully covered by one buffered write: serve from memory.
    if (overlaps.size() == 1) {
        auto &pw = overlaps[0];
        if (pw->off <= off && off + n <= pw->off + pw->data.size()) {
            pendingReadHits_++;
            const kern::CostModel &c = kernel_.costs();
            const Time cost = kernel_.cpu().scaled(c.userlibSubmitNs
                                                   + c.copyCost(n));
            const Time start = kernel_.eq().now();
            std::memcpy(buf.data(), pw->data.data() + (off - pw->off),
                        n);
            kernel_.eq().after(cost, [start, n, this, cb]() {
                kern::IoTrace tr;
                tr.userNs = kernel_.eq().now() - start;
                cb(static_cast<long long>(n), tr);
            });
            return true;
        }
    }

    // Partial overlap: wait for the overlapping writes to reach the
    // device, then read normally (the device is the point of coherence).
    auto remaining = std::make_shared<std::size_t>(overlaps.size());
    for (auto &pw : overlaps) {
        pw->waiters.push_back([this, tid, fd, buf, off, cb, trace,
                               remaining]() {
            if (--*remaining == 0)
                preadResume(tid, fd, buf, off, cb, trace);
        });
    }
    return true;
}

void
UserLib::drainPendingWrites(int fd, std::function<void()> done)
{
    FileInfo *fi = info(fd);
    if (!fi || fi->pendingWrites.empty()) {
        done();
        return;
    }
    fi->drainWaiters.push_back(std::move(done));
}

void
UserLib::submit(UserQueues &q, const ssd::Command &cmd,
                ssd::CommandDispatcher::CompletionFn &&fn)
{
    // Data commands charge the process's token buckets exactly once
    // (the SQ-full retry loop does not re-charge); flushes are exempt,
    // since caps cover data IOPS/bytes only.
    qos::admit(cmd.op == ssd::Op::Flush ? nullptr : kernel_.qos(),
               proc_.pasid(), 1, cmd.len,
               [this, &q, cmd, fn = std::move(fn)]() mutable {
                   submitNow(q, cmd, std::move(fn));
               });
}

void
UserLib::submitNow(UserQueues &q, const ssd::Command &cmd,
                   ssd::CommandDispatcher::CompletionFn &&fn)
{
    if (q.dispatcher->submit(cmd, std::move(fn)))
        return;
    // SQ full: poll and retry shortly (a refused submit leaves fn intact).
    kernel_.eq().after(500, [this, &q, cmd, fn = std::move(fn)]() mutable {
        submitNow(q, cmd, std::move(fn));
    });
}

void
UserLib::handleFault(int fd, std::function<void()> retryDirect,
                     std::function<void()> fallbackKernel,
                     obs::TraceId trace)
{
    iommuFaults_++;
    if (obs::Tracer *t = kernel_.tracer())
        t->instant(obsTrack(), "bypassd.iommu_fault", trace);
    FileInfo *fi = info(fd);
    if (!fi) {
        fallbackKernel();
        return;
    }
    // Section 3.6 steps 3-5: re-fmap(); VBA 0 means the kernel refuses
    // direct access, so use the kernel interface from now on.
    FmapResult res = module_.fmap(proc_, fi->ino,
                                  (fi->flags & fs::kOpenWrite) != 0);
    kernel_.eq().after(res.cost, [this, fd, res,
                                  retryDirect = std::move(retryDirect),
                                  fallbackKernel
                                  = std::move(fallbackKernel)]() {
        FileInfo *fi = info(fd);
        if (!fi) {
            fallbackKernel();
            return;
        }
        if (res.vba != 0) {
            fi->vba = res.vba;
            fi->slot = res.slot;
            fi->direct = true;
            retryDirect();
        } else {
            fi->direct = false;
            fi->vba = 0;
            fallbackOps_++;
            fallbackKernel();
        }
    });
}

void
UserLib::startDirect(DirectReq &&req, Time submitCost)
{
    const std::uint32_t ri = reqs_.acquire();
    reqs_[ri] = std::move(req);
    kernel_.eq().after(submitCost, [this, ri]() { directSubmit(ri); });
}

kern::IoCb
UserLib::releaseReq(std::uint32_t ri)
{
    kern::IoCb cb = std::move(reqs_[ri].cb);
    reqs_[ri].cb = nullptr;
    reqs_.release(ri);
    return cb;
}

void
UserLib::directRead(Tid tid, int fd, std::span<std::uint8_t> buf,
                    std::uint64_t off, kern::IoCb cb, obs::TraceId trace)
{
    FileInfo *fi = info(fd);
    const Time start = kernel_.eq().now();
    const kern::CostModel &c = kernel_.costs();

    // The locally tracked size can go stale when another process
    // appends (Section 4.5.2 allows shared reads/overwrites). When a
    // read would clip at the cached EOF, revalidate with an fstat-style
    // kernel query before deciding.
    if (off + buf.size() > fi->size) {
        const fs::Inode *node = kernel_.vfs().fs().inode(fi->ino);
        if (node && node->size > fi->size) {
            fi->size = node->size;
            fi->preallocEnd = std::max(fi->preallocEnd, fi->size);
            const Time statCost = kernel_.cpu().scaled(
                c.userToKernelNs + 500 + c.kernelToUserNs);
            kernel_.eq().after(statCost,
                               [this, tid, fd, buf, off, trace,
                                cb = std::move(cb)]() {
                                   directRead(tid, fd, buf, off, cb,
                                              trace);
                               });
            return;
        }
    }

    const std::uint64_t n
        = off >= fi->size
              ? 0
              : std::min<std::uint64_t>(buf.size(), fi->size - off);
    if (n == 0) {
        kernel_.eq().after(kernel_.cpu().scaled(c.userlibSubmitNs),
                           [cb = std::move(cb)]() {
                               cb(0, kern::IoTrace{});
                           });
        return;
    }

    const std::uint64_t aStart = alignDown(off, kSectorBytes);
    const std::uint64_t aEnd = alignUp(off + n, kSectorBytes);
    const std::uint32_t len = static_cast<std::uint32_t>(aEnd - aStart);
    UserQueues &q = uq(tid, fi->slot);
    sim::panicIf(len > q.dmaBuf.size(), "request exceeds DMA buffer");

    directReads_++;
    startDirect({.write = false,
                 .tid = tid,
                 .fd = fd,
                 .rbuf = buf,
                 .off = off,
                 .n = n,
                 .aStart = aStart,
                 .len = len,
                 .q = &q,
                 .start = start,
                 .trace = trace,
                 .cb = std::move(cb)},
                kernel_.cpu().scaled(c.userlibSubmitNs));
}

void
UserLib::directOverwrite(Tid tid, int fd,
                         std::span<const std::uint8_t> buf,
                         std::uint64_t off, kern::IoCb cb,
                         obs::TraceId trace)
{
    FileInfo *fi = info(fd);
    const Time start = kernel_.eq().now();
    const std::uint64_t n = buf.size();
    const kern::CostModel &c = kernel_.costs();
    UserQueues &q = uq(tid, fi->slot);
    sim::panicIf(n > q.dmaBuf.size(), "request exceeds DMA buffer");

    directWrites_++;
    // Copy user data into the pinned DMA buffer, then submit.
    const Time submitCost
        = kernel_.cpu().scaled(c.userlibSubmitNs + c.copyCost(n));
    std::memcpy(q.dmaBuf.data(), buf.data(), n);
    startDirect({.write = true,
                 .tid = tid,
                 .fd = fd,
                 .wbuf = buf,
                 .off = off,
                 .n = n,
                 .aStart = off,
                 .len = static_cast<std::uint32_t>(n),
                 .q = &q,
                 .start = start,
                 .trace = trace,
                 .cb = std::move(cb)},
                submitCost);
}

void
UserLib::directSubmit(std::uint32_t ri)
{
    DirectReq &r = reqs_[ri];
    FileInfo *fi = info(r.fd);
    if (!fi) {
        kern::IoCb cb = releaseReq(ri);
        cb(kern::errOf(fs::FsStatus::Inval), kern::IoTrace{});
        return;
    }
    ssd::Command cmd;
    cmd.op = r.write ? ssd::Op::Write : ssd::Op::Read;
    cmd.addr = fi->vba + r.aStart;
    cmd.addrIsVba = true;
    cmd.len = r.len;
    cmd.dmaIova = r.q->dmaIova;
    cmd.useIova = true;
    cmd.trace = r.trace;
    r.tSubmit = kernel_.eq().now();
    submit(*r.q, cmd, [this, ri](const ssd::Completion &comp) {
        directComplete(ri, comp);
    });
}

void
UserLib::directComplete(std::uint32_t ri, const ssd::Completion &comp)
{
    DirectReq &r = reqs_[ri];
    if (comp.status != ssd::Status::Success) {
        // Fault recovery is the cold path: the retry and fallback
        // closures own copies of the request, so free the slot first.
        const bool write = r.write;
        const Tid tid = r.tid;
        const int fd = r.fd;
        const std::span<std::uint8_t> rbuf = r.rbuf;
        const std::span<const std::uint8_t> wbuf = r.wbuf;
        const std::uint64_t off = r.off;
        const obs::TraceId trace = r.trace;
        kern::IoCb cb = releaseReq(ri);
        if (write) {
            handleFault(
                fd,
                [this, tid, fd, wbuf, off, trace, cb]() {
                    directOverwrite(tid, fd, wbuf, off, cb, trace);
                },
                [this, fd, wbuf, off, trace, cb]() {
                    kernel_.sysPwrite(proc_, fd, wbuf, off, cb, trace);
                },
                trace);
        } else {
            handleFault(
                fd,
                [this, tid, fd, rbuf, off, trace, cb]() {
                    directRead(tid, fd, rbuf, off, cb, trace);
                },
                [this, fd, rbuf, off, trace, cb]() {
                    kernel_.sysPread(proc_, fd, rbuf, off, cb, trace);
                },
                trace);
        }
        return;
    }
    const kern::CostModel &c = kernel_.costs();
    Time post;
    if (r.write) {
        post = kernel_.cpu().scaled(c.userlibCompleteNs);
    } else {
        // Copy from the DMA buffer into the user buffer (the main
        // user-side cost, Fig. 7).
        post = kernel_.cpu().scaled(c.userlibCompleteNs + c.copyCost(r.n));
        std::memcpy(r.rbuf.data(), r.q->dmaBuf.data() + (r.off - r.aStart),
                    r.n);
    }
    r.comp = comp;
    kernel_.eq().after(post, [this, ri]() { directDone(ri); });
}

void
UserLib::directDone(std::uint32_t ri)
{
    const DirectReq &r = reqs_[ri];
    kern::IoTrace tr;
    const Time total = kernel_.eq().now() - r.start;
    if (r.write) {
        // Writes overlap translation with data-in (Section 4.3).
        tr.translateNs = 0;
        tr.deviceNs = r.comp.completeTime - r.tSubmit;
    } else {
        tr.translateNs = r.comp.translateNs;
        tr.deviceNs = r.comp.completeTime - r.tSubmit - r.comp.translateNs;
    }
    tr.userNs = total - tr.deviceNs - tr.translateNs;
    const auto n = static_cast<long long>(r.n);
    // touch() is deferred to close/fsync (Section 4.4); nothing to do
    // per-op.
    kern::IoCb cb = releaseReq(ri);
    cb(n, tr);
}

void
UserLib::partialWrite(Tid tid, int fd, std::span<const std::uint8_t> buf,
                      std::uint64_t off, kern::IoCb cb, obs::TraceId trace)
{
    FileInfo *fi = info(fd);
    const std::uint64_t firstSec = off / kSectorBytes;
    const std::uint64_t lastSec = (off + buf.size() - 1) / kSectorBytes;

    // Serialize overlapping partial writes (Section 4.5.1).
    for (std::uint64_t s = firstSec; s <= lastSec; s++) {
        if (fi->inflightSectors.count(s)) {
            partialSerialized_++;
            FileInfo::PendingPartial pw;
            pw.tid = tid;
            pw.fd = fd;
            pw.data.assign(buf.begin(), buf.end());
            pw.off = off;
            pw.cb = std::move(cb);
            pw.trace = trace;
            fi->pendingPartials.push_back(std::move(pw));
            return;
        }
    }
    for (std::uint64_t s = firstSec; s <= lastSec; s++)
        fi->inflightSectors.insert(s);

    // Read-modify-write of the aligned sector range.
    const std::uint64_t aStart = firstSec * kSectorBytes;
    const std::uint64_t aEnd = (lastSec + 1) * kSectorBytes;
    const std::uint32_t len = static_cast<std::uint32_t>(aEnd - aStart);
    const std::size_t slot = fi->slot;
    sim::panicIf(len > uq(tid, slot).dmaBuf.size(),
                 "RMW exceeds DMA buffer");

    auto data = std::make_shared<std::vector<std::uint8_t>>(buf.begin(),
                                                            buf.end());
    // finish keeps `data` alive: the kernel-fallback paths hand
    // sysPwrite a span into it that is used asynchronously.
    auto finish = [this, fd, firstSec, lastSec, data,
                   cb](long long result, kern::IoTrace tr) {
        FileInfo *fi2 = info(fd);
        if (fi2) {
            for (std::uint64_t s = firstSec; s <= lastSec; s++)
                fi2->inflightSectors.erase(s);
        }
        cb(result, tr);
        drainPendingPartials(fd);
    };

    const Time start = kernel_.eq().now();
    const Time submitCost
        = kernel_.cpu().scaled(kernel_.costs().userlibSubmitNs);
    directWrites_++;
    kernel_.eq().after(submitCost, [this, tid, fd, data, off, aStart, len,
                                    slot, start, trace, finish]() {
        FileInfo *fi2 = info(fd);
        if (!fi2 || !fi2->direct) {
            // Revoked meanwhile: fall back through the kernel.
            kernel_.sysPwrite(
                proc_, fd,
                std::span<const std::uint8_t>(data->data(), data->size()),
                off, finish, trace);
            return;
        }
        ssd::Command rd;
        rd.op = ssd::Op::Read;
        rd.addr = fi2->vba + aStart;
        rd.addrIsVba = true;
        rd.len = len;
        rd.dmaIova = uq(tid, slot).dmaIova;
        rd.useIova = true;
        rd.trace = trace;
        submit(uq(tid, slot), rd,
               [this, tid, fd, data, off, aStart, len, slot,
                start, trace,
                finish](const ssd::Completion &comp) {
            if (comp.status != ssd::Status::Success) {
                handleFault(
                    fd,
                    [this, fd, data, off, start, trace, finish]() {
                        // Retry whole RMW from scratch via the kernel
                        // path so serialization state stays sound.
                        (void)start;
                        kernel_.sysPwrite(
                            proc_, fd,
                            std::span<const std::uint8_t>(data->data(),
                                                          data->size()),
                            off, finish, trace);
                    },
                    [this, fd, data, off, trace, finish]() {
                        kernel_.sysPwrite(
                            proc_, fd,
                            std::span<const std::uint8_t>(data->data(),
                                                          data->size()),
                            off, finish, trace);
                    },
                    trace);
                return;
            }
            FileInfo *fi3 = info(fd);
            if (!fi3) {
                finish(kern::errOf(fs::FsStatus::Inval), kern::IoTrace{});
                return;
            }
            // Modify the staged sectors with the user bytes.
            std::memcpy(uq(tid, slot).dmaBuf.data() + (off - aStart),
                        data->data(), data->size());
            const Time modCost = kernel_.cpu().scaled(
                kernel_.costs().copyCost(data->size()));
            kernel_.eq().after(modCost, [this, tid, fd, data, off, aStart,
                                         len, slot, start, trace,
                                         finish]() {
                FileInfo *fi4 = info(fd);
                if (!fi4) {
                    finish(kern::errOf(fs::FsStatus::Inval),
                           kern::IoTrace{});
                    return;
                }
                ssd::Command wr;
                wr.op = ssd::Op::Write;
                wr.addr = fi4->vba + aStart;
                wr.addrIsVba = true;
                wr.len = len;
                wr.dmaIova = uq(tid, slot).dmaIova;
                wr.useIova = true;
                wr.trace = trace;
                submit(uq(tid, slot), wr,
                       [this, data, start, finish](
                           const ssd::Completion &c2) {
                    kern::IoTrace tr;
                    tr.userNs = kernel_.costs().userlibCompleteNs;
                    tr.deviceNs = kernel_.eq().now() - start;
                    finish(c2.status == ssd::Status::Success
                               ? static_cast<long long>(data->size())
                               : devErrno(c2.status),
                           tr);
                });
            });
        });
    });
}

void
UserLib::drainPendingPartials(int fd)
{
    FileInfo *fi = info(fd);
    if (!fi || fi->pendingPartials.empty())
        return;
    // Re-dispatch the first pending write whose sectors are now free.
    for (auto it = fi->pendingPartials.begin();
         it != fi->pendingPartials.end(); ++it) {
        const std::uint64_t firstSec = it->off / kSectorBytes;
        const std::uint64_t lastSec
            = (it->off + it->data.size() - 1) / kSectorBytes;
        bool blocked = false;
        for (std::uint64_t s = firstSec; s <= lastSec; s++) {
            if (fi->inflightSectors.count(s)) {
                blocked = true;
                break;
            }
        }
        if (blocked)
            continue;
        FileInfo::PendingPartial pw = std::move(*it);
        fi->pendingPartials.erase(it);
        auto data = std::make_shared<std::vector<std::uint8_t>>(
            std::move(pw.data));
        pwriteResume(
            pw.tid, pw.fd,
            std::span<const std::uint8_t>(data->data(), data->size()),
            pw.off,
            [data, cb = std::move(pw.cb)](long long n, kern::IoTrace tr) {
                cb(n, tr);
            },
            pw.trace);
        return;
    }
}

void
UserLib::appendWrite(Tid tid, int fd, std::span<const std::uint8_t> buf,
                     std::uint64_t off, kern::IoCb cb, obs::TraceId trace)
{
    FileInfo *fi = info(fd);
    appendsRouted_++;

    if (cfg_.optimizedAppend) {
        // Section 5.1: pre-allocate with fallocate(), then issue the
        // append as a direct overwrite into the pre-allocated blocks.
        if (off + buf.size() <= fi->preallocEnd) {
            fi->size = std::max(fi->size, off + buf.size());
            if ((off % kSectorBytes) != 0
                || (buf.size() % kSectorBytes) != 0)
                partialWrite(tid, fd, buf, off, std::move(cb), trace);
            else
                directOverwrite(tid, fd, buf, off, std::move(cb), trace);
            return;
        }
        const std::uint64_t chunk = std::max<std::uint64_t>(
            cfg_.appendPreallocBytes, buf.size());
        kernel_.sysFallocate(
            proc_, fd, fi->preallocEnd, chunk,
            [this, tid, fd, buf, off, chunk, trace,
             cb = std::move(cb)](int rc) {
                FileInfo *fi2 = info(fd);
                if (rc < 0 || !fi2) {
                    cb(rc, kern::IoTrace{});
                    return;
                }
                fi2->preallocEnd += chunk;
                // fallocate extended the inode size; keep padding
                // invisible by tracking the logical size locally.
                appendWrite(tid, fd, buf, off, cb, trace);
            });
        return;
    }

    // Default: route the append through the kernel (Table 3); the kernel
    // allocates blocks, attaches new FTEs and writes unbuffered.
    fs::Inode *node = kernel_.vfs().fs().inode(fi->ino);
    sim::panicIf(node == nullptr, "append on dead inode");
    kernel_.appendPath(
        proc_, *node, buf, off,
        [this, fd, cb = std::move(cb)](long long n, kern::IoTrace tr) {
            FileInfo *fi2 = info(fd);
            if (fi2 && n > 0) {
                const fs::Inode *node2
                    = kernel_.vfs().fs().inode(fi2->ino);
                if (node2)
                    fi2->size = node2->size;
                fi2->preallocEnd = std::max(fi2->preallocEnd, fi2->size);
            }
            cb(n, tr);
        },
        trace);
}

void
UserLib::fsync(Tid tid, int fd, kern::IntCb cb)
{
    FileInfo *fi = info(fd);
    if (!fi) {
        kernel_.eq().after(kernel_.costs().userlibSubmitNs,
                           [cb = std::move(cb)]() {
                               cb(kern::errOf(fs::FsStatus::Inval));
                           });
        return;
    }
    if (!fi->direct) {
        kernel_.sysFsync(proc_, fd, std::move(cb));
        return;
    }
    // Drain non-blocking writes, flush this thread's queue (NVMe
    // flush), then forward to the kernel for the metadata flush
    // (Table 3 / Section 5.1).
    const std::size_t slot = fi->slot;
    drainPendingWrites(fd, [this, tid, fd, slot, cb = std::move(cb)]() {
        ssd::Command cmd;
        cmd.op = ssd::Op::Flush;
        cmd.addrIsVba = false;
        submit(uq(tid, slot), cmd,
               [this, fd, cb](const ssd::Completion &) {
            kernel_.sysFsync(proc_, fd, cb);
        });
    });
}

void
UserLib::fallocate(int fd, std::uint64_t off, std::uint64_t len,
                   kern::IntCb cb)
{
    kernel_.sysFallocate(proc_, fd, off, len,
                         [this, fd, cb = std::move(cb)](int rc) {
                             FileInfo *fi = info(fd);
                             if (fi && rc == 0) {
                                 const fs::Inode *node
                                     = kernel_.vfs().fs().inode(fi->ino);
                                 if (node) {
                                     fi->size = node->size;
                                     fi->preallocEnd = std::max(
                                         fi->preallocEnd, fi->size);
                                 }
                             }
                             cb(rc);
                         });
}

void
UserLib::ftruncate(int fd, std::uint64_t size, kern::IntCb cb)
{
    kernel_.sysFtruncate(proc_, fd, size,
                         [this, fd, size, cb = std::move(cb)](int rc) {
                             FileInfo *fi = info(fd);
                             if (fi && rc == 0) {
                                 fi->size = size;
                                 fi->preallocEnd = std::min(
                                     fi->preallocEnd, size);
                             }
                             cb(rc);
                         });
}

} // namespace bpd::bypassd
