#include "kern/kernel.hpp"

#include <algorithm>
#include <cstring>

#include "qos/qos.hpp"
#include "sim/logging.hpp"
#include "sim/random.hpp"

namespace bpd::kern {

using fs::kOpenAppend;
using fs::kOpenCreate;
using fs::kOpenDirect;
using fs::kOpenRead;
using fs::kOpenTrunc;
using fs::kOpenWrite;

namespace {

/** Non-const view for device DMA sources (the device only reads them). */
std::span<std::uint8_t>
unconst(std::span<const std::uint8_t> s)
{
    return {const_cast<std::uint8_t *>(s.data()), s.size()};
}

} // namespace

int
devErr(ssd::Status st)
{
    return errOf(st == ssd::Status::DeviceEvicted ? fs::FsStatus::NoDev
                                                  : fs::FsStatus::Inval);
}

void
emitRequest(obs::Tracer &t, std::uint16_t track, const char *name,
            obs::TraceId trace, Time start, const IoTrace &tr,
            std::uint64_t bytes)
{
    obs::RequestBreakdown b;
    b.userNs = tr.userNs;
    b.kernelNs = tr.kernelNs;
    b.translateNs = tr.translateNs;
    b.deviceNs = tr.deviceNs;
    b.bytes = bytes;
    t.request(track, name, trace, start, t.now(), b);
}

IoCb
traceRequest(obs::Tracer &t, std::uint16_t track, const char *name,
             obs::TraceId trace, IoCb cb)
{
    return [&t, track, name, trace, start = t.now(),
            cb = std::move(cb)](long long n, IoTrace tr) {
        emitRequest(t, track, name, trace, start, tr,
                    n > 0 ? static_cast<std::uint64_t>(n) : 0);
        cb(n, tr);
    };
}

Kernel::Kernel(sim::EventQueue &eq, mem::FrameAllocator &fa,
               iommu::Iommu &iommu, fs::Vfs &vfs, ssd::NvmeDevice &dev,
               CostModel costs, KernelConfig cfg)
    : eq_(eq), fa_(fa), iommu_(iommu), vfs_(vfs), dev_(dev), costs_(costs),
      cpu_(cfg.hwThreads), pageCache_(cfg.pageCacheBytes)
{
    kernelQueueDepth_ = cfg.kernelQueueDepth;
    attachSlot(dev_, iommu_, 0);
}

void
Kernel::attachSlot(ssd::NvmeDevice &dev, iommu::Iommu &iommu,
                   std::uint64_t base)
{
    if (slotBytes_ == 0 && !slots_.empty()) {
        sim::panicIf(base == 0, "slot 1 must have a nonzero base");
        slotBytes_ = base;
    }
    sim::panicIf(base != slots_.size() * slotBytes_,
                 "attachSlot: non-uniform slot base");
    auto kq = dev.openQueue(kNoPasid, kernelQueueDepth_, /*vbaMode=*/false);
    sim::panicIf(kq == nullptr, "kernel queue creation failed");
    slots_.push_back(Slot{&dev, &iommu, base, std::move(kq)});
    // Bind every live process into the new slot's IOMMU in pid order —
    // hot-plug rebuilds mappings deterministically.
    std::vector<Pid> pids;
    pids.reserve(procs_.size());
    for (const auto &[pid, proc] : procs_)
        pids.push_back(pid);
    std::sort(pids.begin(), pids.end());
    for (Pid pid : pids) {
        Process &p = *procs_[pid];
        iommu.bindPasid(p.pasid(), &p.aspace().pageTable());
    }
}

Process &
Kernel::createProcess(fs::Credentials creds)
{
    const Pid pid = nextPid_++;
    auto proc = std::make_unique<Process>(pid, creds, fa_);
    Process &ref = *proc;
    procs_[pid] = std::move(proc);
    for (Slot &s : slots_)
        s.iommu->bindPasid(ref.pasid(), &ref.aspace().pageTable());
    return ref;
}

void
Kernel::destroyProcess(Pid pid)
{
    auto it = procs_.find(pid);
    if (it == procs_.end())
        return;
    for (Slot &s : slots_)
        s.iommu->unbindPasid(it->second->pasid());
    procs_.erase(it);
}

Process *
Kernel::process(Pid pid)
{
    auto it = procs_.find(pid);
    return it == procs_.end() ? nullptr : it->second.get();
}

void
Kernel::forEachProcess(const std::function<void(Process &)> &fn)
{
    for (auto &[pid, proc] : procs_)
        fn(*proc);
}

std::uint16_t
Kernel::ktrack(Pid pid)
{
    auto it = obsTracks_.find(pid);
    if (it != obsTracks_.end())
        return it->second;
    const std::uint16_t t
        = trace_->track("kern.p" + std::to_string(pid));
    obsTracks_[pid] = t;
    return t;
}

fs::FsStatus
Kernel::setNamespaceRoot(Process &p, const std::string &root)
{
    InodeNum ino;
    fs::FsStatus st = vfs_.fs().resolve(root, &ino);
    if (st == fs::FsStatus::NoEnt)
        st = vfs_.fs().mkdir(root, 0777, fs::Credentials{0, 0}, &ino);
    if (st != fs::FsStatus::Ok)
        return st;
    if (!vfs_.fs().inode(ino)->isDir())
        return fs::FsStatus::NotDir;
    p.nsRoot = root;
    return fs::FsStatus::Ok;
}

std::string
Kernel::nsPath(const Process &p, const std::string &path) const
{
    if (p.nsRoot.empty())
        return path;
    return p.nsRoot + path;
}

void
Kernel::deviceIo(ssd::Op op, std::vector<fs::Seg> segs,
                 std::span<std::uint8_t> buf,
                 std::function<void(ssd::Status, Time)> cb,
                 obs::TraceId trace, TenantId tenant)
{
    // QoS: charge the tenant before touching any device queue; an
    // over-limit I/O parks whole and issues in order on refill.
    // Flushes do not pass through deviceIo, so every call here is
    // data-path ops/bytes; an empty I/O is not charged.
    std::uint64_t bytes = 0;
    for (const auto &seg : segs)
        bytes += seg.len;
    const std::size_t ops = segs.size();
    qos::admit(ops ? qos_ : nullptr, tenant, ops, bytes,
               [this, op, segs = std::move(segs), buf, cb = std::move(cb),
                trace, tenant]() mutable {
        struct Agg
        {
            std::size_t remaining;
            ssd::Status worst = ssd::Status::Success;
            Time start;
            std::function<void(ssd::Status, Time)> cb;
        };
        auto agg = std::make_shared<Agg>();
        agg->remaining = segs.size();
        agg->start = eq_.now();
        agg->cb = std::move(cb);
        if (segs.empty()) {
            eq_.after(0, [agg]() { agg->cb(ssd::Status::Success, 0); });
            return;
        }
        std::uint64_t off = 0;
        for (const auto &seg : segs) {
            // Route by volume address: the placement layer guarantees
            // an extent never straddles a slot, so one seg is one
            // device.
            Slot &slot = slots_[slotOf(seg.addr)];
            sim::panicIf(slotOf(seg.addr)
                             != slotOf(seg.addr + seg.len - 1),
                         "deviceIo seg straddles a device slot");
            ssd::Command cmd;
            cmd.op = op;
            cmd.addr = seg.addr - slot.base;
            cmd.addrIsVba = false;
            cmd.len = static_cast<std::uint32_t>(seg.len);
            cmd.hostBuf = buf.subspan(off, seg.len);
            cmd.trace = trace;
            cmd.tenant = tenant;
            off += seg.len;
            const bool ok = slot.kq->submit(
                cmd, [this, agg](const ssd::Completion &c) {
                    if (c.status != ssd::Status::Success)
                        agg->worst = c.status;
                    if (--agg->remaining == 0)
                        agg->cb(agg->worst, eq_.now() - agg->start);
                });
            sim::panicIf(!ok, "kernel queue overflow");
        }
    });
}

void
Kernel::sysOpen(Process &p, const std::string &path, std::uint32_t flags,
                std::uint16_t mode, IntCb cb)
{
    noteSyscall(p);
    const Time cost = cpu_.scaled(costs_.userToKernelNs + costs_.openBaseNs
                                  + costs_.kernelToUserNs);
    eq_.after(cost, [this, &p, path = nsPath(p, path), flags, mode,
                     cb = std::move(cb)]() {
        TenantScope ts(*this, p.pasid());
        InodeNum ino;
        fs::FsStatus st = vfs_.open(path, flags, mode, p.creds(), &ino);
        if (st != fs::FsStatus::Ok) {
            cb(errOf(st));
            return;
        }
        fs::Inode *node = vfs_.fs().inode(ino);
        if (!(flags & kOpenBypassdIntent)) {
            node->kernelOpens++;
            if (hooks_)
                hooks_->onKernelOpen(*node);
        }
        if ((flags & kOpenTrunc) && (flags & kOpenWrite)) {
            if (hooks_) {
                hooks_->onTruncated(*node);
                hooks_->onMetadataChange(*node, p.pid());
            }
        }
        OpenFile of;
        of.ino = ino;
        of.flags = flags;
        of.path = path;
        cb(p.installFd(std::move(of)));
    });
}

void
Kernel::sysClose(Process &p, int fd, IntCb cb)
{
    noteSyscall(p);
    const Time cost = cpu_.scaled(costs_.userToKernelNs + 300
                                  + costs_.kernelToUserNs);
    eq_.after(cost, [this, &p, fd, cb = std::move(cb)]() {
        TenantScope ts(*this, p.pasid());
        OpenFile *of = p.file(fd);
        if (!of) {
            cb(errOf(fs::FsStatus::Inval));
            return;
        }
        fs::Inode *node = vfs_.fs().inode(of->ino);
        if (node) {
            // Deferred timestamp update lands at close (Section 4.4).
            vfs_.fs().fsyncMeta(*node);
            if (!(of->flags & kOpenBypassdIntent) && node->kernelOpens > 0)
                node->kernelOpens--;
        }
        p.removeFd(fd);
        cb(0);
    });
}

void
Kernel::sysPread(Process &p, int fd, std::span<std::uint8_t> buf,
                 std::uint64_t off, IoCb cb, obs::TraceId trace)
{
    noteSyscall(p);
    if (trace_ && trace == 0) {
        trace = trace_->newTrace(p.pasid());
        cb = traceRequest(*trace_, ktrack(p.pid()), "sync.pread", trace,
                          std::move(cb));
    }
    OpenFile *of = p.file(fd);
    if (!of || !(of->flags & kOpenRead)) {
        eq_.after(costs_.userToKernelNs, [cb = std::move(cb)]() {
            cb(errOf(fs::FsStatus::Inval), IoTrace{});
        });
        return;
    }
    fs::Inode *node = vfs_.fs().inode(of->ino);
    sim::panicIf(node == nullptr, "open fd with dead inode");
    if (of->flags & kOpenDirect)
        directRead(p, *node, buf, off, std::move(cb), trace);
    else
        bufferedRead(p, *node, buf, off, std::move(cb), trace);
}

void
Kernel::sysPwrite(Process &p, int fd, std::span<const std::uint8_t> buf,
                  std::uint64_t off, IoCb cb, obs::TraceId trace)
{
    noteSyscall(p);
    if (trace_ && trace == 0) {
        trace = trace_->newTrace(p.pasid());
        cb = traceRequest(*trace_, ktrack(p.pid()), "sync.pwrite", trace,
                          std::move(cb));
    }
    OpenFile *of = p.file(fd);
    if (!of || !(of->flags & kOpenWrite)) {
        eq_.after(costs_.userToKernelNs, [cb = std::move(cb)]() {
            cb(errOf(fs::FsStatus::Inval), IoTrace{});
        });
        return;
    }
    fs::Inode *node = vfs_.fs().inode(of->ino);
    sim::panicIf(node == nullptr, "open fd with dead inode");
    if (of->flags & kOpenDirect)
        directWrite(p, *node, buf, off, std::move(cb), trace);
    else
        bufferedWrite(p, *node, buf, off, std::move(cb), trace);
}

void
Kernel::sysRead(Process &p, int fd, std::span<std::uint8_t> buf, IoCb cb)
{
    OpenFile *of = p.file(fd);
    const std::uint64_t off = of ? of->offset : 0;
    sysPread(p, fd, buf, off,
             [&p, fd, cb = std::move(cb)](long long n, IoTrace tr) {
                 if (n > 0) {
                     if (OpenFile *f = p.file(fd))
                         f->offset += static_cast<std::uint64_t>(n);
                 }
                 cb(n, tr);
             });
}

void
Kernel::sysWrite(Process &p, int fd, std::span<const std::uint8_t> buf,
                 IoCb cb)
{
    OpenFile *of = p.file(fd);
    const std::uint64_t off = of ? of->offset : 0;
    sysPwrite(p, fd, buf, off,
              [&p, fd, cb = std::move(cb)](long long n, IoTrace tr) {
                  if (n > 0) {
                      if (OpenFile *f = p.file(fd))
                          f->offset += static_cast<std::uint64_t>(n);
                  }
                  cb(n, tr);
              });
}

void
Kernel::directRead(Process &p, fs::Inode &ino, std::span<std::uint8_t> buf,
                   std::uint64_t off, IoCb cb, obs::TraceId trace)
{
    const Pid pid = p.pid();
    const TenantId tenant = p.pasid();
    const Time start = eq_.now();
    const std::uint64_t n
        = off >= ino.size
              ? 0
              : std::min<std::uint64_t>(buf.size(), ino.size - off);
    if (n == 0) {
        const Time cost = cpu_.scaled(costs_.userToKernelNs
                                      + costs_.vfsBufferedNs
                                      + costs_.kernelToUserNs);
        eq_.after(cost, [cb = std::move(cb), cost]() {
            IoTrace tr;
            tr.kernelNs = cost;
            cb(0, tr);
        });
        return;
    }

    const Time submitCost
        = cpu_.scaled(costs_.userToKernelNs + costs_.vfsCost(n)
                      + costs_.blockLayerNs + costs_.nvmeDriverNs);
    eq_.after(submitCost, [this, &ino, buf, off, n, start, pid, tenant,
                           trace, cb = std::move(cb)]() mutable {
        TenantScope ts(*this, tenant);
        if (trace_ && trace_->wants(obs::Level::Layers)) {
            // Syscall entry through driver submit (Table 1 rows 1-4).
            trace_->span(ktrack(pid), "kern.vfs_submit", trace, start,
                         eq_.now());
        }
        // Device I/O happens on the sector-aligned envelope; unaligned
        // requests bounce through a kernel buffer.
        const std::uint64_t aStart = off & ~(kSectorBytes - 1);
        const std::uint64_t aEnd
            = (off + n + kSectorBytes - 1) & ~(kSectorBytes - 1);
        const bool aligned = (aStart == off) && (aEnd == off + n);
        std::vector<fs::Seg> segs;
        fs::FsStatus st = vfs_.fs().mapRange(ino, aStart, aEnd - aStart,
                                             &segs);
        if (st != fs::FsStatus::Ok) {
            cb(errOf(st), IoTrace{});
            return;
        }
        std::shared_ptr<std::vector<std::uint8_t>> bounce;
        std::span<std::uint8_t> target = buf.subspan(0, n);
        if (!aligned) {
            bounce = std::make_shared<std::vector<std::uint8_t>>(
                aEnd - aStart);
            target = std::span<std::uint8_t>(*bounce);
        }
        deviceIo(
            ssd::Op::Read, std::move(segs), target,
            [this, buf, off, n, aStart, bounce, start, pid, tenant, trace,
             &ino, cb = std::move(cb)](ssd::Status dst, Time devNs) {
                if (bounce) {
                    std::memcpy(buf.data(),
                                bounce->data() + (off - aStart), n);
                }
                TenantScope ts(*this, tenant);
                vfs_.fs().touch(ino, false);
                const Time exitCost
                    = cpu_.scaled(costs_.kernelToUserNs);
                const Time exitStart = eq_.now();
                eq_.after(exitCost, [n, start, exitStart, pid, trace,
                                     devNs, dst, this,
                                     cb = std::move(cb)]() {
                    if (trace_ && trace_->wants(obs::Level::Layers)) {
                        trace_->span(ktrack(pid), "kern.exit", trace,
                                     exitStart, eq_.now());
                    }
                    IoTrace tr;
                    const Time total = eq_.now() - start;
                    tr.deviceNs = devNs;
                    tr.kernelNs = total - devNs;
                    cb(dst == ssd::Status::Success
                           ? static_cast<long long>(n)
                           : devErr(dst),
                       tr);
                });
            },
            trace, tenant);
    });
}

void
Kernel::directWrite(Process &p, fs::Inode &ino,
                    std::span<const std::uint8_t> buf, std::uint64_t off,
                    IoCb cb, obs::TraceId trace)
{
    const Pid pid = p.pid();
    const TenantId tenant = p.pasid();
    TenantScope ts(*this, tenant); // covers the synchronous extendTo
    const Time start = eq_.now();
    const std::uint64_t n = buf.size();
    if (n == 0) {
        eq_.after(costs_.userToKernelNs, [cb = std::move(cb)]() {
            cb(0, IoTrace{});
        });
        return;
    }

    // Extension (append): allocate + zero new blocks first (Table 3).
    const bool extends = off + n > ino.size;
    Time allocCost = 0;
    if (extends) {
        std::vector<fs::Extent> added;
        fs::FsStatus st = vfs_.fs().extendTo(ino, off + n, &added);
        if (st != fs::FsStatus::Ok) {
            eq_.after(costs_.userToKernelNs,
                      [cb = std::move(cb), st]() {
                          cb(errOf(st), IoTrace{});
                      });
            return;
        }
        allocCost = added.size() * costs_.allocPerExtentNs;
        if (hooks_) {
            if (!added.empty())
                hooks_->onExtentsAdded(ino, added);
            hooks_->onMetadataChange(ino, p.pid());
        }
    }

    // ext4 per-inode exclusive write lock: kernel-interface writes to the
    // same file serialize through the VFS/ext4 section (Section 6.5).
    const Time entry = eq_.now() + cpu_.scaled(costs_.userToKernelNs);
    const Time lockAt = std::max(entry, ino.writeLockFreeAt);
    const Time vfsDone
        = lockAt + cpu_.scaled(costs_.vfsCost(n) + allocCost);
    ino.writeLockFreeAt = vfsDone;
    const Time submitAt
        = vfsDone
          + cpu_.scaled(costs_.blockLayerNs + costs_.nvmeDriverNs);

    eq_.schedule(submitAt, [this, &ino, buf, off, n, start, pid, tenant,
                            trace, cb = std::move(cb)]() mutable {
        TenantScope ts(*this, tenant);
        if (trace_ && trace_->wants(obs::Level::Layers)) {
            // Includes any wait on the per-inode ext4 write lock.
            trace_->span(ktrack(pid), "kern.vfs_submit", trace, start,
                         eq_.now());
        }
        const std::uint64_t aStart = off & ~(kSectorBytes - 1);
        const std::uint64_t aEnd
            = (off + n + kSectorBytes - 1) & ~(kSectorBytes - 1);
        const bool aligned = (aStart == off) && (aEnd == off + n);
        std::vector<fs::Seg> segs;
        fs::FsStatus st = vfs_.fs().mapRange(ino, aStart, aEnd - aStart,
                                             &segs);
        if (st != fs::FsStatus::Ok) {
            cb(errOf(st), IoTrace{});
            return;
        }

        auto finish = [this, n, start, pid, tenant, trace, &ino,
                       cb = std::move(cb)](ssd::Status dst, Time devNs) {
            TenantScope ts(*this, tenant);
            vfs_.fs().touch(ino, true);
            const Time exitCost = cpu_.scaled(costs_.kernelToUserNs);
            const Time exitStart = eq_.now();
            eq_.after(exitCost, [this, n, start, exitStart, pid, trace,
                                 devNs, dst, cb = std::move(cb)]() {
                if (trace_ && trace_->wants(obs::Level::Layers)) {
                    trace_->span(ktrack(pid), "kern.exit", trace,
                                 exitStart, eq_.now());
                }
                IoTrace tr;
                const Time total = eq_.now() - start;
                tr.deviceNs = devNs;
                tr.kernelNs = total - devNs;
                cb(dst == ssd::Status::Success
                       ? static_cast<long long>(n)
                       : devErr(dst),
                   tr);
            });
        };

        if (aligned) {
            deviceIo(ssd::Op::Write, std::move(segs), unconst(buf),
                     std::move(finish), trace, tenant);
            return;
        }
        // Unaligned: read-modify-write of the sector envelope through a
        // kernel bounce buffer.
        auto bounce = std::make_shared<std::vector<std::uint8_t>>(
            aEnd - aStart);
        auto write = [this, segs, bounce, buf, off, n, aStart, trace,
                      tenant, finish = std::move(finish)](
                         ssd::Status rst, Time rdevNs) mutable {
            if (rst != ssd::Status::Success) {
                finish(rst, rdevNs);
                return;
            }
            std::memcpy(bounce->data() + (off - aStart), buf.data(), n);
            deviceIo(ssd::Op::Write, std::move(segs),
                     std::span<std::uint8_t>(*bounce),
                     [bounce, rdevNs, finish = std::move(finish)](
                         ssd::Status wst, Time wdevNs) {
                         finish(wst, rdevNs + wdevNs);
                     },
                     trace, tenant);
        };
        deviceIo(ssd::Op::Read, std::move(segs),
                 std::span<std::uint8_t>(*bounce), std::move(write), trace,
                 tenant);
    });
}

void
Kernel::bufferedRead(Process &p, fs::Inode &ino,
                     std::span<std::uint8_t> buf, std::uint64_t off,
                     IoCb cb, obs::TraceId trace)
{
    const TenantId tenant = p.pasid();
    TenantScope ts(*this, tenant); // covers the miss-detection lookups
    const Time start = eq_.now();
    const std::uint64_t n
        = off >= ino.size
              ? 0
              : std::min<std::uint64_t>(buf.size(), ino.size - off);

    const std::uint64_t firstPage = off / kBlockBytes;
    const std::uint64_t lastPage
        = n ? (off + n - 1) / kBlockBytes : firstPage;
    const std::uint64_t pages = n ? lastPage - firstPage + 1 : 0;

    Time cost = costs_.userToKernelNs + costs_.vfsBufferedNs
                + pages * costs_.pageCacheLookupNs + costs_.copyCost(n);

    // Identify misses and fetch them from the device.
    struct MissFetch
    {
        std::uint64_t pageIdx;
        std::vector<fs::Seg> segs;
    };
    std::vector<std::uint64_t> misses;
    for (std::uint64_t pg = firstPage; pg < firstPage + pages; pg++) {
        if (!pageCache_.find(ino.ino, pg))
            misses.push_back(pg);
    }

    auto finish = [this, &ino, buf, off, n, start, tenant,
                   cb = std::move(cb)]() {
        TenantScope ts(*this, tenant);
        // Functional copy from cache pages into the user buffer.
        std::uint64_t done = 0;
        while (done < n) {
            const std::uint64_t cur = off + done;
            const std::uint64_t pg = cur / kBlockBytes;
            const std::size_t pgOff = cur % kBlockBytes;
            const std::size_t chunk = std::min<std::uint64_t>(
                n - done, kBlockBytes - pgOff);
            fs::PageCache::Page *page = pageCache_.find(ino.ino, pg);
            sim::panicIf(page == nullptr, "buffered read lost page");
            std::memcpy(buf.data() + done, page->data.data() + pgOff,
                        chunk);
            done += chunk;
        }
        vfs_.fs().touch(ino, false);
        IoTrace tr;
        tr.kernelNs = eq_.now() - start + cpu_.scaled(costs_.kernelToUserNs);
        eq_.after(cpu_.scaled(costs_.kernelToUserNs),
                  [n, tr, cb = std::move(cb)]() mutable {
                      cb(static_cast<long long>(n), tr);
                  });
    };

    if (misses.empty()) {
        eq_.after(cpu_.scaled(cost), finish);
        return;
    }

    // Fetch all missing pages, then complete.
    eq_.after(cpu_.scaled(cost), [this, &ino, misses, trace, tenant,
                                  finish = std::move(finish)]() mutable {
        auto remaining = std::make_shared<std::size_t>(misses.size());
        for (std::uint64_t pg : misses) {
            auto scratch = std::make_shared<
                std::vector<std::uint8_t>>(kBlockBytes, 0);
            auto installPage = [this, &ino, pg, scratch, remaining,
                                tenant, finish]() {
                TenantScope ts(*this, tenant);
                std::unique_ptr<fs::PageCache::Page> evicted;
                fs::PageCache::Page *page
                    = pageCache_.insert(ino.ino, pg, &evicted);
                std::memcpy(page->data.data(), scratch->data(),
                            kBlockBytes);
                if (evicted) {
                    // Write back a dirty victim asynchronously, billed
                    // to the tenant that last touched the page.
                    const TenantId vt = evicted->tenant;
                    std::vector<fs::Seg> vsegs;
                    if (vfs_.fs().mapRange(ino, evicted->index
                                                    * kBlockBytes,
                                           kBlockBytes, &vsegs)
                        == fs::FsStatus::Ok) {
                        auto keep = std::make_shared<
                            std::unique_ptr<fs::PageCache::Page>>(
                            std::move(evicted));
                        deviceIo(ssd::Op::Write, std::move(vsegs),
                                 std::span<std::uint8_t>(
                                     (*keep)->data.data(), kBlockBytes),
                                 [keep](ssd::Status, Time) {}, 0, vt);
                    }
                }
                if (--*remaining == 0)
                    finish();
            };
            // Files are always fully mapped up to logicalEnd; a page past
            // that is beyond EOF and reads as zeros.
            if (pg >= ino.extents.logicalEnd()) {
                eq_.after(0, installPage);
                continue;
            }
            std::vector<fs::Seg> segs;
            fs::FsStatus st = vfs_.fs().mapRange(ino, pg * kBlockBytes,
                                                 kBlockBytes, &segs);
            sim::panicIf(st != fs::FsStatus::Ok,
                         "mapped page failed mapRange");
            deviceIo(ssd::Op::Read, std::move(segs),
                     std::span<std::uint8_t>(scratch->data(), kBlockBytes),
                     [installPage](ssd::Status, Time) { installPage(); },
                     trace, tenant);
        }
    });
}

void
Kernel::bufferedWrite(Process &p, fs::Inode &ino,
                      std::span<const std::uint8_t> buf, std::uint64_t off,
                      IoCb cb, obs::TraceId trace)
{
    (void)trace; // buffered writes complete in the page cache
    const TenantId tenant = p.pasid();
    TenantScope ts(*this, tenant); // covers the synchronous extendTo
    const Time start = eq_.now();
    const std::uint64_t n = buf.size();

    // Allocate backing blocks up front (simplified delayed allocation).
    if (off + n > ino.size) {
        std::vector<fs::Extent> added;
        fs::FsStatus st = vfs_.fs().extendTo(ino, off + n, &added);
        if (st != fs::FsStatus::Ok) {
            eq_.after(costs_.userToKernelNs, [cb = std::move(cb), st]() {
                cb(errOf(st), IoTrace{});
            });
            return;
        }
        if (hooks_) {
            if (!added.empty())
                hooks_->onExtentsAdded(ino, added);
            hooks_->onMetadataChange(ino, p.pid());
        }
    }

    const std::uint64_t firstPage = off / kBlockBytes;
    const std::uint64_t lastPage = n ? (off + n - 1) / kBlockBytes : firstPage;
    const std::uint64_t pages = n ? lastPage - firstPage + 1 : 0;
    const Time cost = costs_.userToKernelNs + costs_.vfsBufferedNs
                      + pages * costs_.pageCacheLookupNs
                      + costs_.copyCost(n) + costs_.kernelToUserNs;

    eq_.after(cpu_.scaled(cost), [this, &ino, buf, off, n, start, tenant,
                                  cb = std::move(cb)]() {
        TenantScope ts(*this, tenant);
        std::uint64_t done = 0;
        while (done < n) {
            const std::uint64_t cur = off + done;
            const std::uint64_t pg = cur / kBlockBytes;
            const std::size_t pgOff = cur % kBlockBytes;
            const std::size_t chunk = std::min<std::uint64_t>(
                n - done, kBlockBytes - pgOff);
            std::unique_ptr<fs::PageCache::Page> evicted;
            fs::PageCache::Page *page
                = pageCache_.insert(ino.ino, pg, &evicted);
            if (evicted) {
                const TenantId vt = evicted->tenant;
                std::vector<fs::Seg> vsegs;
                if (vfs_.fs().mapRange(ino,
                                       evicted->index * kBlockBytes,
                                       kBlockBytes, &vsegs)
                    == fs::FsStatus::Ok) {
                    auto keep = std::make_shared<
                        std::unique_ptr<fs::PageCache::Page>>(
                        std::move(evicted));
                    deviceIo(ssd::Op::Write, std::move(vsegs),
                             std::span<std::uint8_t>((*keep)->data.data(),
                                                     kBlockBytes),
                             [keep](ssd::Status, Time) {}, 0, vt);
                }
            }
            std::memcpy(page->data.data() + pgOff, buf.data() + done,
                        chunk);
            page->dirty = true;
            done += chunk;
        }
        vfs_.fs().touch(ino, true);
        IoTrace tr;
        tr.kernelNs = eq_.now() - start;
        cb(static_cast<long long>(n), tr);
    });
}

void
Kernel::writebackDirty(fs::Inode &ino, std::function<void(Time)> done)
{
    auto dirty = pageCache_.collectDirty(ino.ino);
    if (dirty.empty()) {
        done(0);
        return;
    }
    const Time start = eq_.now();
    auto remaining = std::make_shared<std::size_t>(dirty.size());
    for (fs::PageCache::Page *page : dirty) {
        std::vector<fs::Seg> segs;
        fs::FsStatus st = vfs_.fs().mapRange(
            ino, page->index * kBlockBytes, kBlockBytes, &segs);
        if (st != fs::FsStatus::Ok) {
            if (--*remaining == 0)
                done(eq_.now() - start);
            continue;
        }
        // Each page is billed to the tenant that last touched it.
        deviceIo(ssd::Op::Write, std::move(segs),
                 std::span<std::uint8_t>(page->data.data(), kBlockBytes),
                 [this, remaining, start, done](ssd::Status, Time) {
                     if (--*remaining == 0)
                         done(eq_.now() - start);
                 },
                 0, page->tenant);
    }
}

void
Kernel::sysFsync(Process &p, int fd, IntCb cb)
{
    noteSyscall(p);
    OpenFile *of = p.file(fd);
    if (!of) {
        eq_.after(costs_.userToKernelNs, [cb = std::move(cb)]() {
            cb(errOf(fs::FsStatus::Inval));
        });
        return;
    }
    const TenantId tenant = p.pasid();
    fs::Inode *node = vfs_.fs().inode(of->ino);
    const Time cost
        = cpu_.scaled(costs_.userToKernelNs + costs_.fsyncMetaNs);
    eq_.after(cost, [this, node, tenant, cb = std::move(cb)]() mutable {
        writebackDirty(*node, [this, node, tenant,
                               cb = std::move(cb)](Time) {
            // NVMe flush, then metadata commit.
            ssd::Command cmd;
            cmd.op = ssd::Op::Flush;
            cmd.tenant = tenant;
            const bool ok = slots_[0].kq->submit(
                cmd, [this, node, tenant, cb = std::move(cb)](
                         const ssd::Completion &) {
                    TenantScope ts(*this, tenant);
                    vfs_.fs().fsyncMeta(*node);
                    eq_.after(cpu_.scaled(costs_.kernelToUserNs),
                              [cb = std::move(cb)]() { cb(0); });
                });
            sim::panicIf(!ok, "kernel queue overflow on flush");
        });
    });
}

void
Kernel::sysFallocate(Process &p, int fd, std::uint64_t off,
                     std::uint64_t len, IntCb cb)
{
    noteSyscall(p);
    OpenFile *of = p.file(fd);
    if (!of || !(of->flags & kOpenWrite)) {
        eq_.after(costs_.userToKernelNs, [cb = std::move(cb)]() {
            cb(errOf(fs::FsStatus::Inval));
        });
        return;
    }
    TenantScope ts(*this, p.pasid()); // covers the synchronous extendTo
    fs::Inode *node = vfs_.fs().inode(of->ino);
    const std::uint64_t oldEnd = node->extents.logicalEnd();
    std::vector<fs::Extent> added;
    fs::FsStatus st = vfs_.fs().extendTo(
        *node, std::max(node->size, off + len), &added);
    // Zeroing happens at device write bandwidth.
    std::uint64_t newBlocks = 0;
    for (const auto &e : added)
        newBlocks += e.count;
    (void)oldEnd;
    const Time zeroCost = static_cast<Time>(
        static_cast<double>(newBlocks * kBlockBytes)
        / dev_.profile().writeBwBytesPerNs);
    const Time cost = cpu_.scaled(
        costs_.userToKernelNs + costs_.vfsExt4Ns
        + added.size() * costs_.allocPerExtentNs + costs_.kernelToUserNs)
        + zeroCost;
    eq_.after(cost, [this, &p, node, st, added, cb = std::move(cb)]() {
        if (st == fs::FsStatus::Ok && hooks_) {
            if (!added.empty())
                hooks_->onExtentsAdded(*node, added);
            hooks_->onMetadataChange(*node, p.pid());
        }
        cb(st == fs::FsStatus::Ok ? 0 : errOf(st));
    });
}

void
Kernel::sysFtruncate(Process &p, int fd, std::uint64_t size, IntCb cb)
{
    noteSyscall(p);
    OpenFile *of = p.file(fd);
    if (!of || !(of->flags & kOpenWrite)) {
        eq_.after(costs_.userToKernelNs, [cb = std::move(cb)]() {
            cb(errOf(fs::FsStatus::Inval));
        });
        return;
    }
    TenantScope ts(*this, p.pasid()); // synchronous truncate/extendTo
    fs::Inode *node = vfs_.fs().inode(of->ino);
    const bool shrinks = size < node->size;
    std::vector<fs::Extent> added;
    fs::FsStatus st;
    if (shrinks)
        st = vfs_.fs().truncate(*node, size);
    else
        st = vfs_.fs().extendTo(*node, size, &added);
    const Time cost
        = cpu_.scaled(costs_.userToKernelNs + costs_.vfsExt4Ns
                      + costs_.kernelToUserNs);
    eq_.after(cost, [this, &p, node, st, shrinks, added,
                     cb = std::move(cb)]() {
        if (st == fs::FsStatus::Ok && hooks_) {
            if (shrinks)
                hooks_->onTruncated(*node);
            else if (!added.empty())
                hooks_->onExtentsAdded(*node, added);
            hooks_->onMetadataChange(*node, p.pid());
        }
        cb(st == fs::FsStatus::Ok ? 0 : errOf(st));
    });
}

void
Kernel::sysUnlink(Process &p, const std::string &path, IntCb cb)
{
    noteSyscall(p);
    const Time cost = cpu_.scaled(costs_.userToKernelNs + costs_.openBaseNs
                                  + costs_.kernelToUserNs);
    eq_.after(cost, [this, &p, path = nsPath(p, path),
                     cb = std::move(cb)]() {
        TenantScope ts(*this, p.pasid());
        cb(errOf(vfs_.fs().unlink(path, p.creds())));
    });
}

void
Kernel::sysRename(Process &p, const std::string &from,
                  const std::string &to, IntCb cb)
{
    noteSyscall(p);
    const Time cost = cpu_.scaled(costs_.userToKernelNs
                                  + 2 * costs_.openBaseNs
                                  + costs_.kernelToUserNs);
    eq_.after(cost, [this, &p, from = nsPath(p, from),
                     to = nsPath(p, to), cb = std::move(cb)]() {
        TenantScope ts(*this, p.pasid());
        cb(errOf(vfs_.fs().rename(from, to, p.creds())));
    });
}

void
Kernel::sysStat(Process &p, const std::string &path, Stat *out, IntCb cb)
{
    noteSyscall(p);
    const Time cost = cpu_.scaled(costs_.userToKernelNs + 500
                                  + costs_.kernelToUserNs);
    eq_.after(cost, [this, path = nsPath(p, path), out,
                     cb = std::move(cb)]() {
        InodeNum ino;
        fs::FsStatus st = vfs_.fs().resolve(path, &ino);
        if (st != fs::FsStatus::Ok) {
            cb(errOf(st));
            return;
        }
        const fs::Inode *node = vfs_.fs().inode(ino);
        out->ino = node->ino;
        out->size = node->size;
        out->mode = node->mode;
        out->uid = node->uid;
        out->gid = node->gid;
        out->mtime = node->mtime;
        cb(0);
    });
}

void
Kernel::appendPath(Process &p, fs::Inode &ino,
                   std::span<const std::uint8_t> buf, std::uint64_t off,
                   IoCb cb, obs::TraceId trace)
{
    noteSyscall(p);
    if (trace_ && trace == 0) {
        trace = trace_->newTrace(p.pasid());
        cb = traceRequest(*trace_, ktrack(p.pid()), "sync.append", trace,
                          std::move(cb));
    }
    // Appends route through the kernel: allocate, update metadata, attach
    // new FTEs, then write directly to the device without buffering
    // (Table 3).
    directWrite(p, ino, buf, off, std::move(cb), trace);
}

int
Kernel::setupOpen(Process &p, const std::string &path, std::uint32_t flags,
                  std::uint16_t mode)
{
    InodeNum ino;
    fs::FsStatus st
        = vfs_.open(nsPath(p, path), flags, mode, p.creds(), &ino);
    if (st != fs::FsStatus::Ok)
        return errOf(st);
    fs::Inode *node = vfs_.fs().inode(ino);
    if (!(flags & kOpenBypassdIntent))
        node->kernelOpens++;
    OpenFile of;
    of.ino = ino;
    of.flags = flags;
    of.path = path;
    return p.installFd(std::move(of));
}

long long
Kernel::setupWrite(Process &p, int fd, std::span<const std::uint8_t> buf,
                   std::uint64_t off)
{
    OpenFile *of = p.file(fd);
    if (!of)
        return errOf(fs::FsStatus::Inval);
    fs::Inode *node = vfs_.fs().inode(of->ino);
    if (off + buf.size() > node->size) {
        std::vector<fs::Extent> added;
        fs::FsStatus st = vfs_.fs().extendTo(*node, off + buf.size(),
                                             &added);
        if (st != fs::FsStatus::Ok)
            return errOf(st);
        if (hooks_ && !added.empty())
            hooks_->onExtentsAdded(*node, added);
    }
    std::vector<fs::Seg> segs;
    fs::FsStatus st = vfs_.fs().mapRange(*node, off, buf.size(), &segs);
    if (st != fs::FsStatus::Ok)
        return errOf(st);
    std::uint64_t done = 0;
    for (const auto &seg : segs) {
        vfs_.fs().media().write(seg.addr, buf.subspan(done, seg.len));
        done += seg.len;
    }
    return static_cast<long long>(buf.size());
}

long long
Kernel::setupRead(Process &p, int fd, std::span<std::uint8_t> buf,
                  std::uint64_t off)
{
    OpenFile *of = p.file(fd);
    if (!of)
        return errOf(fs::FsStatus::Inval);
    fs::Inode *node = vfs_.fs().inode(of->ino);
    const std::uint64_t n
        = off >= node->size
              ? 0
              : std::min<std::uint64_t>(buf.size(), node->size - off);
    std::vector<fs::Seg> segs;
    fs::FsStatus st = vfs_.fs().mapRange(*node, off, n, &segs);
    if (st != fs::FsStatus::Ok)
        return errOf(st);
    std::uint64_t done = 0;
    for (const auto &seg : segs) {
        vfs_.fs().media().read(seg.addr, buf.subspan(done, seg.len));
        done += seg.len;
    }
    return static_cast<long long>(n);
}

int
Kernel::setupCreateFile(Process &p, const std::string &path,
                        std::uint64_t size, std::uint64_t seed)
{
    const int fd = setupOpen(p, path,
                             kOpenRead | kOpenWrite | kOpenCreate
                                 | kOpenDirect);
    if (fd < 0)
        return fd;
    OpenFile *of = p.file(fd);
    fs::Inode *node = vfs_.fs().inode(of->ino);
    std::vector<fs::Extent> added;
    fs::FsStatus st = vfs_.fs().extendTo(*node, size, &added);
    if (st != fs::FsStatus::Ok)
        return errOf(st);
    if (hooks_ && !added.empty())
        hooks_->onExtentsAdded(*node, added);
    if (seed != 0) {
        // Fill with a deterministic pattern, block by block, bounded to
        // keep setup cheap for very large files (first 64 MiB only).
        sim::Rng rng(seed);
        std::vector<std::uint8_t> block(kBlockBytes);
        const std::uint64_t fill
            = std::min<std::uint64_t>(size, 64ull << 20);
        for (std::uint64_t off = 0; off < fill; off += kBlockBytes) {
            for (auto &b : block)
                b = static_cast<std::uint8_t>(rng.next());
            const std::size_t n = static_cast<std::size_t>(
                std::min<std::uint64_t>(kBlockBytes, size - off));
            setupWrite(p, fd, std::span<const std::uint8_t>(block.data(),
                                                            n),
                       off);
        }
    }
    return fd;
}

} // namespace bpd::kern
