#include "kern/io_uring.hpp"

#include <algorithm>

#include "sim/logging.hpp"

namespace bpd::kern {

IoUring::IoUring(Kernel &k, Process &p)
    : k_(k), p_(p)
{
    // SQPOLL kernel thread occupies one hardware thread for the ring's
    // lifetime.
    k_.cpu().acquire(1);
}

IoUring::~IoUring()
{
    k_.cpu().release(1);
}

void
IoUring::pread(int fd, std::span<std::uint8_t> buf, std::uint64_t off,
               IoCb cb)
{
    doIo(false, fd, buf, off, std::move(cb));
}

void
IoUring::pwrite(int fd, std::span<const std::uint8_t> buf,
                std::uint64_t off, IoCb cb)
{
    doIo(true, fd,
         std::span<std::uint8_t>(const_cast<std::uint8_t *>(buf.data()),
                                 buf.size()),
         off, std::move(cb));
}

void
IoUring::doIo(bool write, int fd, std::span<std::uint8_t> buf,
              std::uint64_t off, IoCb cb)
{
    OpenFile *of = p_.file(fd);
    if (!of) {
        k_.eq().after(k_.costs().uringUserSubmitNs,
                      [cb = std::move(cb)]() {
                          cb(errOf(fs::FsStatus::Inval), IoTrace{});
                      });
        return;
    }
    fs::Inode *node = k_.vfs().fs().inode(of->ino);
    sim::panicIf(node == nullptr, "io_uring on dead inode");

    const Time start = k_.eq().now();
    CpuModel &cpu = k_.cpu();
    const CostModel &c = k_.costs();

    obs::TraceId trace = 0;
    if (obs::Tracer *t = k_.tracer()) {
        trace = t->newTrace(p_.pasid());
        const std::uint16_t track
            = t->track("uring.p" + std::to_string(p_.pid()));
        cb = traceRequest(*t, track, write ? "uring.pwrite" : "uring.pread",
                          trace, std::move(cb));
    }

    const std::uint64_t n
        = write ? buf.size()
                : (off >= node->size
                       ? 0
                       : std::min<std::uint64_t>(buf.size(),
                                                 node->size - off));
    if (n == 0) {
        k_.eq().after(cpu.scaled(c.uringUserSubmitNs + c.uringUserReapNs),
                      [cb = std::move(cb)]() { cb(0, IoTrace{}); });
        return;
    }

    // Extension writes fall back to the full allocation path.
    if (write && off + n > node->size) {
        TenantScope ts(k_, p_.pasid());
        std::vector<fs::Extent> added;
        fs::FsStatus st = k_.vfs().fs().extendTo(*node, off + n, &added);
        if (st != fs::FsStatus::Ok) {
            k_.eq().after(c.uringUserSubmitNs, [cb = std::move(cb), st]() {
                cb(errOf(st), IoTrace{});
            });
            return;
        }
        if (k_.bypassdHooks() && !added.empty())
            k_.bypassdHooks()->onExtentsAdded(*node, added);
        if (k_.bypassdHooks())
            k_.bypassdHooks()->onMetadataChange(*node, p_.pid());
    }

    // Submit side: user publishes the SQE, the SQPOLL thread picks it up
    // and runs the (fixed-buffer discounted) kernel stack. Handing work
    // between two schedulable entities pays the reschedule penalty when
    // cores are oversubscribed.
    const Time kernelWork = static_cast<Time>(
        static_cast<double>(c.vfsCost(n)) * c.uringVfsFactor)
        + c.blockLayerNs + c.nvmeDriverNs;
    Time submitDelay = cpu.scaled(c.uringUserSubmitNs
                                  + c.uringPollIntervalNs + kernelWork)
                       + cpu.reschedulePenalty();

    // Same-inode write serialization applies on the poller as well.
    if (write) {
        const Time lockAt = std::max(k_.eq().now() + submitDelay,
                                     node->writeLockFreeAt);
        node->writeLockFreeAt = lockAt + cpu.scaled(kernelWork) / 2;
        submitDelay = lockAt - k_.eq().now();
    }

    const TenantId tenant = p_.pasid();
    k_.eq().after(submitDelay, [this, node, buf, off, n, start, write,
                                trace, tenant,
                                cb = std::move(cb)]() mutable {
        std::vector<fs::Seg> segs;
        fs::FsStatus st = k_.vfs().fs().mapRange(*node, off, n, &segs);
        if (st != fs::FsStatus::Ok) {
            cb(errOf(st), IoTrace{});
            return;
        }
        k_.deviceIo(write ? ssd::Op::Write : ssd::Op::Read,
                    std::move(segs), buf.subspan(0, n),
                    [this, node, n, start, write, tenant,
                     cb = std::move(cb)](ssd::Status dst, Time devNs) {
                        TenantScope ts(k_, tenant);
                        k_.vfs().fs().touch(*node, write);
                        const Time reap
                            = k_.cpu().scaled(k_.costs().uringUserReapNs)
                              + k_.cpu().reschedulePenalty();
                        k_.eq().after(reap, [this, n, start, devNs, dst,
                                             cb = std::move(cb)]() {
                            IoTrace tr;
                            const Time total = k_.eq().now() - start;
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

} // namespace bpd::kern
