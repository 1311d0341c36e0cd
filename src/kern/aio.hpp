/**
 * @file
 * Linux-native AIO (libaio) model: io_submit batches requests into the
 * same kernel direct-I/O path as sync, io_getevents harvests completions.
 * At QD1 it behaves like sync plus the extra harvest syscall; at high
 * queue depth submissions pipeline and device queueing dominates (KVell's
 * configuration, Section 6.5).
 */

#ifndef BPD_KERN_AIO_HPP
#define BPD_KERN_AIO_HPP

#include <span>
#include <vector>

#include "kern/kernel.hpp"

namespace bpd::kern {

class Aio
{
  public:
    explicit Aio(Kernel &k) : k_(k) {}

    struct Op
    {
        int fd;
        bool write;
        std::span<std::uint8_t> buf;
        std::uint64_t off;
    };

    /** Per-op completion: (index in batch, result, trace). */
    using BatchCb
        = std::function<void(std::size_t, long long, IoTrace)>;

    /**
     * io_submit() a batch. The mode-switch cost is paid once; per-request
     * kernel work pipelines at a fixed spacing; each completion pays the
     * io_getevents harvest overhead.
     */
    void submitBatch(Process &p, std::vector<Op> ops, BatchCb cb);

    /** QD1 convenience wrappers. */
    void pread(Process &p, int fd, std::span<std::uint8_t> buf,
               std::uint64_t off, IoCb cb);
    void pwrite(Process &p, int fd, std::span<const std::uint8_t> buf,
                std::uint64_t off, IoCb cb);

  private:
    Kernel &k_;
};

} // namespace bpd::kern

#endif // BPD_KERN_AIO_HPP
