/**
 * @file
 * UserLib: the BypassD userspace shim library (Sections 3.2, 4.2, 4.5).
 *
 * Intercepts POSIX file calls. Metadata operations forward to the kernel;
 * reads and overwrites are issued directly to the device on per-thread
 * VBA-mode queue pairs with pinned DMA buffers. Appends are detected from
 * the locally tracked file size and routed through the kernel (optionally
 * accelerated by fallocate() pre-allocation, Section 5.1). Partial writes
 * to overlapping sectors are serialized (Section 4.5.1). IOMMU faults
 * trigger re-fmap(); a zero VBA means access was revoked and the file
 * falls back to the kernel interface for good (Section 3.6).
 */

#ifndef BPD_BYPASSD_USERLIB_HPP
#define BPD_BYPASSD_USERLIB_HPP

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "bypassd/module.hpp"
#include "kern/kernel.hpp"
#include "sim/slot_pool.hpp"

namespace bpd::bypassd {

struct UserLibConfig
{
    std::uint32_t queueDepth = 256;
    std::uint64_t dmaBufBytes = 2ull << 20;
    /** Section 5.1: accelerate appends via fallocate() pre-allocation. */
    bool optimizedAppend = false;
    std::uint64_t appendPreallocBytes = 4ull << 20;
    /**
     * Section 5.1: non-blocking writes. Aligned overwrites complete to
     * the caller after the buffer copy; the device write proceeds in the
     * background. Reads consult the pending-write ranges (CrossFS-style
     * per-inode range tracking) so they always observe the latest data;
     * fsync() drains all pending writes first.
     */
    bool nonBlockingWrites = false;
};

class UserLib
{
  public:
    UserLib(kern::Kernel &kernel, BypassdModule &module, kern::Process &p,
            UserLibConfig cfg = {});
    ~UserLib();
    UserLib(const UserLib &) = delete;
    UserLib &operator=(const UserLib &) = delete;

    /** @name Intercepted POSIX calls (Table 3) */
    ///@{
    void open(const std::string &path, std::uint32_t flags,
              std::uint16_t mode, kern::IntCb cb);
    void close(int fd, kern::IntCb cb);
    void pread(Tid tid, int fd, std::span<std::uint8_t> buf,
               std::uint64_t off, kern::IoCb cb);
    void pwrite(Tid tid, int fd, std::span<const std::uint8_t> buf,
                std::uint64_t off, kern::IoCb cb);
    void read(Tid tid, int fd, std::span<std::uint8_t> buf, kern::IoCb cb);
    void write(Tid tid, int fd, std::span<const std::uint8_t> buf,
               kern::IoCb cb);
    void fsync(Tid tid, int fd, kern::IntCb cb);
    void fallocate(int fd, std::uint64_t off, std::uint64_t len,
                   kern::IntCb cb);
    void ftruncate(int fd, std::uint64_t size, kern::IntCb cb);
    ///@}

    /**
     * Pre-create the queue pair + DMA buffer for a thread on device
     * slot @p slot (init-time; untimed, like SPDK's hugepage setup).
     * Queues for other slots a thread touches are created lazily.
     */
    void prepareThread(Tid tid, std::size_t slot = 0);

    /** Locally tracked size of an open file. */
    std::uint64_t fileSize(int fd) const;

    /** Is the fd currently served through the BypassD interface? */
    bool isDirect(int fd) const;

    kern::Process &process() { return proc_; }

    /** @name Statistics */
    ///@{
    std::uint64_t directReads() const { return directReads_; }
    std::uint64_t directWrites() const { return directWrites_; }
    std::uint64_t kernelFallbackOps() const { return fallbackOps_; }
    std::uint64_t appendsRouted() const { return appendsRouted_; }
    std::uint64_t partialSerialized() const { return partialSerialized_; }
    std::uint64_t iommuFaults() const { return iommuFaults_; }
    std::uint64_t nonBlockingWrites() const { return nbWrites_; }
    std::uint64_t pendingReadHits() const { return pendingReadHits_; }
    ///@}

  private:
    struct FileInfo
    {
        InodeNum ino = 0;
        std::uint32_t flags = 0;
        std::uint64_t size = 0;   //!< tracked locally (Section 3.2)
        std::uint64_t offset = 0; //!< file position for read()/write()
        Vaddr vba = 0;            //!< starting VBA; 0 => kernel interface
        std::size_t slot = 0;     //!< home device slot (queue routing)
        bool direct = false;
        std::uint64_t preallocEnd = 0;

        /** Sectors with an in-flight partial write (Section 4.5.1). */
        std::set<std::uint64_t> inflightSectors;
        struct PendingPartial
        {
            Tid tid;
            int fd;
            std::vector<std::uint8_t> data;
            std::uint64_t off;
            kern::IoCb cb;
            obs::TraceId trace = 0;
        };
        std::deque<PendingPartial> pendingPartials;

        /**
         * Non-blocking writes in flight (Section 5.1): buffered data
         * keyed by offset. Reads overlapping a pending range are served
         * from (or synchronized with) these buffers.
         */
        struct PendingWrite
        {
            std::uint64_t off;
            std::vector<std::uint8_t> data;
            bool devDone = false;
            std::vector<std::function<void()>> waiters;
        };
        std::map<std::uint64_t, std::shared_ptr<PendingWrite>>
            pendingWrites;
        std::vector<std::function<void()>> drainWaiters;
    };

    struct ThreadCtx
    {
        /** Queue pair + DMA buffer per device slot the thread touches. */
        std::map<std::size_t, std::unique_ptr<UserQueues>> uq;
    };

    /** The (thread, device-slot) queue pair, created lazily. */
    UserQueues &uq(Tid tid, std::size_t slot);
    FileInfo *info(int fd);
    const FileInfo *info(int fd) const;

    /**
     * Dispatch stages of pread/pwrite after the request envelope has
     * been opened: re-dispatched requests (pending-write waiters,
     * serialized partials) re-enter here so one logical request keeps
     * one trace id and one envelope.
     */
    void preadResume(Tid tid, int fd, std::span<std::uint8_t> buf,
                     std::uint64_t off, kern::IoCb cb, obs::TraceId trace);
    void pwriteResume(Tid tid, int fd, std::span<const std::uint8_t> buf,
                      std::uint64_t off, kern::IoCb cb,
                      obs::TraceId trace);

    void directRead(Tid tid, int fd, std::span<std::uint8_t> buf,
                    std::uint64_t off, kern::IoCb cb, obs::TraceId trace);
    void directOverwrite(Tid tid, int fd,
                         std::span<const std::uint8_t> buf,
                         std::uint64_t off, kern::IoCb cb,
                         obs::TraceId trace);
    /** Section 5.1 non-blocking write path. */
    void nonBlockingWrite(Tid tid, int fd,
                          std::span<const std::uint8_t> buf,
                          std::uint64_t off, kern::IoCb cb,
                          obs::TraceId trace);
    /**
     * Read-side pending-write handling: serve fully-buffered reads from
     * the pending buffers; make partially-overlapping reads wait.
     * @retval true when the read was fully handled here.
     */
    bool consultPendingWrites(Tid tid, int fd,
                              std::span<std::uint8_t> buf,
                              std::uint64_t off, const kern::IoCb &cb,
                              obs::TraceId trace);
    void drainPendingWrites(int fd, std::function<void()> done);
    void partialWrite(Tid tid, int fd, std::span<const std::uint8_t> buf,
                      std::uint64_t off, kern::IoCb cb, obs::TraceId trace);
    void drainPendingPartials(int fd);
    void appendWrite(Tid tid, int fd, std::span<const std::uint8_t> buf,
                     std::uint64_t off, kern::IoCb cb, obs::TraceId trace);

    /**
     * IOMMU fault recovery (Section 3.6): re-fmap; retry on success,
     * permanently fall back to the kernel interface on VBA 0.
     */
    void handleFault(int fd, std::function<void()> retryDirect,
                     std::function<void()> fallbackKernel,
                     obs::TraceId trace = 0);

    /** Lazily interned "bypassd.p<pid>" track (tracer must be set). */
    std::uint16_t obsTrack();

    /** Submit on the direct path: QoS admission, then submitNow(). */
    void submit(UserQueues &q, const ssd::Command &cmd,
                ssd::CommandDispatcher::CompletionFn &&fn);
    /** The SQ-full retry loop: poll every 500 ns until accepted. */
    void submitNow(UserQueues &q, const ssd::Command &cmd,
                   ssd::CommandDispatcher::CompletionFn &&fn);

    /**
     * Per-I/O state of one direct read or aligned overwrite. Requests
     * live in the reqs_ pool and the events and completion of an I/O
     * capture {this, index}, so a steady-state direct I/O does not
     * allocate. A slot is freed before the caller's callback runs.
     */
    struct DirectReq
    {
        bool write = false;
        Tid tid = 0;
        int fd = -1;
        std::span<std::uint8_t> rbuf{};       //!< read destination
        std::span<const std::uint8_t> wbuf{}; //!< overwrite source
        std::uint64_t off = 0;
        std::uint64_t n = 0;      //!< bytes returned to the caller
        std::uint64_t aStart = 0; //!< device offset (sector aligned)
        std::uint32_t len = 0;    //!< device command length
        /** Queues are freed only in ~UserLib, so the pointer is stable. */
        UserQueues *q = nullptr;
        Time start = 0;
        Time tSubmit = 0;
        obs::TraceId trace = 0;
        kern::IoCb cb{};
        ssd::Completion comp{};
    };

    /** Pool @p req and run directSubmit() on it after @p submitCost. */
    void startDirect(DirectReq &&req, Time submitCost);
    /** Free request @p ri and hand back its callback. */
    kern::IoCb releaseReq(std::uint32_t ri);
    /** Stages of a pooled direct I/O: device submit, device done,
     *  caller done. */
    void directSubmit(std::uint32_t ri);
    void directComplete(std::uint32_t ri, const ssd::Completion &comp);
    void directDone(std::uint32_t ri);

    kern::Kernel &kernel_;
    BypassdModule &module_;
    kern::Process &proc_;
    UserLibConfig cfg_;

    std::map<int, FileInfo> files_;
    std::map<Tid, ThreadCtx> threads_;
    sim::SlotPool<DirectReq> reqs_;

    std::uint64_t directReads_ = 0;
    std::uint64_t directWrites_ = 0;
    std::uint64_t fallbackOps_ = 0;
    std::uint64_t appendsRouted_ = 0;
    std::uint64_t partialSerialized_ = 0;
    std::uint64_t iommuFaults_ = 0;
    std::uint64_t nbWrites_ = 0;
    std::uint64_t pendingReadHits_ = 0;

    std::uint16_t obsTrack_ = 0;
    bool obsTrackInit_ = false;
};

} // namespace bpd::bypassd

#endif // BPD_BYPASSD_USERLIB_HPP
