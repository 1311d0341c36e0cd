/**
 * @file
 * Sparse byte-addressable backing store for a simulated SSD. Bytes really
 * move: reads return what was written (or zeros for never-written space),
 * which lets integration tests check end-to-end data integrity across the
 * kernel, SPDK and BypassD paths.
 *
 * Storage is organized as 2 MiB extents materialized on first write, so a
 * large sequential I/O is one map lookup and one memcpy instead of one
 * hash probe per 4 KiB. Each extent keeps per-block resident/nonzero
 * bitmaps, letting isZero()/zeroBlocks() run off metadata instead of byte
 * scans for the common (never-written or trimmed) case. A one-entry
 * last-extent cache short-circuits the map probe entirely for the
 * sequential and zipfian access patterns the paper sweeps generate.
 *
 * Host cost: each extent is its own page-aligned anonymous mapping, so
 * one 4 KiB block is exactly one host page. The first write of a block
 * takes one minor fault; reads of never-written blocks are memsets into
 * the caller's buffer and touch no page of the extent at all.
 */

#ifndef BPD_SSD_BLOCK_STORE_HPP
#define BPD_SSD_BLOCK_STORE_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>

#include "common/types.hpp"

namespace bpd::ssd {

/**
 * Sparse in-memory device media. Extents materialize on first write.
 */
class BlockStore
{
  public:
    /** Extent granularity: 512 blocks of 4 KiB. */
    static constexpr std::uint64_t kExtentBytes = 2ull << 20;
    static constexpr std::uint64_t kExtentBlocks
        = kExtentBytes / kBlockBytes;

    explicit BlockStore(std::uint64_t capacityBytes);
    virtual ~BlockStore() = default;

    std::uint64_t capacity() const { return capacity_; }
    std::uint64_t capacityBlocks() const { return capacity_ / kBlockBytes; }

    /** Read @p out.size() bytes at @p addr. Unwritten space reads zero. */
    virtual void read(DevAddr addr, std::span<std::uint8_t> out) const;

    /** Write @p in at @p addr. */
    virtual void write(DevAddr addr, std::span<const std::uint8_t> in);

    /** Zero (deallocate) whole blocks; used for trim/zero-on-alloc. */
    virtual void zeroBlocks(BlockNo start, std::uint64_t count);

    /** True when the whole range reads as zero. */
    virtual bool isZero(DevAddr addr, std::uint64_t len) const;

    /** Bytes of written (resident) blocks. */
    virtual std::uint64_t residentBytes() const;

  private:
    struct UnmapDeleter
    {
        void operator()(std::uint8_t *p) const;
    };

    struct Extent
    {
        /**
         * kExtentBytes of zeroed media in a private anonymous mapping
         * of its own, never backed by a huge page. The mapping is page
         * aligned, so each block is one host page and a block's first
         * write faults in exactly that page; untouched blocks cost no
         * memory.
         */
        std::unique_ptr<std::uint8_t[], UnmapDeleter> data;
        /**
         * Blocks written since the extent was mapped or the block was
         * last zeroed. Invariant: a clear bit means the block's bytes
         * are zero. It holds at mmap time, write() sets the bit, and
         * zeroBlocks() memsets a block before clearing it. read()
         * relies on it to serve unwritten blocks with a memset of the
         * output, never touching (and so never faulting in) their
         * pages.
         */
        std::uint64_t written[kExtentBlocks / 64] = {};
        /** Blocks that may hold nonzero bytes (isZero fast path). */
        std::uint64_t nonzero[kExtentBlocks / 64] = {};
        std::uint32_t writtenCount = 0;
    };

    void checkRange(DevAddr addr, std::uint64_t len) const;
    const Extent *findExtent(std::uint64_t idx) const;
    Extent &ensureExtent(std::uint64_t idx);
    void dropExtent(std::uint64_t idx);

    static bool
    testBit(const std::uint64_t *bits, std::uint64_t i)
    {
        return (bits[i / 64] >> (i % 64)) & 1;
    }

    static void
    setBit(std::uint64_t *bits, std::uint64_t i)
    {
        bits[i / 64] |= 1ull << (i % 64);
    }

    static void
    clearBit(std::uint64_t *bits, std::uint64_t i)
    {
        bits[i / 64] &= ~(1ull << (i % 64));
    }

    std::uint64_t capacity_;
    std::unordered_map<std::uint64_t, std::unique_ptr<Extent>> extents_;
    std::uint64_t residentBlocks_ = 0;

    // One-entry last-extent cache (pointers into extents_ are stable).
    mutable std::uint64_t lastIdx_ = ~0ull;
    mutable Extent *lastExt_ = nullptr;
};

} // namespace bpd::ssd

#endif // BPD_SSD_BLOCK_STORE_HPP
