#include "ssd/block_store.hpp"

#include <algorithm>
#include <cstring>

#include <sys/mman.h>

#include "sim/logging.hpp"

namespace bpd::ssd {

void
BlockStore::UnmapDeleter::operator()(std::uint8_t *p) const
{
    munmap(p, kExtentBytes);
}

BlockStore::BlockStore(std::uint64_t capacityBytes)
    : capacity_(capacityBytes)
{
    sim::panicIf(capacityBytes % kBlockBytes != 0,
                 "capacity must be block aligned");
}

void
BlockStore::checkRange(DevAddr addr, std::uint64_t len) const
{
    if (addr + len > capacity_ || addr + len < addr) [[unlikely]]
        sim::panic(
            sim::strf("device access out of range: %llu+%llu > %llu",
                      (unsigned long long)addr,
                      (unsigned long long)len,
                      (unsigned long long)capacity_));
}

const BlockStore::Extent *
BlockStore::findExtent(std::uint64_t idx) const
{
    if (idx == lastIdx_)
        return lastExt_;
    auto it = extents_.find(idx);
    if (it == extents_.end())
        return nullptr;
    lastIdx_ = idx;
    lastExt_ = it->second.get();
    return lastExt_;
}

BlockStore::Extent &
BlockStore::ensureExtent(std::uint64_t idx)
{
    if (idx == lastIdx_ && lastExt_)
        return *lastExt_;
    auto &slot = extents_[idx];
    if (!slot) {
        void *p = mmap(nullptr, kExtentBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
        sim::panicIf(p == MAP_FAILED, "out of memory mapping extent");
        // Keep one block per host page where THP is "always" too: a
        // huge page would make a sparsely written extent 2 MiB resident.
        madvise(p, kExtentBytes, MADV_NOHUGEPAGE);
        slot = std::make_unique<Extent>();
        slot->data.reset(static_cast<std::uint8_t *>(p));
    }
    lastIdx_ = idx;
    lastExt_ = slot.get();
    return *slot;
}

void
BlockStore::dropExtent(std::uint64_t idx)
{
    extents_.erase(idx);
    if (idx == lastIdx_) {
        lastIdx_ = ~0ull;
        lastExt_ = nullptr;
    }
}

void
BlockStore::read(DevAddr addr, std::span<std::uint8_t> out) const
{
    checkRange(addr, out.size());
    std::size_t done = 0;
    while (done < out.size()) {
        const DevAddr cur = addr + done;
        const std::uint64_t idx = cur / kExtentBytes;
        const std::size_t off = cur % kExtentBytes;
        const std::size_t n
            = std::min<std::uint64_t>(out.size() - done,
                                      kExtentBytes - off);
        std::uint8_t *dst = out.data() + done;
        const Extent *e = findExtent(idx);
        if (e == nullptr) {
            std::memset(dst, 0, n);
            done += n;
            continue;
        }
        // Copy each run of written blocks, zero-fill each run of
        // unwritten ones (clear bit => zero bytes, see Extent::written).
        const std::size_t end = off + n;
        std::size_t pos = off;
        std::uint64_t b = off / kBlockBytes;
        while (pos < end) {
            const bool w = testBit(e->written, b);
            do {
                b++;
            } while (b * kBlockBytes < end && testBit(e->written, b) == w);
            const std::size_t runEnd
                = std::min<std::size_t>(end, b * kBlockBytes);
            if (w)
                std::memcpy(dst + (pos - off), e->data.get() + pos,
                            runEnd - pos);
            else
                std::memset(dst + (pos - off), 0, runEnd - pos);
            pos = runEnd;
        }
        done += n;
    }
}

void
BlockStore::write(DevAddr addr, std::span<const std::uint8_t> in)
{
    checkRange(addr, in.size());
    std::size_t done = 0;
    while (done < in.size()) {
        const DevAddr cur = addr + done;
        const std::uint64_t idx = cur / kExtentBytes;
        const std::size_t off = cur % kExtentBytes;
        const std::size_t n
            = std::min<std::uint64_t>(in.size() - done,
                                      kExtentBytes - off);
        Extent &e = ensureExtent(idx);
        std::memcpy(e.data.get() + off, in.data() + done, n);
        const std::uint64_t firstBlk = off / kBlockBytes;
        const std::uint64_t lastBlk = (off + n - 1) / kBlockBytes;
        for (std::uint64_t b = firstBlk; b <= lastBlk; b++) {
            if (!testBit(e.written, b)) {
                setBit(e.written, b);
                e.writtenCount++;
                residentBlocks_++;
            }
            // Conservative: the block may now hold nonzero bytes;
            // isZero() falls back to an exact scan for flagged blocks.
            setBit(e.nonzero, b);
        }
        done += n;
    }
}

void
BlockStore::zeroBlocks(BlockNo start, std::uint64_t count)
{
    checkRange(start * kBlockBytes, count * kBlockBytes);
    for (std::uint64_t b = start; b < start + count;) {
        const std::uint64_t idx = b * kBlockBytes / kExtentBytes;
        const std::uint64_t firstInExt = b % kExtentBlocks;
        const std::uint64_t spanInExt = std::min(
            start + count - b, kExtentBlocks - firstInExt);
        auto it = extents_.find(idx);
        if (it != extents_.end()) {
            Extent &e = *it->second;
            for (std::uint64_t i = firstInExt;
                 i < firstInExt + spanInExt; i++) {
                if (testBit(e.nonzero, i)) {
                    std::memset(e.data.get() + i * kBlockBytes, 0,
                                kBlockBytes);
                    clearBit(e.nonzero, i);
                }
                if (testBit(e.written, i)) {
                    clearBit(e.written, i);
                    e.writtenCount--;
                    residentBlocks_--;
                }
            }
            if (e.writtenCount == 0)
                dropExtent(idx);
        }
        b += spanInExt;
    }
}

bool
BlockStore::isZero(DevAddr addr, std::uint64_t len) const
{
    checkRange(addr, len);
    std::uint64_t done = 0;
    while (done < len) {
        const DevAddr cur = addr + done;
        const std::uint64_t idx = cur / kExtentBytes;
        const std::size_t off = cur % kExtentBytes;
        const std::size_t n = std::min<std::uint64_t>(
            len - done, kExtentBytes - off);
        const Extent *e = findExtent(idx);
        if (e != nullptr) {
            const std::uint64_t firstBlk = off / kBlockBytes;
            const std::uint64_t lastBlk = (off + n - 1) / kBlockBytes;
            for (std::uint64_t b = firstBlk; b <= lastBlk; b++) {
                if (!testBit(e->nonzero, b))
                    continue; // metadata proves the block is zero
                const std::size_t lo = std::max<std::size_t>(
                    off, b * kBlockBytes);
                const std::size_t hi = std::min<std::size_t>(
                    off + n, (b + 1) * kBlockBytes);
                const std::uint8_t *p = e->data.get() + lo;
                for (std::size_t i = 0; i < hi - lo; i++) {
                    if (p[i] != 0)
                        return false;
                }
            }
        }
        done += n;
    }
    return true;
}

std::uint64_t
BlockStore::residentBytes() const
{
    return residentBlocks_ * kBlockBytes;
}

} // namespace bpd::ssd
