/**
 * @file
 * On-disk serialization helpers for the file system's metadata region:
 * bounds-checked little-endian byte streams. Torn journal commits are
 * detected by an FNV-1a checksum (sim::fnvBytes).
 *
 * Metadata layout on the device:
 *   block 0                      superblock
 *   blocks [1, 1+J)              journal region (appended transactions)
 *   blocks [1+J, 1+J+C)          checkpoint image
 *   blocks [firstDataBlock, ...) file data
 */

#ifndef BPD_FS_ONDISK_HPP
#define BPD_FS_ONDISK_HPP

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "sim/logging.hpp"

namespace bpd::fs {

constexpr std::uint64_t kSuperMagic = 0xB09A55D0F5ull;
constexpr std::uint64_t kCheckpointMagic = 0xC4EC9017ull;
constexpr std::uint64_t kTxnMagic = 0x10094A1ull;

/** Growable little-endian byte stream writer. */
class ByteWriter
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u16(std::uint16_t v)
    {
        raw(&v, sizeof(v));
    }

    void
    u32(std::uint32_t v)
    {
        raw(&v, sizeof(v));
    }

    void
    u64(std::uint64_t v)
    {
        raw(&v, sizeof(v));
    }

    void
    str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        raw(s.data(), s.size());
    }

    const std::vector<std::uint8_t> &bytes() const { return buf_; }
    std::size_t size() const { return buf_.size(); }

  private:
    void
    raw(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const std::uint8_t *>(p);
        buf_.insert(buf_.end(), b, b + n);
    }

    std::vector<std::uint8_t> buf_;
};

/** Bounds-checked reader over a byte buffer. */
class ByteReader
{
  public:
    ByteReader(const std::uint8_t *data, std::size_t len)
        : data_(data), len_(len)
    {
    }

    bool ok() const { return ok_; }
    std::size_t consumed() const { return pos_; }

    std::uint8_t
    u8()
    {
        std::uint8_t v = 0;
        raw(&v, sizeof(v));
        return v;
    }

    std::uint16_t
    u16()
    {
        std::uint16_t v = 0;
        raw(&v, sizeof(v));
        return v;
    }

    std::uint32_t
    u32()
    {
        std::uint32_t v = 0;
        raw(&v, sizeof(v));
        return v;
    }

    std::uint64_t
    u64()
    {
        std::uint64_t v = 0;
        raw(&v, sizeof(v));
        return v;
    }

    std::string
    str()
    {
        const std::uint32_t n = u32();
        if (!ok_ || pos_ + n > len_) {
            ok_ = false;
            return {};
        }
        std::string s(reinterpret_cast<const char *>(data_ + pos_), n);
        pos_ += n;
        return s;
    }

  private:
    void
    raw(void *out, std::size_t n)
    {
        if (!ok_ || pos_ + n > len_) {
            ok_ = false;
            return;
        }
        std::memcpy(out, data_ + pos_, n);
        pos_ += n;
    }

    const std::uint8_t *data_;
    std::size_t len_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace bpd::fs

#endif // BPD_FS_ONDISK_HPP
