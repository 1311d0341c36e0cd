/**
 * @file
 * 64-bit FNV-1a: the one hash behind every digest (harness and bench
 * scenario digests, the replay-stream digest, the fleet controller's
 * beacon fold) and the file system's on-disk checksums. Words are
 * mixed as 8 little-endian bytes, so a digest depends only on values,
 * never on host byte order.
 */

#ifndef BPD_SIM_HASH_HPP
#define BPD_SIM_HASH_HPP

#include <bit>
#include <cstddef>
#include <cstdint>

namespace bpd::sim {

/** FNV-1a offset basis: the hash of the empty input. */
constexpr std::uint64_t kFnvSeed = 0xcbf29ce484222325ull;

/** Fold @p v into @p h as 8 little-endian bytes. */
constexpr std::uint64_t
fnv(std::uint64_t h, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; i++) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Fold the bit pattern of @p d into @p h. */
constexpr std::uint64_t
fnvDouble(std::uint64_t h, double d)
{
    return fnv(h, std::bit_cast<std::uint64_t>(d));
}

/** FNV-1a of @p len bytes at @p data, continuing from @p h. */
constexpr std::uint64_t
fnvBytes(const std::uint8_t *data, std::size_t len,
         std::uint64_t h = kFnvSeed)
{
    for (std::size_t i = 0; i < len; i++)
        h = (h ^ data[i]) * 0x100000001b3ull;
    return h;
}

} // namespace bpd::sim

#endif // BPD_SIM_HASH_HPP
