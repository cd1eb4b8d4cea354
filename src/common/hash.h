// CRC32 checksums used by the UDF serializer and disc scrubbing.
#ifndef ROS_SRC_COMMON_HASH_H_
#define ROS_SRC_COMMON_HASH_H_

#include <array>
#include <cstdint>
#include <cstddef>
#include <span>

namespace ros {

namespace internal {
// Slice-by-8 tables: kCrc32Tables[0] is the classic bytewise table, and
// kCrc32Tables[k][i] is the CRC register after byte i is followed by k
// zero bytes, so eight table lookups fold eight input bytes at once.
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;
constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}
inline constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

// Little-endian 32-bit load from any alignment (compilers emit one mov).
inline std::uint32_t LoadLe32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}
}  // namespace internal

// Standard CRC-32 (IEEE 802.3). Suitable for detecting media bit-rot in the
// simulated disc scrubber; not a cryptographic hash. `seed` chains calls:
// Crc32(b, Crc32(a)) == Crc32(a followed by b).
inline std::uint32_t Crc32(std::span<const std::uint8_t> data,
                           std::uint32_t seed = 0) {
  const auto& t = internal::kCrc32Tables;
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ internal::LoadLe32(p);
    const std::uint32_t hi = internal::LoadLe32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {  // tail: fewer than eight bytes
    c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// 64-bit FNV-1a, used for content fingerprints in tests.
inline std::uint64_t Fnv1a64(std::span<const std::uint8_t> data) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (std::uint8_t byte : data) {
    h ^= byte;
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace ros

#endif  // ROS_SRC_COMMON_HASH_H_
