// Non-cryptographic checksums: CRC-32 for the UDF image stream, the MV
// log and segments, and audit manifests; XXH64 for audit-manifest
// leaves; FNV-1a for short keys.
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

// Little-endian 64-bit load from any alignment (compilers emit one mov).
// Written out, not as a loop: GCC merges this form into a single load but
// leaves a byte-assembly loop as eight loads and shifts.
inline std::uint64_t LoadLe64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(p[0]) |
         static_cast<std::uint64_t>(p[1]) << 8 |
         static_cast<std::uint64_t>(p[2]) << 16 |
         static_cast<std::uint64_t>(p[3]) << 24 |
         static_cast<std::uint64_t>(p[4]) << 32 |
         static_cast<std::uint64_t>(p[5]) << 40 |
         static_cast<std::uint64_t>(p[6]) << 48 |
         static_cast<std::uint64_t>(p[7]) << 56;
}

inline constexpr std::uint64_t kXxhPrime1 = 0x9E3779B185EBCA87ull;
inline constexpr std::uint64_t kXxhPrime2 = 0xC2B2AE3D27D4EB4Full;
inline constexpr std::uint64_t kXxhPrime3 = 0x165667B19E3779F9ull;
inline constexpr std::uint64_t kXxhPrime4 = 0x85EBCA77C2B2AE63ull;
inline constexpr std::uint64_t kXxhPrime5 = 0x27D4EB2F165667C5ull;

inline std::uint64_t Rotl64(std::uint64_t x, int r) {
  return (x << r) | (x >> (64 - r));
}

inline std::uint64_t XxhRound(std::uint64_t acc, std::uint64_t input) {
  return Rotl64(acc + input * kXxhPrime2, 31) * kXxhPrime1;
}

inline std::uint64_t XxhMerge(std::uint64_t acc, std::uint64_t lane) {
  return (acc ^ XxhRound(0, lane)) * kXxhPrime1 + kXxhPrime4;
}
}  // namespace internal

namespace internal {
// Portable slice-by-8 CRC-32: eight input bytes per step through
// kCrc32Tables, then a bytewise loop for the last 0-7. The fallback tier
// of Crc32 and the oracle its folding tier is tested against.
inline std::uint32_t Crc32SliceBy8(std::span<const std::uint8_t> data,
                                   std::uint32_t seed = 0) {
  const auto& t = kCrc32Tables;
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ LoadLe32(p);
    const std::uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {  // tail: fewer than eight bytes
    c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// Carry-less-multiply tier (crc32_clmul.cc, the only TU built with
// -mpclmul -msse4.1): folds four 128-bit lanes with PCLMULQDQ, then a
// Barrett reduction, per Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ" (Intel, 2009); the last 0-15 bytes run on
// slice-by-8. Same polynomial, seed chaining and output as
// Crc32SliceBy8. Crc32ClmulAvailable() checks the compiler and the CPU;
// Crc32Clmul must only be called when it returns true.
bool Crc32ClmulAvailable();
std::uint32_t Crc32Clmul(std::span<const std::uint8_t> data,
                         std::uint32_t seed);

// Inputs shorter than this stay on the inline slice-by-8 loop: the fold
// needs four 16-byte lanes to start, and short chained headers then pay
// no call or dispatch.
inline constexpr std::size_t kCrc32ClmulMinBytes = 64;

inline bool UseCrc32Clmul() {
  static const bool use = Crc32ClmulAvailable();
  return use;
}
}  // namespace internal

// Standard CRC-32 (IEEE 802.3): detects corruption of durable bytes; not a
// cryptographic hash. `seed` chains calls:
// Crc32(b, Crc32(a)) == Crc32(a followed by b). Every tier returns the
// same value for the same input.
inline std::uint32_t Crc32(std::span<const std::uint8_t> data,
                           std::uint32_t seed = 0) {
  if (data.size() >= internal::kCrc32ClmulMinBytes &&
      internal::UseCrc32Clmul()) {
    return internal::Crc32Clmul(data, seed);
  }
  return internal::Crc32SliceBy8(data, seed);
}

// XXH64 (xxHash, 64-bit) per its public spec: four lanes consume 32-byte
// stripes a word at a time, then 8-, 4- and 1-byte tails. Byte-for-byte
// the reference digest on any host endianness. Audit-manifest v2 leaves
// and the benches' read-back checks use it; not a cryptographic hash.
inline std::uint64_t Xxh64(std::span<const std::uint8_t> data,
                           std::uint64_t seed = 0) {
  using internal::kXxhPrime1;
  using internal::kXxhPrime2;
  using internal::kXxhPrime3;
  using internal::kXxhPrime4;
  using internal::kXxhPrime5;
  using internal::LoadLe64;
  using internal::Rotl64;
  using internal::XxhMerge;
  using internal::XxhRound;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t h;
  if (n >= 32) {
    std::uint64_t v1 = seed + kXxhPrime1 + kXxhPrime2;
    std::uint64_t v2 = seed + kXxhPrime2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kXxhPrime1;
    for (; n >= 32; p += 32, n -= 32) {
      v1 = XxhRound(v1, LoadLe64(p));
      v2 = XxhRound(v2, LoadLe64(p + 8));
      v3 = XxhRound(v3, LoadLe64(p + 16));
      v4 = XxhRound(v4, LoadLe64(p + 24));
    }
    h = Rotl64(v1, 1) + Rotl64(v2, 7) + Rotl64(v3, 12) + Rotl64(v4, 18);
    h = XxhMerge(XxhMerge(XxhMerge(XxhMerge(h, v1), v2), v3), v4);
  } else {
    h = seed + kXxhPrime5;
  }
  h += static_cast<std::uint64_t>(data.size());
  for (; n >= 8; p += 8, n -= 8) {
    h = Rotl64(h ^ XxhRound(0, LoadLe64(p)), 27) * kXxhPrime1 + kXxhPrime4;
  }
  if (n >= 4) {
    const std::uint64_t word = internal::LoadLe32(p);
    h = Rotl64(h ^ word * kXxhPrime1, 23) * kXxhPrime2 + kXxhPrime3;
    p += 4;
    n -= 4;
  }
  for (; n > 0; ++p, --n) {
    const std::uint64_t byte = *p;
    h = Rotl64(h ^ byte * kXxhPrime5, 11) * kXxhPrime1;
  }
  h ^= h >> 33;
  h *= kXxhPrime2;
  h ^= h >> 29;
  h *= kXxhPrime3;
  return h ^ (h >> 32);
}

// 64-bit FNV-1a, used for short keys, content fingerprints in tests,
// audit-manifest v1 leaves and every manifest's Merkle fold.
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
