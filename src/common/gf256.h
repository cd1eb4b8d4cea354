// GF(2^8) arithmetic and the bulk kernels under the Reed-Solomon codec in
// src/common/erasure.h.
//
// Uses the standard polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D) and the
// generator g = 2, the same construction as the Linux RAID-6 driver:
//   P = d_0 ^ d_1 ^ ... ^ d_{n-1}
//   Q = g^0*d_0 ^ g^1*d_1 ^ ... ^ g^{n-1}*d_{n-1}
//
// Two kernel tiers are provided:
//  - The default kernels (XorAcc, MulAcc, PQAcc) are word-sliced: XOR and
//    the Q doubling recurrence run over uint64_t words (8 bytes per step,
//    memcpy loads so unaligned spans are fine), and GF multiplies go
//    through per-coefficient split-nibble tables (two 16-entry tables
//    instead of a branch plus log/exp double lookup per byte). Encode uses
//    PQAcc (m = 2) or XorAcc (m = 1); Decode is one MulAcc sum per rebuilt
//    shard, and MulAcc with coefficient 1 is XorAcc.
//  - The *Scalar kernels are the byte-at-a-time reference implementations.
//    They are kept for differential testing and for the kernel benchmark
//    (bench/gf256_kernels.cc); production code should never call them.
#ifndef ROS_SRC_COMMON_GF256_H_
#define ROS_SRC_COMMON_GF256_H_

#include <array>
#include <cstdint>
#include <span>

#include "src/common/status.h"

namespace ros::gf256 {

namespace internal {

struct Tables {
  std::array<std::uint8_t, 256> log{};
  std::array<std::uint8_t, 511> exp{};
};

constexpr Tables MakeTables() {
  Tables t{};
  std::uint16_t x = 1;
  for (int i = 0; i < 255; ++i) {
    t.exp[i] = static_cast<std::uint8_t>(x);
    t.log[x] = static_cast<std::uint8_t>(i);
    x <<= 1;
    if (x & 0x100) {
      x ^= 0x11D;
    }
  }
  // Duplicate so exp[i + j] never needs a mod 255 for i, j < 255.
  for (int i = 255; i < 511; ++i) {
    t.exp[i] = t.exp[i - 255];
  }
  return t;
}

inline constexpr Tables kTables = MakeTables();

}  // namespace internal

constexpr std::uint8_t Mul(std::uint8_t a, std::uint8_t b) {
  if (a == 0 || b == 0) {
    return 0;
  }
  return internal::kTables.exp[internal::kTables.log[a] +
                               internal::kTables.log[b]];
}

constexpr std::uint8_t Inv(std::uint8_t a) {
  ROS_CHECK(a != 0);
  return internal::kTables.exp[255 - internal::kTables.log[a]];
}

constexpr std::uint8_t Div(std::uint8_t a, std::uint8_t b) {
  return Mul(a, Inv(b));
}

// g^n for generator 2.
constexpr std::uint8_t Pow2(unsigned n) {
  return internal::kTables.exp[n % 255];
}

// x * 2 in GF(2^8): shift, then reduce by 0x11D if bit 7 was set.
constexpr std::uint8_t Mul2(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x & 0x80) ? 0x1D : 0));
}

namespace internal {

// Split-nibble multiply tables for one coefficient c:
//   c * x == lo[x & 0xF] ^ hi[x >> 4]
// because multiplication distributes over XOR and x == (x & 0xF) ^ (x & 0xF0).
struct NibbleTables {
  std::array<std::uint8_t, 16> lo{};
  std::array<std::uint8_t, 16> hi{};
};

constexpr NibbleTables MakeNibbleTables(std::uint8_t c) {
  NibbleTables t{};
  for (int x = 0; x < 16; ++x) {
    t.lo[x] = Mul(c, static_cast<std::uint8_t>(x));
    t.hi[x] = Mul(c, static_cast<std::uint8_t>(x << 4));
  }
  return t;
}

constexpr std::array<NibbleTables, 256> MakeAllNibbleTables() {
  std::array<NibbleTables, 256> all{};
  for (int c = 0; c < 256; ++c) {
    all[c] = MakeNibbleTables(static_cast<std::uint8_t>(c));
  }
  return all;
}

// 8 KiB of precomputed tables, one pair per coefficient; L1-resident and
// branch-free to index, unlike the log/exp path.
inline constexpr std::array<NibbleTables, 256> kNibbleTables =
    MakeAllNibbleTables();

// SIMD tier (gf256_simd.cc, compiled with -mssse3 where the compiler
// supports it): the same split-nibble tables drive a PSHUFB table lookup on
// 16 lanes at once. SimdAvailable() checks the CPU at runtime; when it
// returns false the public kernels fall back to the portable word-sliced
// implementations. All Simd kernels process the full [0, n) range,
// including unaligned heads/tails.
bool SimdAvailable();
void MulAccSimd(std::uint8_t* out, const std::uint8_t* in, std::size_t n,
                const NibbleTables& t);
void PQAccSimd(std::uint8_t* p, std::uint8_t* q, const std::uint8_t* d,
               std::size_t n);
void QDoubleSimd(std::uint8_t* q, std::size_t n);

}  // namespace internal

// ---------------------------------------------------------------------------
// Bulk kernels (word-sliced / split-nibble; the default tier).

// out ^= in (plain XOR accumulate, used for P parity). out may be longer
// than in; the tail is untouched.
void XorAcc(std::span<std::uint8_t> out, std::span<const std::uint8_t> in);

// out ^= coeff * in (GF multiply-accumulate, used for Q parity).
void MulAcc(std::span<std::uint8_t> out, std::uint8_t coeff,
            std::span<const std::uint8_t> in);

// Fused single-sweep P+Q update (the RAID-6 Horner recurrence):
//   p ^= in;  q = 2*q ^ in
// over [0, in.size()), and q = 2*q alone over [in.size(), q.size()) so a
// member stream shorter than the parity still doubles the accumulated Q
// contributions of longer members. Feeding member streams LAST-to-FIRST
// yields exactly Q = sum g^k * d_k (and P = xor of members): after
// processing d_{n-1}, ..., d_0 the accumulator holds
//   q = 2^{n-1} d_{n-1} ^ ... ^ 2^0 d_0.
// p and q must be the same length, at least in.size(). Data is processed in
// 64 KiB blocks so p/q/in stay cache-resident per block.
void PQAcc(std::span<std::uint8_t> p, std::span<std::uint8_t> q,
           std::span<const std::uint8_t> in);

// ---------------------------------------------------------------------------
// Scalar reference kernels (byte-at-a-time; differential testing + bench
// baselines only).

void XorAccScalar(std::span<std::uint8_t> out,
                  std::span<const std::uint8_t> in);
void MulAccScalar(std::span<std::uint8_t> out, std::uint8_t coeff,
                  std::span<const std::uint8_t> in);
void PQAccScalar(std::span<std::uint8_t> p, std::span<std::uint8_t> q,
                 std::span<const std::uint8_t> in);

}  // namespace ros::gf256

#endif  // ROS_SRC_COMMON_GF256_H_
