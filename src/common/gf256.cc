// Word-sliced GF(2^8) parity kernels.
//
// All multi-byte loads/stores go through std::memcpy, which compiles to a
// single (possibly unaligned) 64-bit access on every target we care about
// while staying free of strict-aliasing and alignment UB — the kernels are
// run under -fsanitize=undefined in CI (see ROS_SANITIZE).
#include "src/common/gf256.h"

#include <algorithm>
#include <cstring>

namespace ros::gf256 {

namespace {

using internal::kNibbleTables;
using internal::NibbleTables;

inline std::uint64_t LoadWord(const std::uint8_t* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

inline void StoreWord(std::uint8_t* p, std::uint64_t w) {
  std::memcpy(p, &w, sizeof(w));
}

// Bytewise x2 in GF(2^8) on eight packed lanes: shift each byte's low seven
// bits left, then XOR 0x1D into every lane whose top bit was set. The
// (mask >> 7) * 0x1D trick spreads 0x1D into exactly those lanes without
// cross-lane carries (each product term stays below 256).
constexpr std::uint64_t kLowSeven = 0x7F7F7F7F7F7F7F7Full;
constexpr std::uint64_t kTopBits = 0x8080808080808080ull;

inline std::uint64_t Mul2Word(std::uint64_t w) {
  return ((w & kLowSeven) << 1) ^ (((w & kTopBits) >> 7) * 0x1D);
}

// P/Q updates stay blocked so all three streams fit in L1/L2 per block even
// for multi-MiB disc-image sweeps.
constexpr std::size_t kBlockBytes = 64 * 1024;

inline std::uint8_t NibbleMul(const NibbleTables& t, std::uint8_t x) {
  return static_cast<std::uint8_t>(t.lo[x & 0xF] ^ t.hi[x >> 4]);
}

// One-time CPU probe; when the SSSE3 tier is unavailable (old CPU or the
// compiler lacked -mssse3) every kernel below takes its portable branch.
inline bool UseSimd() {
  static const bool use = internal::SimdAvailable();
  return use;
}

}  // namespace

// ---------------------------------------------------------------------------
// Word-sliced / split-nibble kernels.

void XorAcc(std::span<std::uint8_t> out, std::span<const std::uint8_t> in) {
  ROS_CHECK(out.size() >= in.size());
  std::uint8_t* o = out.data();
  const std::uint8_t* d = in.data();
  const std::size_t n = in.size();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    StoreWord(o + i, LoadWord(o + i) ^ LoadWord(d + i));
    StoreWord(o + i + 8, LoadWord(o + i + 8) ^ LoadWord(d + i + 8));
    StoreWord(o + i + 16, LoadWord(o + i + 16) ^ LoadWord(d + i + 16));
    StoreWord(o + i + 24, LoadWord(o + i + 24) ^ LoadWord(d + i + 24));
  }
  for (; i + 8 <= n; i += 8) {
    StoreWord(o + i, LoadWord(o + i) ^ LoadWord(d + i));
  }
  for (; i < n; ++i) {
    o[i] ^= d[i];
  }
}

void MulAcc(std::span<std::uint8_t> out, std::uint8_t coeff,
            std::span<const std::uint8_t> in) {
  ROS_CHECK(out.size() >= in.size());
  if (coeff == 0) {
    return;
  }
  if (coeff == 1) {
    XorAcc(out, in);
    return;
  }
  const NibbleTables& t = kNibbleTables[coeff];
  std::uint8_t* o = out.data();
  const std::uint8_t* d = in.data();
  const std::size_t n = in.size();
  if (UseSimd()) {
    internal::MulAccSimd(o, d, n, t);
    return;
  }
  std::size_t i = 0;
  // Gather eight products into one word so `out` is touched once per eight
  // bytes; the nibble tables are 32 bytes per coefficient and stay in L1.
  for (; i + 8 <= n; i += 8) {
    std::uint64_t r = 0;
    for (int j = 7; j >= 0; --j) {
      r = (r << 8) | NibbleMul(t, d[i + static_cast<std::size_t>(j)]);
    }
    StoreWord(o + i, LoadWord(o + i) ^ r);
  }
  for (; i < n; ++i) {
    o[i] ^= NibbleMul(t, d[i]);
  }
}

void PQAcc(std::span<std::uint8_t> p, std::span<std::uint8_t> q,
           std::span<const std::uint8_t> in) {
  ROS_CHECK(p.size() == q.size());
  ROS_CHECK(p.size() >= in.size());
  std::uint8_t* pp = p.data();
  std::uint8_t* qq = q.data();
  const std::uint8_t* d = in.data();
  const std::size_t n = in.size();
  if (UseSimd()) {
    internal::PQAccSimd(pp, qq, d, n);
    internal::QDoubleSimd(qq + n, q.size() - n);
    return;
  }
  for (std::size_t base = 0; base < n; base += kBlockBytes) {
    const std::size_t end = std::min(n, base + kBlockBytes);
    std::size_t i = base;
    for (; i + 8 <= end; i += 8) {
      const std::uint64_t w = LoadWord(d + i);
      StoreWord(pp + i, LoadWord(pp + i) ^ w);
      StoreWord(qq + i, Mul2Word(LoadWord(qq + i)) ^ w);
    }
    for (; i < end; ++i) {
      pp[i] ^= d[i];
      qq[i] = static_cast<std::uint8_t>(Mul2(qq[i]) ^ d[i]);
    }
  }
  // Horner tail: past this member's end its contribution is zero, but the
  // previously accumulated members still pick up their factor of two.
  std::size_t i = n;
  for (; i + 8 <= q.size(); i += 8) {
    StoreWord(qq + i, Mul2Word(LoadWord(qq + i)));
  }
  for (; i < q.size(); ++i) {
    qq[i] = Mul2(qq[i]);
  }
}

// ---------------------------------------------------------------------------
// Scalar reference kernels.

void XorAccScalar(std::span<std::uint8_t> out,
                  std::span<const std::uint8_t> in) {
  ROS_CHECK(out.size() >= in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] ^= in[i];
  }
}

void MulAccScalar(std::span<std::uint8_t> out, std::uint8_t coeff,
                  std::span<const std::uint8_t> in) {
  ROS_CHECK(out.size() >= in.size());
  if (coeff == 0) {
    return;
  }
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] ^= Mul(coeff, in[i]);
  }
}

void PQAccScalar(std::span<std::uint8_t> p, std::span<std::uint8_t> q,
                 std::span<const std::uint8_t> in) {
  ROS_CHECK(p.size() == q.size());
  ROS_CHECK(p.size() >= in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    p[i] ^= in[i];
    q[i] = static_cast<std::uint8_t>(Mul2(q[i]) ^ in[i]);
  }
  for (std::size_t i = in.size(); i < q.size(); ++i) {
    q[i] = Mul2(q[i]);
  }
}

}  // namespace ros::gf256
