// SSSE3 tier of the GF(2^8) kernels: PSHUFB-driven split-nibble multiply
// (16 products per instruction pair) and the packed-lane RAID-6 Q doubling,
// the same construction as the Linux RAID-6 SSE kernels and ISA-L's
// erasure-code path.
//
// This translation unit is the only one compiled with -mssse3 (see
// src/common/CMakeLists.txt), so SSSE3 instructions cannot leak into code
// that runs before the runtime CPU check. On compilers/targets without the
// flag the #else branch provides stubs and SimdAvailable() reports false,
// which routes the public kernels to the portable word-sliced tier.
#include "src/common/gf256.h"

#if defined(__SSSE3__)
#include <tmmintrin.h>
#endif

namespace ros::gf256::internal {

#if defined(__SSSE3__)

namespace {

inline __m128i LoadTable(const std::array<std::uint8_t, 16>& t) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.data()));
}

inline __m128i Load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

inline void Store(std::uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

// c * x on 16 lanes: split each byte into nibbles and use PSHUFB as a
// 16-entry table lookup, one shuffle per nibble half.
inline __m128i MulVec(__m128i x, __m128i lo_t, __m128i hi_t,
                      __m128i low_mask) {
  const __m128i lo = _mm_and_si128(x, low_mask);
  const __m128i hi = _mm_and_si128(_mm_srli_epi16(x, 4), low_mask);
  return _mm_xor_si128(_mm_shuffle_epi8(lo_t, lo),
                       _mm_shuffle_epi8(hi_t, hi));
}

// x * 2 on 16 lanes: byte-wise shift via add, then fold 0x1D into every
// lane whose top bit was set (signed compare against zero finds them).
inline __m128i Mul2Vec(__m128i x, __m128i poly, __m128i zero) {
  const __m128i mask = _mm_cmpgt_epi8(zero, x);
  return _mm_xor_si128(_mm_add_epi8(x, x), _mm_and_si128(mask, poly));
}

inline std::uint8_t NibbleMul(const NibbleTables& t, std::uint8_t x) {
  return static_cast<std::uint8_t>(t.lo[x & 0xF] ^ t.hi[x >> 4]);
}

}  // namespace

bool SimdAvailable() { return __builtin_cpu_supports("ssse3"); }

void MulAccSimd(std::uint8_t* out, const std::uint8_t* in, std::size_t n,
                const NibbleTables& t) {
  const __m128i lo_t = LoadTable(t.lo);
  const __m128i hi_t = LoadTable(t.hi);
  const __m128i low_mask = _mm_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    Store(out + i, _mm_xor_si128(Load(out + i),
                                 MulVec(Load(in + i), lo_t, hi_t, low_mask)));
    Store(out + i + 16,
          _mm_xor_si128(Load(out + i + 16),
                        MulVec(Load(in + i + 16), lo_t, hi_t, low_mask)));
  }
  for (; i + 16 <= n; i += 16) {
    Store(out + i, _mm_xor_si128(Load(out + i),
                                 MulVec(Load(in + i), lo_t, hi_t, low_mask)));
  }
  for (; i < n; ++i) {
    out[i] ^= NibbleMul(t, in[i]);
  }
}

void PQAccSimd(std::uint8_t* p, std::uint8_t* q, const std::uint8_t* d,
               std::size_t n) {
  const __m128i poly = _mm_set1_epi8(0x1D);
  const __m128i zero = _mm_setzero_si128();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i dd = Load(d + i);
    Store(p + i, _mm_xor_si128(Load(p + i), dd));
    Store(q + i, _mm_xor_si128(Mul2Vec(Load(q + i), poly, zero), dd));
  }
  for (; i < n; ++i) {
    p[i] ^= d[i];
    q[i] = static_cast<std::uint8_t>(Mul2(q[i]) ^ d[i]);
  }
}

void QDoubleSimd(std::uint8_t* q, std::size_t n) {
  const __m128i poly = _mm_set1_epi8(0x1D);
  const __m128i zero = _mm_setzero_si128();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    Store(q + i, Mul2Vec(Load(q + i), poly, zero));
  }
  for (; i < n; ++i) {
    q[i] = Mul2(q[i]);
  }
}

#else  // !defined(__SSSE3__)

bool SimdAvailable() { return false; }

void MulAccSimd(std::uint8_t*, const std::uint8_t*, std::size_t,
                const NibbleTables&) {
  ROS_CHECK(false);
}
void PQAccSimd(std::uint8_t*, std::uint8_t*, const std::uint8_t*,
               std::size_t) {
  ROS_CHECK(false);
}
void QDoubleSimd(std::uint8_t*, std::size_t) { ROS_CHECK(false); }

#endif  // defined(__SSSE3__)

}  // namespace ros::gf256::internal
