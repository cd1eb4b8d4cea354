// Carry-less-multiply tier of CRC-32 (IEEE 802.3, bit-reflected): the
// folding construction of Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), the same one the
// Linux crc32-pclmul and Chromium zlib kernels use.
//
// Four 128-bit lanes each fold 64 bytes ahead per step, the lanes then
// fold into one, single 16-byte blocks fold the same way, and the last
// 128 bits reduce to 64 and then, by Barrett reduction with
// mu = floor(x^64 / P), to the 32-bit register. All constants are bit-reflected, so the register is the same
// one slice-by-8 carries and the tiers chain into each other.
//
// This translation unit is the only one compiled with -mpclmul -msse4.1
// (see src/common/CMakeLists.txt), so neither instruction set can leak
// into code that runs before the runtime CPU check. On compilers/targets
// without the flags the #else branch provides stubs and
// Crc32ClmulAvailable() reports false, which keeps Crc32 on slice-by-8.
#include "src/common/hash.h"
#include "src/common/status.h"

#if defined(__PCLMUL__) && defined(__SSE4_1__)
#include <smmintrin.h>
#include <wmmintrin.h>
#endif

namespace ros::internal {

#if defined(__PCLMUL__) && defined(__SSE4_1__)

namespace {

inline __m128i Load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Folds `acc` 128 bits forward by the distance whose two constants `k`
// holds (low lane multiplies acc's low half, high lane its high half) and
// adds the next block.
inline __m128i Fold(__m128i acc, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

// The register after `n` bytes at `p`, starting from register `crc`
// (the pre-inverted value). n >= 64 and n % 16 == 0.
std::uint32_t FoldBlocks(const std::uint8_t* p, std::size_t n,
                         std::uint32_t crc) {
  // x^(4*128+32) and x^(4*128-32) mod P: fold 64 bytes ahead.
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  // x^(128+32) and x^(128-32) mod P: fold 16 bytes ahead.
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  // x^64 mod P: fold 96 bits into 64.
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  // P' (the reflected polynomial with its x^32 term) and mu' for Barrett.
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(Load(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = Load(p + 16);
  __m128i x3 = Load(p + 32);
  __m128i x4 = Load(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = Fold(x1, k1k2, Load(p));
    x2 = Fold(x2, k1k2, Load(p + 16));
    x3 = Fold(x3, k1k2, Load(p + 32));
    x4 = Fold(x4, k1k2, Load(p + 48));
  }
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) {
    x1 = Fold(x1, k3k4, Load(p));
  }

  // 128 -> 64 bits: the low half times x^(128-32) mod P lands on the high.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  // 96 -> 64 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5,
                                          0x00));
  // Barrett: q = (low32 * mu') mod x^32, r = x1 ^ q * P'.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly_mu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, mask32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x1, q), 1));
}

}  // namespace

bool Crc32ClmulAvailable() {
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

std::uint32_t Crc32Clmul(std::span<const std::uint8_t> data,
                         std::uint32_t seed) {
  if (data.size() < kCrc32ClmulMinBytes) {
    return Crc32SliceBy8(data, seed);
  }
  const std::size_t bulk = data.size() & ~std::size_t{15};
  const std::uint32_t reg =
      FoldBlocks(data.data(), bulk, seed ^ 0xFFFFFFFFu);
  return Crc32SliceBy8(data.subspan(bulk), reg ^ 0xFFFFFFFFu);
}

#else  // !(defined(__PCLMUL__) && defined(__SSE4_1__))

bool Crc32ClmulAvailable() { return false; }

std::uint32_t Crc32Clmul(std::span<const std::uint8_t>, std::uint32_t) {
  ROS_CHECK(false);
  return 0;
}

#endif  // defined(__PCLMUL__) && defined(__SSE4_1__)

}  // namespace ros::internal
