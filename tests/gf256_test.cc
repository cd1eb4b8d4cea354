#include "src/common/gf256.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "src/common/rng.h"

namespace ros::gf256 {
namespace {

std::vector<std::uint8_t> RandomBuffer(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  return out;
}

// Sizes that exercise every head/word/tail combination of the word-sliced
// kernels: empty, sub-word, word-multiple, and odd lengths around the 8- and
// 32-byte unroll boundaries.
const std::size_t kOddSizes[] = {0,  1,  7,  8,  9,  15, 16, 17,  31,
                                 32, 33, 63, 64, 65, 255, 257, 4096, 4097};

TEST(Gf256, MulIdentityAndZero) {
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(Mul(static_cast<std::uint8_t>(a), 1), a);
    EXPECT_EQ(Mul(1, static_cast<std::uint8_t>(a)), a);
    EXPECT_EQ(Mul(static_cast<std::uint8_t>(a), 0), 0);
  }
}

TEST(Gf256, MulCommutative) {
  for (int a = 1; a < 256; a += 7) {
    for (int b = 1; b < 256; b += 11) {
      EXPECT_EQ(Mul(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b)),
                Mul(static_cast<std::uint8_t>(b), static_cast<std::uint8_t>(a)));
    }
  }
}

TEST(Gf256, InverseRoundTrip) {
  for (int a = 1; a < 256; ++a) {
    std::uint8_t inv = Inv(static_cast<std::uint8_t>(a));
    EXPECT_EQ(Mul(static_cast<std::uint8_t>(a), inv), 1) << a;
  }
}

TEST(Gf256, DivUndoesMul) {
  for (int a = 0; a < 256; a += 5) {
    for (int b = 1; b < 256; b += 9) {
      std::uint8_t prod = Mul(static_cast<std::uint8_t>(a),
                              static_cast<std::uint8_t>(b));
      EXPECT_EQ(Div(prod, static_cast<std::uint8_t>(b)), a);
    }
  }
}

TEST(Gf256, GeneratorPowersCycle) {
  EXPECT_EQ(Pow2(0), 1);
  EXPECT_EQ(Pow2(1), 2);
  EXPECT_EQ(Pow2(255), 1);  // g^255 = 1
  // All powers 0..254 are distinct (g is primitive).
  std::vector<bool> seen(256, false);
  for (unsigned i = 0; i < 255; ++i) {
    std::uint8_t v = Pow2(i);
    EXPECT_FALSE(seen[v]) << "repeat at " << i;
    seen[v] = true;
  }
}

TEST(Gf256, MulDistributesOverXor) {
  for (int a = 1; a < 256; a += 13) {
    for (int x = 0; x < 256; x += 17) {
      for (int y = 0; y < 256; y += 19) {
        EXPECT_EQ(
            Mul(static_cast<std::uint8_t>(a),
                static_cast<std::uint8_t>(x ^ y)),
            Mul(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(x)) ^
                Mul(static_cast<std::uint8_t>(a),
                    static_cast<std::uint8_t>(y)));
      }
    }
  }
}

TEST(Gf256, BufferOps) {
  std::vector<std::uint8_t> acc(8, 0);
  std::vector<std::uint8_t> in{1, 2, 3, 4, 5, 6, 7, 8};
  XorAcc(acc, in);
  EXPECT_EQ(acc, in);
  XorAcc(acc, in);
  EXPECT_EQ(acc, std::vector<std::uint8_t>(8, 0));

  MulAcc(acc, 3, in);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(acc[i], Mul(3, in[i]));
  }
  std::vector<std::uint8_t> back(8, 0);
  MulAcc(back, Inv(3), acc);
  EXPECT_EQ(back, in);
}

TEST(Gf256, Mul2MatchesMulByTwo) {
  for (int x = 0; x < 256; ++x) {
    EXPECT_EQ(Mul2(static_cast<std::uint8_t>(x)),
              Mul(2, static_cast<std::uint8_t>(x)))
        << x;
  }
}

// Differential: the word-sliced kernels must be byte-identical to the scalar
// reference for every size and (for MulAcc) every coefficient class,
// including unaligned spans.
TEST(Gf256Differential, XorAccAllSizes) {
  for (std::size_t n : kOddSizes) {
    auto in = RandomBuffer(n, n * 3 + 1);
    auto fast = RandomBuffer(n, n * 3 + 2);
    auto ref = fast;
    XorAcc(fast, in);
    XorAccScalar(ref, in);
    EXPECT_EQ(fast, ref) << "size " << n;
  }
}

TEST(Gf256Differential, MulAccAllSizesAndCoefficients) {
  for (std::size_t n : kOddSizes) {
    for (int c : {0, 1, 2, 3, 0x1D, 0x80, 0xFF}) {
      auto in = RandomBuffer(n, n * 7 + static_cast<std::uint64_t>(c));
      auto fast = RandomBuffer(n, n * 7 + static_cast<std::uint64_t>(c) + 1);
      auto ref = fast;
      MulAcc(fast, static_cast<std::uint8_t>(c), in);
      MulAccScalar(ref, static_cast<std::uint8_t>(c), in);
      EXPECT_EQ(fast, ref) << "size " << n << " coeff " << c;
    }
  }
}

TEST(Gf256Differential, UnalignedSpans) {
  // Start the spans at every offset 0..7 inside the allocation so the word
  // loop runs over genuinely misaligned addresses.
  auto in = RandomBuffer(4096 + 8, 21);
  auto out = RandomBuffer(4096 + 8, 22);
  for (std::size_t off = 0; off < 8; ++off) {
    std::span<const std::uint8_t> in_s{in.data() + off, 4093};
    auto fast = out;
    auto ref = out;
    XorAcc(std::span{fast.data() + off, 4093}, in_s);
    XorAccScalar(std::span{ref.data() + off, 4093}, in_s);
    EXPECT_EQ(fast, ref) << "xor offset " << off;
    fast = out;
    ref = out;
    MulAcc(std::span{fast.data() + off, 4093}, 0xC3, in_s);
    MulAccScalar(std::span{ref.data() + off, 4093}, 0xC3, in_s);
    EXPECT_EQ(fast, ref) << "mulacc offset " << off;
  }
}

TEST(Gf256Differential, PQAccAllSizesWithShorterMember) {
  // q longer than the member stream: the tail must keep doubling.
  for (std::size_t n : kOddSizes) {
    for (std::size_t pad : {std::size_t{0}, std::size_t{5}, std::size_t{64}}) {
      auto in = RandomBuffer(n, n + pad + 31);
      auto p_fast = RandomBuffer(n + pad, n + pad + 32);
      auto q_fast = RandomBuffer(n + pad, n + pad + 33);
      auto p_ref = p_fast;
      auto q_ref = q_fast;
      PQAcc(p_fast, q_fast, in);
      PQAccScalar(p_ref, q_ref, in);
      EXPECT_EQ(p_fast, p_ref) << "size " << n << " pad " << pad;
      EXPECT_EQ(q_fast, q_ref) << "size " << n << " pad " << pad;
    }
  }
}

// Feeding member streams last-to-first through the fused Horner kernel must
// produce exactly P = xor(d_k) and Q = sum g^k d_k — the classic two-pass
// construction.
TEST(Gf256Property, PQAccHornerMatchesTwoPass) {
  constexpr int kMembers = 11;
  std::vector<std::vector<std::uint8_t>> streams;
  std::size_t max_len = 0;
  for (int k = 0; k < kMembers; ++k) {
    // Mixed lengths, several odd.
    streams.push_back(RandomBuffer(100 + 37 * static_cast<std::size_t>(k) +
                                       static_cast<std::size_t>(k % 3),
                                   static_cast<std::uint64_t>(k) + 70));
    max_len = std::max(max_len, streams.back().size());
  }
  std::vector<std::uint8_t> p(max_len, 0), q(max_len, 0);
  for (int k = kMembers - 1; k >= 0; --k) {
    PQAcc(p, q, streams[static_cast<std::size_t>(k)]);
  }
  std::vector<std::uint8_t> p2(max_len, 0), q2(max_len, 0);
  for (int k = 0; k < kMembers; ++k) {
    XorAccScalar(p2, streams[static_cast<std::size_t>(k)]);
    MulAccScalar(q2, Pow2(static_cast<unsigned>(k)),
                 streams[static_cast<std::size_t>(k)]);
  }
  EXPECT_EQ(p, p2);
  EXPECT_EQ(q, q2);
}

TEST(Gf256Property, RandomizedDifferentialSweep) {
  Rng rng(77);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t n = rng.Below(1025);
    const auto coeff = static_cast<std::uint8_t>(rng.Next());
    auto in = RandomBuffer(n, iter * 3 + 1000);
    auto acc = RandomBuffer(n, iter * 3 + 1001);
    auto q = RandomBuffer(n, iter * 3 + 1002);

    auto acc_ref = acc;
    MulAcc(acc, coeff, in);
    MulAccScalar(acc_ref, coeff, in);
    ASSERT_EQ(acc, acc_ref) << "iter " << iter;

    auto p_ref = acc;
    auto q_ref = q;
    auto p_fast = acc;
    auto q_fast = q;
    PQAcc(p_fast, q_fast, in);
    PQAccScalar(p_ref, q_ref, in);
    ASSERT_EQ(p_fast, p_ref) << "iter " << iter;
    ASSERT_EQ(q_fast, q_ref) << "iter " << iter;
  }
}

}  // namespace
}  // namespace ros::gf256
