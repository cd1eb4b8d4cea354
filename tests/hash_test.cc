#include "src/common/hash.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/common/rng.h"

namespace ros {
namespace {

std::span<const std::uint8_t> Bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(Crc32, KnownVectors) {
  // Standard test vector: CRC32("123456789") = 0xCBF43926.
  EXPECT_EQ(Crc32(Bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(Bytes("")), 0u);
  EXPECT_EQ(Crc32(Bytes("a")), 0xE8B7BE43u);
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<std::uint8_t> data(4096, 0xAB);
  std::uint32_t clean = Crc32(data);
  data[1000] ^= 0x01;
  EXPECT_NE(Crc32(data), clean);
}

TEST(Crc32, SeedChaining) {
  std::string full = "hello world";
  std::uint32_t whole = Crc32(Bytes(full));
  // Chaining partial CRCs must differ from naive restart but be stable.
  std::uint32_t part1 = Crc32(Bytes("hello "));
  std::uint32_t chained = Crc32(Bytes("world"), part1);
  EXPECT_EQ(chained, Crc32(Bytes("world"), Crc32(Bytes("hello "))));
  (void)whole;
}

// Bytewise oracle: the textbook one-byte-per-step CRC-32 the word-at-a-time
// Crc32 must reproduce exactly.
std::uint32_t OracleCrc32(std::span<const std::uint8_t> data,
                          std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::uint8_t byte : data) {
    c ^= byte;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> RandomBytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  return out;
}

TEST(Crc32, MatchesBytewiseOracleForEveryShortLengthAndOffset) {
  Rng rng(11);
  const std::vector<std::uint8_t> buf = RandomBytes(rng, 64 + 8);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::span<const std::uint8_t> s(buf.data() + offset, len);
      const auto seed = static_cast<std::uint32_t>(rng.Next());
      ASSERT_EQ(Crc32(s), OracleCrc32(s)) << "offset " << offset << " len "
                                          << len;
      ASSERT_EQ(Crc32(s, seed), OracleCrc32(s, seed))
          << "offset " << offset << " len " << len << " seed " << seed;
    }
  }
}

TEST(Crc32, MatchesBytewiseOracleOnRandomLengthsOffsetsAndSeeds) {
  Rng rng(12);
  const std::vector<std::uint8_t> buf = RandomBytes(rng, 70000 + 8);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t offset = rng.Below(8);
    const std::size_t len = rng.Between(0, 70000);
    const auto seed = static_cast<std::uint32_t>(rng.Next());
    const std::span<const std::uint8_t> s(buf.data() + offset, len);
    ASSERT_EQ(Crc32(s, seed), OracleCrc32(s, seed))
        << "offset " << offset << " len " << len << " seed " << seed;
  }
}

TEST(Crc32, SeedChainingOverSplitBuffersEqualsWholeBuffer) {
  Rng rng(13);
  const std::vector<std::uint8_t> buf = RandomBytes(rng, 5000);
  const std::span<const std::uint8_t> whole(buf);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t len = rng.Between(0, buf.size());
    const std::size_t split = rng.Between(0, len);
    const std::span<const std::uint8_t> a = whole.subspan(0, split);
    const std::span<const std::uint8_t> b = whole.subspan(split, len - split);
    ASSERT_EQ(Crc32(b, Crc32(a)), Crc32(whole.subspan(0, len)))
        << "len " << len << " split " << split;
    ASSERT_EQ(Crc32(b, Crc32(a)), OracleCrc32(whole.subspan(0, len)));
  }
}

// The two CRC-32 tiers, called directly. The folding tier's cases skip
// where the compiler or the CPU lacks PCLMULQDQ and SSE4.1.
constexpr char kNoClmul[] =
    "PCLMULQDQ/SSE4.1 unavailable (compiler or CPU): carry-less-multiply "
    "CRC-32 tier not tested; Crc32 runs slice-by-8 here";

// The bytewise oracle's register step, for checking every prefix of a
// buffer in one pass.
std::uint32_t OracleStep(std::uint32_t reg, std::uint8_t byte) {
  reg ^= byte;
  for (int k = 0; k < 8; ++k) {
    reg = (reg & 1) ? 0xEDB88320u ^ (reg >> 1) : reg >> 1;
  }
  return reg;
}

// Checks `crc` at every length 0-4096 at offsets 0-15, each offset under
// a random seed: the oracle walks the buffer once and each prefix is
// compared with it.
template <typename Crc>
void SweepLengthsAndOffsets(Crc crc) {
  constexpr std::size_t kMaxLen = 4096;
  Rng rng(31);
  const std::vector<std::uint8_t> buf = RandomBytes(rng, kMaxLen + 16);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    const auto seed = static_cast<std::uint32_t>(rng.Next());
    std::uint32_t reg = seed ^ 0xFFFFFFFFu;
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      if (len > 0) {
        reg = OracleStep(reg, buf[offset + len - 1]);
      }
      const std::span<const std::uint8_t> s(buf.data() + offset, len);
      ASSERT_EQ(crc(s, seed), reg ^ 0xFFFFFFFFu)
          << "offset " << offset << " len " << len << " seed " << seed;
    }
  }
}

TEST(Crc32Tiers, SliceBy8MatchesOracleForEveryLengthTo4KiBAndOffsetTo15) {
  SweepLengthsAndOffsets(internal::Crc32SliceBy8);
  SweepLengthsAndOffsets([](std::span<const std::uint8_t> s,
                            std::uint32_t seed) { return Crc32(s, seed); });
}

TEST(Crc32Tiers, FoldingTierMatchesOracleForEveryLengthTo4KiBAndOffsetTo15) {
  if (!internal::Crc32ClmulAvailable()) {
    GTEST_SKIP() << kNoClmul;
  }
  SweepLengthsAndOffsets(internal::Crc32Clmul);
}

TEST(Crc32Tiers, FoldingTierMatchesOnBuffersOfAMebibyteAndMore) {
  if (!internal::Crc32ClmulAvailable()) {
    GTEST_SKIP() << kNoClmul;
  }
  Rng rng(32);
  const std::vector<std::uint8_t> buf = RandomBytes(rng, (2 << 20) + 80);
  for (const std::size_t len :
       {std::size_t{1} << 20, (std::size_t{1} << 20) + 13,
        (std::size_t{3} << 19) + 64, (std::size_t{2} << 20) + 63}) {
    for (const std::size_t offset : {0, 7}) {
      const std::span<const std::uint8_t> s(buf.data() + offset, len);
      const auto seed = static_cast<std::uint32_t>(rng.Next());
      const std::uint32_t want = OracleCrc32(s, seed);
      EXPECT_EQ(internal::Crc32SliceBy8(s, seed), want) << "len " << len;
      EXPECT_EQ(internal::Crc32Clmul(s, seed), want) << "len " << len;
    }
  }
}

// A buffer split in two and chained through the seed equals the whole,
// whichever tier computes each part: first parts below, at and above the
// 64-byte threshold, with and without a 16-byte tail, against second
// parts of the same shapes.
TEST(Crc32Tiers, ChainedSplitsAcrossThe64ByteThresholdAndTheTail) {
  if (!internal::Crc32ClmulAvailable()) {
    GTEST_SKIP() << kNoClmul;
  }
  using internal::Crc32Clmul;
  using internal::Crc32SliceBy8;
  Rng rng(33);
  const std::vector<std::uint8_t> buf = RandomBytes(rng, 2 * 300);
  const std::span<const std::uint8_t> whole(buf);
  const std::size_t shapes[] = {0,  1,  15, 16, 17,  48,  63,  64, 65,
                                71, 79, 80, 81, 127, 128, 143, 200, 300};
  for (const std::size_t a_len : shapes) {
    for (const std::size_t b_len : shapes) {
      const auto a = whole.subspan(0, a_len);
      const auto b = whole.subspan(a_len, b_len);
      const auto seed = static_cast<std::uint32_t>(rng.Next());
      const std::uint32_t want =
          OracleCrc32(whole.subspan(0, a_len + b_len), seed);
      const std::uint32_t fold_a = Crc32Clmul(a, seed);
      const std::uint32_t slice_a = Crc32SliceBy8(a, seed);
      ASSERT_EQ(fold_a, slice_a) << "a " << a_len;
      ASSERT_EQ(Crc32Clmul(b, fold_a), want) << "a " << a_len << " b "
                                             << b_len;
      ASSERT_EQ(Crc32SliceBy8(b, fold_a), want)
          << "a " << a_len << " b " << b_len;
      ASSERT_EQ(Crc32Clmul(b, slice_a), want)
          << "a " << a_len << " b " << b_len;
      ASSERT_EQ(Crc32(b, Crc32(a, seed)), want)
          << "a " << a_len << " b " << b_len;
    }
  }
}

// Byte-at-a-time XXH64 written straight from the spec: every word is
// assembled with a loop and every step indexes the input afresh, so it
// shares no load or tail logic with the word-at-a-time Xxh64.
std::uint64_t OracleXxh64(std::span<const std::uint8_t> data,
                          std::uint64_t seed = 0) {
  constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
  constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
  constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;
  constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
  constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ull;
  auto rotl = [](std::uint64_t x, int r) {
    return (x << r) | (x >> (64 - r));
  };
  auto word = [&data](std::size_t at, int bytes) {
    std::uint64_t w = 0;
    for (int i = bytes - 1; i >= 0; --i) {
      w = (w << 8) | data[at + static_cast<std::size_t>(i)];
    }
    return w;
  };
  auto round = [&rotl](std::uint64_t acc, std::uint64_t input) {
    acc += input * kP2;
    acc = rotl(acc, 31);
    return acc * kP1;
  };
  const std::size_t len = data.size();
  std::size_t at = 0;
  std::uint64_t h = 0;
  if (len >= 32) {
    std::uint64_t v[4] = {seed + kP1 + kP2, seed + kP2, seed, seed - kP1};
    for (; at + 32 <= len; at += 32) {
      for (std::size_t lane = 0; lane < 4; ++lane) {
        v[lane] = round(v[lane], word(at + 8 * lane, 8));
      }
    }
    h = rotl(v[0], 1) + rotl(v[1], 7) + rotl(v[2], 12) + rotl(v[3], 18);
    for (std::uint64_t lane : v) {
      h ^= round(0, lane);
      h = h * kP1 + kP4;
    }
  } else {
    h = seed + kP5;
  }
  h += len;
  for (; at + 8 <= len; at += 8) {
    h ^= round(0, word(at, 8));
    h = rotl(h, 27) * kP1 + kP4;
  }
  if (at + 4 <= len) {
    h ^= word(at, 4) * kP1;
    h = rotl(h, 23) * kP2 + kP3;
    at += 4;
  }
  for (; at < len; ++at) {
    h ^= data[at] * kP5;
    h = rotl(h, 11) * kP1;
  }
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

TEST(Xxh64, PublishedVectors) {
  EXPECT_EQ(Xxh64(Bytes("")), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(Xxh64(Bytes("a")), 0xD24EC4F1A98C6E5Bull);
  EXPECT_EQ(OracleXxh64(Bytes("")), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(OracleXxh64(Bytes("a")), 0xD24EC4F1A98C6E5Bull);
}

// Lengths 0-100 at every offset within a word take each combination of
// the 32-byte stripe loop and the 8-, 4- and 1-byte tails, on aligned and
// unaligned input.
TEST(Xxh64, MatchesBytewiseOracleForEveryShortLengthAndOffset) {
  Rng rng(21);
  const std::vector<std::uint8_t> buf = RandomBytes(rng, 100 + 8);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 100; ++len) {
      const std::span<const std::uint8_t> s(buf.data() + offset, len);
      ASSERT_EQ(Xxh64(s), OracleXxh64(s))
          << "offset " << offset << " len " << len;
    }
  }
}

TEST(Xxh64, MatchesBytewiseOracleOnAWholeLeaf) {
  Rng rng(22);
  const std::vector<std::uint8_t> leaf = RandomBytes(rng, 256 * 1024);
  EXPECT_EQ(Xxh64(leaf), OracleXxh64(leaf));
  std::vector<std::uint8_t> flipped = leaf;
  flipped[leaf.size() / 2] ^= 0x01;
  EXPECT_NE(Xxh64(flipped), Xxh64(leaf));
}

TEST(Fnv1a64, StableAndSensitive) {
  EXPECT_EQ(Fnv1a64(Bytes("")), 0xCBF29CE484222325ull);
  EXPECT_NE(Fnv1a64(Bytes("abc")), Fnv1a64(Bytes("abd")));
  EXPECT_EQ(Fnv1a64(Bytes("abc")), Fnv1a64(Bytes("abc")));
}

}  // namespace
}  // namespace ros
