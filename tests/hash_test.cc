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

TEST(Fnv1a64, StableAndSensitive) {
  EXPECT_EQ(Fnv1a64(Bytes("")), 0xCBF29CE484222325ull);
  EXPECT_NE(Fnv1a64(Bytes("abc")), Fnv1a64(Bytes("abd")));
  EXPECT_EQ(Fnv1a64(Bytes("abc")), Fnv1a64(Bytes("abc")));
}

}  // namespace
}  // namespace ros
