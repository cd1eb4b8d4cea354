// Differential tests for the k+m Reed-Solomon codec. The oracle is the
// byte-at-a-time scalar tier: P = XorAccScalar over the shards and
// Q = MulAccScalar(g^j) over the shards, or the PQAccScalar Horner sweep.
#include "src/common/erasure.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "src/common/rng.h"

namespace ros::ec {
namespace {

using Bytes = std::vector<std::uint8_t>;

Bytes RandomBuffer(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  return out;
}

// k shards of mixed odd lengths, so none is a multiple of the 8- or 16-byte
// kernel steps. Shard 0 is the longest and sets the parity length.
std::vector<Bytes> MixedShards(int k, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Bytes> shards;
  const std::size_t longest = 301 + 2 * rng.Below(200);
  for (int j = 0; j < k; ++j) {
    const std::size_t n = j == 0 ? longest : 1 + 2 * rng.Below(longest / 2);
    shards.push_back(
        RandomBuffer(n, seed * 131 + static_cast<std::uint64_t>(j)));
  }
  return shards;
}

std::vector<std::span<const std::uint8_t>> Spans(
    const std::vector<Bytes>& shards) {
  return {shards.begin(), shards.end()};
}

// Row 0 by XorAccScalar, row 1 by MulAccScalar with g^j.
std::vector<Bytes> OracleParity(const std::vector<Bytes>& data, int m) {
  std::size_t length = 0;
  for (const Bytes& d : data) {
    length = std::max(length, d.size());
  }
  std::vector<Bytes> rows(static_cast<std::size_t>(m), Bytes(length, 0));
  for (std::size_t j = 0; j < data.size(); ++j) {
    gf256::XorAccScalar(rows[0], data[j]);
    if (m == 2) {
      gf256::MulAccScalar(rows[1], gf256::Pow2(static_cast<unsigned>(j)),
                          data[j]);
    }
  }
  return rows;
}

Bytes Padded(Bytes b, std::size_t length) {
  b.resize(length, 0);
  return b;
}

// All subsets of {0, ..., n-1} with at most `max` members.
std::vector<std::vector<int>> ErasurePatterns(int n, int max) {
  std::vector<std::vector<int>> out{{}};
  for (int a = 0; a < n; ++a) {
    out.push_back({a});
    for (int b = a + 1; max >= 2 && b < n; ++b) {
      out.push_back({a, b});
    }
  }
  return out;
}

TEST(ErasureEncode, MatchesScalarOraclesForEveryShape) {
  for (int m = 1; m <= kMaxParityRows; ++m) {
    for (int k = 1; k <= 12; ++k) {
      const std::vector<Bytes> data =
          MixedShards(k, static_cast<std::uint64_t>(100 * m + k));
      const Encoded encoded = Encode(Spans(data), m);
      EXPECT_EQ(encoded.sweeps, k);
      ASSERT_EQ(encoded.rows.size(), static_cast<std::size_t>(m));
      const std::vector<Bytes> oracle = OracleParity(data, m);
      EXPECT_EQ(encoded.rows, oracle) << k << "+" << m;

      // The Horner oracle: PQAccScalar last shard first, XorAccScalar for P.
      Bytes p(data[0].size(), 0);
      Bytes q(data[0].size(), 0);
      for (int j = k - 1; j >= 0; --j) {
        gf256::PQAccScalar(p, q, data[j]);
      }
      EXPECT_EQ(encoded.rows[0], p);
      if (m == 2) {
        EXPECT_EQ(encoded.rows[1], q);
      }
    }
  }
}

TEST(ErasureEncode, RowsFollowTheCoefficientConvention) {
  EXPECT_EQ(Coefficient(0, 0), 1);
  EXPECT_EQ(Coefficient(0, 11), 1);
  EXPECT_EQ(Coefficient(1, 0), 1);
  EXPECT_EQ(Coefficient(1, 1), 2);
  EXPECT_EQ(Coefficient(1, 9), gf256::Pow2(9));
}

TEST(ErasureDecode, RecoversEveryPatternUpToM) {
  for (int m = 1; m <= kMaxParityRows; ++m) {
    for (int k = 1; k <= 12; ++k) {
      const std::vector<Bytes> data =
          MixedShards(k, static_cast<std::uint64_t>(1000 + 100 * m + k));
      const std::vector<Bytes> parity = OracleParity(data, m);
      const std::size_t length = parity[0].size();
      for (const std::vector<int>& erased : ErasurePatterns(k + m, m)) {
        std::vector<Bytes> shards = data;
        shards.insert(shards.end(), parity.begin(), parity.end());
        for (int index : erased) {
          shards[index].clear();
        }
        ASSERT_TRUE(Decode(k, shards, erased).ok())
            << k << "+" << m << " erased " << erased.size();
        for (int j = 0; j < k; ++j) {
          const bool lost =
              std::find(erased.begin(), erased.end(), j) != erased.end();
          // Rebuilt shards come back at the parity length; survivors are
          // untouched.
          EXPECT_EQ(shards[j], lost ? Padded(data[j], length) : data[j])
              << k << "+" << m << " shard " << j;
        }
        for (int r = 0; r < m; ++r) {
          const bool lost = std::find(erased.begin(), erased.end(), k + r) !=
                            erased.end();
          EXPECT_EQ(shards[k + r], lost ? Bytes{} : parity[r]);
        }
      }
    }
  }
}

// A single data loss reads P whenever P is readable and falls back to Q
// only when P is erased.
TEST(ErasureDecode, UsesTheLowestReadableParityRow) {
  const std::vector<Bytes> data = MixedShards(5, 7);
  const std::vector<Bytes> parity = OracleParity(data, 2);
  std::vector<Bytes> shards = data;
  shards.push_back(parity[0]);
  shards.push_back(Bytes(parity[1].size(), 0xA5));  // Q garbage
  shards[2].clear();
  const int erased_data[] = {2};
  ASSERT_TRUE(Decode(5, shards, erased_data).ok());
  EXPECT_EQ(shards[2], Padded(data[2], parity[0].size()));

  shards = data;
  shards.push_back({});
  shards.push_back(parity[1]);
  shards[3].clear();
  const int erased_p[] = {3, 5};
  ASSERT_TRUE(Decode(5, shards, erased_p).ok());
  EXPECT_EQ(shards[3], Padded(data[3], parity[0].size()));
}

// Two data losses over streams of different lengths (the RAID-6 array
// schema over serialized disc images).
TEST(ErasureDecode, ReconstructsAnyTwoMissingStreams) {
  constexpr int kMembers = 6;
  std::vector<Bytes> streams;
  for (int i = 0; i < kMembers; ++i) {
    streams.push_back(RandomBuffer(1000 + static_cast<std::size_t>(i) * 137,
                                   100 + static_cast<std::uint64_t>(i)));
  }
  const std::vector<Bytes> parity = OracleParity(streams, 2);
  for (int a = 0; a < kMembers; ++a) {
    for (int b = a + 1; b < kMembers; ++b) {
      std::vector<Bytes> shards = streams;
      shards.insert(shards.end(), parity.begin(), parity.end());
      shards[a].clear();
      shards[b].clear();
      const int erased[] = {b, a};  // order does not matter
      ASSERT_TRUE(Decode(kMembers, shards, erased).ok()) << a << "," << b;
      for (int x : {a, b}) {
        const Bytes& original = streams[x];
        EXPECT_TRUE(std::equal(original.begin(), original.end(),
                               shards[x].begin()));
      }
    }
  }
}

TEST(ErasureDecode, DoubleErasureRecoversRandomPairs) {
  Rng rng(123);
  for (int iter = 0; iter < 20; ++iter) {
    const std::size_t n = 1 + rng.Below(700);
    const int k = 2 + static_cast<int>(rng.Below(19));
    const int a = static_cast<int>(rng.Below(static_cast<std::uint64_t>(k)));
    int b = static_cast<int>(rng.Below(static_cast<std::uint64_t>(k)));
    if (b == a) {
      b = (a + 1) % k;
    }
    std::vector<Bytes> data;
    for (int j = 0; j < k; ++j) {
      data.push_back(
          RandomBuffer(n, static_cast<std::uint64_t>(iter * 64 + j)));
    }
    const std::vector<Bytes> parity = OracleParity(data, 2);
    std::vector<Bytes> shards = data;
    shards.insert(shards.end(), parity.begin(), parity.end());
    shards[a].clear();
    shards[b].clear();
    const int erased[] = {a, b};
    ASSERT_TRUE(Decode(k, shards, erased).ok()) << "iter " << iter;
    EXPECT_EQ(shards[a], data[a]) << "iter " << iter;
    EXPECT_EQ(shards[b], data[b]) << "iter " << iter;
  }
}

TEST(ErasureDecode, MoreLossesThanReadableRowsIsDataLoss) {
  const std::vector<Bytes> data = MixedShards(4, 9);
  for (int m = 1; m <= kMaxParityRows; ++m) {
    const std::vector<Bytes> parity = OracleParity(data, m);
    // m + 1 data shards lost.
    std::vector<Bytes> shards = data;
    shards.insert(shards.end(), parity.begin(), parity.end());
    std::vector<int> erased;
    for (int j = 0; j <= m; ++j) {
      erased.push_back(j);
      shards[j].clear();
    }
    EXPECT_EQ(Decode(4, shards, erased).code(), StatusCode::kDataLoss);
    // One data shard lost and every parity row unreadable.
    shards = data;
    shards.resize(static_cast<std::size_t>(4 + m));
    erased = {0};
    shards[0].clear();
    for (int r = 0; r < m; ++r) {
      erased.push_back(4 + r);
    }
    EXPECT_EQ(Decode(4, shards, erased).code(), StatusCode::kDataLoss);
  }
}

TEST(ErasureDecode, RejectsBadArguments) {
  const auto decode = [](std::vector<Bytes> shards, int k,
                         std::vector<int> erased) {
    return Decode(k, shards, erased).code();
  };
  // Three data shards of one byte and a one-byte P; shard 0 is erased.
  const std::vector<Bytes> raid5{{}, {1}, {1}, {1}};
  EXPECT_EQ(decode(raid5, 3, {0}), StatusCode::kOk);
  EXPECT_EQ(decode(raid5, 3, {7}), StatusCode::kInvalidArgument);
  EXPECT_EQ(decode(raid5, 3, {-1}), StatusCode::kInvalidArgument);
  EXPECT_EQ(decode(raid5, 3, {0, 0}), StatusCode::kInvalidArgument);
  // The erased slot must be empty.
  EXPECT_EQ(decode(raid5, 3, {1}), StatusCode::kInvalidArgument);
  // A data shard longer than the parity is an error, not a kernel abort.
  EXPECT_EQ(decode({{}, {1, 2, 3}, {1}, {9}}, 3, {0}),
            StatusCode::kInvalidArgument);

  // Four data shards, P and Q; shards 1 and 2 are erased.
  const std::vector<Bytes> raid6{{1}, {}, {}, {2}, {0}, {0}};
  EXPECT_EQ(decode(raid6, 4, {1, 2}), StatusCode::kOk);
  EXPECT_EQ(decode(raid6, 4, {1, 1}), StatusCode::kInvalidArgument);
  EXPECT_EQ(decode(raid6, 4, {1, 9}), StatusCode::kInvalidArgument);
  EXPECT_EQ(decode(raid6, 4, {0, 1}), StatusCode::kInvalidArgument);
  EXPECT_EQ(decode({{1}, {}, {}, {2}, {0}, {0, 0}}, 4, {1, 2}),
            StatusCode::kInvalidArgument);

  // Only m = 1 and m = 2 layouts exist.
  EXPECT_EQ(decode({{1}, {1}}, 2, {}), StatusCode::kInvalidArgument);
  EXPECT_EQ(decode({{1}, {}, {1}, {1}, {1}}, 2, {1}),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(decode({{1}}, 0, {}), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ros::ec
