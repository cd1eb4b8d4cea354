#include "src/common/erasure.h"

#include <algorithm>
#include <array>
#include <string>
#include <utility>

namespace ros::ec {

namespace {

using Matrix = std::array<std::array<std::uint8_t, kMaxParityRows>,
                          kMaxParityRows>;

// Inverse of the leading e x e block of `a` (e <= 2); in GF(2^8)
// subtraction is XOR, so the 2x2 adjugate needs no signs. The block is a
// square Vandermonde minor over distinct powers of g (shards < 255), so
// it is never singular; Inv() checks that.
Matrix Invert(const Matrix& a, int e) {
  Matrix inv{};
  if (e == 1) {
    inv[0][0] = gf256::Inv(a[0][0]);
    return inv;
  }
  const std::uint8_t det_inv = gf256::Inv(gf256::Mul(a[0][0], a[1][1]) ^
                                          gf256::Mul(a[0][1], a[1][0]));
  inv[0][0] = gf256::Mul(det_inv, a[1][1]);
  inv[0][1] = gf256::Mul(det_inv, a[0][1]);
  inv[1][0] = gf256::Mul(det_inv, a[1][0]);
  inv[1][1] = gf256::Mul(det_inv, a[0][0]);
  return inv;
}

}  // namespace

Encoded Encode(std::span<const std::span<const std::uint8_t>> data, int m) {
  ROS_CHECK(m >= 1 && m <= kMaxParityRows);
  ROS_CHECK(!data.empty() &&
            data.size() <= static_cast<std::size_t>(kMaxDataShards));
  std::size_t length = 0;
  for (const auto& shard : data) {
    length = std::max(length, shard.size());
  }
  Encoded out;
  for (int r = 0; r < m; ++r) {
    out.rows.emplace_back(length, 0);
  }
  if (m == 2) {
    // The Horner recurrence q = 2q ^ d wants the highest-coefficient shard
    // first, so walk the shards back to front.
    for (std::size_t j = data.size(); j-- > 0;) {
      gf256::PQAcc(out.rows[0], out.rows[1], data[j]);
      ++out.sweeps;
    }
  } else {
    for (const auto& shard : data) {
      gf256::XorAcc(out.rows[0], shard);
      ++out.sweeps;
    }
  }
  return out;
}

Status Decode(int k, std::span<std::vector<std::uint8_t>> shards,
              std::span<const int> erased) {
  const int n = static_cast<int>(shards.size());
  const int m = n - k;
  if (k < 1 || k > kMaxDataShards || m < 1 || m > kMaxParityRows) {
    return InvalidArgumentError("unsupported layout " + std::to_string(k) +
                                "+" + std::to_string(m));
  }
  std::vector<bool> lost(shards.size(), false);
  for (const int index : erased) {
    if (index < 0 || index >= n || lost[index]) {
      return InvalidArgumentError("bad or duplicate erased index " +
                                  std::to_string(index));
    }
    if (!shards[index].empty()) {
      return InvalidArgumentError("erased slot " + std::to_string(index) +
                                  " must be empty");
    }
    lost[index] = true;
  }
  std::vector<int> targets;  // erased data shards
  for (int j = 0; j < k; ++j) {
    if (lost[j]) {
      targets.push_back(j);
    }
  }
  std::vector<int> rows;  // readable parity rows, lowest first
  for (int r = 0; r < m; ++r) {
    if (!lost[k + r]) {
      rows.push_back(r);
    }
  }
  if (targets.size() > rows.size()) {
    return DataLossError(std::to_string(targets.size()) +
                         " data shards lost with " +
                         std::to_string(rows.size()) +
                         " readable parity rows");
  }
  if (targets.empty()) {
    return OkStatus();
  }
  const std::size_t length = shards[k + rows[0]].size();
  for (const int r : rows) {
    if (shards[k + r].size() != length) {
      return InvalidArgumentError("parity rows differ in length");
    }
  }
  for (int j = 0; j < k; ++j) {
    if (shards[j].size() > length) {
      return InvalidArgumentError("data shard " + std::to_string(j) +
                                  " longer than parity");
    }
  }

  // Row i's syndrome, parity_i ^ sum over survivors j of c(i, j) d_j, is
  // sum over targets t of c(i, t) d_t. Invert that e x e system once and
  // fold the inverse into one coefficient per shard read.
  const int e = static_cast<int>(targets.size());
  Matrix a{};
  for (int i = 0; i < e; ++i) {
    for (int t = 0; t < e; ++t) {
      a[i][t] = Coefficient(rows[i], targets[t]);
    }
  }
  const Matrix inv = Invert(a, e);
  for (int t = 0; t < e; ++t) {
    std::vector<std::uint8_t> out(length, 0);
    for (int i = 0; i < e; ++i) {
      gf256::MulAcc(out, inv[t][i], shards[k + rows[i]]);
    }
    for (int j = 0; j < k; ++j) {
      if (lost[j]) {
        continue;
      }
      std::uint8_t c = 0;
      for (int i = 0; i < e; ++i) {
        c ^= gf256::Mul(inv[t][i], Coefficient(rows[i], j));
      }
      gf256::MulAcc(out, c, shards[j]);
    }
    shards[targets[t]] = std::move(out);
  }
  return OkStatus();
}

}  // namespace ros::ec
