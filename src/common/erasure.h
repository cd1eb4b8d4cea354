// Systematic k+m Reed-Solomon erasure codec over GF(2^8) (paper §4.7 disc
// arrays, §3.3 RAID volumes).
//
// A stripe is k data shards followed by m parity rows. Parity row r gives
// data shard j the coefficient g^(r*j), so row 0 is the XOR parity P and
// row 1 is the Reed-Solomon Q of the Linux RAID-6 construction:
//   P = d_0 ^ d_1 ^ ... ^ d_{k-1}
//   Q = g^0*d_0 ^ g^1*d_1 ^ ... ^ g^{k-1}*d_{k-1}
// Shards may differ in length; a shorter one counts as zero-padded to the
// parity length.
//
// m is 1 (RAID-5, 11+1 arrays) or 2 (RAID-6, 10+2 arrays). Any two rows of
// this code are MDS for k <= 255 because g is primitive; a third row is not
// guaranteed to be and is not offered.
#ifndef ROS_SRC_COMMON_ERASURE_H_
#define ROS_SRC_COMMON_ERASURE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/gf256.h"
#include "src/common/status.h"

namespace ros::ec {

inline constexpr int kMaxParityRows = 2;
inline constexpr int kMaxDataShards = 255;

// Coefficient of data shard `shard` in parity row `row`: g^(row*shard).
constexpr std::uint8_t Coefficient(int row, int shard) {
  return gf256::Pow2(static_cast<unsigned>(row * shard));
}

struct Encoded {
  std::vector<std::vector<std::uint8_t>> rows;  // m rows, parity length
  int sweeps = 0;  // data-shard kernel sweeps made
};

// Computes the m parity rows of `data`, each as long as the longest data
// shard. Each data shard is swept once: m = 2 feeds the fused P+Q Horner
// kernel last shard first, m = 1 the XOR kernel.
Encoded Encode(std::span<const std::span<const std::uint8_t>> data, int m);

// `shards` holds k data shards then m parity rows; `erased` lists the
// unreadable ones, whose slots must be empty. Every erased data shard is
// rebuilt in place at the parity length (a shorter member keeps its zero
// padding) from the lowest-numbered readable parity rows. Erased parity
// rows stay empty; re-encode to regenerate them.
//
// kDataLoss when more data shards are erased than parity rows are
// readable; kInvalidArgument for a bad or duplicate index, an occupied
// erased slot, a data shard longer than the parity, or readable parity
// rows of different lengths.
Status Decode(int k, std::span<std::vector<std::uint8_t>> shards,
              std::span<const int> erased);

}  // namespace ros::ec

#endif  // ROS_SRC_COMMON_ERASURE_H_
