// Software RAID over StorageDevices (§3.3).
//
// ROS configures its two SSDs as a RAID-1 metadata volume and its fourteen
// HDDs as two RAID-5 arrays. This is a real implementation: data is
// striped, parity is computed by the ec:: Reed-Solomon codec (P alone for
// RAID-5; P+Q for RAID-6), reads decode around failed devices, and a
// replaced device can be rebuilt stripe by stripe.
//
// Layout is left-symmetric: for stripe s over n devices, the P chunk lives
// on device (n-1) - (s mod n) (Q, when present, on the next device), and
// data chunks follow round-robin. Large requests are batched into one
// vectored I/O per device, so sequential throughput scales with the number
// of data devices (7-HDD RAID-5 reads at ~1.2 GB/s, matching the paper's
// baseline volume).
#ifndef ROS_SRC_DISK_RAID_H_
#define ROS_SRC_DISK_RAID_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/disk/block_device.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace ros::disk {

enum class RaidLevel { kRaid0, kRaid1, kRaid5, kRaid6 };

class RaidVolume : public BlockDevice {
 public:
  // Parity XOR/GF math runs at memory bandwidth; charging it is what
  // separates the volume's write throughput (~1.0 GB/s) from its read
  // throughput (~1.2 GB/s), as in the paper's ext4 baseline.
  static constexpr double kParityComputeBytesPerSec = 6e9;

  // Controller write-back cache (battery-backed DRAM): writes up to
  // kCacheMaxWrite acknowledge at controller speed and destage to the
  // spindles in the background, up to kCacheDirtyLimit of dirty data.
  // This is why the paper's 1 KiB direct-I/O operations complete in
  // ~2.5 ms on a 7-HDD RAID-5 (§5.3).
  static constexpr double kCacheAckBytesPerSec = 2.5e9;
  static constexpr std::uint64_t kCacheMaxWrite = 8 * kMiB;
  static constexpr std::uint64_t kCacheDirtyLimit = 256 * kMiB;

  RaidVolume(sim::Simulator& sim, RaidLevel level,
             std::vector<StorageDevice*> devices,
             std::uint64_t stripe_unit = 64 * kKiB);

  int num_devices() const { return static_cast<int>(devices_.size()); }
  std::uint64_t capacity() const override { return capacity_; }

  sim::Task<Status> Write(std::uint64_t offset,
                          std::vector<std::uint8_t> data) override;
  sim::Task<StatusOr<std::vector<std::uint8_t>>> Read(
      std::uint64_t offset, std::uint64_t length) override;
  sim::Task<Status> WriteDiscard(std::uint64_t offset,
                                 std::uint64_t length) override;
  sim::Task<Status> ReadDiscard(std::uint64_t offset,
                                std::uint64_t length) override;

  // Disables the controller write-back cache (every write takes the
  // synchronous spindle path). Used by write-through ablations.
  void set_write_cache(bool enabled) { write_cache_ = enabled; }
  std::uint64_t dirty_bytes() const { return dirty_; }

  // Number of currently failed member devices.
  int failed_devices() const;
  // True if reads/writes can still be served (enough redundancy).
  bool operational() const;

  // Reconstructs the contents of the (replaced) device at `index` from the
  // surviving members. The device must be healthy again (Replace() called).
  sim::Task<Status> Rebuild(int index);

  std::uint64_t bytes_written() const override { return bytes_written_; }
  std::uint64_t bytes_read() const override { return bytes_read_; }

 private:
  struct ChunkLoc {
    int device;
    std::uint64_t dev_offset;
  };

  int parity_count() const {
    switch (level_) {
      case RaidLevel::kRaid5: return 1;
      case RaidLevel::kRaid6: return 2;
      default: return 0;
    }
  }

  // Device holding parity row `row` (0 = P, 1 = Q) of a stripe.
  int ParityDevice(std::uint64_t stripe, int row) const;
  // Location of data chunk k (0-based) within a stripe.
  ChunkLoc DataChunk(std::uint64_t stripe, int k) const;
  // Device holding erasure-code shard `shard` of a stripe: data chunks
  // 0..data_n_-1, then the parity rows.
  int ShardDevice(std::uint64_t stripe, int shard) const;
  // The data chunks of one stripe laid out contiguously at `base`.
  std::vector<std::span<const std::uint8_t>> StripeShards(
      const std::uint8_t* base) const;

  // The argument check of every entry point: an error, or OK for an empty
  // request, to return at once; nothing when there is I/O to do.
  std::optional<Status> Admit(std::uint64_t offset, std::uint64_t length,
                              bool is_read) const;

  // Calls fn(pos, loc, n) for each data-chunk piece of the volume range
  // [offset, offset+length) in address order; `pos` is its volume offset.
  template <typename Fn>
  void ForEachChunk(std::uint64_t offset, std::uint64_t length,
                    Fn&& fn) const;

  // Encodes full stripes [first, last) of `data` and calls
  // place(device, dev_offset, bytes) for each data chunk and parity row.
  template <typename Fn>
  void PlaceStripes(std::uint64_t first, std::uint64_t last,
                    const std::uint8_t* data, Fn&& place) const;

  // Reads a whole stripe's data chunks (reconstructing around failures)
  // into `out` (stripe_unit * data_n_ bytes). `exclude` treats one extra
  // device as unavailable (used while rebuilding onto it).
  sim::Task<Status> ReadStripeData(std::uint64_t stripe, std::uint8_t* out,
                                   int exclude = -1);

  // The discard cost model of striped volumes: parity compute for a
  // write, then an even per-device share (data plus rotated-parity
  // pass-over) that tiles exactly across consecutive calls, so sequential
  // streams stay sequential. Write charges the real stripes instead.
  sim::Task<Status> ChargeEvenShare(bool is_read, std::uint64_t offset,
                                    std::uint64_t length);
  // A discard of [offset, offset+length) on every live member.
  sim::Task<Status> DiscardOnLiveDevices(bool is_read, std::uint64_t offset,
                                         std::uint64_t length);

  // Fast path used when no device is failed.
  sim::Task<Status> ReadHealthy(std::uint64_t offset, std::uint64_t length,
                                std::vector<std::uint8_t>* out);

  // Controller cache contents: recently written ranges served to readers
  // at controller speed (bounded FIFO approximation of the cache).
  bool RangeInCache(std::uint64_t offset, std::uint64_t length) const;
  void RememberRange(std::uint64_t offset, std::uint64_t length);

  // Write-back cache: instant parity+store into controller DRAM, then a
  // background destage charging spindle time.
  sim::Task<Status> WriteCached(std::uint64_t offset,
                                std::vector<std::uint8_t> data);
  // Charges one device range's spindle write on every live member, then
  // releases `acked_bytes` of the dirty budget.
  sim::Task<void> Destage(std::uint64_t dev_offset, std::uint64_t dev_length,
                          std::uint64_t acked_bytes);

  sim::Simulator& sim_;
  RaidLevel level_;
  std::vector<StorageDevice*> devices_;
  std::uint64_t stripe_unit_;
  int data_n_;
  std::uint64_t stripe_bytes_;
  std::uint64_t num_stripes_;
  std::uint64_t capacity_;
  std::uint64_t next_mirror_read_ = 0;  // RAID-1 round-robin
  bool write_cache_ = true;
  std::uint64_t dirty_ = 0;
  std::deque<std::pair<std::uint64_t, std::uint64_t>> cache_ranges_;
  std::uint64_t cache_range_bytes_ = 0;
  std::unique_ptr<sim::ConditionVariable> drained_;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t bytes_read_ = 0;
};

}  // namespace ros::disk

#endif  // ROS_SRC_DISK_RAID_H_
