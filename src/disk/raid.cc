#include "src/disk/raid.h"

#include <algorithm>
#include <cstring>
#include <optional>

#include "src/common/erasure.h"
#include "src/common/gf256.h"
#include "src/sim/join.h"

namespace ros::disk {

RaidVolume::RaidVolume(sim::Simulator& sim, RaidLevel level,
                       std::vector<StorageDevice*> devices,
                       std::uint64_t stripe_unit)
    : sim_(sim), level_(level), devices_(std::move(devices)),
      stripe_unit_(stripe_unit) {
  const int n = num_devices();
  ROS_CHECK(n >= 1);
  switch (level_) {
    case RaidLevel::kRaid0:
      data_n_ = n;
      break;
    case RaidLevel::kRaid1:
      ROS_CHECK(n >= 2);
      data_n_ = 1;
      break;
    case RaidLevel::kRaid5:
      ROS_CHECK(n >= 3);
      data_n_ = n - 1;
      break;
    case RaidLevel::kRaid6:
      ROS_CHECK(n >= 4);
      data_n_ = n - 2;
      break;
  }
  std::uint64_t min_cap = devices_[0]->capacity();
  for (StorageDevice* device : devices_) {
    min_cap = std::min(min_cap, device->capacity());
  }
  stripe_bytes_ = stripe_unit_ * static_cast<std::uint64_t>(data_n_);
  num_stripes_ = min_cap / stripe_unit_;
  capacity_ = num_stripes_ * stripe_bytes_;
  drained_ = std::make_unique<sim::ConditionVariable>(sim_);
}

int RaidVolume::ParityDevice(std::uint64_t stripe, int row) const {
  const int n = num_devices();
  return (n - 1 - static_cast<int>(stripe % n) + row) % n;
}

int RaidVolume::ShardDevice(std::uint64_t stripe, int shard) const {
  return shard < data_n_ ? DataChunk(stripe, shard).device
                         : ParityDevice(stripe, shard - data_n_);
}

std::vector<std::span<const std::uint8_t>> RaidVolume::StripeShards(
    const std::uint8_t* base) const {
  std::vector<std::span<const std::uint8_t>> shards;
  shards.reserve(data_n_);
  for (int k = 0; k < data_n_; ++k) {
    shards.emplace_back(base + k * stripe_unit_, stripe_unit_);
  }
  return shards;
}

RaidVolume::ChunkLoc RaidVolume::DataChunk(std::uint64_t stripe,
                                           int k) const {
  const int n = num_devices();
  const std::uint64_t dev_offset = stripe * stripe_unit_;
  switch (level_) {
    case RaidLevel::kRaid0:
      return {k, dev_offset};
    case RaidLevel::kRaid1:
      return {0, dev_offset};  // canonical copy; mirrors handled separately
    case RaidLevel::kRaid5:
    case RaidLevel::kRaid6:
      // Data follows the parity rows round-robin.
      return {(ParityDevice(stripe, parity_count()) + k) % n, dev_offset};
  }
  ROS_CHECK(false);
  return {0, 0};
}

int RaidVolume::failed_devices() const {
  int failed = 0;
  for (const StorageDevice* device : devices_) {
    if (device->failed()) {
      ++failed;
    }
  }
  return failed;
}

bool RaidVolume::operational() const {
  const int failed = failed_devices();
  switch (level_) {
    case RaidLevel::kRaid0: return failed == 0;
    case RaidLevel::kRaid1: return failed < num_devices();
    case RaidLevel::kRaid5: return failed <= 1;
    case RaidLevel::kRaid6: return failed <= 2;
  }
  return false;
}

std::optional<Status> RaidVolume::Admit(std::uint64_t offset,
                                        std::uint64_t length,
                                        bool is_read) const {
  if (offset + length > capacity_) {
    return OutOfRangeError(is_read ? "read beyond RAID volume"
                                   : "write beyond RAID volume");
  }
  if (!operational()) {
    return UnavailableError("RAID volume lost too many devices");
  }
  if (length == 0) {
    return OkStatus();
  }
  return std::nullopt;
}

template <typename Fn>
void RaidVolume::ForEachChunk(std::uint64_t offset, std::uint64_t length,
                              Fn&& fn) const {
  for (std::uint64_t pos = offset; pos < offset + length;) {
    const std::uint64_t within = pos % stripe_bytes_;
    const std::uint64_t chunk_off = within % stripe_unit_;
    const std::uint64_t n =
        std::min(stripe_unit_ - chunk_off, offset + length - pos);
    ChunkLoc loc = DataChunk(pos / stripe_bytes_,
                             static_cast<int>(within / stripe_unit_));
    loc.dev_offset += chunk_off;
    fn(pos, loc, n);
    pos += n;
  }
}

// ---------------------------------------------------------------------------
// Writes

sim::Task<Status> RaidVolume::Write(std::uint64_t offset,
                                    std::vector<std::uint8_t> data) {
  co_return co_await WriteRange(offset, data.size(), data.data());
}

sim::Task<Status> RaidVolume::WriteDiscard(std::uint64_t offset,
                                           std::uint64_t length) {
  co_return co_await WriteRange(offset, length, nullptr);
}

sim::Task<Status> RaidVolume::WriteRange(std::uint64_t offset,
                                         std::uint64_t length,
                                         const std::uint8_t* data) {
  if (std::optional<Status> done = Admit(offset, length, false)) {
    co_return *done;
  }
  // Controller write-back cache path: small writes on a healthy volume
  // acknowledge from controller DRAM and destage in the background.
  if (write_cache_ && length <= kCacheMaxWrite && failed_devices() == 0) {
    co_return co_await WriteCached(offset, length, data);
  }
  bytes_written_ += length;
  ROS_CO_RETURN_IF_ERROR(co_await ChargeEvenShare(false, offset, length));
  if (data != nullptr) {
    ROS_CO_RETURN_IF_ERROR(StoreStripes(offset, length, data));
  }
  co_return OkStatus();
}

sim::Task<Status> RaidVolume::ChargeEvenShare(bool is_read,
                                              std::uint64_t offset,
                                              std::uint64_t length) {
  if (!is_read && parity_count() > 0) {
    co_await sim_.Delay(sim::TransferTime(
        length * static_cast<std::uint64_t>(parity_count()),
        kParityComputeBytesPerSec));
  }
  const std::uint64_t dev_start = offset / data_n_;
  const std::uint64_t dev_end = (offset + length) / data_n_;
  co_return co_await DiscardOnLiveDevices(is_read, dev_start,
                                          dev_end - dev_start);
}

sim::Task<Status> RaidVolume::DiscardOnLiveDevices(bool is_read,
                                                   std::uint64_t offset,
                                                   std::uint64_t length) {
  std::vector<sim::Task<Status>> ops;
  for (StorageDevice* device : devices_) {
    if (!device->failed() && length > 0) {
      ops.push_back(is_read ? device->ReadDiscard(offset, length)
                            : device->WriteDiscard(offset, length));
    }
  }
  co_return co_await sim::AllOk(sim_, std::move(ops));
}

Status RaidVolume::StoreStripes(std::uint64_t offset, std::uint64_t length,
                                const std::uint8_t* data) {
  if (level_ == RaidLevel::kRaid1) {
    for (StorageDevice* device : devices_) {
      if (!device->failed()) {
        device->StoreDirect(offset, {data, length});
      }
    }
    return OkStatus();
  }
  if (failed_devices() > 0) {
    merge_whole_stripes_ = true;
  }
  const std::uint64_t end = offset + length;
  std::vector<std::uint8_t> scratch;
  for (std::uint64_t stripe = offset / stripe_bytes_;
       stripe * stripe_bytes_ < end; ++stripe) {
    const std::uint64_t start = stripe * stripe_bytes_;
    const std::uint64_t lo = std::max(offset, start);
    const std::uint64_t hi = std::min(end, start + stripe_bytes_);
    const bool partial = hi - lo < stripe_bytes_;
    if (parity_count() > 0 && partial && !merge_whole_stripes_) {
      UpdateParity(lo, hi - lo, data + (lo - offset), &scratch);
    } else if (parity_count() > 0) {
      // Parity covers the whole stripe: merge a partly written stripe
      // over its current contents before encoding.
      const std::uint8_t* stripe_data = data + (lo - offset);
      if (partial) {
        scratch.resize(stripe_bytes_);
        ROS_RETURN_IF_ERROR(LoadStripe(stripe, scratch.data()));
        std::memcpy(scratch.data() + (lo - start), data + (lo - offset),
                    hi - lo);
        stripe_data = scratch.data();
      }
      const ec::Encoded parity =
          ec::Encode(StripeShards(stripe_data), parity_count());
      for (int r = 0; r < parity_count(); ++r) {
        StorageDevice* device = devices_[ParityDevice(stripe, r)];
        if (!device->failed()) {
          device->StoreDirect(stripe * stripe_unit_, parity.rows[r]);
        }
      }
    }
    // Only the data chunks the write covers change.
    ForEachChunk(lo, hi - lo,
                 [&](std::uint64_t pos, ChunkLoc loc, std::uint64_t n) {
                   StorageDevice* device = devices_[loc.device];
                   if (!device->failed()) {
                     device->StoreDirect(loc.dev_offset,
                                         {data + (pos - offset), n});
                   }
                 });
  }
  return OkStatus();
}

void RaidVolume::UpdateParity(std::uint64_t offset, std::uint64_t length,
                              const std::uint8_t* data,
                              std::vector<std::uint8_t>* delta) {
  ForEachChunk(offset, length,
               [&](std::uint64_t pos, ChunkLoc loc, std::uint64_t n) {
                 // delta = old ^ new over the piece; a parity chunk sits
                 // at the same device offset as the stripe's data chunks.
                 delta->resize(n);
                 devices_[loc.device]->LoadDirect(loc.dev_offset, *delta);
                 gf256::XorAcc(*delta, {data + (pos - offset), n});
                 const std::uint64_t stripe = pos / stripe_bytes_;
                 const int k =
                     static_cast<int>(pos % stripe_bytes_ / stripe_unit_);
                 for (int r = 0; r < parity_count(); ++r) {
                   devices_[ParityDevice(stripe, r)]->MulAccDirect(
                       loc.dev_offset, ec::Coefficient(r, k), *delta);
                 }
               });
}

bool RaidVolume::RangeInCache(std::uint64_t offset,
                              std::uint64_t length) const {
  for (const auto& [start, len] : cache_ranges_) {
    if (offset >= start && offset + length <= start + len) {
      return true;
    }
  }
  return false;
}

void RaidVolume::RememberRange(std::uint64_t offset, std::uint64_t length) {
  cache_ranges_.emplace_back(offset, length);
  cache_range_bytes_ += length;
  while (cache_range_bytes_ > kCacheDirtyLimit ||
         cache_ranges_.size() > 1024) {
    cache_range_bytes_ -= cache_ranges_.front().second;
    cache_ranges_.pop_front();
  }
}

sim::Task<Status> RaidVolume::WriteCached(std::uint64_t offset,
                                          std::uint64_t length,
                                          const std::uint8_t* data) {
  // Honour the dirty limit: writers stall while destaging catches up,
  // which converges sustained throughput to the spindle rate.
  while (dirty_ + length > kCacheDirtyLimit) {
    co_await drained_->Wait();
  }
  // Parity and store happen in controller DRAM.
  if (data != nullptr) {
    ROS_CO_RETURN_IF_ERROR(StoreStripes(offset, length, data));
  }
  bytes_written_ += length;
  dirty_ += length;

  // The device range each member destages: the write's own byte range on
  // RAID-1, whole stripe units on striped levels.
  std::uint64_t dev_offset = offset;
  std::uint64_t dev_length = length;
  if (level_ != RaidLevel::kRaid1) {
    const std::uint64_t first = offset / stripe_bytes_;
    const std::uint64_t last =
        (offset + length + stripe_bytes_ - 1) / stripe_bytes_;
    dev_offset = first * stripe_unit_;
    dev_length = (last - first) * stripe_unit_;
  }
  RememberRange(offset, length);
  sim_.Spawn(Destage(dev_offset, dev_length, length));
  co_await sim_.Delay(sim::Micros(300) +
                      sim::TransferTime(length, kCacheAckBytesPerSec));
  co_return OkStatus();
}

sim::Task<void> RaidVolume::Destage(std::uint64_t dev_offset,
                                    std::uint64_t dev_length,
                                    std::uint64_t acked_bytes) {
  if (level_ != RaidLevel::kRaid1) {
    co_await sim_.Delay(sim::TransferTime(
        dev_length * static_cast<std::uint64_t>(data_n_ * parity_count()),
        kParityComputeBytesPerSec));
  }
  (void)co_await DiscardOnLiveDevices(false, dev_offset, dev_length);
  dirty_ -= acked_bytes;
  drained_->NotifyAll();
}

// ---------------------------------------------------------------------------
// Reads

sim::Task<StatusOr<std::vector<std::uint8_t>>> RaidVolume::Read(
    std::uint64_t offset, std::uint64_t length) {
  std::vector<std::uint8_t> out;
  ROS_CO_RETURN_IF_ERROR(co_await ReadRange(offset, length, &out));
  co_return out;
}

sim::Task<Status> RaidVolume::ReadDiscard(std::uint64_t offset,
                                          std::uint64_t length) {
  co_return co_await ReadRange(offset, length, nullptr);
}

sim::Task<Status> RaidVolume::ReadRange(std::uint64_t offset,
                                        std::uint64_t length,
                                        std::vector<std::uint8_t>* out) {
  if (std::optional<Status> done = Admit(offset, length, true)) {
    co_return *done;
  }
  if (out != nullptr) {
    out->resize(length);
  }

  if (level_ == RaidLevel::kRaid1) {
    // Round-robin across live mirrors.
    // ros-lint: allow(retry-unclassified): mirror failover, not backoff —
    // any per-device error means "try the next replica", and exhausting
    // the replica set is the classification.
    for (int attempt = 0; attempt < num_devices(); ++attempt) {
      StorageDevice* device =
          devices_[next_mirror_read_++ % devices_.size()];
      if (device->failed()) {
        continue;
      }
      if ((co_await device->ReadDiscard(offset, length)).ok()) {
        if (out != nullptr) {
          device->LoadDirect(offset, *out);
        }
        bytes_read_ += length;
        co_return OkStatus();
      }
    }
    co_return UnavailableError("all mirrors failed");
  }

  if (failed_devices() == 0) {
    if (write_cache_ && RangeInCache(offset, length)) {
      // Controller cache hit: no spindle involvement.
      co_await sim_.Delay(sim::Micros(300) +
                          sim::TransferTime(length, kCacheAckBytesPerSec));
    } else {
      ROS_CO_RETURN_IF_ERROR(co_await ChargeEvenShare(true, offset, length));
    }
    if (out != nullptr) {
      ForEachChunk(offset, length,
                   [&](std::uint64_t pos, ChunkLoc loc, std::uint64_t n) {
                     devices_[loc.device]->LoadDirect(
                         loc.dev_offset, {out->data() + (pos - offset), n});
                   });
    }
  } else {
    // Degraded path: stripe-granular reconstruct.
    std::vector<std::uint8_t> stripe_data(stripe_bytes_);
    const std::uint64_t end = offset + length;
    for (std::uint64_t stripe = offset / stripe_bytes_;
         stripe * stripe_bytes_ < end; ++stripe) {
      ROS_CO_RETURN_IF_ERROR(
          co_await ReadStripeData(stripe, stripe_data.data()));
      const std::uint64_t start = stripe * stripe_bytes_;
      const std::uint64_t lo = std::max(offset, start);
      const std::uint64_t hi = std::min(end, start + stripe_bytes_);
      if (out != nullptr) {
        std::memcpy(out->data() + (lo - offset),
                    stripe_data.data() + (lo - start), hi - lo);
      }
    }
  }
  bytes_read_ += length;
  co_return OkStatus();
}

std::vector<int> RaidVolume::ErasedShards(std::uint64_t stripe,
                                          int exclude) const {
  std::vector<int> erased;
  for (int s = 0; s < data_n_ + parity_count(); ++s) {
    const int device = ShardDevice(stripe, s);
    if (devices_[device]->failed() || device == exclude) {
      erased.push_back(s);
    }
  }
  return erased;
}

sim::Task<Status> RaidVolume::ReadStripeData(std::uint64_t stripe,
                                             std::uint8_t* out,
                                             int exclude) {
  const std::vector<int> erased = ErasedShards(stripe, exclude);
  if (static_cast<int>(erased.size()) > parity_count()) {
    co_return DataLossError("stripe unrecoverable: too many failures");
  }
  // Read all surviving chunks of the stripe in parallel.
  std::vector<sim::Task<Status>> ops;
  for (int s = 0; s < data_n_ + parity_count(); ++s) {
    if (std::find(erased.begin(), erased.end(), s) == erased.end()) {
      ops.push_back(devices_[ShardDevice(stripe, s)]->ReadDiscard(
          stripe * stripe_unit_, stripe_unit_));
    }
  }
  ROS_CO_RETURN_IF_ERROR(co_await sim::AllOk(sim_, std::move(ops)));
  const auto erased_data = static_cast<std::uint64_t>(std::count_if(
      erased.begin(), erased.end(), [&](int s) { return s < data_n_; }));
  if (erased_data > 0) {
    // Reconstruction. Charge GF/XOR math at memory bandwidth.
    co_await sim_.Delay(sim::TransferTime(stripe_bytes_ * erased_data,
                                          kParityComputeBytesPerSec));
  }
  co_return LoadStripe(stripe, out, exclude);
}

Status RaidVolume::LoadStripe(std::uint64_t stripe, std::uint8_t* out,
                              int exclude) const {
  const std::vector<int> erased = ErasedShards(stripe, exclude);
  if (erased.empty() || erased.front() >= data_n_) {
    for (int k = 0; k < data_n_; ++k) {
      const ChunkLoc loc = DataChunk(stripe, k);
      devices_[loc.device]->LoadDirect(
          loc.dev_offset, {out + k * stripe_unit_, stripe_unit_});
    }
    return OkStatus();
  }
  std::vector<std::vector<std::uint8_t>> shards(data_n_ + parity_count());
  for (int s = 0; s < static_cast<int>(shards.size()); ++s) {
    if (std::find(erased.begin(), erased.end(), s) == erased.end()) {
      shards[s].resize(stripe_unit_);
      devices_[ShardDevice(stripe, s)]->LoadDirect(stripe * stripe_unit_,
                                                   shards[s]);
    }
  }
  ROS_RETURN_IF_ERROR(ec::Decode(data_n_, shards, erased));
  for (int k = 0; k < data_n_; ++k) {
    std::memcpy(out + k * stripe_unit_, shards[k].data(), stripe_unit_);
  }
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Rebuild

sim::Task<Status> RaidVolume::Rebuild(int index) {
  if (index < 0 || index >= num_devices()) {
    co_return InvalidArgumentError("bad device index");
  }
  StorageDevice* target = devices_[index];
  if (target->failed()) {
    co_return FailedPreconditionError("replace the device before rebuilding");
  }

  if (level_ == RaidLevel::kRaid1) {
    // Copy from any live mirror in one streaming pass.
    for (StorageDevice* source : devices_) {
      if (source == target || source->failed()) {
        continue;
      }
      const std::uint64_t total = capacity_;
      constexpr std::uint64_t kBatch = 8 * kMiB;
      for (std::uint64_t off = 0; off < total; off += kBatch) {
        const std::uint64_t n = std::min(kBatch, total - off);
        auto data = co_await source->Read(off, n);
        if (!data.ok()) {
          co_return data.status();
        }
        ROS_CO_RETURN_IF_ERROR(
            co_await target->Write(off, std::move(data).value()));
      }
      co_return OkStatus();
    }
    co_return UnavailableError("no live mirror to rebuild from");
  }

  // Parity RAID: reconstruct this device's chunk for every stripe. The
  // stripe read treats the device as unavailable so the decode computes
  // its data chunks; parity chunks are re-encoded from the stripe.
  for (std::uint64_t stripe = 0; stripe < num_stripes_; ++stripe) {
    int shard = 0;
    while (ShardDevice(stripe, shard) != index) {
      ++shard;
    }
    std::vector<std::uint8_t> stripe_data(stripe_bytes_);
    ROS_CO_RETURN_IF_ERROR(co_await ReadStripeData(
        stripe, stripe_data.data(), /*exclude=*/index));
    std::vector<std::uint8_t> chunk;
    if (shard < data_n_) {
      chunk.assign(stripe_data.begin() + shard * stripe_unit_,
                   stripe_data.begin() + (shard + 1) * stripe_unit_);
    } else {
      ec::Encoded parity =
          ec::Encode(StripeShards(stripe_data.data()), parity_count());
      chunk = std::move(parity.rows[shard - data_n_]);
    }
    ROS_CO_RETURN_IF_ERROR(
        co_await target->Write(stripe * stripe_unit_, std::move(chunk)));
  }
  co_return OkStatus();
}

}  // namespace ros::disk
