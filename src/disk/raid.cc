#include "src/disk/raid.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>

#include "src/common/erasure.h"
#include "src/sim/join.h"

namespace ros::disk {

namespace {

constexpr std::uint64_t kDiscard = ~0ull;

}  // namespace

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

template <typename Fn>
void RaidVolume::PlaceStripes(std::uint64_t first, std::uint64_t last,
                              const std::uint8_t* data, Fn&& place) const {
  for (std::uint64_t stripe = first; stripe < last; ++stripe) {
    const auto chunks = StripeShards(data + (stripe - first) * stripe_bytes_);
    for (int k = 0; k < data_n_; ++k) {
      const ChunkLoc loc = DataChunk(stripe, k);
      place(loc.device, loc.dev_offset, chunks[k]);
    }
    if (parity_count() == 0) {
      continue;
    }
    const ec::Encoded parity = ec::Encode(chunks, parity_count());
    for (int r = 0; r < parity_count(); ++r) {
      place(ParityDevice(stripe, r), stripe * stripe_unit_,
            std::span<const std::uint8_t>(parity.rows[r]));
    }
  }
}

// ---------------------------------------------------------------------------
// Writes

sim::Task<Status> RaidVolume::Write(std::uint64_t offset,
                                    std::vector<std::uint8_t> data) {
  if (std::optional<Status> done = Admit(offset, data.size(), false)) {
    co_return *done;
  }

  // Controller write-back cache path: small writes on a healthy volume
  // acknowledge from controller DRAM and destage in the background.
  if (write_cache_ && data.size() <= kCacheMaxWrite &&
      failed_devices() == 0) {
    co_return co_await WriteCached(offset, std::move(data));
  }

  if (level_ == RaidLevel::kRaid1) {
    std::vector<sim::Task<Status>> writes;
    for (StorageDevice* device : devices_) {
      if (!device->failed()) {
        writes.push_back(device->Write(offset, data));
      }
    }
    bytes_written_ += data.size();
    co_return co_await sim::AllOk(sim_, std::move(writes));
  }

  // Align the request to whole stripes, merging with existing data at the
  // partially-covered head/tail stripes (read-modify-write).
  const std::uint64_t first = offset / stripe_bytes_;
  const std::uint64_t last = (offset + data.size() + stripe_bytes_ - 1) /
                             stripe_bytes_;
  std::vector<std::uint8_t> buffer((last - first) * stripe_bytes_, 0);
  const bool head_partial = offset % stripe_bytes_ != 0;
  const bool tail_partial = (offset + data.size()) % stripe_bytes_ != 0;
  if (head_partial) {
    ROS_CO_RETURN_IF_ERROR(co_await ReadStripeData(first, buffer.data()));
  }
  if (tail_partial && (last - 1 != first || !head_partial)) {
    ROS_CO_RETURN_IF_ERROR(co_await ReadStripeData(
        last - 1, buffer.data() + (last - 1 - first) * stripe_bytes_));
  }
  std::memcpy(buffer.data() + (offset - first * stripe_bytes_), data.data(),
              data.size());
  bytes_written_ += data.size();

  // Parity at memory bandwidth, then one vectored write per device across
  // all stripes in the request.
  std::map<int, std::vector<StorageDevice::Segment>> segments;
  PlaceStripes(first, last, buffer.data(),
               [&](int device, std::uint64_t dev_offset,
                   std::span<const std::uint8_t> bytes) {
                 segments[device].push_back(
                     {dev_offset, {bytes.begin(), bytes.end()}});
               });
  const std::uint64_t parity_bytes =
      (last - first) * stripe_bytes_ * parity_count();
  if (parity_bytes > 0) {
    co_await sim_.Delay(
        sim::TransferTime(parity_bytes, kParityComputeBytesPerSec));
  }
  std::vector<sim::Task<Status>> ops;
  for (auto& [device, segs] : segments) {
    if (!devices_[device]->failed()) {
      ops.push_back(devices_[device]->WriteMulti(std::move(segs)));
    }
  }
  co_return co_await sim::AllOk(sim_, std::move(ops));
}

sim::Task<Status> RaidVolume::WriteDiscard(std::uint64_t offset,
                                           std::uint64_t length) {
  if (std::optional<Status> done = Admit(offset, length, false)) {
    co_return *done;
  }
  bytes_written_ += length;
  if (level_ == RaidLevel::kRaid1) {
    co_return co_await DiscardOnLiveDevices(false, offset, length);
  }
  co_return co_await ChargeEvenShare(false, offset, length);
}

sim::Task<Status> RaidVolume::ReadDiscard(std::uint64_t offset,
                                          std::uint64_t length) {
  if (std::optional<Status> done = Admit(offset, length, true)) {
    co_return *done;
  }
  bytes_read_ += length;
  if (level_ == RaidLevel::kRaid1) {
    for (int attempt = 0; attempt < num_devices(); ++attempt) {
      StorageDevice* device = devices_[next_mirror_read_++ % devices_.size()];
      if (!device->failed()) {
        co_return co_await device->ReadDiscard(offset, length);
      }
    }
    co_return UnavailableError("all mirrors failed");
  }
  // Same rule as Read: only striped levels answer from the controller
  // cache.
  if (write_cache_ && failed_devices() == 0 && RangeInCache(offset, length)) {
    co_await sim_.Delay(sim::Micros(300) +
                        sim::TransferTime(length, kCacheAckBytesPerSec));
    co_return OkStatus();
  }
  co_return co_await ChargeEvenShare(true, offset, length);
}

sim::Task<Status> RaidVolume::ChargeEvenShare(bool is_read,
                                              std::uint64_t offset,
                                              std::uint64_t length) {
  if (!is_read) {
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
                                          std::vector<std::uint8_t> data) {
  // Honour the dirty limit: writers stall while destaging catches up,
  // which converges sustained throughput to the spindle rate.
  while (dirty_ + data.size() > kCacheDirtyLimit) {
    co_await drained_->Wait();
  }
  const std::uint64_t size = data.size();
  bytes_written_ += size;
  dirty_ += size;

  // The device range each member destages.
  std::uint64_t dev_offset = offset;
  std::uint64_t dev_length = size;
  if (level_ == RaidLevel::kRaid1) {
    for (StorageDevice* device : devices_) {
      device->StoreDirect(offset, data);
    }
  } else {
    const std::uint64_t first = offset / stripe_bytes_;
    const std::uint64_t last =
        (offset + size + stripe_bytes_ - 1) / stripe_bytes_;
    dev_offset = first * stripe_unit_;
    dev_length = (last - first) * stripe_unit_;
    // Read-merge partial head/tail stripes from the cache-coherent view,
    // overlay, recompute parity, store — all in controller DRAM.
    const std::uint64_t base = first * stripe_bytes_;
    std::vector<std::uint8_t> buffer((last - first) * stripe_bytes_, 0);
    ForEachChunk(base, buffer.size(),
                 [&](std::uint64_t pos, ChunkLoc loc, std::uint64_t n) {
                   devices_[loc.device]->LoadDirect(
                       loc.dev_offset, {buffer.data() + (pos - base), n});
                 });
    std::memcpy(buffer.data() + (offset - base), data.data(), size);
    PlaceStripes(first, last, buffer.data(),
                 [&](int device, std::uint64_t at,
                     std::span<const std::uint8_t> bytes) {
                   devices_[device]->StoreDirect(at, bytes);
                 });
  }

  RememberRange(offset, size);
  sim_.Spawn(Destage(dev_offset, dev_length, size));
  co_await sim_.Delay(sim::Micros(300) +
                      sim::TransferTime(size, kCacheAckBytesPerSec));
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
  if (std::optional<Status> done = Admit(offset, length, true)) {
    if (!done->ok()) {
      co_return *done;
    }
    co_return std::vector<std::uint8_t>();
  }
  std::vector<std::uint8_t> out(length);

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
      auto result = co_await device->Read(offset, length);
      if (result.ok()) {
        bytes_read_ += length;
        co_return std::move(result).value();
      }
    }
    co_return UnavailableError("all mirrors failed");
  }

  if (write_cache_ && failed_devices() == 0 && RangeInCache(offset, length)) {
    // Controller cache hit: no spindle involvement.
    co_await sim_.Delay(sim::Micros(300) +
                        sim::TransferTime(length, kCacheAckBytesPerSec));
    ForEachChunk(offset, length,
                 [&](std::uint64_t pos, ChunkLoc loc, std::uint64_t n) {
                   devices_[loc.device]->LoadDirect(
                       loc.dev_offset, {out.data() + (pos - offset), n});
                 });
  } else if (failed_devices() == 0) {
    ROS_CO_RETURN_IF_ERROR(co_await ReadHealthy(offset, length, &out));
  } else {
    // Degraded path: stripe-granular reconstruct.
    const std::uint64_t first = offset / stripe_bytes_;
    const std::uint64_t last =
        (offset + length + stripe_bytes_ - 1) / stripe_bytes_;
    for (std::uint64_t stripe = first; stripe < last; ++stripe) {
      std::vector<std::uint8_t> stripe_data(stripe_bytes_);
      ROS_CO_RETURN_IF_ERROR(
          co_await ReadStripeData(stripe, stripe_data.data()));
      const std::uint64_t stripe_start = stripe * stripe_bytes_;
      const std::uint64_t copy_from = std::max(offset, stripe_start);
      const std::uint64_t copy_to =
          std::min(offset + length, stripe_start + stripe_bytes_);
      std::memcpy(out.data() + (copy_from - offset),
                  stripe_data.data() + (copy_from - stripe_start),
                  copy_to - copy_from);
    }
  }
  bytes_read_ += length;
  co_return out;
}

sim::Task<Status> RaidVolume::ReadHealthy(std::uint64_t offset,
                                          std::uint64_t length,
                                          std::vector<std::uint8_t>* out) {
  // Map every touched chunk to its device; one vectored read per device.
  std::map<int, std::vector<StorageDevice::Segment>> segments;
  std::map<int, std::vector<std::uint64_t>> out_offsets;

  ForEachChunk(offset, length, [&](std::uint64_t pos, ChunkLoc loc,
                                   std::uint64_t n) {
    segments[loc.device].push_back(
        {loc.dev_offset, std::vector<std::uint8_t>(n)});
    out_offsets[loc.device].push_back(pos - offset);

    // Sequential streams pass over the rotated parity chunks on every
    // device; charge that rotational transfer on fully-covered stripes so
    // a 7-HDD RAID-5 reads at 6x — not 7x — one device's rate (§3.3).
    if (pos % stripe_bytes_ == 0 && pos + stripe_bytes_ <= offset + length) {
      const std::uint64_t stripe = pos / stripe_bytes_;
      for (int r = 0; r < parity_count(); ++r) {
        const int device = ParityDevice(stripe, r);
        segments[device].push_back(
            {stripe * stripe_unit_, std::vector<std::uint8_t>(stripe_unit_)});
        out_offsets[device].push_back(kDiscard);
      }
    }
  });

  std::vector<sim::Task<Status>> ops;
  for (auto& [device, segs] : segments) {
    ops.push_back(devices_[device]->ReadMulti(&segs));
  }
  ROS_CO_RETURN_IF_ERROR(co_await sim::AllOk(sim_, std::move(ops)));

  for (auto& [device, segs] : segments) {
    const auto& offsets = out_offsets[device];
    for (std::size_t i = 0; i < segs.size(); ++i) {
      if (offsets[i] == kDiscard) {
        continue;  // parity pass-over, timing only
      }
      std::memcpy(out->data() + offsets[i], segs[i].data.data(),
                  segs[i].data.size());
    }
  }
  co_return OkStatus();
}

sim::Task<Status> RaidVolume::ReadStripeData(std::uint64_t stripe,
                                             std::uint8_t* out,
                                             int exclude) {
  // Shards 0..data_n_-1 are the data chunks, then the parity rows.
  const int num_shards = data_n_ + parity_count();
  std::vector<std::vector<std::uint8_t>> shards(num_shards);
  std::vector<int> erased;
  std::vector<int> readable;
  int erased_data = 0;
  for (int s = 0; s < num_shards; ++s) {
    const int device = ShardDevice(stripe, s);
    if (devices_[device]->failed() || device == exclude) {
      erased.push_back(s);
      erased_data += s < data_n_ ? 1 : 0;
    } else {
      readable.push_back(s);
    }
  }
  const int readable_parity =
      parity_count() - (static_cast<int>(erased.size()) - erased_data);
  if (erased_data > readable_parity) {
    co_return DataLossError("stripe unrecoverable: too many failures");
  }

  // Read all surviving chunks of the stripe in parallel.
  std::vector<std::vector<StorageDevice::Segment>> reads(num_shards);
  std::vector<sim::Task<Status>> ops;
  for (const int s : readable) {
    reads[s].push_back(
        {stripe * stripe_unit_, std::vector<std::uint8_t>(stripe_unit_)});
    ops.push_back(devices_[ShardDevice(stripe, s)]->ReadMulti(&reads[s]));
  }
  ROS_CO_RETURN_IF_ERROR(co_await sim::AllOk(sim_, std::move(ops)));
  for (const int s : readable) {
    shards[s] = std::move(reads[s][0].data);
  }

  if (erased_data > 0) {
    // Reconstruction. Charge GF/XOR math at memory bandwidth.
    co_await sim_.Delay(sim::TransferTime(
        stripe_bytes_ * static_cast<std::uint64_t>(erased_data),
        kParityComputeBytesPerSec));
    ROS_CO_RETURN_IF_ERROR(ec::Decode(data_n_, shards, erased));
  }
  for (int k = 0; k < data_n_; ++k) {
    std::memcpy(out + k * stripe_unit_, shards[k].data(), stripe_unit_);
  }
  co_return OkStatus();
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
