#include "src/disk/block_device.h"

#include <algorithm>
#include <cstring>

namespace ros::disk {

void StorageDevice::StoreDirect(std::uint64_t offset,
                                std::span<const std::uint8_t> data) {
  std::uint64_t pos = 0;
  while (pos < data.size()) {
    const std::uint64_t abs = offset + pos;
    const std::uint64_t chunk_index = abs / kChunk;
    const std::uint64_t within = abs % kChunk;
    const std::uint64_t n =
        std::min<std::uint64_t>(kChunk - within, data.size() - pos);
    auto& chunk = chunks_[chunk_index];
    if (chunk.empty()) {
      chunk.resize(kChunk, 0);
    }
    std::memcpy(chunk.data() + within, data.data() + pos, n);
    pos += n;
  }
}

void StorageDevice::LoadDirect(std::uint64_t offset,
                               std::span<std::uint8_t> out) const {
  std::uint64_t pos = 0;
  while (pos < out.size()) {
    const std::uint64_t abs = offset + pos;
    const std::uint64_t chunk_index = abs / kChunk;
    const std::uint64_t within = abs % kChunk;
    const std::uint64_t n =
        std::min<std::uint64_t>(kChunk - within, out.size() - pos);
    auto it = chunks_.find(chunk_index);
    if (it == chunks_.end()) {
      std::memset(out.data() + pos, 0, n);
    } else {
      std::memcpy(out.data() + pos, it->second.data() + within, n);
    }
    pos += n;
  }
}

Status StorageDevice::CheckInjectedFault(bool is_read) {
  if (faults_ == nullptr) {
    return OkStatus();
  }
  if (faults_->ShouldInject(sim::FaultKind::kHddFailure, name_)) {
    failed_ = true;
    return UnavailableError("device " + name_ + " failed (injected)");
  }
  if (is_read &&
      faults_->ShouldInject(sim::FaultKind::kHddReadError, name_)) {
    return DataLossError("injected latent read error on device " + name_);
  }
  return OkStatus();
}

sim::Task<Status> StorageDevice::Serve(bool is_read,
                                       std::span<const Range> ranges) {
  std::uint64_t total = 0;
  for (const Range& range : ranges) {
    if (range.offset + range.length > capacity_) {
      co_return OutOfRangeError(std::string(is_read ? "read" : "write") +
                                " beyond device " + name_);
    }
    total += range.length;
  }
  sim::Mutex::ScopedLock lock = co_await queue_.Lock();
  if (failed_) {
    co_return UnavailableError("device " + name_ + " failed");
  }
  ROS_CO_RETURN_IF_ERROR(CheckInjectedFault(is_read));
  std::uint64_t& last_end = is_read ? last_read_end_ : last_write_end_;
  const sim::TimePoint start = sim_.now();
  co_await sim_.Delay(
      (ranges.front().offset == last_end ? 0 : perf_.request_latency) +
      sim::TransferTime(total, is_read ? perf_.read_bytes_per_sec
                                       : perf_.write_bytes_per_sec));
  if (failed_) {  // failure injected mid-flight
    co_return UnavailableError("device " + name_ + " failed");
  }
  for (const Range& range : ranges) {
    if (range.bytes == nullptr) {
      continue;  // a discard moves no bytes
    }
    if (is_read) {
      range.bytes->resize(range.length);
      LoadDirect(range.offset, *range.bytes);
    } else {
      StoreDirect(range.offset, *range.bytes);
    }
  }
  last_end = ranges.back().offset + ranges.back().length;
  (is_read ? bytes_read_ : bytes_written_) += total;
  busy_time_ += sim_.now() - start;
  co_return OkStatus();
}

sim::Task<Status> StorageDevice::Write(std::uint64_t offset,
                                       std::vector<std::uint8_t> data) {
  const Range range{offset, data.size(), &data};
  co_return co_await Serve(/*is_read=*/false, {&range, 1});
}

sim::Task<StatusOr<std::vector<std::uint8_t>>> StorageDevice::Read(
    std::uint64_t offset, std::uint64_t length) {
  std::vector<std::uint8_t> out;
  const Range range{offset, length, &out};
  ROS_CO_RETURN_IF_ERROR(co_await Serve(/*is_read=*/true, {&range, 1}));
  co_return out;
}

sim::Task<Status> StorageDevice::WriteDiscard(std::uint64_t offset,
                                              std::uint64_t length) {
  const Range range{offset, length, nullptr};
  co_return co_await Serve(/*is_read=*/false, {&range, 1});
}

sim::Task<Status> StorageDevice::ReadDiscard(std::uint64_t offset,
                                             std::uint64_t length) {
  const Range range{offset, length, nullptr};
  co_return co_await Serve(/*is_read=*/true, {&range, 1});
}

sim::Task<Status> StorageDevice::WriteMulti(std::vector<Segment> segments) {
  std::vector<Range> ranges;
  for (Segment& segment : segments) {
    ranges.push_back({segment.offset, segment.data.size(), &segment.data});
  }
  co_return co_await Serve(/*is_read=*/false, ranges);
}

sim::Task<Status> StorageDevice::ReadMulti(std::vector<Segment>* segments) {
  std::vector<Range> ranges;
  for (Segment& segment : *segments) {
    ranges.push_back({segment.offset, segment.data.size(), &segment.data});
  }
  co_return co_await Serve(/*is_read=*/true, ranges);
}

void StorageDevice::Replace() {
  failed_ = false;
  chunks_.clear();
}

}  // namespace ros::disk
