#include "src/disk/block_device.h"

#include <algorithm>
#include <cstring>

#include "src/common/gf256.h"

namespace ros::disk {

template <typename Fn>
void StorageDevice::ForEachPiece(std::uint64_t offset, std::uint64_t length,
                                 Fn&& fn) {
  std::uint64_t pos = 0;
  while (pos < length) {
    const std::uint64_t abs = offset + pos;
    const std::uint64_t within = abs % kChunk;
    const std::uint64_t n = std::min(kChunk - within, length - pos);
    fn(abs / kChunk, within, pos, n);
    pos += n;
  }
}

void StorageDevice::StoreDirect(std::uint64_t offset,
                                std::span<const std::uint8_t> data) {
  ForEachPiece(offset, data.size(),
               [&](std::uint64_t chunk_index, std::uint64_t within,
                   std::uint64_t pos, std::uint64_t n) {
                 std::vector<std::uint8_t>& chunk = chunks_[chunk_index];
                 const std::uint8_t* src = data.data() + pos;
                 if (chunk.empty() && n == kChunk) {
                   chunk.assign(src, src + n);
                   return;
                 }
                 if (chunk.empty()) {
                   chunk.resize(kChunk, 0);
                 }
                 std::memcpy(chunk.data() + within, src, n);
               });
}

void StorageDevice::LoadDirect(std::uint64_t offset,
                               std::span<std::uint8_t> out) const {
  ForEachPiece(offset, out.size(),
               [&](std::uint64_t chunk_index, std::uint64_t within,
                   std::uint64_t pos, std::uint64_t n) {
                 auto it = chunks_.find(chunk_index);
                 if (it == chunks_.end()) {
                   std::memset(out.data() + pos, 0, n);
                 } else {
                   std::memcpy(out.data() + pos, it->second.data() + within,
                               n);
                 }
               });
}

void StorageDevice::MulAccDirect(std::uint64_t offset, std::uint8_t coeff,
                                 std::span<const std::uint8_t> delta) {
  ForEachPiece(offset, delta.size(),
               [&](std::uint64_t chunk_index, std::uint64_t within,
                   std::uint64_t pos, std::uint64_t n) {
                 std::vector<std::uint8_t>& chunk = chunks_[chunk_index];
                 if (chunk.empty()) {
                   chunk.resize(kChunk, 0);
                 }
                 gf256::MulAcc({chunk.data() + within, n}, coeff,
                               delta.subspan(pos, n));
               });
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

sim::Task<Status> StorageDevice::Serve(bool is_read, std::uint64_t offset,
                                       std::uint64_t length,
                                       std::vector<std::uint8_t>* bytes) {
  if (offset + length > capacity_) {
    co_return OutOfRangeError(std::string(is_read ? "read" : "write") +
                              " beyond device " + name_);
  }
  sim::Mutex::ScopedLock lock = co_await queue_.Lock();
  if (failed_) {
    co_return UnavailableError("device " + name_ + " failed");
  }
  ROS_CO_RETURN_IF_ERROR(CheckInjectedFault(is_read));
  std::uint64_t& last_end = is_read ? last_read_end_ : last_write_end_;
  const sim::TimePoint start = sim_.now();
  co_await sim_.Delay(
      (offset == last_end ? 0 : perf_.request_latency) +
      sim::TransferTime(length, is_read ? perf_.read_bytes_per_sec
                                        : perf_.write_bytes_per_sec));
  if (failed_) {  // failure injected mid-flight
    co_return UnavailableError("device " + name_ + " failed");
  }
  if (bytes != nullptr && is_read) {
    bytes->resize(length);
    LoadDirect(offset, *bytes);
  } else if (bytes != nullptr) {
    StoreDirect(offset, *bytes);
  }
  last_end = offset + length;
  (is_read ? bytes_read_ : bytes_written_) += length;
  busy_time_ += sim_.now() - start;
  co_return OkStatus();
}

sim::Task<Status> StorageDevice::Write(std::uint64_t offset,
                                       std::vector<std::uint8_t> data) {
  co_return co_await Serve(/*is_read=*/false, offset, data.size(), &data);
}

sim::Task<StatusOr<std::vector<std::uint8_t>>> StorageDevice::Read(
    std::uint64_t offset, std::uint64_t length) {
  std::vector<std::uint8_t> out;
  ROS_CO_RETURN_IF_ERROR(co_await Serve(/*is_read=*/true, offset, length,
                                        &out));
  co_return out;
}

sim::Task<Status> StorageDevice::WriteDiscard(std::uint64_t offset,
                                              std::uint64_t length) {
  co_return co_await Serve(/*is_read=*/false, offset, length, nullptr);
}

sim::Task<Status> StorageDevice::ReadDiscard(std::uint64_t offset,
                                             std::uint64_t length) {
  co_return co_await Serve(/*is_read=*/true, offset, length, nullptr);
}

void StorageDevice::Replace() {
  failed_ = false;
  chunks_.clear();
}

}  // namespace ros::disk
