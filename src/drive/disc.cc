#include "src/drive/disc.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "src/common/hash.h"
#include "src/common/rng.h"

namespace ros::drive {

Status Disc::AppendSession(std::string image_id, std::uint64_t logical_size,
                           std::vector<std::uint8_t> data, bool closed) {
  if (data.size() > logical_size) {
    return InvalidArgumentError("session payload larger than logical size");
  }
  if (logical_size > free_bytes()) {
    return ResourceExhaustedError("disc " + id_ + " lacks capacity for " +
                                  std::to_string(logical_size) + " bytes");
  }
  if (!sessions_.empty() && !sessions_.back().closed) {
    return FailedPreconditionError("previous session still open");
  }
  Session session;
  session.image_id = std::move(image_id);
  session.start = next_start_;
  session.logical_size = logical_size;
  session.data = std::move(data);
  session.closed = closed;
  next_start_ += logical_size;
  sessions_.push_back(std::move(session));
  ++generation_;
  return OkStatus();
}

Status Disc::ExtendOpenSession(const std::string& image_id,
                               std::uint64_t new_logical_size,
                               std::vector<std::uint8_t> data, bool closed) {
  if (sessions_.empty()) {
    return FailedPreconditionError("disc has no sessions");
  }
  Session& last = sessions_.back();
  if (last.closed) {
    return FailedPreconditionError(
        "last session closed; WORM media cannot reopen it");
  }
  if (last.image_id != image_id) {
    return FailedPreconditionError("open session belongs to another image");
  }
  if (new_logical_size < last.logical_size) {
    return InvalidArgumentError("cannot shrink a burned session");
  }
  const std::uint64_t grow = new_logical_size - last.logical_size;
  if (grow > free_bytes()) {
    return ResourceExhaustedError("no capacity to extend session");
  }
  last.logical_size = new_logical_size;
  last.data = std::move(data);
  last.closed = closed;
  next_start_ += grow;
  ++generation_;
  return OkStatus();
}

Status Disc::Erase() {
  if (IsWorm(type_)) {
    return FailedPreconditionError("cannot erase WORM disc " + id_);
  }
  if (erase_cycles_ >= kMaxEraseCycles) {
    return ResourceExhaustedError("disc " + id_ + " erase cycles exhausted");
  }
  ++erase_cycles_;
  sessions_.clear();
  next_start_ = 0;
  corrupted_.clear();
  ++generation_;
  // Erased media restarts its aging clock at the next burn.
  birth_ns_ = -1;
  aged_epochs_ = 0;
  return OkStatus();
}

StatusOr<const Session*> Disc::FindSession(const std::string& image_id) const {
  for (const Session& session : sessions_) {
    if (session.image_id == image_id) {
      return &session;
    }
  }
  return NotFoundError("image " + image_id + " not on disc " + id_);
}

StatusOr<const Session*> Disc::CheckSession(const std::string& image_id,
                                            std::uint64_t offset,
                                            std::uint64_t length) const {
  ROS_ASSIGN_OR_RETURN(const Session* session, FindSession(image_id));
  if (offset + length > session->logical_size) {
    return OutOfRangeError("read beyond session end");
  }
  // Corruption check over the absolute sector range touched.
  if (!corrupted_.empty()) {
    std::uint64_t first = (session->start + offset) / kSectorSize;
    std::uint64_t last = (session->start + offset + length + kSectorSize - 1) /
                         kSectorSize;
    auto it = corrupted_.lower_bound(first);
    if (it != corrupted_.end() && *it < last) {
      return DataLossError("corrupted sector " + std::to_string(*it) +
                           " on disc " + id_);
    }
  }
  return session;
}

StatusOr<std::vector<std::uint8_t>> Disc::ReadSession(
    const std::string& image_id, std::uint64_t offset,
    std::uint64_t length) const {
  ROS_ASSIGN_OR_RETURN(const Session* session,
                       CheckSession(image_id, offset, length));
  std::vector<std::uint8_t> out(length, 0);
  if (offset < session->data.size()) {
    std::uint64_t n = std::min<std::uint64_t>(length,
                                              session->data.size() - offset);
    std::copy_n(session->data.begin() + static_cast<std::ptrdiff_t>(offset),
                n, out.begin());
  }
  return out;
}

Status Disc::TamperSessionData(const std::string& image_id,
                               std::uint64_t offset, std::uint8_t xor_mask) {
  if (xor_mask == 0) {
    return InvalidArgumentError("xor mask must flip at least one bit");
  }
  for (Session& session : sessions_) {
    if (session.image_id != image_id) {
      continue;
    }
    if (offset >= session.data.size()) {
      return OutOfRangeError("tamper offset beyond stored payload");
    }
    session.data[offset] ^= xor_mask;
    ++generation_;
    return OkStatus();
  }
  return NotFoundError("image " + image_id + " not on disc " + id_);
}

int Disc::AdvanceAging(std::int64_t now_ns, const MediaAgingParams& params) {
  if (!params.enabled || birth_ns_ < 0 || params.epoch_ns <= 0 ||
      next_start_ == 0) {
    return 0;
  }
  const std::int64_t epochs = (now_ns - birth_ns_) / params.epoch_ns;
  if (epochs <= aged_epochs_) {
    return 0;
  }
  const double epoch_years =
      static_cast<double>(params.epoch_ns) / kNsPerYear;
  const double factor = params.generation_factor(type_);
  const std::uint64_t burned_sectors =
      (next_start_ + kSectorSize - 1) / kSectorSize;
  const std::uint64_t id_hash = Fnv1a64(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(id_.data()), id_.size()));
  int materialized = 0;
  for (std::int64_t e = aged_epochs_; e < epochs; ++e) {
    // Per-(disc, epoch) stream: the sectors an epoch rots are fixed at
    // seed time, so materialization order never depends on observation.
    Rng rng(params.seed ^ id_hash ^
            (static_cast<std::uint64_t>(e) * 0x9E3779B97F4A7C15ull));
    const double age_years = static_cast<double>(e) * epoch_years;
    const double rate = params.lse_per_sector_year * factor *
                        (1.0 + params.growth_per_year * age_years);
    const double expected =
        rate * epoch_years * static_cast<double>(burned_sectors);
    std::uint64_t errors = static_cast<std::uint64_t>(std::floor(expected));
    const double frac = expected - static_cast<double>(errors);
    if (frac > 0 && rng.Chance(frac)) {
      ++errors;
    }
    for (std::uint64_t i = 0; i < errors; ++i) {
      if (corrupted_.insert(rng.Below(burned_sectors)).second) {
        ++materialized;
      }
    }
  }
  aged_epochs_ = epochs;
  aged_errors_ += static_cast<std::uint64_t>(materialized);
  if (materialized > 0) {
    ++generation_;
  }
  return materialized;
}

std::vector<std::uint64_t> Disc::ScrubForErrors() const {
  std::vector<std::uint64_t> bad;
  std::uint64_t burned_sectors = (next_start_ + kSectorSize - 1) / kSectorSize;
  for (std::uint64_t sector : corrupted_) {
    if (sector < burned_sectors) {
      bad.push_back(sector);
    }
  }
  return bad;
}

}  // namespace ros::drive
