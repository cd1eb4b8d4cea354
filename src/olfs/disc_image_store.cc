#include "src/olfs/disc_image_store.h"

#include <algorithm>

namespace ros::olfs {

Status DiscImageStore::RegisterBucket(std::shared_ptr<udf::Image> image,
                                      int volume_index,
                                      std::string volume_file) {
  ROS_CHECK(image != nullptr);
  const std::string id = image->id();
  if (records_.count(id) > 0) {
    return AlreadyExistsError("image " + id + " already registered");
  }
  ImageRecord record;
  record.id = id;
  record.image = std::move(image);
  record.tier = ImageTier::kOpenBucket;
  record.volume_index = volume_index;
  record.volume_file = std::move(volume_file);
  records_.emplace(id, std::move(record));
  return OkStatus();
}

Status DiscImageStore::RegisterParity(const std::string& id, int volume_index,
                                      std::string volume_file,
                                      std::uint64_t bytes) {
  if (records_.count(id) > 0) {
    return AlreadyExistsError("image " + id + " already registered");
  }
  ImageRecord record;
  record.id = id;
  record.parity = true;
  record.tier = ImageTier::kBuffered;
  record.volume_index = volume_index;
  record.volume_file = std::move(volume_file);
  record.logical_bytes = bytes;
  buffered_bytes_ += bytes;
  records_.emplace(id, std::move(record));
  // Parity images burn with their array; they are not burn candidates on
  // their own, so they are not added to close_order_.
  return OkStatus();
}

Status DiscImageStore::MarkClosed(const std::string& id) {
  ROS_ASSIGN_OR_RETURN(ImageRecord* record, LookupMutable(id));
  if (record->tier != ImageTier::kOpenBucket) {
    return FailedPreconditionError("image " + id + " not an open bucket");
  }
  record->tier = ImageTier::kBuffered;
  record->image->Close();
  record->logical_bytes = record->image->used_bytes();
  buffered_bytes_ += record->logical_bytes;
  close_order_.push_back(id);
  return OkStatus();
}

Status DiscImageStore::MarkBurned(const std::string& id,
                                  mech::DiscAddress disc) {
  ROS_ASSIGN_OR_RETURN(ImageRecord* record, LookupMutable(id));
  if (record->tier != ImageTier::kBuffered) {
    return FailedPreconditionError("image " + id + " not awaiting burn");
  }
  record->tier = ImageTier::kBurnedCached;
  record->disc = disc;
  close_order_.erase(
      std::remove(close_order_.begin(), close_order_.end(), id),
      close_order_.end());
  return OkStatus();
}

Status DiscImageStore::DropFromBuffer(const std::string& id) {
  ROS_ASSIGN_OR_RETURN(ImageRecord* record, LookupMutable(id));
  if (record->tier != ImageTier::kBurnedCached) {
    return FailedPreconditionError(
        "only burned images may leave the buffer: " + id);
  }
  record->tier = ImageTier::kBurnedOnly;
  record->image.reset();
  buffered_bytes_ -= record->logical_bytes;
  record->volume_file.clear();
  return OkStatus();
}

Status DiscImageStore::RestoreToBuffer(const std::string& id,
                                       std::shared_ptr<udf::Image> image,
                                       int volume_index,
                                       std::string volume_file) {
  ROS_ASSIGN_OR_RETURN(ImageRecord* record, LookupMutable(id));
  if (record->tier != ImageTier::kBurnedOnly) {
    return FailedPreconditionError("image " + id + " already buffered");
  }
  record->tier = ImageTier::kBurnedCached;
  record->image = std::move(image);
  record->volume_index = volume_index;
  record->volume_file = std::move(volume_file);
  buffered_bytes_ += record->logical_bytes;
  return OkStatus();
}

Status DiscImageStore::SetArrayMembers(
    const std::vector<std::string>& members) {
  for (const std::string& id : members) {
    ROS_ASSIGN_OR_RETURN(ImageRecord* record, LookupMutable(id));
    record->array_members = members;
  }
  return OkStatus();
}

Status DiscImageStore::RegisterRecovered(const std::string& id, bool parity,
                                         mech::DiscAddress disc,
                                         std::uint64_t bytes) {
  auto it = records_.find(id);
  if (it != records_.end()) {
    it->second.disc = disc;
    return OkStatus();
  }
  ImageRecord record;
  record.id = id;
  record.parity = parity;
  record.tier = ImageTier::kBurnedOnly;
  record.disc = disc;
  record.logical_bytes = bytes;
  records_.emplace(id, std::move(record));
  return OkStatus();
}

Status DiscImageStore::ReopenForRepair(const std::string& id,
                                       std::shared_ptr<udf::Image> image,
                                       int volume_index,
                                       std::string volume_file) {
  ROS_ASSIGN_OR_RETURN(ImageRecord* record, LookupMutable(id));
  if (record->tier == ImageTier::kBurnedCached) {
    buffered_bytes_ -= record->logical_bytes;
  }
  record->tier = ImageTier::kBuffered;
  record->disc.reset();
  record->image = std::move(image);
  record->volume_index = volume_index;
  record->volume_file = std::move(volume_file);
  record->logical_bytes = record->image->used_bytes();
  buffered_bytes_ += record->logical_bytes;
  close_order_.push_back(id);
  return OkStatus();
}

std::vector<const ImageRecord*> DiscImageStore::AllRecords() const {
  std::vector<const ImageRecord*> out;
  out.reserve(records_.size());
  for (const auto& [id, record] : records_) {
    out.push_back(&record);
  }
  return out;
}

Status DiscImageStore::RestoreRecord(ImageRecord record) {
  if (records_.count(record.id) > 0) {
    return AlreadyExistsError("image " + record.id + " already registered");
  }
  if (record.tier == ImageTier::kBuffered) {
    close_order_.push_back(record.id);
  }
  if (record.tier == ImageTier::kBuffered ||
      record.tier == ImageTier::kBurnedCached) {
    buffered_bytes_ += record.logical_bytes;
  }
  const std::string id = record.id;
  records_.emplace(id, std::move(record));
  return OkStatus();
}

StatusOr<const ImageRecord*> DiscImageStore::Lookup(
    const std::string& id) const {
  auto it = records_.find(id);
  if (it == records_.end()) {
    return NotFoundError("unknown image " + id);
  }
  return &it->second;
}

StatusOr<ImageRecord*> DiscImageStore::LookupMutable(const std::string& id) {
  auto it = records_.find(id);
  if (it == records_.end()) {
    return NotFoundError("unknown image " + id);
  }
  return &it->second;
}

std::vector<std::string> DiscImageStore::UnburnedClosed() const {
  return close_order_;
}

std::vector<std::string> DiscImageStore::BurnedImages() const {
  std::vector<std::string> out;
  for (const auto& [id, record] : records_) {
    if (record.disc.has_value()) {
      out.push_back(id);
    }
  }
  return out;
}

}  // namespace ros::olfs
