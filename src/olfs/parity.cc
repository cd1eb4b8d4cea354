#include "src/olfs/parity.h"

#include <algorithm>
#include <iterator>
#include <span>
#include <string_view>

#include "src/common/erasure.h"
#include "src/olfs/bucket_manager.h"

namespace ros::olfs {

namespace {

// Parity image ids end in the row's suffix; see ParityRowOf.
constexpr std::string_view kRowSuffix[] = {"-P", "-Q"};

}  // namespace

std::optional<int> ParityRowOf(const std::string& id) {
  for (int row = 0; row < static_cast<int>(std::size(kRowSuffix)); ++row) {
    if (id.size() > kRowSuffix[row].size() && id.ends_with(kRowSuffix[row])) {
      return row;
    }
  }
  return std::nullopt;
}

sim::Task<StatusOr<std::vector<ParityImage>>> ParityBuilder::Build(
    std::vector<std::string> data_ids,
    std::vector<disk::Volume*> data_volumes, int parity_volume_index) {
  if (data_ids.empty()) {
    co_return InvalidArgumentError("no data images");
  }

  // Take each member's closed stream and charge the buffer read of its
  // stripes. The shared pointers keep the streams alive across the reads
  // even if a member is dropped from the buffer meanwhile.
  std::vector<std::shared_ptr<const std::vector<std::uint8_t>>> streams;
  std::vector<std::uint64_t> logical_sizes;
  streams.reserve(data_ids.size());
  std::uint64_t max_logical = 0;
  for (const std::string& id : data_ids) {
    ROS_CO_ASSIGN_OR_RETURN(const ImageRecord* record, images_->Lookup(id));
    if (record->image == nullptr) {
      co_return FailedPreconditionError("image " + id + " not buffered");
    }
    if (!record->image->closed()) {
      co_return FailedPreconditionError("image " + id + " still open");
    }
    disk::Volume* volume = data_volumes.at(
        static_cast<std::size_t>(record->volume_index));
    auto size = volume->FileSize(record->volume_file);
    if (size.ok() && *size > 0) {
      ROS_CO_RETURN_IF_ERROR(
          co_await volume->ReadDiscard(record->volume_file, 0, *size));
    }
    streams.push_back(record->image->stream());
    logical_sizes.push_back(record->image->used_bytes());
    max_logical = std::max(max_logical, logical_sizes.back());
  }

  // Compute all parity images in ONE sweep over the member streams: the
  // codec's fused kernel feeds P and Q simultaneously, so each serialized
  // stream is read exactly once regardless of params_.parity_images.
  std::vector<std::span<const std::uint8_t>> shards;
  shards.reserve(streams.size());
  for (const auto& stream : streams) {
    shards.emplace_back(*stream);
  }
  ec::Encoded encoded = ec::Encode(shards, params_.parity_images);
  last_build_stream_passes_ = encoded.sweeps;

  const int generation = generation_++;
  std::vector<ParityImage> parities;
  for (int p = 0; p < params_.parity_images; ++p) {
    ParityImage parity;
    parity.index = p;
    parity.id = "par-" + std::to_string(generation) + "-" + data_ids.front();
    parity.id += kRowSuffix[p];
    parity.logical_bytes = max_logical;
    parity.member_ids = data_ids;

    // Write the parity image to its (ideally independent) volume.
    disk::Volume* volume = data_volumes.at(
        static_cast<std::size_t>(parity_volume_index) %
        data_volumes.size());
    const std::string file = BucketManager::VolumeFileName(parity.id);
    if (!volume->Exists(file)) {
      ROS_CO_RETURN_IF_ERROR(co_await volume->Create(file));
    }
    // Real parity bytes are the serialized-stream parity; the disc
    // footprint matches the largest member image. The builder keeps the
    // one retained copy (served by Get()); the compute buffer itself is
    // moved into the volume write.
    parity.bytes = encoded.rows[p];
    ROS_CO_RETURN_IF_ERROR(co_await volume->AppendSparse(
        file, std::move(encoded.rows[p]),
        std::max<std::uint64_t>(max_logical, parity.bytes.size())));
    ROS_CO_RETURN_IF_ERROR(images_->RegisterParity(
        parity.id, parity_volume_index % static_cast<int>(data_volumes.size()),
        file, parity.logical_bytes));

    // Callers get metadata; the payload stays with the builder.
    ParityImage summary;
    summary.id = parity.id;
    summary.index = parity.index;
    summary.logical_bytes = parity.logical_bytes;
    summary.member_ids = parity.member_ids;
    parities.push_back(std::move(summary));
    built_[parity.id] = std::move(parity);
  }
  co_return parities;
}

StatusOr<const ParityImage*> ParityBuilder::Get(const std::string& id) const {
  auto it = built_.find(id);
  if (it == built_.end()) {
    return NotFoundError("no parity image " + id);
  }
  return &it->second;
}

}  // namespace ros::olfs
