#include "src/olfs/olfs.h"

#include <algorithm>
#include <optional>

#include "src/common/erasure.h"
#include "src/common/logging.h"
#include "src/udf/serializer.h"

namespace ros::olfs {

sim::Task<StatusOr<std::vector<std::uint8_t>>> Olfs::ReadEntry(
    std::string path, VersionEntry entry, std::uint64_t offset,
    std::uint64_t length, AccessHint hint) {
  if (entry.tombstone) {
    co_return NotFoundError(path + " is deleted");
  }
  if (offset + length > entry.total_size) {
    co_return OutOfRangeError("read beyond end of " + path);
  }

  // Forepart fast path (§4.8): when the request fits inside the forepart
  // kept in MV and the payload would otherwise need a mechanical fetch,
  // answer from the index file instead of touching the roller.
  if (params_.forepart_enabled && offset + length <= params_.forepart_bytes) {
    bool needs_fetch = false;
    for (const FilePart& part : entry.parts) {
      auto record = images_->Lookup(part.image_id);
      needs_fetch |=
          record.ok() && (*record)->tier == ImageTier::kBurnedOnly;
    }
    if (needs_fetch) {
      auto index = co_await mv_->GetRef(path);
      if (index.ok() && (*index)->Latest().ok() &&
          (*(*index)->Latest())->version == entry.version &&
          offset + length <= (*index)->forepart().size()) {
        const auto& forepart = (*index)->forepart();
        co_return std::vector<std::uint8_t>(
            forepart.begin() + static_cast<long>(offset),
            forepart.begin() + static_cast<long>(offset + length));
      }
    }
  }
  const std::string internal = InternalPath(path, entry.version);

  std::vector<std::uint8_t> out;
  out.reserve(length);
  std::uint64_t part_start = 0;
  for (const FilePart& part : entry.parts) {
    const std::uint64_t part_end = part_start + part.size;
    const std::uint64_t from = std::max(offset, part_start);
    const std::uint64_t to = std::min(offset + length, part_end);
    if (from < to) {
      ROS_CO_ASSIGN_OR_RETURN(
          std::vector<std::uint8_t> piece,
          co_await ReadPart(internal, part, from - part_start, to - from,
                            hint));
      out.insert(out.end(), piece.begin(), piece.end());
    }
    part_start = part_end;
    if (part_start >= offset + length) {
      break;
    }
  }
  co_return out;
}

sim::Task<StatusOr<std::vector<std::uint8_t>>> Olfs::ReadPart(
    std::string internal_path, FilePart part,
    std::uint64_t offset, std::uint64_t length, AccessHint hint) {
  ROS_CO_ASSIGN_OR_RETURN(const ImageRecord* record,
                          images_->Lookup(part.image_id));
  // Cross-layer hint channel: tagged reads feed the co-access map (read
  // affinity influences placement of images not yet burned) regardless of
  // the image's current tier. Untagged requests (stream == 0) are inert.
  if (hint.stream != 0) {
    affinity_->RecordRead(hint.stream, part.image_id);
  }
  switch (record->tier) {
    case ImageTier::kOpenBucket:
    case ImageTier::kBuffered:
    case ImageTier::kBurnedCached: {
      (void)cache_->Touch(part.image_id);
      co_return co_await buckets_->ReadBuffered(part.image_id, internal_path,
                                                offset, length);
    }
    case ImageTier::kBurnedOnly: {
      // Predictive tray prefetch: the stream's tray transition updates the
      // predictor; a confident successor is queued as a background
      // (speculative) load that demand traffic always preempts.
      if (hint.stream != 0 && record->disc.has_value()) {
        const int tray = record->disc->tray.ToIndex();
        const int predicted = predictor_->Observe(hint.stream, tray);
        if (predicted >= 0 && predicted != tray) {
          scheduler_->EnqueueSpeculative(mech::TrayAddress::FromIndex(predicted));
        }
      }
      // File-granular cache (future-work refinement of §4.1).
      if (file_cache_->enabled()) {
        const std::string key = FileCache::Key(part.image_id, internal_path);
        if (const auto* content = file_cache_->Get(key)) {
          if (offset + length <= content->size()) {
            co_await sim_.Delay(
                sim::Millis(0.5) + sim::TransferTime(length, 1.2e9));
            co_return std::vector<std::uint8_t>(
                content->begin() + static_cast<long>(offset),
                content->begin() + static_cast<long>(offset + length));
          }
        }
      }
      // Not in the read cache by definition of this tier; Touch records
      // the miss (hit/miss accounting lives inside ReadCache).
      (void)cache_->Touch(part.image_id);
      auto view = co_await ReadDiscImage(part.image_id, FetchClass::kDemand,
                                         length);
      StatusOr<std::vector<std::uint8_t>> data =
          view.ok() ? (*view)->ReadFile(internal_path, offset, length)
                    : StatusOr<std::vector<std::uint8_t>>(view.status());
      if (!data.ok() && (data.status().code() == StatusCode::kDataLoss ||
                         data.status().code() == StatusCode::kUnavailable)) {
        // Degraded read (§4.7): the disc is damaged or unreachable.
        // Reconstruct the whole image from surviving members + parity,
        // serve the requested bytes, and re-stage the image so it burns
        // onto fresh media — the read succeeds, the repair rides behind.
        ++degraded_reads_;
        ROS_LOG(kWarning) << "degraded read of " << internal_path << " ("
                          << part.image_id
                          << "): " << data.status().ToString();
        auto repaired = co_await ReconstructImage(part.image_id);
        if (repaired.ok()) {
          auto bytes = (*repaired)->ReadFile(internal_path, offset, length);
          Status staged = co_await RepairImage(part.image_id, *repaired);
          if (!staged.ok()) {
            ROS_LOG(kWarning) << "repair staging of " << part.image_id
                              << " failed: " << staged.ToString();
          }
          co_return bytes;
        }
      }
      if (data.ok() && file_cache_->enabled()) {
        sim_.Spawn(TrackDetached(PrefetchTask(part.image_id, internal_path)));
      }
      // Whole-tray readahead: an announced scan stages the tray's sibling
      // images into the read cache while the tray is still loaded, so the
      // rest of the scan avoids re-fetching it after an eviction.
      if (data.ok() && hint.scan && hint.stream != 0 &&
          record->disc.has_value()) {
        const int tray = record->disc->tray.ToIndex();
        if (readahead_trays_.insert(tray).second) {
          sim_.Spawn(TrackDetached(TrayReadaheadTask(part.image_id, tray)));
        }
      }
      co_return data;
    }
  }
  co_return InternalError("unhandled image tier");
}

sim::Task<StatusOr<std::shared_ptr<udf::Image>>> Olfs::ReadDiscImage(
    std::string image_id, FetchClass fetch_class, std::uint64_t charge) {
  // Follower: another caller is mid-read of this image; wait for it and
  // take the parsed view it produced instead of charging a second optical
  // read of the same sectors.
  while (true) {
    auto inflight = image_reads_.find(image_id);
    if (inflight == image_reads_.end()) {
      break;
    }
    std::shared_ptr<ImageFlight> flight = inflight->second;
    co_await flight->done.Wait();
    if (flight->view != nullptr) {
      if (charge != kWholeImage) {
        // The caller copies its bytes out of the leader's parsed view in
        // controller memory: a buffer copy, not an optical transfer.
        ++shared_image_reads_;
        co_await sim_.Delay(sim::Millis(0.5) +
                            sim::TransferTime(charge, 1.2e9));
      }
      co_return flight->view;
    }
    // The leader failed; loop and contend for leadership ourselves.
  }
  auto flight = std::make_shared<ImageFlight>(sim_);
  image_reads_.emplace(image_id, flight);
  auto view = co_await LeadDiscRead(image_id, fetch_class, charge);
  image_reads_.erase(image_id);
  flight->view = view.value_or(nullptr);
  flight->done.Set();
  ROS_CO_RETURN_IF_ERROR(view.status());
  co_return flight->view;
}

sim::Task<StatusOr<std::shared_ptr<udf::Image>>> Olfs::LeadDiscRead(
    std::string image_id, FetchClass fetch_class, std::uint64_t charge) {
  ROS_CO_ASSIGN_OR_RETURN(FetchLease lease,
                          co_await fetcher_->FetchDisc(image_id, fetch_class));
  drive::OpticalDrive* drive = lease.drive();
  ROS_CO_RETURN_IF_ERROR(co_await drive->MountVfs());
  ROS_CO_ASSIGN_OR_RETURN(const drive::Session* session,
                          drive->disc()->FindSession(image_id));
  const std::uint64_t n =
      charge == kWholeImage
          ? std::max<std::uint64_t>(1, session->data.size())
          : std::min(charge, session->logical_size);
  // Charge first: the memo behind MountedView saves a parse, never a
  // fetch or an optical read.
  if (n > 0) {
    ROS_CO_RETURN_IF_ERROR(co_await drive->ReadDiscard(image_id, 0, n));
  }
  co_return MountedView(image_id, *drive->disc());
}

StatusOr<std::shared_ptr<udf::Image>> Olfs::MountedView(
    const std::string& image_id, const drive::Disc& disc) {
  auto mounted = disc_mounts_.find(image_id);
  if (mounted != disc_mounts_.end() && mounted->second.disc == &disc &&
      mounted->second.generation == disc.generation()) {
    return mounted->second.view;
  }
  ROS_ASSIGN_OR_RETURN(const drive::Session* session,
                       disc.FindSession(image_id));
  // Untimed: the caller charged its read. A corrupted sector surfaces
  // here as kDataLoss.
  ROS_ASSIGN_OR_RETURN(std::vector<std::uint8_t> stream,
                       disc.ReadSession(image_id, 0, session->data.size()));
  ROS_ASSIGN_OR_RETURN(udf::Image image,
                       udf::Serializer::Parse(std::move(stream)));
  auto view = std::make_shared<udf::Image>(std::move(image));
  disc_mounts_.insert_or_assign(
      image_id, MountedImage{view, &disc, disc.generation()});
  return view;
}

sim::Task<void> Olfs::PrefetchTask(std::string image_id,
                                   std::string internal_path) {
  auto lease = co_await fetcher_->FetchDisc(image_id);
  if (!lease.ok()) {
    co_return;
  }
  drive::OpticalDrive* drive = lease->drive();
  if (!(co_await drive->MountVfs()).ok()) {
    co_return;
  }
  auto view = MountedView(image_id, *drive->disc());
  if (!view.ok()) {
    co_return;
  }
  std::shared_ptr<udf::Image> image = *view;

  // The requested file plus up to prefetch_siblings neighbours from the
  // same directory (spatial locality, §4.1).
  std::vector<std::string> targets{internal_path};
  if (params_.prefetch_siblings > 0) {
    const std::size_t slash = internal_path.rfind('/');
    const std::string parent =
        slash == 0 ? "/" : internal_path.substr(0, slash);
    const std::string leaf = internal_path.substr(slash + 1);
    auto siblings = image->List(parent);
    if (siblings.ok()) {
      int taken = 0;
      for (const std::string& name : *siblings) {
        if (taken >= params_.prefetch_siblings || name == leaf) {
          continue;
        }
        const std::string candidate =
            parent == "/" ? "/" + name : parent + "/" + name;
        auto node = image->Lookup(candidate);
        if (node.ok() && (*node)->type == udf::NodeType::kFile) {
          targets.push_back(candidate);
          ++taken;
        }
      }
    }
  }

  for (const std::string& target : targets) {
    const std::string key = FileCache::Key(image_id, target);
    if (file_cache_->Contains(key)) {
      continue;
    }
    auto node = image->Lookup(target);
    if (!node.ok() || (*node)->type != udf::NodeType::kFile) {
      continue;
    }
    const std::uint64_t size = (*node)->logical_size;
    // Charge the optical transfer of the whole file.
    auto session = drive->disc()->FindSession(image_id);
    if (session.ok() && size > 0) {
      Status timed = co_await drive->ReadDiscard(
          image_id, 0, std::min(size, (*session)->logical_size));
      if (!timed.ok()) {
        break;
      }
    }
    auto content = image->ReadFile(target, 0, size);
    if (content.ok()) {
      file_cache_->Put(key, std::move(*content));
    }
  }
}

sim::Task<void> Olfs::TrayReadaheadTask(std::string image_id,
                                        int tray_index) {
  auto record = images_->Lookup(image_id);
  if (!record.ok()) {
    readahead_trays_.erase(tray_index);
    co_return;
  }
  // Sibling data images burned in the same disc array that still live only
  // on their discs. Parity members carry no user files; skip them.
  std::vector<std::string> siblings;
  for (const std::string& member : (*record)->array_members) {
    if (member == image_id || ParityRowOf(member).has_value()) {
      continue;
    }
    auto sibling = images_->Lookup(member);
    if (!sibling.ok() || (*sibling)->tier != ImageTier::kBurnedOnly ||
        (*sibling)->parity || !(*sibling)->disc.has_value() ||
        (*sibling)->disc->tray.ToIndex() != tray_index) {
      continue;
    }
    siblings.push_back(member);
    if (static_cast<int>(siblings.size()) >= kReadaheadMaxImages) {
      break;
    }
  }
  // Staging starts only on the scanned array's parked, idle bay
  // (FetchClass::kReadahead); the first sibling it cannot claim ends it.
  for (const std::string& sibling : siblings) {
    Status staged = co_await StageSiblingImage(sibling);
    if (!staged.ok()) {
      ROS_LOG(kDebug) << "tray readahead stopped at " << sibling << ": "
                      << staged.ToString();
      break;
    }
  }
  readahead_trays_.erase(tray_index);
}

sim::Task<Status> Olfs::StageSiblingImage(std::string image_id) {
  {
    ROS_CO_ASSIGN_OR_RETURN(const ImageRecord* record,
                            images_->Lookup(image_id));
    if (record->tier != ImageTier::kBurnedOnly) {
      co_return OkStatus();  // already buffered; nothing to stage
    }
  }
  ROS_CO_ASSIGN_OR_RETURN(
      std::shared_ptr<udf::Image> image,
      co_await ReadDiscImage(image_id, FetchClass::kReadahead, kWholeImage));

  // The read took sim time (or followed another caller's); the image may
  // have been repaired or re-staged by a degraded read in the meantime.
  ROS_CO_ASSIGN_OR_RETURN(const ImageRecord* record,
                          images_->Lookup(image_id));
  if (record->tier != ImageTier::kBurnedOnly) {
    co_return OkStatus();
  }
  // Stage into the disk buffer (sparse: the parsed image carries the
  // bytes) without eating the burn pipeline's headroom.
  const int vol = 0;
  disk::Volume* volume = buckets_->volume(vol);
  if (volume->free_bytes() <
      image->used_bytes() + params_.buffer_reserve_bytes()) {
    co_return ResourceExhaustedError(
        "no buffer headroom for tray readahead");
  }
  const std::string file =
      BucketManager::VolumeFileName(image_id) + "#ra" +
      std::to_string(readahead_generation_++);
  ROS_CO_RETURN_IF_ERROR(co_await volume->Create(file));
  ROS_CO_RETURN_IF_ERROR(
      co_await volume->AppendSparse(file, {}, image->used_bytes()));
  ROS_CO_RETURN_IF_ERROR(
      images_->RestoreToBuffer(image_id, std::move(image), vol, file));
  // Probationary admission (the SLRU's scan resistance keeps readahead
  // from churning the protected working set); capacity is enforced by the
  // same eviction pass burns use.
  cache_->Admit(image_id, record->logical_bytes);
  ++readahead_images_;
  readahead_bytes_ += record->logical_bytes;
  co_return co_await burns_->EvictCacheOverflow();
}

sim::Task<Status> Olfs::RecoverAndRepairImage(std::string image_id) {
  ROS_CO_ASSIGN_OR_RETURN(std::shared_ptr<udf::Image> image,
                          co_await ReconstructImage(image_id));
  co_return co_await RepairImage(image_id, std::move(image));
}

sim::Task<Status> Olfs::RefreshImage(std::string image_id) {
  ROS_CO_ASSIGN_OR_RETURN(const ImageRecord* record,
                          images_->Lookup(image_id));
  if (record->parity) {
    co_return InvalidArgumentError(
        "parity images are regenerated at burn time, not refreshed");
  }
  if (record->tier != ImageTier::kBurnedCached &&
      record->tier != ImageTier::kBurnedOnly) {
    co_return FailedPreconditionError("image " + image_id +
                                      " is not burned; nothing to refresh");
  }
  // Fast path: a still-cached image needs no optical read — the refresh
  // burn re-stages the in-memory copy. Otherwise read the stream off the
  // old media through the scheduler's background class, falling back to
  // parity reconstruction when the old media is too rotten to read. The
  // read stays out of ReadDiscImage's single-flight: no client read may
  // follow a background claim, which waits while demand keeps arriving.
  std::shared_ptr<udf::Image> image = record->image;
  if (image == nullptr) {
    auto read = co_await LeadDiscRead(image_id, FetchClass::kBackground,
                                      kWholeImage);
    image = read.value_or(nullptr);
  }
  if (image == nullptr) {
    ROS_CO_ASSIGN_OR_RETURN(image, co_await ReconstructImage(image_id));
  }
  co_return co_await RepairImage(image_id, std::move(image));
}

sim::Task<StatusOr<std::shared_ptr<udf::Image>>> Olfs::ReconstructImage(
    std::string image_id) {
  ROS_CO_ASSIGN_OR_RETURN(const ImageRecord* record,
                          images_->Lookup(image_id));
  // Gather surviving member streams + the parity stream(s) as erasure-code
  // shards: the data members keep their order and parity row r follows
  // them at shard k + r. A member whose own media turns out damaged
  // (kDataLoss) is erased rather than failing the recovery: under the
  // RAID-6 schema a second data loss degrades to the double-erasure solve,
  // and a damaged parity stream just drops out of the readable rows (§4.7).
  const std::vector<std::string> members = record->array_members;
  if (members.empty()) {
    co_return DataLossError("no parity membership recorded for " + image_id);
  }
  const int k = static_cast<int>(
      std::count_if(members.begin(), members.end(), [](const std::string& m) {
        return !ParityRowOf(m).has_value();
      }));
  std::vector<std::vector<std::uint8_t>> shards(members.size());
  std::vector<int> erased;
  int next_data = 0;
  int requested = -1;
  for (const std::string& member : members) {
    const std::optional<int> row = ParityRowOf(member);
    const int shard = row.has_value() ? k + *row : next_data++;
    // Build() names the rows 0..m-1 of an array with m parity members.
    ROS_CHECK(shard < static_cast<int>(shards.size()));
    if (member == image_id) {
      requested = row.has_value() ? -1 : shard;
      erased.push_back(shard);
      continue;
    }
    auto lookup = images_->Lookup(member);
    if (!lookup.ok() || !(*lookup)->disc.has_value()) {
      erased.push_back(shard);
      continue;
    }
    ROS_CO_ASSIGN_OR_RETURN(FetchLease lease,
                            co_await fetcher_->FetchDisc(member));
    auto stream = co_await lease.drive()->ReadAll(member);
    if (!stream.ok()) {
      if (stream.status().code() != StatusCode::kDataLoss &&
          stream.status().code() != StatusCode::kNotFound) {
        co_return stream.status();  // mech trouble, not media rot
      }
      erased.push_back(shard);
      continue;
    }
    shards[shard] = std::move(*stream);
  }
  if (requested < 0) {
    co_return InternalError("corrupted image not in its own array");
  }
  Status decoded = ec::Decode(k, shards, erased);
  if (!decoded.ok()) {
    co_return Status(decoded.code(),
                     "array of " + image_id + ": " + decoded.message());
  }
  auto image = udf::Serializer::Parse(std::move(shards[requested]));
  if (!image.ok()) {
    co_return DataLossError("parity recovery failed CRC for " + image_id);
  }
  ++reconstructions_;
  co_return std::make_shared<udf::Image>(std::move(*image));
}

sim::Task<Status> Olfs::RepairImage(std::string image_id,
                                    std::shared_ptr<udf::Image> image) {
  // The recovered data re-enters the write path (staged back into the
  // disk buffer) and will burn onto a fresh disc array (§4.7).
  const int vol = 0;
  disk::Volume* volume = buckets_->volume(vol);
  const std::string file =
      BucketManager::VolumeFileName(image_id) + "#repair" +
      std::to_string(repaired_generation_++);
  ROS_CO_RETURN_IF_ERROR(co_await volume->Create(file));
  ROS_CO_RETURN_IF_ERROR(
      co_await volume->AppendSparse(file, {}, image->used_bytes()));
  ROS_CO_RETURN_IF_ERROR(
      images_->ReopenForRepair(image_id, image, vol, file));
  ++images_repaired_;
  burns_->NotifyImageClosed(image_id);
  co_return OkStatus();
}

}  // namespace ros::olfs
