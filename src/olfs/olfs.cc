#include "src/olfs/olfs.h"

#include <algorithm>
#include <optional>

#include "src/common/erasure.h"
#include "src/common/logging.h"
#include "src/udf/serializer.h"

namespace ros::olfs {

namespace {

// Splits an internal image path "P[#vN][#prevK]" into its components.
struct ParsedInternalPath {
  std::string global_path;
  int version = 1;
  bool is_prev_link = false;
  int part = 0;
};

ParsedInternalPath ParseInternalPath(const std::string& internal) {
  ParsedInternalPath out;
  out.global_path = internal;
  std::size_t pos;
  if ((pos = out.global_path.rfind("#prev")) != std::string::npos) {
    out.is_prev_link = true;
    out.part = std::atoi(out.global_path.c_str() + pos + 5);
    out.global_path.resize(pos);
  }
  if ((pos = out.global_path.rfind("#v")) != std::string::npos) {
    out.version = std::atoi(out.global_path.c_str() + pos + 2);
    out.global_path.resize(pos);
  }
  return out;
}

}  // namespace

Olfs::Olfs(sim::Simulator& sim, RosSystem* system, OlfsParams params)
    : sim_(sim), system_(system), params_(params) {
  ROS_CHECK(system != nullptr);
  MetadataVolume::Options mv_options;
  mv_options.commit_window = params_.mv_commit_window;
  mv_ = std::make_unique<MetadataVolume>(sim_, system->mv_volume(),
                                         mv_options);
  images_ = std::make_unique<DiscImageStore>();
  affinity_ = std::make_unique<AffinityTracker>();
  predictor_ = std::make_unique<TrayPredictor>();
  buckets_ = std::make_unique<BucketManager>(sim_, params_,
                                             system->data_volumes(),
                                             images_.get());
  buckets_->set_affinity_tracker(affinity_.get());
  parity_ = std::make_unique<ParityBuilder>(sim_, params_, images_.get());
  da_ = std::make_unique<DaIndex>(system->config().rollers);
  cache_ = std::make_unique<ReadCache>(params_.read_cache_bytes);
  file_cache_ = std::make_unique<FileCache>(params_.file_cache_bytes);
  mech_ = std::make_unique<MechController>(sim_, system->library(),
                                           system->drive_sets(),
                                           &system->discs(), params_);
  scheduler_ = std::make_unique<FetchScheduler>(sim_, params_, mech_.get());
  // Burns and recovery scans pick unload victims through AcquireBay; the
  // oracle keeps them away from arrays that readers are queued for.
  mech_->SetDemandOracle(
      [scheduler = scheduler_.get()](mech::TrayAddress tray) {
        return scheduler->HasDemand(tray);
      });
  burns_ = std::make_unique<BurnManager>(sim_, params_, buckets_.get(),
                                         images_.get(), parity_.get(),
                                         mech_.get(), da_.get(), cache_.get(),
                                         mv_.get());
  burns_->set_affinity_tracker(affinity_.get());
  fetcher_ = std::make_unique<FetchManager>(sim_, params_, images_.get(),
                                            mech_.get(), burns_.get(),
                                            scheduler_.get());
  buckets_->on_image_closed = [this](const std::string& id) {
    burns_->NotifyImageClosed(id);
  };
  audit_ = std::make_unique<AuditRegistry>(params_, mv_.get(), images_.get(),
                                           parity_.get());
  if (params_.audit_manifests_enabled) {
    burns_->set_audit(audit_.get());
  }
  scrub_ = std::make_unique<ScrubManager>(sim_, this);
  // Media aging hooks on every optical drive. The params object lives in
  // this facade, so the pointer stays valid for the system's lifetime;
  // with aging disabled (the default) the hook is byte-identical to none.
  system->InstallAgingModel(&params_.media_aging);
}

sim::Task<void> Olfs::ChargeOp(const char* name, bool first) {
  if (first) {
    op_trace_.clear();
  }
  sim::Duration cost = params_.internal_op_cost;
  if (!first) {
    cost += params_.mode_switch_cost;
  }
  op_trace_.emplace_back(name);
  co_await sim_.Delay(cost);
}

sim::Task<sim::Mutex::ScopedLock> Olfs::LockPath(std::string path) {
  auto it = path_locks_.find(path);
  if (it == path_locks_.end()) {
    it = path_locks_
             .emplace(path, std::make_unique<sim::Mutex>(sim_))
             .first;
  }
  co_return co_await it->second->Lock();
}

sim::Task<Status> Olfs::EnsureAncestors(std::string path) {
  ROS_CO_ASSIGN_OR_RETURN(std::vector<std::string> parts,
                          udf::SplitPath(path));
  std::string prefix;
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    prefix += "/" + parts[i];
    if (!mv_->Exists(prefix)) {
      ROS_CO_RETURN_IF_ERROR(
          co_await mv_->Put(IndexFile(prefix, EntryType::kDirectory)));
    }
  }
  co_return OkStatus();
}

// ---------------------------------------------------------------------------
// Writes

sim::Task<Status> Olfs::Create(std::string path,
                               std::vector<std::uint8_t> data,
                               std::uint64_t logical_size, AccessHint hint) {
  co_await ChargeOp("stat", /*first=*/true);
  sim::Mutex::ScopedLock lock = co_await LockPath(path);
  if (mv_->Exists(path)) {
    auto existing = co_await mv_->GetRef(path);
    if (existing.ok() && (*existing)->Latest().ok()) {
      co_return AlreadyExistsError(path + " exists");
    }
  }
  co_await ChargeOp("mknod");
  ROS_CO_RETURN_IF_ERROR(co_await EnsureAncestors(path));
  // Re-creating a tombstoned file must keep its index (and version
  // history); only a genuinely new path gets a fresh index file.
  if (!mv_->Exists(path)) {
    ROS_CO_RETURN_IF_ERROR(
        co_await mv_->Put(IndexFile(path, EntryType::kFile)));
  }
  co_await ChargeOp("stat");
  co_await ChargeOp("write");
  ROS_CO_RETURN_IF_ERROR(
      co_await WriteVersion(path, std::move(data), logical_size,
                            /*create=*/true, hint));
  co_await ChargeOp("close");
  co_return OkStatus();
}

sim::Task<Status> Olfs::Create(std::string path,
                               std::vector<std::uint8_t> data) {
  const std::uint64_t n = data.size();
  co_return co_await Create(path, std::move(data), n);
}

sim::Task<Status> Olfs::Update(std::string path,
                               std::vector<std::uint8_t> data,
                               std::uint64_t logical_size) {
  co_await ChargeOp("stat", /*first=*/true);
  sim::Mutex::ScopedLock lock = co_await LockPath(path);
  if (!mv_->Exists(path)) {
    co_return NotFoundError(path + " does not exist");
  }
  co_await ChargeOp("write");
  ROS_CO_RETURN_IF_ERROR(
      co_await WriteVersion(path, std::move(data), logical_size,
                            /*create=*/false));
  co_await ChargeOp("close");
  co_return OkStatus();
}

sim::Task<Status> Olfs::WriteVersion(std::string path,
                                     std::vector<std::uint8_t> data,
                                     std::uint64_t logical_size,
                                     bool create, AccessHint hint) {
  ROS_CO_ASSIGN_OR_RETURN(IndexFile index, co_await mv_->Get(path));
  if (index.type() != EntryType::kFile) {
    co_return InvalidArgumentError(path + " is a directory");
  }
  const int version = index.latest_version() + 1;
  ROS_CHECK(create ? version >= 1 : version >= 2);

  // Forepart capture (§4.8) before the payload moves into the bucket.
  std::vector<std::uint8_t> forepart;
  if (params_.forepart_enabled) {
    const std::uint64_t n =
        std::min<std::uint64_t>(params_.forepart_bytes, data.size());
    forepart.assign(data.begin(), data.begin() + static_cast<long>(n));
  }

  ROS_CO_ASSIGN_OR_RETURN(
      WriteReceipt receipt,
      co_await buckets_->WriteFile(path, version, std::move(data),
                                   logical_size, /*first_part=*/0,
                                   /*prev_image=*/"", hint.stream));
  VersionEntry entry;
  entry.location = LocationKind::kBucket;
  entry.total_size = receipt.total_size;
  entry.parts = receipt.parts;
  index.AddVersion(std::move(entry), params_.max_version_entries);
  if (params_.forepart_enabled) {
    index.set_forepart(std::move(forepart));
  }
  ++namespace_writes_;
  last_write_time_ = sim_.now();
  co_return co_await mv_->Put(index);
}

sim::Task<Status> Olfs::Append(std::string path,
                               std::vector<std::uint8_t> data) {
  co_await ChargeOp("stat", /*first=*/true);
  sim::Mutex::ScopedLock lock = co_await LockPath(path);
  if (!mv_->Exists(path)) {
    co_return NotFoundError(path + " does not exist");
  }
  ROS_CO_ASSIGN_OR_RETURN(IndexFile index, co_await mv_->Get(path));
  auto latest = index.Latest();
  if (!latest.ok()) {
    co_return latest.status();
  }
  const VersionEntry& entry = **latest;

  co_await ChargeOp("write");
  // In-place append only when the whole version sits in one open bucket.
  if (entry.parts.size() == 1) {
    auto record = images_->Lookup(entry.parts[0].image_id);
    if (record.ok() && (*record)->tier == ImageTier::kOpenBucket) {
      Status appended = co_await buckets_->AppendToOpenFile(
          path, entry.version, entry.parts[0].image_id, data, data.size());
      if (appended.ok()) {
        VersionEntry updated = entry;
        updated.total_size += data.size();
        updated.parts[0].size += data.size();
        ROS_CO_RETURN_IF_ERROR(index.UpdateLatest(updated));
        ROS_CO_RETURN_IF_ERROR(co_await mv_->Put(index));
        co_await ChargeOp("close");
        co_return OkStatus();
      }
    }
  }
  // Regenerating update: old content + appended bytes as a new version.
  ROS_CO_ASSIGN_OR_RETURN(
      std::vector<std::uint8_t> old_data,
      co_await ReadEntry(path, entry, 0, entry.total_size));
  old_data.insert(old_data.end(), data.begin(), data.end());
  const std::uint64_t total = old_data.size();
  ROS_CO_RETURN_IF_ERROR(
      co_await WriteVersion(path, std::move(old_data), total,
                            /*create=*/false));
  co_await ChargeOp("close");
  co_return OkStatus();
}

// ---------------------------------------------------------------------------
// Streaming handles

sim::Task<Status> Olfs::AppendStream(std::string path,
                                     std::vector<std::uint8_t> data,
                                     std::uint64_t logical_grow,
                                     AccessHint hint) {
  auto handle = stream_handles_.find(path);
  if (handle == stream_handles_.end()) {
    // Implicit open(): load the index once.
    co_await ChargeOp("open", /*first=*/true);
    ROS_CO_ASSIGN_OR_RETURN(IndexFile index, co_await mv_->Get(path));
    handle = stream_handles_.emplace(path, std::move(index)).first;
  }
  op_trace_.assign({"write"});
  co_await sim_.Delay(params_.stream_op_cost);
  // Re-acquire after the suspension: a concurrent CloseStream may have
  // erased the handle while this coroutine was parked.
  handle = stream_handles_.find(path);
  if (handle == stream_handles_.end()) {
    co_return FailedPreconditionError("stream closed during append: " +
                                      path);
  }
  IndexFile& index = handle->second;
  auto latest = index.Latest();
  if (!latest.ok()) {
    co_return latest.status();
  }
  VersionEntry entry = **latest;
  if (entry.parts.empty()) {
    // Freshly created empty file: write the first part.
    ROS_CO_ASSIGN_OR_RETURN(
        WriteReceipt receipt,
        co_await buckets_->WriteFile(path, entry.version, std::move(data),
                                     logical_grow, /*first_part=*/0,
                                     /*prev_image=*/"", hint.stream));
    entry.parts = receipt.parts;
    entry.total_size = receipt.total_size;
    co_return index.UpdateLatest(entry);
  }

  const std::string last_image = entry.parts.back().image_id;
  Status appended = co_await buckets_->AppendToOpenFile(
      path, entry.version, last_image, data, logical_grow, hint.stream);
  if (appended.ok()) {
    entry.parts.back().size += logical_grow;
    entry.total_size += logical_grow;
    co_return index.UpdateLatest(entry);
  }
  if (appended.code() != StatusCode::kFailedPrecondition &&
      appended.code() != StatusCode::kResourceExhausted) {
    co_return appended;
  }
  // The part's bucket closed or filled: continue in fresh buckets as a
  // split-file continuation (§4.5).
  ROS_CO_ASSIGN_OR_RETURN(
      WriteReceipt receipt,
      co_await buckets_->WriteFile(path, entry.version, std::move(data),
                                   logical_grow,
                                   static_cast<int>(entry.parts.size()),
                                   last_image, hint.stream));
  for (const FilePart& part : receipt.parts) {
    entry.parts.push_back(part);
  }
  entry.total_size += logical_grow;
  co_return index.UpdateLatest(entry);
}

sim::Task<StatusOr<std::vector<std::uint8_t>>> Olfs::ReadStream(
    std::string path, std::uint64_t offset, std::uint64_t length,
    AccessHint hint) {
  auto handle = stream_handles_.find(path);
  if (handle == stream_handles_.end()) {
    co_await ChargeOp("open", /*first=*/true);
    auto index = co_await mv_->Get(path);
    if (!index.ok()) {
      co_return index.status();
    }
    handle = stream_handles_.emplace(path, std::move(*index)).first;
  }
  op_trace_.assign({"read"});
  // Per-request software cost plus OLFS's extra user-space copy of the
  // returned data (the read-side marginal in Fig 6).
  co_await sim_.Delay(params_.stream_op_cost +
                      sim::TransferTime(length, 2.5e9));
  // Re-acquire after the suspension: a concurrent CloseStream may have
  // erased the handle while this coroutine was parked.
  handle = stream_handles_.find(path);
  if (handle == stream_handles_.end()) {
    co_return FailedPreconditionError("stream closed during read: " + path);
  }
  auto latest = handle->second.Latest();
  if (!latest.ok()) {
    co_return latest.status();
  }
  co_return co_await ReadEntry(path, **latest, offset, length, hint);
}

sim::Task<Status> Olfs::CloseStream(std::string path) {
  auto handle = stream_handles_.find(path);
  if (handle == stream_handles_.end()) {
    co_return OkStatus();
  }
  co_await ChargeOp("close", /*first=*/true);
  // Re-acquire after the suspension, then detach the index from the map
  // BEFORE the MV write suspends: nothing may hold a handle iterator (or
  // a reference into the map) across mv_->Put.
  handle = stream_handles_.find(path);
  if (handle == stream_handles_.end()) {
    co_return OkStatus();  // closed concurrently
  }
  IndexFile index = std::move(handle->second);
  stream_handles_.erase(handle);
  co_return co_await mv_->Put(std::move(index));
}

// ---------------------------------------------------------------------------
// Reads

sim::Task<StatusOr<std::vector<std::uint8_t>>> Olfs::Read(
    std::string path, std::uint64_t offset, std::uint64_t length,
    AccessHint hint) {
  co_await ChargeOp("stat", /*first=*/true);
  auto index = co_await mv_->GetRef(path);
  if (!index.ok()) {
    co_return index.status();
  }
  auto latest = (*index)->Latest();
  if (!latest.ok()) {
    co_return latest.status();
  }
  co_await ChargeOp("read");
  auto result = co_await ReadEntry(path, **latest, offset, length, hint);
  co_await ChargeOp("close");
  co_return result;
}

sim::Task<StatusOr<std::vector<std::uint8_t>>> Olfs::ReadVersion(
    std::string path, int version, std::uint64_t offset,
    std::uint64_t length) {
  co_await ChargeOp("stat", /*first=*/true);
  auto index = co_await mv_->GetRef(path);
  if (!index.ok()) {
    co_return index.status();
  }
  auto entry = (*index)->Version(version);
  if (!entry.ok()) {
    co_return entry.status();
  }
  co_await ChargeOp("read");
  auto result = co_await ReadEntry(path, **entry, offset, length);
  co_await ChargeOp("close");
  co_return result;
}

sim::Task<StatusOr<std::vector<std::uint8_t>>> Olfs::ReadForepart(
    std::string path) {
  if (!params_.forepart_enabled) {
    co_return FailedPreconditionError("forepart mechanism disabled");
  }
  // Served straight from MV: one SSD index read, ~2 ms total (§4.8).
  co_await sim_.Delay(sim::Millis(1));
  auto index = co_await mv_->GetRef(path);
  if (!index.ok()) {
    co_return index.status();
  }
  co_return (*index)->forepart();
}

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
        if (params_.tray_prefetch_enabled && predicted >= 0 &&
            predicted != tray) {
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
      auto data = co_await ReadFromDisc(part.image_id, internal_path,
                                        offset, length);
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
        auto recovered = co_await ReconstructFromParity(part.image_id);
        if (recovered.ok()) {
          auto image = udf::Serializer::Parse(*recovered);
          if (image.ok()) {
            ++reconstructions_;
            auto repaired =
                std::make_shared<udf::Image>(std::move(*image));
            auto bytes = repaired->ReadFile(internal_path, offset, length);
            Status staged = co_await RepairImage(part.image_id, repaired);
            if (!staged.ok()) {
              ROS_LOG(kWarning) << "repair staging of " << part.image_id
                                << " failed: " << staged.ToString();
            }
            co_return bytes;
          }
        }
      }
      if (data.ok() && file_cache_->enabled()) {
        sim_.Spawn(TrackDetached(PrefetchTask(part.image_id, internal_path)));
      }
      // Whole-tray readahead: an announced scan stages the tray's sibling
      // images into the read cache while the tray is still loaded, so the
      // rest of the scan avoids re-fetching it after an eviction.
      if (data.ok() && hint.scan && hint.stream != 0 &&
          params_.readahead_max_images > 0 && record->disc.has_value()) {
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

sim::Task<StatusOr<std::vector<std::uint8_t>>> Olfs::ReadFromDisc(
    std::string image_id, std::string internal_path,
    std::uint64_t offset, std::uint64_t length) {
  // Image-level single-flight: if another reader is mid-drive-read of this
  // image, wait for it and serve from the parsed view it produced instead
  // of charging a second optical read of the same sectors.
  while (true) {
    auto inflight = image_reads_.find(image_id);
    if (inflight == image_reads_.end()) {
      break;
    }
    std::shared_ptr<sim::Event> done = inflight->second;
    co_await done->Wait();
    auto mounted = disc_mounts_.find(image_id);
    if (mounted != disc_mounts_.end()) {
      ++shared_image_reads_;
      // Pin the parsed image before suspending: the mount entry can be
      // dropped (drive unloaded) while the buffer copy is in flight.
      std::shared_ptr<udf::Image> image = mounted->second;
      // Buffer copy out of controller memory, not an optical transfer.
      co_await sim_.Delay(sim::Millis(0.5) + sim::TransferTime(length, 1.2e9));
      co_return image->ReadFile(internal_path, offset, length);
    }
    // The leader failed; loop and contend for leadership ourselves.
  }
  auto done = std::make_shared<sim::Event>(sim_);
  image_reads_.emplace(image_id, done);
  auto result =
      co_await ReadFromDiscLeader(image_id, internal_path, offset, length);
  image_reads_.erase(image_id);
  done->Set();
  co_return result;
}

sim::Task<StatusOr<std::vector<std::uint8_t>>> Olfs::ReadFromDiscLeader(
    std::string image_id, std::string internal_path,
    std::uint64_t offset, std::uint64_t length) {
  ROS_CO_ASSIGN_OR_RETURN(FetchLease lease,
                          co_await fetcher_->FetchDisc(image_id));
  drive::OpticalDrive* drive = lease.drive();

  // Mount the disc's UDF volume (wake + VFS mount as needed) and parse the
  // image metadata once per mount.
  Status mounted = co_await drive->MountVfs();
  if (!mounted.ok()) {
    co_return mounted;
  }
  auto cached = disc_mounts_.find(image_id);
  if (cached == disc_mounts_.end()) {
    auto session = drive->disc()->FindSession(image_id);
    if (!session.ok()) {
      co_return session.status();
    }
    // The physical read of the whole serialized stream validates media
    // integrity (CRC); corrupted sectors surface here as kDataLoss.
    auto stream = drive->disc()->ReadSession(image_id, 0,
                                             (*session)->data.size());
    if (!stream.ok()) {
      co_return stream.status();
    }
    auto image = udf::Serializer::Parse(std::move(*stream));
    if (!image.ok()) {
      co_return image.status();
    }
    cached = disc_mounts_
                 .emplace(image_id,
                          std::make_shared<udf::Image>(std::move(*image)))
                 .first;
  }
  // Pin the parsed image before the optical transfer suspends: the mount
  // entry can be dropped if the drive is recycled while this read waits.
  std::shared_ptr<udf::Image> parsed = cached->second;

  // Charge the optical transfer (seek + media read) for the file bytes.
  auto session = drive->disc()->FindSession(image_id);
  if (session.ok()) {
    const std::uint64_t logical = (*session)->logical_size;
    const std::uint64_t n = std::min(length, logical);
    if (n > 0) {
      auto timed = co_await drive->Read(image_id, 0, n);
      if (!timed.ok()) {
        co_return timed.status();
      }
    }
  }
  co_return parsed->ReadFile(internal_path, offset, length);
}

sim::Task<void> Olfs::PrefetchTask(std::string image_id,
                                   std::string internal_path) {
  auto lease = co_await fetcher_->FetchDisc(image_id);
  if (!lease.ok()) {
    co_return;
  }
  drive::OpticalDrive* drive = lease->drive();
  Status mounted = co_await drive->MountVfs();
  auto view = disc_mounts_.find(image_id);
  if (!mounted.ok() || view == disc_mounts_.end()) {
    co_return;
  }
  std::shared_ptr<udf::Image> image = view->second;

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
      auto timed = co_await drive->Read(
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
    if (member == image_id) {
      continue;
    }
    if (ParityRowOf(member).has_value()) {
      continue;
    }
    auto sibling = images_->Lookup(member);
    if (!sibling.ok() || (*sibling)->tier != ImageTier::kBurnedOnly ||
        (*sibling)->parity || !(*sibling)->disc.has_value() ||
        (*sibling)->disc->tray.ToIndex() != tray_index) {
      continue;
    }
    siblings.push_back(member);
    if (static_cast<int>(siblings.size()) >= params_.readahead_max_images) {
      break;
    }
  }
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
  // Single-flight with concurrent demand readers of the same image: wait
  // out any in-flight drive read and reuse the parsed view it produced.
  while (true) {
    auto inflight = image_reads_.find(image_id);
    if (inflight == image_reads_.end()) {
      break;
    }
    std::shared_ptr<sim::Event> done = inflight->second;
    co_await done->Wait();
  }
  {
    ROS_CO_ASSIGN_OR_RETURN(const ImageRecord* record,
                            images_->Lookup(image_id));
    if (record->tier != ImageTier::kBurnedOnly) {
      co_return OkStatus();  // already buffered; nothing to stage
    }
  }

  std::shared_ptr<udf::Image> image;
  auto mounted = disc_mounts_.find(image_id);
  if (mounted != disc_mounts_.end()) {
    image = mounted->second;
  } else {
    auto done = std::make_shared<sim::Event>(sim_);
    image_reads_.emplace(image_id, done);
    auto result = co_await ReadSiblingStream(image_id);
    image_reads_.erase(image_id);
    done->Set();
    if (!result.ok()) {
      co_return result.status();
    }
    image = std::move(*result);
  }

  // The fetch yields to demand traffic; the image may have been repaired
  // or re-staged by a degraded read in the meantime.
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

sim::Task<StatusOr<std::shared_ptr<udf::Image>>> Olfs::ReadSiblingStream(
    std::string image_id) {
  ROS_CO_ASSIGN_OR_RETURN(FetchLease lease,
                          co_await fetcher_->FetchDisc(image_id));
  drive::OpticalDrive* drive = lease.drive();
  Status mounted = co_await drive->MountVfs();
  if (!mounted.ok()) {
    co_return mounted;
  }
  auto session = drive->disc()->FindSession(image_id);
  if (!session.ok()) {
    co_return session.status();
  }
  auto stream = drive->disc()->ReadSession(image_id, 0,
                                           (*session)->data.size());
  if (!stream.ok()) {
    co_return stream.status();
  }
  auto image = udf::Serializer::Parse(std::move(*stream));
  if (!image.ok()) {
    co_return image.status();
  }
  // Charge the full-stream optical transfer.
  auto timed = co_await drive->Read(
      image_id, 0, std::max<std::uint64_t>(1, (*session)->data.size()));
  if (!timed.ok()) {
    co_return timed.status();
  }
  auto view = std::make_shared<udf::Image>(std::move(*image));
  disc_mounts_.emplace(image_id, view);
  co_return view;
}

// ---------------------------------------------------------------------------
// Namespace operations

sim::Task<StatusOr<FileInfo>> Olfs::Stat(std::string path) {
  co_await ChargeOp("stat", /*first=*/true);
  if (path == "/") {
    FileInfo root;
    root.is_directory = true;
    co_return root;
  }
  auto index = co_await mv_->GetRef(path);
  if (!index.ok()) {
    co_return index.status();
  }
  FileInfo info;
  info.is_directory = (*index)->type() == EntryType::kDirectory;
  if (!info.is_directory) {
    auto latest = (*index)->Latest();
    if (!latest.ok()) {
      co_return latest.status();
    }
    info.size = (*latest)->total_size;
    info.version = (*latest)->version;
    info.location = (*latest)->location;
    // Refine the location through DIM (B -> I -> D promotions happen
    // without rewriting the index file).
    if (!(*latest)->parts.empty()) {
      const ImageRecord* record =
          images_->Lookup((*latest)->parts[0].image_id).value_or(nullptr);
      if (record != nullptr) {
        switch (record->tier) {
          case ImageTier::kOpenBucket:
            info.location = LocationKind::kBucket;
            break;
          case ImageTier::kBuffered:
          case ImageTier::kBurnedCached:
            info.location = LocationKind::kImage;
            break;
          case ImageTier::kBurnedOnly:
            info.location = LocationKind::kDisc;
            break;
        }
      }
    }
  }
  co_return info;
}

sim::Task<Status> Olfs::Mkdir(std::string path) {
  co_await ChargeOp("stat", /*first=*/true);
  if (mv_->Exists(path)) {
    co_return AlreadyExistsError(path + " exists");
  }
  co_await ChargeOp("mknod");
  ROS_CO_RETURN_IF_ERROR(co_await EnsureAncestors(path));
  co_return co_await mv_->Put(IndexFile(path, EntryType::kDirectory));
}

sim::Task<StatusOr<std::vector<std::string>>> Olfs::ReadDir(
    std::string path) {
  co_await ChargeOp("stat", /*first=*/true);
  if (path != "/" && !mv_->Exists(path)) {
    co_return NotFoundError(path + " does not exist");
  }
  co_await ChargeOp("readdir");
  co_return mv_->ListChildren(path);
}

sim::Task<Status> Olfs::Unlink(std::string path) {
  co_await ChargeOp("stat", /*first=*/true);
  sim::Mutex::ScopedLock lock = co_await LockPath(path);
  auto index = co_await mv_->Get(path);
  if (!index.ok()) {
    co_return index.status();
  }
  if (index->type() == EntryType::kDirectory) {
    if (mv_->HasChildren(path)) {
      co_return FailedPreconditionError(path + " is not empty");
    }
    co_await ChargeOp("unlink");
    co_return co_await mv_->Remove(path);
  }
  co_await ChargeOp("unlink");
  VersionEntry tombstone;
  tombstone.tombstone = true;
  index->AddVersion(std::move(tombstone), params_.max_version_entries);
  co_return co_await mv_->Put(*index);
}

// ---------------------------------------------------------------------------
// Control plane

sim::Task<Status> Olfs::FlushAndDrain() {
  ROS_CO_RETURN_IF_ERROR(co_await buckets_->CloseCurrentBucket());
  ROS_CO_RETURN_IF_ERROR(co_await burns_->FlushPartialArray());
  co_return co_await burns_->DrainAll();
}

sim::Task<Status> Olfs::BurnMvSnapshot() {
  const std::string id =
      "mv-snap-" + std::to_string(mv_snapshot_counter_++);
  auto snapshot =
      co_await mv_->BuildSnapshotImage(id, params_.bucket_capacity());
  if (!snapshot.ok()) {
    co_return snapshot.status();
  }
  co_return co_await buckets_->AdmitImage(
      std::make_shared<udf::Image>(std::move(*snapshot)));
}

sim::Task<Status> Olfs::RecoverAndRepairImage(std::string image_id) {
  ROS_CO_ASSIGN_OR_RETURN(std::vector<std::uint8_t> recovered,
                          co_await ReconstructFromParity(image_id));
  auto image = udf::Serializer::Parse(recovered);
  if (!image.ok()) {
    co_return DataLossError("parity recovery failed CRC for " + image_id);
  }
  ++reconstructions_;
  co_return co_await RepairImage(
      image_id, std::make_shared<udf::Image>(std::move(*image)));
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
  // burn re-stages the in-memory copy.
  std::shared_ptr<udf::Image> image = record->image;
  if (image == nullptr) {
    // Disc-to-disc path: read the stream off the old media through the
    // scheduler's background class, falling back to parity reconstruction
    // when the old media is already too rotten to read.
    auto mount = disc_mounts_.find(image_id);
    if (mount != disc_mounts_.end()) {
      image = mount->second;
    }
  }
  if (image == nullptr) {
    std::vector<std::uint8_t> stream;
    bool direct_ok = false;
    auto lease = co_await fetcher_->FetchDiscBackground(image_id);
    if (lease.ok()) {
      auto session = lease->drive()->disc()->FindSession(image_id);
      if (session.ok()) {
        auto bytes = co_await lease->drive()->Read(
            image_id, 0,
            std::max<std::uint64_t>(1, (*session)->data.size()));
        if (bytes.ok()) {
          stream = std::move(*bytes);
          direct_ok = true;
        }
      }
      lease->Release();
    }
    if (!direct_ok) {
      ROS_CO_ASSIGN_OR_RETURN(stream,
                              co_await ReconstructFromParity(image_id));
      ++reconstructions_;
    }
    auto parsed = udf::Serializer::Parse(std::move(stream));
    if (!parsed.ok()) {
      co_return DataLossError("refresh read of " + image_id +
                              " failed CRC");
    }
    image = std::make_shared<udf::Image>(std::move(*parsed));
  }
  co_return co_await RepairImage(image_id, std::move(image));
}

sim::Task<StatusOr<std::vector<std::uint8_t>>> Olfs::ReconstructFromParity(
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
    auto session = lease.drive()->disc()->FindSession(member);
    if (!session.ok()) {
      erased.push_back(shard);
      continue;
    }
    // Charge the full-stream optical read.
    auto stream = co_await lease.drive()->Read(
        member, 0, std::max<std::uint64_t>(1, (*session)->data.size()));
    if (!stream.ok()) {
      if (stream.status().code() != StatusCode::kDataLoss) {
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
  co_return std::move(shards[requested]);
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
  disc_mounts_.erase(image_id);
  ++images_repaired_;
  burns_->NotifyImageClosed(image_id);
  co_return OkStatus();
}

Olfs::~Olfs() { *bg_alive_ = false; }

sim::Task<void> Olfs::TrackDetached(sim::Task<void> task) {
  ++detached_tasks_;
  co_await std::move(task);
  --detached_tasks_;
}

sim::Task<void> Olfs::Quiesce() {
  *bg_alive_ = false;
  // Poll in sim time until every frame that borrows this facade has run
  // to completion: loop bodies mid-pass, detached prefetch/readahead
  // tasks, the burn pipeline, and the fetch scheduler's queues/loads.
  // (Frames parked on never-signaled condition variables — e.g. the
  // scheduler's dispatcher waiting for bay changes — hold no locks and
  // never resume, so they are safe to leave suspended; the chaos
  // controller-replacement path relies on the same property.)
  while (bg_passes_ > 0 || detached_tasks_ > 0 ||
         burns_->active_burns() > 0 || !scheduler_->Idle()) {
    co_await sim_.Delay(sim::Millis(100));
  }
}

void Olfs::StartBackgroundPolicies(sim::Duration mv_snapshot_interval,
                                   sim::Duration auto_flush_interval,
                                   sim::Duration scrub_interval) {
  if (mv_snapshot_interval > 0) {
    sim_.Spawn(MvSnapshotLoop(mv_snapshot_interval, bg_alive_));
  }
  if (auto_flush_interval > 0) {
    sim_.Spawn(AutoFlushLoop(auto_flush_interval, bg_alive_));
  }
  if (scrub_interval > 0) {
    sim_.Spawn(ScrubLoop(scrub_interval, bg_alive_));
  }
}

sim::Task<void> Olfs::ScrubLoop(sim::Duration interval,
                                std::shared_ptr<const bool> alive) {
  while (true) {
    co_await sim_.Delay(interval);
    if (!*alive) {
      co_return;  // the facade is gone; touch nothing
    }
    // Idle check: skip the pass while burns are running or clients are
    // actively writing ("scheduled at idle times", §4.7).
    if (burns_->active_burns() > 0 ||
        sim_.now() - last_write_time_ < interval / 2) {
      continue;
    }
    // Deep scrub (DESIGN.md §5j): walk every burned array at read speed
    // through the scheduler's background class, repair damage from
    // parity, refresh rotting arrays onto fresh media.
    ++bg_passes_;
    auto pass = co_await scrub_->RunPass();
    --bg_passes_;
    if (!pass.ok()) {
      ROS_LOG(kWarning) << "scheduled scrub failed: "
                        << pass.status().ToString();
    } else if (pass->repairs > 0 || pass->arrays_refreshed > 0) {
      ROS_LOG(kInfo) << "scheduled scrub repaired " << pass->repairs
                     << " image(s), refreshed " << pass->arrays_refreshed
                     << " array(s)";
    }
    if (!*alive) {
      co_return;
    }
  }
}

sim::Task<void> Olfs::MvSnapshotLoop(sim::Duration interval,
                                     std::shared_ptr<const bool> alive) {
  while (true) {
    co_await sim_.Delay(interval);
    if (!*alive) {
      co_return;  // the facade is gone; touch nothing
    }
    if (namespace_writes_ == last_snapshot_writes_) {
      continue;  // nothing changed since the last snapshot
    }
    last_snapshot_writes_ = namespace_writes_;
    ++bg_passes_;
    Status status = co_await BurnMvSnapshot();
    --bg_passes_;
    if (!status.ok()) {
      ROS_LOG(kWarning) << "periodic MV snapshot failed: "
                        << status.ToString();
    }
    if (!*alive) {
      co_return;
    }
  }
}

sim::Task<void> Olfs::AutoFlushLoop(sim::Duration interval,
                                    std::shared_ptr<const bool> alive) {
  while (true) {
    co_await sim_.Delay(interval);
    if (!*alive) {
      co_return;  // the facade is gone; touch nothing
    }
    // Flush when buffered data has been sitting idle for a full interval
    // (don't interrupt an active ingest burst mid-bucket).
    const bool idle = sim_.now() - last_write_time_ >= interval;
    const bool dirty = !images_->UnburnedClosed().empty() ||
                       buckets_->HasOpenBucketWithData();
    if (idle && dirty) {
      ++bg_passes_;
      Status status = co_await buckets_->CloseCurrentBucket();
      if (status.ok()) {
        status = co_await burns_->FlushPartialArray();
      }
      --bg_passes_;
      if (!status.ok()) {
        ROS_LOG(kWarning) << "auto-flush failed: " << status.ToString();
      }
      if (!*alive) {
        co_return;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Namespace recovery by scanning discs (§4.4)

sim::Task<StatusOr<RecoveryReport>> Olfs::RebuildNamespace(
    std::vector<mech::TrayAddress> trays) {
  RecoveryReport report;
  mv_->WipeAll();
  disc_mounts_.clear();

  struct PartInfo {
    std::string image_id;
    std::uint64_t size = 0;
    int part = 0;
  };
  // (global path, version) -> parts.
  std::map<std::pair<std::string, int>, std::vector<PartInfo>> files;
  std::map<std::string, bool> directories;

  for (const mech::TrayAddress& tray : trays) {
    da_->set_state(tray, ArrayState::kUsed);
    // ros-lint: allow(acquire-bay): namespace rebuild is a sequential
    // full-rack scan with no concurrent readers to batch against.
    auto bay = co_await mech_->AcquireBay(tray, /*wait=*/true);
    if (!bay.ok()) {
      co_return bay.status();
    }
    if (mech_->bay_tray(*bay).has_value() &&
        *mech_->bay_tray(*bay) != tray) {
      Status status = co_await mech_->UnloadArray(*bay);
      if (!status.ok()) {
        mech_->ReleaseBay(*bay);
        co_return status;
      }
    }
    if (!mech_->bay_tray(*bay).has_value()) {
      Status status = co_await mech_->LoadArray(tray, *bay);
      if (!status.ok()) {
        mech_->ReleaseBay(*bay);
        co_return status;
      }
    }

    for (int i = 0; i < mech::kDiscsPerTray; ++i) {
      ++report.discs_scanned;
      drive::OpticalDrive& drive = mech_->drive_set(*bay).drive(i);
      if (!drive.has_disc() || drive.disc()->blank()) {
        continue;
      }
      Status mounted = co_await drive.MountVfs();
      if (!mounted.ok()) {
        ++report.unreadable_discs;
        continue;
      }
      for (const drive::Session& session : drive.disc()->sessions()) {
        if (session.image_id == "<metadata-zone>" || !session.closed) {
          continue;
        }
        // Charge the optical read of the serialized stream.
        auto timed = co_await drive.Read(
            session.image_id, 0,
            std::max<std::uint64_t>(1, session.data.size()));
        if (!timed.ok()) {
          ++report.unreadable_discs;
          continue;
        }
        // Parity discs carry raw parity of the serialized streams, not a
        // UDF volume (§4.7); register them without parsing.
        if (ParityRowOf(session.image_id).has_value()) {
          (void)images_->RegisterRecovered(session.image_id, true,
                                           mech::DiscAddress{tray, i},
                                           session.logical_size);
          continue;
        }
        auto parsed = udf::Serializer::Parse(session.data);
        if (!parsed.ok()) {
          ++report.unreadable_discs;
          continue;
        }
        ++report.images_parsed;

        // Re-register the image with DIM as burned-only.
        (void)images_->RegisterRecovered(session.image_id, false,
                                         mech::DiscAddress{tray, i},
                                         session.logical_size);
        parsed->Walk([&](const std::string& node_path,
                         const udf::Node& node) {
          ParsedInternalPath info = ParseInternalPath(node_path);
          if (info.global_path.rfind(std::string(
                  MetadataVolume::kSnapshotDir), 0) == 0) {
            return;  // MV snapshot content, not user namespace
          }
          switch (node.type) {
            case udf::NodeType::kDirectory:
              directories[info.global_path] = true;
              break;
            case udf::NodeType::kFile:
              files[{info.global_path, info.version}].push_back(
                  {session.image_id, node.logical_size, 0});
              break;
            case udf::NodeType::kLink:
              // "#prevK" link: the data node for part K sits in this
              // image; annotate it below by part number.
              for (auto& part : files[{info.global_path, info.version}]) {
                if (part.image_id == session.image_id) {
                  part.part = info.part;
                }
              }
              break;
          }
        });
      }
    }
    mech_->ReleaseBay(*bay);
  }

  // Rebuild MV index files.
  for (const auto& [dir, unused] : directories) {
    (void)unused;
    ROS_CO_RETURN_IF_ERROR(
        co_await mv_->Put(IndexFile(dir, EntryType::kDirectory)));
  }
  // Group versions per path (ascending) and emit entries.
  std::map<std::string, std::vector<std::pair<int, std::vector<PartInfo>>>>
      by_path;
  for (auto& [key, parts] : files) {
    std::sort(parts.begin(), parts.end(),
              [](const PartInfo& a, const PartInfo& b) {
                return a.part < b.part;
              });
    by_path[key.first].emplace_back(key.second, parts);
  }
  for (auto& [path, versions] : by_path) {
    std::sort(versions.begin(), versions.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    IndexFile index(path, EntryType::kFile);
    for (int v = 1; v <= versions.back().first; ++v) {
      // Reconstruct missing intermediate versions as empty rings; only
      // versions found on discs become entries.
      auto it = std::find_if(versions.begin(), versions.end(),
                             [v](const auto& pair) {
                               return pair.first == v;
                             });
      VersionEntry entry;
      if (it != versions.end()) {
        entry.location = LocationKind::kDisc;
        for (const PartInfo& part : it->second) {
          entry.parts.push_back({part.image_id, part.size});
          entry.total_size += part.size;
        }
      } else {
        entry.tombstone = true;  // placeholder for a lost version
      }
      index.AddVersion(std::move(entry), params_.max_version_entries);
      report.files_recovered += (it != versions.end()) ? 1 : 0;
    }
    ROS_CO_RETURN_IF_ERROR(co_await mv_->Put(index));
  }
  co_return report;
}

}  // namespace ros::olfs
