#include "src/olfs/olfs.h"

#include <algorithm>

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
    : sim_(sim), system_(system), params_(params), frames_done_(sim) {
  ROS_CHECK(system != nullptr);
  mv_ = std::make_unique<MetadataVolume>(sim_, system->mv_volume(),
                                         MetadataVolume::Options{});
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
  burns_ = std::make_unique<BurnManager>(
      sim_, params_, buckets_.get(), images_.get(), parity_.get(), mech_.get(),
      scheduler_.get(), da_.get(), cache_.get());
  burns_->set_affinity_tracker(affinity_.get());
  fetcher_ = std::make_unique<FetchManager>(sim_, params_, images_.get(),
                                            mech_.get(), burns_.get(),
                                            scheduler_.get());
  buckets_->on_image_closed = [this](const std::string& id) {
    burns_->NotifyImageClosed(id);
  };
  audit_ = std::make_unique<AuditRegistry>(params_, mv_.get(), images_.get(),
                                           parity_.get());
  burns_->set_audit(audit_.get());
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

sim::Task<Olfs::PathLock> Olfs::LockPath(std::string path) {
  // Lock() queues on the mutex before this frame can suspend, so no
  // release in between can find it idle and erase it.
  const auto it = path_locks_.try_emplace(std::move(path), sim_).first;
  sim::Mutex::ScopedLock lock = co_await it->second.Lock();
  co_return PathLock(&path_locks_, it, std::move(lock));
}

Olfs::PathLock::~PathLock() {
  if (locks_ == nullptr) {
    return;
  }
  lock_.Unlock();
  if (it_->second.idle()) {
    locks_->erase(it_);
  }
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
// Writes (DESIGN.md §5n): every public write takes LockPath(path) before it
// looks at the index and holds it until it returns; every index change in
// between is one CommitIndex.

sim::Task<Status> Olfs::CommitIndex(std::string path, IndexEdit edit,
                                    std::optional<EntryType> fresh) {
  IndexFile index(path, fresh.value_or(EntryType::kFile));
  if (!fresh.has_value()) {
    ROS_CO_ASSIGN_OR_RETURN(index, co_await mv_->Get(path));
  }
  if (edit) {
    ROS_CO_RETURN_IF_ERROR(co_await edit(index));
  }
  ++namespace_writes_;
  last_write_time_ = sim_.now();
  if (index.path().empty()) {
    co_return co_await mv_->Remove(std::move(path));
  }
  co_return co_await mv_->Put(std::move(index));
}

sim::Task<Status> Olfs::Create(std::string path,
                               std::vector<std::uint8_t> data,
                               std::uint64_t logical_size, AccessHint hint) {
  return WriteVersion(std::move(path), std::move(data), logical_size, hint,
                      WriteMode::kCreate);
}

sim::Task<Status> Olfs::Create(std::string path,
                               std::vector<std::uint8_t> data) {
  const std::uint64_t n = data.size();
  return Create(std::move(path), std::move(data), n);
}

sim::Task<Status> Olfs::Update(std::string path,
                               std::vector<std::uint8_t> data,
                               std::uint64_t logical_size) {
  return WriteVersion(std::move(path), std::move(data), logical_size,
                      AccessHint{}, WriteMode::kUpdate);
}

sim::Task<Status> Olfs::Write(std::string path,
                              std::vector<std::uint8_t> data,
                              std::uint64_t logical_size, AccessHint hint) {
  return WriteVersion(std::move(path), std::move(data), logical_size, hint,
                      WriteMode::kCreateOrUpdate);
}

sim::Task<Status> Olfs::WriteVersion(std::string path,
                                     std::vector<std::uint8_t> data,
                                     std::uint64_t logical_size,
                                     AccessHint hint, WriteMode mode) {
  co_await ChargeOp("stat", /*first=*/true);
  PathLock lock = co_await LockPath(path);
  const bool exists = mv_->Exists(path);
  if (mode == WriteMode::kUpdate && !exists) {
    co_return NotFoundError(path + " does not exist");
  }
  if (mode == WriteMode::kCreate && exists) {
    auto existing = co_await mv_->GetRef(path);
    if (existing.ok() && (*existing)->Latest().ok()) {
      co_return AlreadyExistsError(path + " exists");
    }
  }
  if (mode == WriteMode::kCreate || !exists) {
    co_await ChargeOp("mknod");
    ROS_CO_RETURN_IF_ERROR(co_await EnsureAncestors(path));
    // Re-creating a tombstoned file must keep its index (and version
    // history); only a genuinely new path gets a fresh index file.
    if (!mv_->Exists(path)) {
      ROS_CO_RETURN_IF_ERROR(
          co_await CommitIndex(path, nullptr, EntryType::kFile));
    }
    co_await ChargeOp("stat");
  }
  co_await ChargeOp("write");
  IndexEdit add_version = [this, path, data = std::move(data), logical_size,
                           hint](IndexFile& index) mutable
      -> sim::Task<Status> {
    if (index.type() != EntryType::kFile) {
      co_return InvalidArgumentError(path + " is a directory");
    }
    if (params_.forepart_enabled) {
      // Forepart (§4.8), taken before the payload moves into the bucket.
      const std::uint64_t n =
          std::min<std::uint64_t>(params_.forepart_bytes, data.size());
      index.set_forepart({data.begin(), data.begin() + static_cast<long>(n)});
    }
    ROS_CO_ASSIGN_OR_RETURN(
        WriteReceipt receipt,
        co_await buckets_->WriteFile(path, index.latest_version() + 1,
                                     std::move(data), logical_size,
                                     /*first_part=*/0, /*prev_image=*/"",
                                     hint.stream));
    index.AddVersion({.location = LocationKind::kBucket,
                      .total_size = receipt.total_size,
                      .parts = std::move(receipt.parts)},
                     kMaxVersionEntries);
    co_return OkStatus();
  };
  ROS_CO_RETURN_IF_ERROR(co_await CommitIndex(path, std::move(add_version)));
  co_await ChargeOp("close");
  co_return OkStatus();
}

sim::Task<StatusOr<VersionEntry>> Olfs::GrowVersion(
    std::string path, VersionEntry entry, std::vector<std::uint8_t> data,
    std::uint64_t logical_grow, std::uint64_t stream) {
  std::string last_image;
  if (!entry.parts.empty()) {
    last_image = entry.parts.back().image_id;
    Status appended = co_await buckets_->AppendToOpenFile(
        path, entry.version, last_image, data, logical_grow, stream);
    if (appended.ok()) {
      entry.parts.back().size += logical_grow;
      entry.total_size += logical_grow;
      co_return entry;
    }
    if (appended.code() != StatusCode::kFailedPrecondition &&
        appended.code() != StatusCode::kResourceExhausted) {
      co_return appended;
    }
  }
  // No part yet, or the last part's bucket closed or filled: write the
  // bytes into fresh buckets, linked back to the last part (§4.5).
  ROS_CO_ASSIGN_OR_RETURN(
      WriteReceipt receipt,
      co_await buckets_->WriteFile(path, entry.version, std::move(data),
                                   logical_grow,
                                   static_cast<int>(entry.parts.size()),
                                   last_image, stream));
  entry.parts.insert(entry.parts.end(), receipt.parts.begin(),
                     receipt.parts.end());
  entry.total_size += logical_grow;
  co_return entry;
}

sim::Task<Status> Olfs::Append(std::string path,
                               std::vector<std::uint8_t> data) {
  co_await ChargeOp("stat", /*first=*/true);
  PathLock lock = co_await LockPath(path);
  IndexEdit append = [this, path, data = std::move(data)](
                         IndexFile& index) mutable -> sim::Task<Status> {
    ROS_CO_ASSIGN_OR_RETURN(const VersionEntry* latest, index.Latest());
    VersionEntry entry = *latest;
    co_await ChargeOp("write");
    const std::uint64_t n = data.size();
    ROS_CO_ASSIGN_OR_RETURN(
        VersionEntry grown,
        co_await GrowVersion(path, std::move(entry), std::move(data), n,
                             /*stream=*/0));
    co_return index.UpdateVersion(grown);
  };
  ROS_CO_RETURN_IF_ERROR(co_await CommitIndex(path, std::move(append)));
  co_await ChargeOp("close");
  co_return OkStatus();
}

// ---------------------------------------------------------------------------
// Streaming handles

sim::Task<Status> Olfs::OpenStream(std::string path) {
  co_await ChargeOp("open", /*first=*/true);
  ROS_CO_ASSIGN_OR_RETURN(MetadataVolume::IndexPtr index,
                          co_await mv_->GetRef(path));
  ROS_CO_ASSIGN_OR_RETURN(const VersionEntry* latest, index->Latest());
  stream_handles_.try_emplace(path, StreamHandle{*latest});
  co_return OkStatus();
}

sim::Task<Status> Olfs::AppendStream(std::string path,
                                     std::vector<std::uint8_t> data,
                                     std::uint64_t logical_grow,
                                     AccessHint hint) {
  // Held to the end: CloseStream cannot take the handle while it grows.
  PathLock lock = co_await LockPath(path);
  if (!stream_handles_.contains(path)) {
    ROS_CO_RETURN_IF_ERROR(co_await OpenStream(path));
  }
  op_trace_.assign({"write"});
  co_await sim_.Delay(params_.stream_op_cost);
  ROS_CO_ASSIGN_OR_RETURN(
      VersionEntry grown,
      co_await GrowVersion(path, stream_handles_.at(path).entry,
                           std::move(data), logical_grow, hint.stream));
  last_write_time_ = sim_.now();
  stream_handles_.at(path) = StreamHandle{std::move(grown), /*grown=*/true};
  co_return OkStatus();
}

sim::Task<StatusOr<std::vector<std::uint8_t>>> Olfs::ReadStream(
    std::string path, std::uint64_t offset, std::uint64_t length,
    AccessHint hint) {
  if (!stream_handles_.contains(path)) {
    ROS_CO_RETURN_IF_ERROR(co_await OpenStream(path));
  }
  op_trace_.assign({"read"});
  // Per-request software cost plus OLFS's extra user-space copy of the
  // returned data (the read-side marginal in Fig 6).
  co_await sim_.Delay(params_.stream_op_cost +
                      sim::TransferTime(length, 2.5e9));
  // Re-acquire after the suspension: a concurrent CloseStream may have
  // erased the handle while this coroutine was parked.
  auto handle = stream_handles_.find(path);
  if (handle == stream_handles_.end()) {
    co_return FailedPreconditionError("stream closed during read: " + path);
  }
  co_return co_await ReadEntry(path, handle->second.entry, offset, length,
                               hint);
}

sim::Task<Status> Olfs::CloseStream(std::string path) {
  if (!stream_handles_.contains(path)) {
    co_return OkStatus();
  }
  co_await ChargeOp("close", /*first=*/true);
  PathLock lock = co_await LockPath(path);
  auto handle = stream_handles_.find(path);
  if (handle == stream_handles_.end()) {
    co_return OkStatus();  // closed concurrently
  }
  StreamHandle closed = std::move(handle->second);
  stream_handles_.erase(handle);
  if (!closed.grown) {
    co_return OkStatus();
  }
  IndexEdit commit_grown = [entry = std::move(closed.entry)](
                               IndexFile& index) -> sim::Task<Status> {
    co_return index.UpdateVersion(entry);
  };
  co_return co_await CommitIndex(std::move(path), std::move(commit_grown));
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
  PathLock lock = co_await LockPath(path);
  if (mv_->Exists(path)) {
    co_return AlreadyExistsError(path + " exists");
  }
  co_await ChargeOp("mknod");
  ROS_CO_RETURN_IF_ERROR(co_await EnsureAncestors(path));
  co_return co_await CommitIndex(std::move(path), nullptr,
                                 EntryType::kDirectory);
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
  PathLock lock = co_await LockPath(path);
  IndexEdit unlink = [this, path](IndexFile& index) -> sim::Task<Status> {
    const bool directory = index.type() == EntryType::kDirectory;
    if (directory && mv_->HasChildren(path)) {
      co_return FailedPreconditionError(path + " is not empty");
    }
    co_await ChargeOp("unlink");
    if (directory) {
      index = IndexFile();  // an empty directory's entry goes outright
    } else {
      VersionEntry tombstone;
      tombstone.tombstone = true;
      index.AddVersion(std::move(tombstone), kMaxVersionEntries);
    }
    co_return OkStatus();
  };
  co_return co_await CommitIndex(std::move(path), std::move(unlink));
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

Olfs::~Olfs() { *bg_alive_ = false; }

sim::Task<void> Olfs::TrackDetached(sim::Task<void> task) {
  ++live_frames_;
  co_await std::move(task);
  FrameDone();
}

void Olfs::FrameDone() {
  if (--live_frames_ == 0) {
    frames_done_.NotifyAll();
  }
}

sim::Task<void> Olfs::Quiesce() {
  *bg_alive_ = false;
  // Wait until every frame that borrows this facade has run to
  // completion: loop bodies mid-pass, detached prefetch/readahead tasks,
  // the burn pipeline, and the fetch scheduler's queues/loads. Each wait
  // is on the signal that moves its own counter, so the call returns at
  // the sim instant the last of them ends. With no frame left, the
  // scheduler can only be waiting on a load cycle or a bay holder, and
  // both end in a bay release. (Frames parked on never-signaled condition
  // variables — e.g. the scheduler's dispatcher waiting for bay changes —
  // hold no locks and never resume, so they are safe to leave suspended;
  // the chaos controller-replacement path relies on the same property.)
  while (true) {
    if (live_frames_ > 0) {
      co_await frames_done_.Wait();
    } else if (burns_->active_burns() > 0) {
      Status drained = co_await burns_->DrainAll();
      (void)drained;  // a burn failure is the burn pipeline's to report
    } else if (!scheduler_->Idle()) {
      co_await mech_->bay_changed().Wait();
    } else {
      co_return;
    }
  }
}

void Olfs::StartBackgroundPolicies(sim::Duration mv_snapshot_interval,
                                   sim::Duration auto_flush_interval,
                                   sim::Duration scrub_interval) {
  if (mv_snapshot_interval > 0) {
    // Only when the namespace changed since the last snapshot.
    auto due = [this] { return namespace_writes_ != last_snapshot_writes_; };
    auto pass = [this]() -> sim::Task<void> {
      last_snapshot_writes_ = namespace_writes_;
      Status status = co_await BurnMvSnapshot();
      if (!status.ok()) {
        ROS_LOG(kWarning) << "periodic MV snapshot failed: "
                          << status.ToString();
      }
    };
    sim_.Spawn(PeriodicLoop(mv_snapshot_interval, bg_alive_, std::move(due),
                            std::move(pass)));
  }
  if (auto_flush_interval > 0) {
    // Flush when buffered data has been sitting idle for a full interval
    // (don't interrupt an active ingest burst mid-bucket).
    auto due = [this, auto_flush_interval] {
      return sim_.now() - last_write_time_ >= auto_flush_interval &&
             (!images_->UnburnedClosed().empty() ||
              buckets_->HasOpenBucketWithData());
    };
    auto pass = [this]() -> sim::Task<void> {
      Status status = co_await buckets_->CloseCurrentBucket();
      if (status.ok()) {
        status = co_await burns_->FlushPartialArray();
      }
      if (!status.ok()) {
        ROS_LOG(kWarning) << "auto-flush failed: " << status.ToString();
      }
    };
    sim_.Spawn(PeriodicLoop(auto_flush_interval, bg_alive_, std::move(due),
                            std::move(pass)));
  }
  if (scrub_interval > 0) {
    // Idle check: skip the pass while burns are running or clients are
    // actively writing ("scheduled at idle times", §4.7).
    auto due = [this, scrub_interval] {
      return burns_->active_burns() == 0 &&
             sim_.now() - last_write_time_ >= scrub_interval / 2;
    };
    // Deep scrub (DESIGN.md §5j): walk every burned array at read speed
    // through the scheduler's background class, repair damage from
    // parity, refresh rotting arrays onto fresh media.
    auto pass = [this]() -> sim::Task<void> {
      auto scrubbed = co_await scrub_->RunPass();
      if (!scrubbed.ok()) {
        ROS_LOG(kWarning) << "scheduled scrub failed: "
                          << scrubbed.status().ToString();
      } else if (scrubbed->repairs > 0 || scrubbed->arrays_refreshed > 0) {
        ROS_LOG(kInfo) << "scheduled scrub repaired " << scrubbed->repairs
                       << " image(s), refreshed "
                       << scrubbed->arrays_refreshed << " array(s)";
      }
    };
    sim_.Spawn(PeriodicLoop(scrub_interval, bg_alive_, std::move(due),
                            std::move(pass)));
  }
}

sim::Task<void> Olfs::PeriodicLoop(sim::Duration interval,
                                   std::shared_ptr<const bool> alive,
                                   std::function<bool()> due,
                                   std::function<sim::Task<void>()> pass) {
  while (true) {
    co_await sim_.Delay(interval);
    if (!*alive) {
      co_return;  // the facade is gone; touch nothing
    }
    if (!due()) {
      continue;
    }
    ++live_frames_;
    co_await pass();
    FrameDone();
    if (!*alive) {
      co_return;
    }
  }
}

// ---------------------------------------------------------------------------
// Namespace recovery by scanning discs (§4.4)

sim::Task<StatusOr<RecoveryReport>> Olfs::RebuildNamespace(
    std::vector<mech::TrayAddress> trays) {
  for (const mech::TrayAddress& tray : trays) {
    if (!tray.IsValid(da_->rollers())) {
      co_return InvalidArgumentError("tray " + tray.ToString() +
                                     " is outside the rack");
    }
  }
  RecoveryReport report;
  mv_->WipeAll();

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
    // ros-lint: allow(speculative-fetch): the rebuild scan is demand (the
    // namespace is empty until it finishes) and must hold the whole tray.
    auto bay = co_await scheduler_->AcquireForRead(mech::DiscAddress{tray, 0});
    if (!bay.ok()) {
      co_return bay.status();
    }

    for (int i = 0; i < mech::kDiscsPerTray; ++i) {
      ++report.discs_scanned;
      drive::OpticalDrive& drive = mech_->drive_set(*bay).drive(i);
      if (!drive.has_disc() || drive.disc()->blank()) {
        continue;
      }
      for (const drive::Session& session : drive.disc()->sessions()) {
        if (session.image_id == "<metadata-zone>" || !session.closed) {
          continue;
        }
        auto stream = co_await drive.ReadAll(session.image_id);
        if (!stream.ok()) {
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
        auto parsed = udf::Serializer::Parse(std::move(*stream));
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
    scheduler_->ReleaseBay(*bay);
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
      index.AddVersion(std::move(entry), kMaxVersionEntries);
      report.files_recovered += (it != versions.end()) ? 1 : 0;
    }
    ROS_CO_RETURN_IF_ERROR(co_await mv_->Put(index));
  }
  co_return report;
}

}  // namespace ros::olfs
