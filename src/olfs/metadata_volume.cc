#include "src/olfs/metadata_volume.h"

#include <algorithm>
#include <span>
#include <utility>

#include "src/common/hash.h"
#include "src/sim/join.h"

namespace ros::olfs {

namespace {

// Keys in the "i" domain (namespace indexes) count toward index_count();
// "s" keys (running state) do not. Replay sees keys from disk, so guard
// against empty/hostile ones.
bool IsIndexKey(const std::string& key) {
  return !key.empty() && key[0] == 'i';
}

// Background work that wakes to find the store reset (WipeAll) or
// destroyed bails with this; it is recorded, never surfaced to callers.
Status AbortedErrorForReset() {
  return UnavailableError("mv: store reset during background work");
}

}  // namespace

// --- construction / destruction ---------------------------------------

MetadataVolume::MetadataVolume(sim::Simulator& sim, disk::Volume* volume,
                               Options options)
    : sim_(sim), volume_(volume), options_(options),
      log_(sim, volume, MvLog::Options{options.commit_window}),
      open_done_(sim), pin_cv_(sim) {
  // A volume carrying a prior incarnation's log starts closed; the first
  // operation (or an explicit Open) replays it.
  opened_ = !volume_->AnyWithPrefix(std::string(MvLog::kFilePrefix)) &&
            !volume_->AnyWithPrefix(std::string(mvseg::kFilePrefix));
}

MetadataVolume::~MetadataVolume() {
  // Detached flush/compaction frames that resume later see this and
  // return without touching the dead store.
  *alive_ = false;
}

// --- open / recovery ---------------------------------------------------

sim::Task<Status> MetadataVolume::Open() { co_return co_await EnsureOpen(); }

sim::Task<Status> MetadataVolume::EnsureOpen() const {
  if (opened_) {
    co_return OkStatus();
  }
  while (!opened_) {
    if (opening_) {
      co_await open_done_.Wait();
      continue;  // re-check; retry recovery ourselves if it failed
    }
    opening_ = true;
    Status status = co_await Recover();
    opening_ = false;
    open_done_.Pulse();
    if (!status.ok()) {
      co_return status;
    }
  }
  co_return OkStatus();
}

sim::Task<Status> MetadataVolume::Recover() const {
  // Restartable: a failed attempt leaves partial replay state behind, so
  // every attempt begins from scratch.
  ResetState();

  // Segments first, in file-name order — "/mvseg.<rank>.<id>" sorts as
  // (rank, id), oldest data first, so newer records shadow older ones as
  // they apply. A damaged segment keeps its cleanly decoded prefix
  // (strictly better than dropping the file) and is counted.
  const std::vector<std::string> seg_names =
      volume_->List(std::string(mvseg::kFilePrefix));
  for (std::size_t i = 0; i < seg_names.size(); ++i) {
    const std::string name = seg_names[i];
    const auto parsed_name = mvseg::ParseSegmentFileName(name);
    if (!parsed_name.has_value()) {
      ++counters_.corrupt_segments;
      continue;
    }
    auto data = co_await volume_->ReadAll(name);
    if (!data.ok()) {
      co_return data.status();  // device-level failure, not media rot
    }
    SegmentPtr info = std::make_shared<SegmentInfo>();
    info->rank = parsed_name->rank;
    info->id = parsed_name->id;
    info->file = name;
    info->bytes = data->size();
    segments_.push_back(info);
    segs_by_id_.emplace(info->id, info);
    Status parsed = mvseg::ParseSegment(
        std::span<const std::uint8_t>(data->data(), data->size()), nullptr,
        [this, &info](mvlog::Record record, std::uint64_t offset,
                      std::uint32_t length) {
          ++info->records_total;
          auto kit = keydir_.find(record.key);
          if (record.type == mvlog::RecordType::kRemove) {
            if (kit != keydir_.end()) {
              DecLiveRef(kit->second);
              if (IsIndexKey(record.key)) {
                --live_index_count_;
              }
              keydir_.erase(kit);
            }
            return;
          }
          if (kit == keydir_.end()) {
            keydir_.emplace(record.key, KeyRef{info->id, offset, length});
            if (IsIndexKey(record.key)) {
              ++live_index_count_;
            }
          } else {
            DecLiveRef(kit->second);
            kit->second = KeyRef{info->id, offset, length};
          }
          ++info->records_live;
        });
    if (!parsed.ok()) {
      ++counters_.corrupt_segments;
    }
    ++counters_.recovered_segments;
    next_rank_ = std::max(next_rank_, parsed_name->rank + 1);
    next_seg_id_ = std::max(next_seg_id_, parsed_name->id + 1);
  }

  // Then the WAL tail, oldest file first (names sort by sequence). The
  // first torn frame ends replay: group commit appends strictly FIFO, so
  // nothing beyond that point can be acked data. The torn tail is
  // truncated away and any later files are dropped.
  const std::vector<std::string> wal_names =
      volume_->List(std::string(MvLog::kFilePrefix));
  std::uint64_t max_seq = 0;
  std::uint64_t min_live_seq = 0;
  bool torn = false;
  for (std::size_t i = 0; i < wal_names.size(); ++i) {
    const std::string name = wal_names[i];
    const auto seq = MvLog::SeqOfFileName(name);
    if (!seq.has_value()) {
      continue;  // not a WAL file of ours
    }
    if (torn) {
      ROS_CO_RETURN_IF_ERROR(co_await volume_->Delete(name));
      continue;
    }
    max_seq = std::max(max_seq, *seq);
    if (min_live_seq == 0) {
      min_live_seq = *seq;
    }
    auto data = co_await volume_->ReadAll(name);
    if (!data.ok()) {
      co_return data.status();
    }
    const mvlog::ScanStats scan = mvlog::ScanRecords(
        std::span<const std::uint8_t>(data->data(), data->size()),
        [this](mvlog::Record record) {
          MemtableApply(record.key, std::move(record.value),
                        record.type == mvlog::RecordType::kRemove);
        });
    counters_.replayed_wal_records += scan.records;
    if (scan.torn) {
      torn = true;
      counters_.torn_tail_bytes += data->size() - scan.valid_bytes;
      ROS_CO_RETURN_IF_ERROR(co_await volume_->Truncate(name, scan.valid_bytes));
    }
  }

  // New appends continue in the newest surviving file; min_seq reaches
  // back to the oldest so the next flush's DeleteBelow reclaims them all.
  const std::uint64_t seq = max_seq > 0 ? max_seq : 1;
  log_.Reset(seq, min_live_seq > 0 ? min_live_seq : seq);
  opened_ = true;
  co_return OkStatus();
}

void MetadataVolume::ResetState() const {
  for (std::size_t i = 0; i < kMemtableShards; ++i) {
    active_[i].clear();
    imm_[i].clear();
  }
  imm_valid_ = false;
  memtable_bytes_ = 0;
  imm_bytes_ = 0;
  keydir_.clear();
  segments_.clear();
  segs_by_id_.clear();
  live_index_count_ = 0;
  next_rank_ = 1;
  next_seg_id_ = 1;
  ++store_gen_;
}

void MetadataVolume::WipeAll() {
  CacheClear();
  ++epoch_;  // in-flight background work aborts at its next check
  ResetState();
  log_.Reset(1, 1);
  opened_ = true;
  opening_ = false;
  open_done_.Pulse();
  volume_->FormatQuick();
}

// --- memtable / keydir internals --------------------------------------

std::size_t MetadataVolume::ShardOf(std::string_view key) const {
  return static_cast<std::size_t>(
             Fnv1a64({reinterpret_cast<const std::uint8_t*>(key.data()),
                      key.size()})) %
         kMemtableShards;
}

const MetadataVolume::MemEntry* MetadataVolume::FindMem(
    const std::string& key) const {
  const std::size_t shard = ShardOf(key);
  auto it = active_[shard].find(key);
  if (it != active_[shard].end()) {
    return &it->second;
  }
  if (imm_valid_) {
    it = imm_[shard].find(key);
    if (it != imm_[shard].end()) {
      return &it->second;
    }
  }
  return nullptr;
}

void MetadataVolume::DecLiveRef(const KeyRef& ref) const {
  if (ref.seg_id == 0) {
    return;
  }
  auto it = segs_by_id_.find(ref.seg_id);
  if (it != segs_by_id_.end() && it->second->records_live > 0) {
    --it->second->records_live;
  }
}

void MetadataVolume::MemtableApply(const std::string& key, std::string value,
                                   bool tombstone) const {
  ++store_gen_;
  if (IsIndexKey(key)) {
    CacheErase(std::string_view(key).substr(1));  // "i/a/b" caches as "/a/b"
  }
  Shard& shard = active_[ShardOf(key)];
  auto [it, inserted] = shard.try_emplace(key);
  if (!inserted) {
    memtable_bytes_ -= EntryBytes(key, it->second);
  }
  it->second.value = std::move(value);
  it->second.tombstone = tombstone;
  memtable_bytes_ += EntryBytes(key, it->second);

  auto kit = keydir_.find(key);
  if (tombstone) {
    if (kit != keydir_.end()) {
      DecLiveRef(kit->second);
      if (IsIndexKey(key)) {
        --live_index_count_;
      }
      keydir_.erase(kit);
    }
  } else if (kit == keydir_.end()) {
    keydir_.emplace(key, KeyRef{});
    if (IsIndexKey(key)) {
      ++live_index_count_;
    }
  } else {
    DecLiveRef(kit->second);
    kit->second = KeyRef{};
  }
}

// --- point reads -------------------------------------------------------

void MetadataVolume::Unpin(SegmentInfo& seg) const {
  --seg.pins;
  if (seg.pins == 0) {
    pin_cv_.NotifyAll();
  }
}

sim::Task<StatusOr<std::string>> MetadataVolume::ReadValue(
    std::string key, KeyRef* ref_out) const {
  const MemEntry* mem = FindMem(key);
  if (mem != nullptr) {
    if (mem->tombstone) {
      co_return NotFoundError("mv: no entry " + key);
    }
    if (ref_out != nullptr) {
      *ref_out = KeyRef{};
    }
    co_return mem->value;
  }
  auto it = keydir_.find(key);
  if (it == keydir_.end()) {
    co_return NotFoundError("mv: no entry " + key);
  }
  const KeyRef ref = it->second;
  ROS_CHECK(ref.seg_id != 0);  // memtable-tier keys are in the shards
  auto sit = segs_by_id_.find(ref.seg_id);
  ROS_CHECK(sit != segs_by_id_.end());
  SegmentPtr seg = sit->second;
  // Pin: the compactor retires a segment's file only once no point read
  // has it in flight.
  ++seg->pins;
  auto data = co_await volume_->Read(seg->file, ref.offset, ref.length);
  Unpin(*seg);
  if (!data.ok()) {
    co_return data.status();
  }
  std::size_t frame = 0;
  auto record = mvlog::DecodeRecord(
      std::span<const std::uint8_t>(data->data(), data->size()), &frame);
  if (!record.ok()) {
    co_return record.status();  // bit rot: the record CRC caught it
  }
  if (ref_out != nullptr) {
    *ref_out = ref;
  }
  co_return std::move(record->value);
}

// --- public API --------------------------------------------------------

bool MetadataVolume::Exists(const std::string& path) const {
  if (!opened_) {
    return false;  // dirty store reports empty until recovery runs
  }
  return keydir_.find(IndexKey(path)) != keydir_.end();
}

sim::Task<Status> MetadataVolume::Put(IndexFile index) {
  ROS_CO_RETURN_IF_ERROR(co_await EnsureOpen());
  const std::string path = index.path();
  std::string doc = index.ToJson();
  const std::string key = IndexKey(path);
  MemtableApply(key, doc, false);
  const std::uint64_t gen = store_gen_;
  mvlog::Record record{mvlog::RecordType::kPut, key, std::move(doc)};
  ROS_CO_RETURN_IF_ERROR(co_await log_.Append(std::move(record)));
  // Write-through publish, pinned to the store generation: any mutation
  // during the barrier wait (even to another key) skips the insert and
  // the next Get re-decodes.
  if (store_gen_ == gen) {
    CacheInsert(path, std::make_shared<const IndexFile>(std::move(index)),
                KeyRef{});
  }
  MaybeScheduleFlush();
  co_return OkStatus();
}

sim::Task<StatusOr<MetadataVolume::IndexPtr>> MetadataVolume::GetRef(
    std::string path) const {
  ROS_CO_RETURN_IF_ERROR(co_await EnsureOpen());
  // A present entry is current by construction (every mutation dropped
  // what it touched), so a hit is one hash probe. With a non-zero
  // capacity every GetRef lands in exactly one of hits/misses.
  if (options_.cache_capacity != 0) {
    auto it = cache_map_.find(std::string_view(path));
    if (it != cache_map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++cache_stats_.hits;
      const CacheEntry& hit = lru_.front();
      IndexPtr shared = hit.index;
      // Memtable-resident entries charge nothing (the miss below would be
      // a RAM lookup); segment-backed ones replay the record's read —
      // exactly what the miss would pay — so the cache never shifts
      // simulated timing.
      if (hit.ref.seg_id != 0) {
        const KeyRef ref = hit.ref;
        auto sit = segs_by_id_.find(ref.seg_id);
        ROS_CHECK(sit != segs_by_id_.end());  // retiring drops its entries
        SegmentPtr seg = sit->second;
        ++seg->pins;
        Status charged =
            co_await volume_->ReadDiscard(seg->file, ref.offset, ref.length);
        Unpin(*seg);
        ROS_CO_RETURN_IF_ERROR(charged);
      }
      co_return std::move(shared);
    }
    ++cache_stats_.misses;
  }
  const std::string key = IndexKey(path);
  KeyRef ref;
  auto value = co_await ReadValue(key, &ref);
  if (!value.ok()) {
    co_return value.status();
  }
  auto decoded = IndexFile::FromJson(*value);
  if (!decoded.ok()) {
    co_return decoded.status();
  }
  auto shared = std::make_shared<const IndexFile>(std::move(*decoded));
  // Publish only if the key still resolves to exactly the bytes we read —
  // no overwrite, flush, or compaction moved it during the device wait.
  // (A memtable read never suspended, so it is current.)
  auto now_it = keydir_.find(key);
  if (ref.seg_id == 0 ||
      (now_it != keydir_.end() && now_it->second.seg_id == ref.seg_id &&
       now_it->second.offset == ref.offset)) {
    CacheInsert(path, shared, ref);
  }
  co_return std::move(shared);
}

sim::Task<StatusOr<IndexFile>> MetadataVolume::Get(
    std::string path) const {
  auto ref = co_await GetRef(std::move(path));
  if (!ref.ok()) {
    co_return ref.status();
  }
  co_return IndexFile(**ref);
}

sim::Task<Status> MetadataVolume::Remove(std::string path) {
  ROS_CO_RETURN_IF_ERROR(co_await EnsureOpen());
  const std::string key = IndexKey(path);
  if (keydir_.find(key) == keydir_.end()) {
    co_return NotFoundError("mv: no entry " + path);
  }
  MemtableApply(key, "", true);
  mvlog::Record record{mvlog::RecordType::kRemove, key, ""};
  Status status = co_await log_.Append(std::move(record));
  MaybeScheduleFlush();
  co_return status;
}

std::vector<std::string> MetadataVolume::ListChildren(
    const std::string& path) const {
  std::vector<std::string> children;
  if (!opened_) {
    return children;
  }
  const std::string prefix =
      path == "/" ? IndexKey("/") : IndexKey(path) + "/";
  // Direct children only; whole grandchild subtrees are skipped with one
  // seek each instead of being filtered entry by entry. Keydir order is
  // lexicographic, so the result needs no sort.
  auto it = keydir_.lower_bound(prefix);
  while (it != keydir_.end() &&
         it->first.compare(0, prefix.size(), prefix) == 0) {
    const std::string& name = it->first;
    const std::size_t cut = name.find('/', prefix.size());
    if (cut == std::string::npos) {
      if (name.size() > prefix.size()) {
        children.push_back(name.substr(prefix.size()));
      }
      ++it;
      continue;
    }
    std::string skip = name.substr(0, cut);
    skip.push_back(static_cast<char>('/' + 1));
    it = keydir_.lower_bound(skip);
  }
  return children;
}

bool MetadataVolume::HasChildren(const std::string& path) const {
  if (!opened_) {
    return false;
  }
  const std::string prefix =
      path == "/" ? IndexKey("/") : IndexKey(path) + "/";
  auto it = keydir_.lower_bound(prefix);
  if (it != keydir_.end() && it->first == prefix) {
    ++it;  // the root's own index; a child must extend the prefix
  }
  return it != keydir_.end() &&
         it->first.compare(0, prefix.size(), prefix) == 0;
}

std::vector<std::string> MetadataVolume::AllPaths() const {
  std::vector<std::string> paths;
  if (!opened_) {
    return paths;
  }
  for (auto it = keydir_.lower_bound("i/");
       it != keydir_.end() && it->first.compare(0, 2, "i/") == 0; ++it) {
    paths.push_back(it->first.substr(1));  // strip the "i" domain tag
  }
  return paths;
}

std::uint64_t MetadataVolume::index_count() const {
  // O(1): the keydir maintains the live count through every put, remove,
  // replay, and compaction.
  return opened_ ? live_index_count_ : 0;
}

sim::Task<Status> MetadataVolume::PutState(std::string key,
                                           json::Value v) {
  ROS_CO_RETURN_IF_ERROR(co_await EnsureOpen());
  const std::string skey = StateKey(key);
  std::string doc = v.Dump();
  MemtableApply(skey, doc, false);
  mvlog::Record record{mvlog::RecordType::kPutState, skey, std::move(doc)};
  Status status = co_await log_.Append(std::move(record));
  MaybeScheduleFlush();
  co_return status;
}

sim::Task<StatusOr<json::Value>> MetadataVolume::GetState(
    std::string key) const {
  ROS_CO_RETURN_IF_ERROR(co_await EnsureOpen());
  auto value = co_await ReadValue(StateKey(key), nullptr);
  if (!value.ok()) {
    co_return value.status();
  }
  co_return json::Parse(*value);
}

// --- snapshots ---------------------------------------------------------

sim::Task<StatusOr<udf::Image>> MetadataVolume::BuildSnapshotImage(
    std::string image_id, std::uint64_t capacity) const {
  udf::Image image(image_id, capacity);
  ROS_CO_RETURN_IF_ERROR(co_await EnsureOpen());
  // Streaming: one key and one value in flight at a time. The keydir
  // iterator cannot live across the value read's suspension, so each step
  // re-seeks by the previous key.
  std::string cursor;
  while (true) {
    std::string key;
    {
      auto it = cursor.empty() ? keydir_.lower_bound("i/")
                               : keydir_.upper_bound(cursor);
      if (it == keydir_.end() || it->first.compare(0, 2, "i/") != 0) {
        break;
      }
      key = it->first;
    }
    cursor = key;
    auto value = co_await ReadValue(key, nullptr);
    if (!value.ok()) {
      if (value.status().code() == StatusCode::kNotFound) {
        continue;  // removed while we streamed past it
      }
      co_return value.status();
    }
    // "i/a/b" -> "/.mv/a/b#idx" (the suffix keeps directory index files
    // from colliding with their children's paths).
    const std::string snap_path =
        std::string(kSnapshotDir) + key.substr(1) + "#idx";
    Status status = image.AddFile(
        snap_path, std::vector<std::uint8_t>(value->begin(), value->end()));
    if (!status.ok()) {
      co_return status;
    }
  }
  co_return image;
}

// ros-lint: allow(coro-ref-param): udf::Image is non-copyable; callers
// keep the snapshot alive for the duration of the restore.
sim::Task<Status> MetadataVolume::RestoreFromSnapshot(
    const udf::Image& snapshot) {
  std::vector<std::pair<std::string, const udf::Node*>> files;
  snapshot.Walk([&](const std::string& path, const udf::Node& node) {
    if (node.type == udf::NodeType::kFile &&
        path.rfind(std::string(kSnapshotDir) + "/", 0) == 0) {
      files.emplace_back(path, &node);
    }
  });
  ROS_CO_RETURN_IF_ERROR(co_await EnsureOpen());
  Status first_error = OkStatus();
  std::uint64_t failed = 0;
  // Windowed WAL barriers: every append in a window joins one group
  // commit, so the restore pays one batched volume write per window
  // instead of a durability barrier per entry.
  std::vector<sim::Task<Status>> window;
  for (std::size_t i = 0; i < files.size(); ++i) {
    std::string global_path = files[i].first.substr(kSnapshotDir.size());
    constexpr std::string_view kSuffix = "#idx";
    if (global_path.size() > kSuffix.size() &&
        global_path.ends_with(kSuffix)) {
      global_path.resize(global_path.size() - kSuffix.size());
    }
    const udf::Node* node = files[i].second;
    // Raw bytes, no validation: a corrupt snapshot entry restores fine and
    // fails at first decode.
    const std::span<const std::uint8_t> raw = snapshot.FileBytes(*node);
    std::string content(raw.begin(), raw.end());
    const std::string key = IndexKey(global_path);
    MemtableApply(key, content, false);
    window.push_back(log_.Append(
        mvlog::Record{mvlog::RecordType::kPut, key, std::move(content)}));
    if (window.size() >= 128 || i + 1 == files.size()) {
      Status status = co_await sim::AllOk(sim_, std::move(window));
      window.clear();
      if (!status.ok()) {
        ++failed;
        if (first_error.ok()) {
          first_error = status;
        }
      }
      MaybeScheduleFlush();
    }
  }
  if (failed > 1) {
    co_return Status(first_error.code(),
                     std::string(first_error.message()) + " (and " +
                         std::to_string(failed - 1) +
                         " more restore failures)");
  }
  co_return first_error;
}

// --- background flush --------------------------------------------------

void MetadataVolume::MaybeScheduleFlush() const {
  if (flush_running_ || !opened_) {
    return;
  }
  if (memtable_bytes_ < options_.memtable_flush_bytes && !imm_valid_) {
    return;
  }
  flush_running_ = true;
  sim_.Spawn(FlushTask(alive_));
}

sim::Task<void> MetadataVolume::FlushTask(
    std::shared_ptr<const bool> alive) const {
  Status status = co_await FlushOnce(alive);
  if (!*alive) {
    co_return;
  }
  flush_running_ = false;
  if (!status.ok()) {
    if (last_background_error_.ok()) {
      last_background_error_ = status;
    }
    co_return;  // retried by the next mutation's MaybeScheduleFlush
  }
  MaybeScheduleFlush();  // the active memtable may already be over budget
  MaybeScheduleCompaction();
}

sim::Task<Status> MetadataVolume::FlushOnce(
    std::shared_ptr<const bool> alive) const {
  const std::uint64_t epoch = epoch_;
  if (!imm_valid_) {
    // Freeze: host-atomic swap of the active shards plus a WAL rotation,
    // so the frozen generation's records stay in their own file(s).
    bool any = false;
    for (std::size_t i = 0; i < kMemtableShards; ++i) {
      any = any || !active_[i].empty();
      imm_[i] = std::move(active_[i]);
      active_[i].clear();
    }
    if (!any) {
      co_return OkStatus();
    }
    imm_valid_ = true;
    imm_bytes_ = memtable_bytes_;
    memtable_bytes_ = 0;
    log_.AdvanceSeq();
  }
  // Everything in the frozen generation must be durable in the WAL before
  // the segment claims it; this also keeps a straggling group commit from
  // resurrecting a WAL file that DeleteBelow just reclaimed.
  Status synced = co_await log_.Sync();
  if (!*alive || epoch_ != epoch) {
    co_return AbortedErrorForReset();
  }
  ROS_CO_RETURN_IF_ERROR(synced);

  // Gather the frozen entries in key order. Pointers into the immutable
  // shards stay valid across suspensions: nothing mutates imm_ but this
  // single-flight flush.
  std::vector<std::pair<const std::string*, const MemEntry*>> entries;
  for (std::size_t i = 0; i < kMemtableShards; ++i) {
    for (const auto& [key, entry] : imm_[i]) {
      entries.emplace_back(&key, &entry);
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });

  const std::uint64_t rank = next_rank_++;
  const std::uint64_t id = next_seg_id_++;
  mvseg::SegmentBuilder builder(rank, id);
  for (const auto& [key, entry] : entries) {
    builder.Add(mvlog::Record{
        entry->tombstone
            ? mvlog::RecordType::kRemove
            : ((*key)[0] == 's' ? mvlog::RecordType::kPutState
                                : mvlog::RecordType::kPut),
        *key, entry->value});
  }
  const std::vector<std::pair<std::uint64_t, std::uint32_t>> refs =
      builder.refs();
  const std::string file = mvseg::SegmentFileName(rank, id);
  std::vector<std::uint8_t> bytes = std::move(builder).Finish();
  const std::uint64_t seg_bytes = bytes.size();

  Status created = co_await volume_->Create(file);
  if (!*alive || epoch_ != epoch) {
    co_return AbortedErrorForReset();
  }
  ROS_CO_RETURN_IF_ERROR(created);
  std::vector<std::vector<std::uint8_t>> pieces;
  pieces.push_back(std::move(bytes));
  Status written = co_await volume_->AppendBatch(file, std::move(pieces));
  if (!*alive || epoch_ != epoch) {
    co_return AbortedErrorForReset();
  }
  if (!written.ok()) {
    Status cleanup = co_await volume_->Delete(file);
    if (!*alive || epoch_ != epoch) {
      co_return AbortedErrorForReset();
    }
    if (!cleanup.ok() && last_background_error_.ok()) {
      last_background_error_ = cleanup;
    }
    co_return written;  // imm_ stays frozen; the next flush retries
  }

  // Publish (host-atomic): register the segment and repoint every key the
  // active memtable has not overwritten since the freeze.
  SegmentPtr info = std::make_shared<SegmentInfo>();
  info->rank = rank;
  info->id = id;
  info->file = file;
  info->records_total = refs.size();
  info->bytes = seg_bytes;
  segments_.push_back(info);  // fresh rank: sorts after every older segment
  segs_by_id_.emplace(id, info);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const std::string& key = *entries[i].first;
    if (entries[i].second->tombstone) {
      continue;  // its keydir entry is already gone
    }
    // A newer write in the active memtable shadows this record: dead on
    // arrival, reclaimed by compaction.
    const Shard& shard = active_[ShardOf(key)];
    if (shard.find(key) != shard.end()) {
      continue;
    }
    auto kit = keydir_.find(key);
    if (kit != keydir_.end() && kit->second.seg_id == 0) {
      kit->second = KeyRef{id, refs[i].first, refs[i].second};
      ++info->records_live;
    }
  }
  // Cached decodes of memtable-resident entries now have a segment-backed
  // miss cost; drop them so hit and miss charges stay identical.
  CacheEraseBySegment(0);
  for (std::size_t i = 0; i < kMemtableShards; ++i) {
    imm_[i].clear();
  }
  imm_valid_ = false;
  imm_bytes_ = 0;
  ++counters_.memtable_flushes;

  // The frozen generation's WAL files are covered by the segment now.
  Status trimmed = co_await log_.DeleteBelow(log_.current_seq());
  if (!*alive || epoch_ != epoch) {
    co_return AbortedErrorForReset();
  }
  co_return trimmed;
}

// --- background compaction ---------------------------------------------

// A sealed segment is at the size cap with every record still live:
// merging it again cannot shrink anything, so it neither counts toward the
// size trigger nor gets picked as a merge input. (A retained tombstone or
// any overwritten record keeps records_live below records_total, which
// unseals the segment.)
bool MetadataVolume::SealedSegment(const SegmentInfo& seg) const {
  return seg.bytes >= options_.max_segment_bytes &&
         seg.records_live >= seg.records_total;
}

bool MetadataVolume::CompactionNeeded() const {
  std::size_t foldable = 0;
  for (const SegmentPtr& seg : segments_) {
    if (!SealedSegment(*seg)) {
      ++foldable;
    }
  }
  if (foldable > options_.compact_min_segments) {
    return true;
  }
  if (segments_.empty()) {
    return false;
  }
  std::uint64_t total = 0;
  std::uint64_t live = 0;
  for (const SegmentPtr& seg : segments_) {
    total += seg->records_total;
    live += seg->records_live;
  }
  return total > 0 &&
         static_cast<double>(total - live) >
             options_.compact_garbage_ratio * static_cast<double>(total);
}

void MetadataVolume::MaybeScheduleCompaction() const {
  if (compact_running_ || !opened_ || !CompactionNeeded()) {
    return;
  }
  compact_running_ = true;
  sim_.Spawn(CompactTask(alive_));
}

sim::Task<void> MetadataVolume::CompactTask(
    std::shared_ptr<const bool> alive) const {
  Status status = co_await CompactOnce(alive);
  if (!*alive) {
    co_return;
  }
  compact_running_ = false;
  if (!status.ok()) {
    if (last_background_error_.ok()) {
      last_background_error_ = status;
    }
    co_return;  // don't spin on a persistently failing merge
  }
  MaybeScheduleCompaction();  // keep folding until the trigger clears
}

sim::Task<Status> MetadataVolume::CompactOnce(
    std::shared_ptr<const bool> alive) const {
  const std::uint64_t epoch = epoch_;
  // Inputs are a CONTIGUOUS run in (rank, id) order, starting at the first
  // segment that merging can still shrink — the sealed prefix (full, fully
  // live) is skipped so a big store doesn't rewrite the same bytes forever.
  // Contiguity is what keeps replay order meaningful for the outputs.
  std::size_t start = 0;
  while (start < segments_.size() && SealedSegment(*segments_[start])) {
    ++start;
  }
  const std::size_t fan_in =
      std::min(options_.compact_fan_in, segments_.size() - start);
  if (fan_in == 0) {
    co_return OkStatus();
  }
  // Tombstones may be dropped only when the run starts at the oldest
  // segment: then nothing older is left for them to shadow. Otherwise they
  // are rewritten into the outputs (still dead weight, which keeps the
  // output unsealed until a later oldest-prefix run retires them).
  const bool drop_tombstones = start == 0;
  std::vector<SegmentPtr> inputs(segments_.begin() + start,
                                 segments_.begin() + start + fan_in);

  struct SourcedRecord {
    mvlog::Record record;
    std::uint64_t offset = 0;
  };
  std::vector<std::vector<SourcedRecord>> runs;
  runs.reserve(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    auto data = co_await volume_->ReadAll(inputs[i]->file);
    if (!*alive || epoch_ != epoch) {
      co_return AbortedErrorForReset();
    }
    if (!data.ok()) {
      co_return data.status();
    }
    runs.emplace_back();
    Status parsed = mvseg::ParseSegment(
        std::span<const std::uint8_t>(data->data(), data->size()), nullptr,
        [&runs](mvlog::Record record, std::uint64_t offset, std::uint32_t) {
          runs.back().push_back(SourcedRecord{std::move(record), offset});
        });
    if (!parsed.ok()) {
      // Corrupted underneath us (external poke). Leave the store alone;
      // point reads surface kDataLoss per record, recovery handles rest.
      co_return parsed;
    }
  }

  // k-way merge, newest run wins per key; liveness-filter against the
  // keydir so dead records are dropped instead of rewritten.
  struct OutRecord {
    mvlog::Record record;
    std::uint64_t src_seg = 0;
    std::uint64_t src_offset = 0;
  };
  std::vector<OutRecord> merged;
  std::vector<std::size_t> cursors(runs.size(), 0);
  while (true) {
    const std::string* min_key = nullptr;
    for (std::size_t r = 0; r < runs.size(); ++r) {
      if (cursors[r] >= runs[r].size()) {
        continue;
      }
      const std::string& key = runs[r][cursors[r]].record.key;
      if (min_key == nullptr || key < *min_key) {
        min_key = &key;
      }
    }
    if (min_key == nullptr) {
      break;
    }
    const std::string key = *min_key;
    std::size_t winner = 0;
    for (std::size_t r = 0; r < runs.size(); ++r) {
      if (cursors[r] < runs[r].size() &&
          runs[r][cursors[r]].record.key == key) {
        winner = r;  // runs are ordered oldest→newest; the last match wins
      }
    }
    const std::size_t win_at = cursors[winner];
    for (std::size_t r = 0; r < runs.size(); ++r) {
      if (cursors[r] < runs[r].size() &&
          runs[r][cursors[r]].record.key == key) {
        ++cursors[r];  // advance BEFORE the move hollows the winner's key
      }
    }
    SourcedRecord rec = std::move(runs[winner][win_at]);
    if (rec.record.type == mvlog::RecordType::kRemove) {
      if (!drop_tombstones) {
        // The run does not start at the oldest segment, so an older one may
        // still hold a record this tombstone shadows. Keep it (the keydir
        // has no entry for it — it is filtered below otherwise).
        merged.push_back(
            OutRecord{std::move(rec.record), inputs[winner]->id, rec.offset});
      }
      continue;
    }
    auto kit = keydir_.find(rec.record.key);
    if (kit == keydir_.end() || kit->second.seg_id != inputs[winner]->id ||
        kit->second.offset != rec.offset) {
      continue;  // dead: overwritten or removed since it was flushed
    }
    merged.push_back(
        OutRecord{std::move(rec.record), inputs[winner]->id, rec.offset});
  }

  // Serialize outputs (split at max_segment_bytes; same rank as the oldest
  // input so recovery replays them in the inputs' position).
  const std::uint64_t out_rank = inputs.front()->rank;
  struct OutSeg {
    std::uint64_t id = 0;
    std::string file;
    std::vector<std::uint8_t> bytes;
    std::uint64_t byte_size = 0;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> refs;
    std::size_t first_record = 0;
    std::size_t record_count = 0;
  };
  std::vector<OutSeg> outs;
  std::size_t at = 0;
  while (at < merged.size()) {
    const std::uint64_t id = next_seg_id_++;
    mvseg::SegmentBuilder builder(out_rank, id);
    const std::size_t first = at;
    while (at < merged.size() &&
           (builder.count() == 0 ||
            builder.bytes() < options_.max_segment_bytes)) {
      builder.Add(merged[at].record);
      ++at;
    }
    OutSeg out;
    out.id = id;
    out.file = mvseg::SegmentFileName(out_rank, id);
    out.refs = builder.refs();
    out.first_record = first;
    out.record_count = at - first;
    out.bytes = std::move(builder).Finish();
    out.byte_size = out.bytes.size();
    outs.push_back(std::move(out));
  }

  // Write every output before touching shared state: readers keep using
  // the inputs, and a crash here just leaves extra files that recovery
  // replays idempotently (same rank, higher id).
  for (std::size_t i = 0; i < outs.size(); ++i) {
    Status created = co_await volume_->Create(outs[i].file);
    if (!*alive || epoch_ != epoch) {
      co_return AbortedErrorForReset();
    }
    Status written = created;
    if (created.ok()) {
      std::vector<std::vector<std::uint8_t>> pieces;
      pieces.push_back(std::move(outs[i].bytes));
      written = co_await volume_->AppendBatch(outs[i].file, std::move(pieces));
      if (!*alive || epoch_ != epoch) {
        co_return AbortedErrorForReset();
      }
    }
    if (!written.ok()) {
      // Unwind partial outputs; the inputs remain authoritative.
      for (std::size_t j = 0; j <= i; ++j) {
        Status cleanup = co_await volume_->Delete(outs[j].file);
        if (!*alive || epoch_ != epoch) {
          co_return AbortedErrorForReset();
        }
        if (!cleanup.ok() && last_background_error_.ok()) {
          last_background_error_ = cleanup;
        }
      }
      co_return written;
    }
  }

  // Swap (host-atomic): unlink inputs, link outputs, repoint still-live
  // keys. Records that died while the outputs were being written simply
  // stay dead — the re-check is against the keydir's current refs.
  // Concurrent flushes only ever append newer segments, so the input run
  // is still where it was.
  ROS_CHECK(segments_.size() >= start + inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    ROS_CHECK(segments_[start + i].get() == inputs[i].get());
  }
  segments_.erase(segments_.begin() + start,
                  segments_.begin() + start + inputs.size());
  std::vector<SegmentPtr> out_infos;
  out_infos.reserve(outs.size());
  for (const OutSeg& out : outs) {
    SegmentPtr info = std::make_shared<SegmentInfo>();
    info->rank = out_rank;
    info->id = out.id;
    info->file = out.file;
    info->records_total = out.record_count;
    info->bytes = out.byte_size;
    segs_by_id_.emplace(out.id, info);
    out_infos.push_back(info);
  }
  segments_.insert(segments_.begin(), out_infos.begin(), out_infos.end());
  std::sort(segments_.begin(), segments_.end(),
            [](const SegmentPtr& a, const SegmentPtr& b) {
              return a->rank != b->rank ? a->rank < b->rank : a->id < b->id;
            });
  for (std::size_t o = 0; o < outs.size(); ++o) {
    const OutSeg& out = outs[o];
    const SegmentPtr& info = out_infos[o];
    for (std::size_t r = 0; r < out.record_count; ++r) {
      const OutRecord& src = merged[out.first_record + r];
      auto kit = keydir_.find(src.record.key);
      if (kit != keydir_.end() && kit->second.seg_id == src.src_seg &&
          kit->second.offset == src.src_offset) {
        kit->second = KeyRef{out.id, out.refs[r].first, out.refs[r].second};
        ++info->records_live;
      }
    }
  }
  for (const SegmentPtr& input : inputs) {
    input->retired = true;
    CacheEraseBySegment(input->id);
    segs_by_id_.erase(input->id);
  }

  // Retire input files once in-flight point reads drain.
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    while (inputs[i]->pins > 0) {
      co_await pin_cv_.Wait();
      if (!*alive || epoch_ != epoch) {
        co_return AbortedErrorForReset();
      }
    }
    Status unlink = co_await volume_->Delete(inputs[i]->file);
    if (!*alive || epoch_ != epoch) {
      co_return AbortedErrorForReset();
    }
    if (!unlink.ok() && last_background_error_.ok()) {
      last_background_error_ = unlink;
    }
  }
  ++counters_.compactions;
  counters_.segments_deleted += inputs.size();
  co_return OkStatus();
}

// --- stats -------------------------------------------------------------

MetadataVolume::StoreStats MetadataVolume::store_stats() const {
  StoreStats stats;
  stats.wal = log_.stats();
  for (std::size_t i = 0; i < kMemtableShards; ++i) {
    stats.memtable_entries += active_[i].size();
    if (imm_valid_) {
      stats.memtable_entries += imm_[i].size();
    }
  }
  stats.memtable_bytes = memtable_bytes_ + (imm_valid_ ? imm_bytes_ : 0);
  stats.segment_count = segments_.size();
  for (const SegmentPtr& seg : segments_) {
    stats.segment_records_total += seg->records_total;
    stats.segment_records_live += seg->records_live;
    stats.segment_bytes += seg->bytes;
  }
  stats.memtable_flushes = counters_.memtable_flushes;
  stats.compactions = counters_.compactions;
  stats.segments_deleted = counters_.segments_deleted;
  stats.recovered_segments = counters_.recovered_segments;
  stats.corrupt_segments = counters_.corrupt_segments;
  stats.replayed_wal_records = counters_.replayed_wal_records;
  stats.torn_tail_bytes = counters_.torn_tail_bytes;
  return stats;
}

// --- decoded-index cache -----------------------------------------------

void MetadataVolume::CacheInsert(const std::string& path, IndexPtr index,
                                 KeyRef ref) const {
  if (options_.cache_capacity == 0) {
    return;
  }
  auto it = cache_map_.find(std::string_view(path));
  if (it != cache_map_.end()) {
    it->second->index = std::move(index);
    it->second->ref = ref;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(CacheEntry{path, std::move(index), ref});
  cache_map_.emplace(lru_.front().path, lru_.begin());
  if (cache_map_.size() > options_.cache_capacity) {
    cache_map_.erase(std::string_view(lru_.back().path));
    lru_.pop_back();
    ++cache_stats_.evictions;
  }
}

void MetadataVolume::CacheErase(std::string_view path) const {
  auto it = cache_map_.find(path);
  if (it == cache_map_.end()) {
    return;
  }
  lru_.erase(it->second);
  cache_map_.erase(it);
}

void MetadataVolume::CacheClear() const {
  lru_.clear();
  cache_map_.clear();
}

void MetadataVolume::CacheEraseBySegment(std::uint64_t seg_id) const {
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->ref.seg_id == seg_id) {
      cache_map_.erase(std::string_view(it->path));
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace ros::olfs
