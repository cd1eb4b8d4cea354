#include "src/olfs/metadata_volume.h"

#include <algorithm>
#include <span>
#include <tuple>
#include <utility>

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
      log_(sim, volume,
           [this](mvlog::Record record, std::uint64_t seq) {
             OnCommit(std::move(record), seq);
           }),
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
          const bool tombstone = record.type == mvlog::RecordType::kRemove;
          KeydirApply(record.key, KeyRef{info->id, offset, length},
                      tombstone);
          if (!tombstone) {
            ++info->records_live;
          }
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
          MemtableApply(active_, record.key, std::move(record.value),
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
  active_.clear();
  imm_.clear();
  memtable_bytes_ = 0;
  imm_bytes_ = 0;
  keydir_.clear();
  staged_.clear();
  staged_bytes_ = 0;
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

const MetadataVolume::MemEntry* MetadataVolume::FindMem(
    const std::string& key) const {
  auto staged = staged_.find(key);
  if (staged != staged_.end()) {
    return &staged->second;
  }
  for (const Memtable* tier : {&active_, &imm_}) {
    auto it = tier->find(key);
    if (it != tier->end()) {
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

void MetadataVolume::Relink(KeyRef& slot, const KeyRef& ref) const {
  slot = ref;
  ++segs_by_id_.at(ref.seg_id)->records_live;
}

void MetadataVolume::KeydirApply(const std::string& key, KeyRef ref,
                                 bool tombstone) const {
  auto kit = keydir_.find(key);
  if (kit != keydir_.end()) {
    DecLiveRef(kit->second);
    if (!tombstone) {
      kit->second = ref;
      return;
    }
    if (IsIndexKey(key)) {
      --live_index_count_;
    }
    keydir_.erase(kit);
  } else if (!tombstone) {
    keydir_.emplace(key, ref);
    if (IsIndexKey(key)) {
      ++live_index_count_;
    }
  }
}

void MetadataVolume::MemtableApply(Memtable& tier, const std::string& key,
                                   std::string value, bool tombstone) const {
  std::uint64_t& bytes = &tier == &imm_ ? imm_bytes_ : memtable_bytes_;
  auto [it, inserted] = tier.try_emplace(key);
  if (!inserted) {
    bytes -= EntryBytes(key, it->second.value);
  }
  it->second.value = std::move(value);
  it->second.tombstone = tombstone;
  bytes += EntryBytes(key, it->second.value);
  KeydirApply(key, KeyRef{}, tombstone);
}

void MetadataVolume::OnCommit(mvlog::Record record, std::uint64_t seq) const {
  // A freeze advances the WAL sequence; a record of the old sequence was
  // issued before the freeze and lands before the flush's Sync returns.
  Memtable& tier = seq < log_.current_seq() ? imm_ : active_;
  MemtableApply(tier, record.key, std::move(record.value),
                record.type == mvlog::RecordType::kRemove);
}

// --- staged mutations --------------------------------------------------

mvlog::Record MetadataVolume::Stage(mvlog::RecordType type,
                                   const std::string& key,
                                   std::string value) const {
  ++store_gen_;
  if (IsIndexKey(key)) {
    CacheErase(std::string_view(key).substr(1));  // "i/a/b" caches as "/a/b"
  }
  auto [it, inserted] = staged_.try_emplace(key);
  Staged& staged = it->second;
  if (!inserted) {
    staged_bytes_ -= EntryBytes(key, staged.value);
  }
  staged.value = std::move(value);
  staged.tombstone = type == mvlog::RecordType::kRemove;
  ++staged.inflight;
  staged.seq = log_.current_seq();
  staged_bytes_ += EntryBytes(key, staged.value);
  return mvlog::Record{type, key, staged.value};
}

sim::Task<Status> MetadataVolume::CommitStaged(mvlog::Record record) {
  const std::uint64_t epoch = epoch_;
  const std::string key = record.key;
  Status status = co_await log_.Append(std::move(record));
  if (epoch_ != epoch) {
    co_return status;  // WipeAll dropped the staged entry with the rest
  }
  // Batches resolve in log order, so when the last in-flight mutation of
  // the key resolves it is also the newest: on success the memtable now
  // holds exactly the staged value.
  auto it = staged_.find(key);
  if (--it->second.inflight == 0) {
    staged_bytes_ -= EntryBytes(key, it->second.value);
    staged_.erase(it);
    if (!status.ok()) {
      ++store_gen_;
      if (IsIndexKey(key)) {
        CacheErase(std::string_view(key).substr(1));
      }
    }
  }
  co_return status;
}

bool MetadataVolume::Visible(const std::string& key) const {
  auto it = staged_.find(key);
  if (it != staged_.end()) {
    return !it->second.tombstone;
  }
  return keydir_.find(key) != keydir_.end();
}

const std::string* MetadataVolume::FirstVisibleFrom(
    const std::string& from) const {
  auto kit = keydir_.lower_bound(from);
  while (kit != keydir_.end() && !Visible(kit->first)) {
    ++kit;
  }
  auto sit = staged_.lower_bound(from);
  while (sit != staged_.end() && sit->second.tombstone) {
    ++sit;
  }
  const std::string* committed = kit == keydir_.end() ? nullptr : &kit->first;
  const std::string* staged = sit == staged_.end() ? nullptr : &sit->first;
  return committed == nullptr || (staged != nullptr && *staged < *committed)
             ? staged
             : committed;
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
  ROS_CHECK(ref.seg_id != 0);  // memtable-tier keys are in the memtable
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
  return Visible(IndexKey(path));
}

sim::Task<Status> MetadataVolume::Put(IndexFile index) {
  ROS_CO_RETURN_IF_ERROR(co_await EnsureOpen());
  const std::string path = index.path();
  const std::string key = IndexKey(path);
  mvlog::Record record = Stage(mvlog::RecordType::kPut, key, index.ToJson());
  const std::uint64_t gen = store_gen_;
  ROS_CO_RETURN_IF_ERROR(co_await CommitStaged(std::move(record)));
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
  if (ref.seg_id == 0 || (now_it != keydir_.end() && now_it->second == ref)) {
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
  if (!Visible(key)) {
    co_return NotFoundError("mv: no entry " + path);
  }
  mvlog::Record record = Stage(mvlog::RecordType::kRemove, key, "");
  Status status = co_await CommitStaged(std::move(record));
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
  // Then the staged mutations of direct children, which add or hide one.
  for (auto sit = staged_.lower_bound(prefix);
       sit != staged_.end() &&
       sit->first.compare(0, prefix.size(), prefix) == 0;
       ++sit) {
    if (sit->first.size() == prefix.size() ||
        sit->first.find('/', prefix.size()) != std::string::npos) {
      continue;
    }
    std::string child = sit->first.substr(prefix.size());
    auto at = std::lower_bound(children.begin(), children.end(), child);
    const bool listed = at != children.end() && *at == child;
    if (sit->second.tombstone && listed) {
      children.erase(at);
    } else if (!sit->second.tombstone && !listed) {
      children.insert(at, std::move(child));
    }
  }
  return children;
}

bool MetadataVolume::HasChildren(const std::string& path) const {
  if (!opened_) {
    return false;
  }
  const std::string prefix =
      path == "/" ? IndexKey("/") : IndexKey(path) + "/";
  const std::string* first = FirstVisibleFrom(prefix);
  if (first != nullptr && *first == prefix) {
    // The root's own index; a child must extend the prefix.
    first = FirstVisibleFrom(prefix + '\0');
  }
  return first != nullptr && first->compare(0, prefix.size(), prefix) == 0;
}

std::vector<std::string> MetadataVolume::AllPaths() const {
  std::vector<std::string> paths;
  if (!opened_) {
    return paths;
  }
  for (const std::string* key = FirstVisibleFrom("i/");
       key != nullptr && key->compare(0, 2, "i/") == 0;
       key = FirstVisibleFrom(*key + '\0')) {
    paths.push_back(key->substr(1));  // strip the "i" domain tag
  }
  return paths;
}

std::uint64_t MetadataVolume::index_count() const {
  // The keydir keeps the committed count through every commit, replay and
  // compaction; a staged put of a new key adds one, a staged remove of a
  // committed key takes one away.
  std::uint64_t count = opened_ ? live_index_count_ : 0;
  for (const auto& [key, staged] : staged_) {
    if (IsIndexKey(key) && staged.tombstone == keydir_.contains(key)) {
      staged.tombstone ? --count : ++count;
    }
  }
  return count;
}

sim::Task<Status> MetadataVolume::PutState(std::string key,
                                           json::Value v) {
  ROS_CO_RETURN_IF_ERROR(co_await EnsureOpen());
  const std::string skey = StateKey(key);
  mvlog::Record record = Stage(mvlog::RecordType::kPutState, skey, v.Dump());
  Status status = co_await CommitStaged(std::move(record));
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
      const std::string* next =
          FirstVisibleFrom(cursor.empty() ? "i/" : cursor + '\0');
      if (next == nullptr || next->compare(0, 2, "i/") != 0) {
        break;
      }
      key = *next;
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
    const std::string key = IndexKey(global_path);
    mvlog::Record record = Stage(mvlog::RecordType::kPut, key,
                                 std::string(raw.begin(), raw.end()));
    window.push_back(CommitStaged(std::move(record)));
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

std::uint64_t MetadataVolume::ActiveBytes() const {
  std::uint64_t bytes = memtable_bytes_;
  for (const auto& [key, staged] : staged_) {
    if (staged.seq != log_.current_seq()) {
      continue;  // issued before the freeze: lands in imm_
    }
    auto it = active_.find(key);
    if (it != active_.end()) {
      bytes -= EntryBytes(key, it->second.value);
    }
    bytes += EntryBytes(key, staged.value);
  }
  return bytes;
}

void MetadataVolume::MaybeScheduleFlush() const {
  if (flush_running_ || !opened_) {
    return;
  }
  // memtable_bytes_ + staged_bytes_ bounds ActiveBytes() from above at no
  // cost, so the exact sum walks staged_ only near the budget.
  const std::uint64_t budget = options_.memtable_flush_bytes;
  if (imm_.empty() && (memtable_bytes_ + staged_bytes_ < budget ||
                       ActiveBytes() < budget)) {
    return;
  }
  flush_running_ = true;
  sim_.Spawn(BackgroundTask(/*compact=*/false, alive_));
}

sim::Task<void> MetadataVolume::BackgroundTask(
    bool compact, std::shared_ptr<const bool> alive) const {
  Status status = OkStatus();
  if (compact) {
    status = co_await CompactOnce(alive);
  } else {
    status = co_await FlushOnce(alive);
  }
  if (!*alive) {
    co_return;
  }
  (compact ? compact_running_ : flush_running_) = false;
  if (!status.ok()) {
    if (last_background_error_.ok()) {
      last_background_error_ = status;
    }
    // The next mutation retries a flush; a failing merge must not spin.
    co_return;
  }
  if (!compact) {
    MaybeScheduleFlush();  // the active memtable may already be over budget
  }
  MaybeScheduleCompaction();  // keep folding until the trigger clears
}

sim::Task<Status> MetadataVolume::FlushOnce(
    std::shared_ptr<const bool> alive) const {
  const std::uint64_t epoch = epoch_;
  if (imm_.empty()) {
    if (ActiveBytes() == 0) {
      co_return OkStatus();
    }
    // Freeze: host-atomic swap of the active memtable plus a WAL rotation,
    // so the frozen generation's records stay in their own file(s). The
    // generation's mutations still in flight land in imm_ before the
    // Sync below returns.
    imm_ = std::move(active_);
    active_.clear();
    imm_bytes_ = std::exchange(memtable_bytes_, 0);
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

  // The frozen generation is already in key order, and nothing lands in
  // it after the Sync above, so the relink below walks it again.
  SegmentWrite write;
  write.rank = next_rank_++;
  for (const auto& [key, entry] : imm_) {
    AddToSegments(write,
                  mvlog::Record{entry.tombstone
                                    ? mvlog::RecordType::kRemove
                                    : (key[0] == 's'
                                           ? mvlog::RecordType::kPutState
                                           : mvlog::RecordType::kPut),
                                key, entry.value});
  }
  Status written = co_await WriteSegments(&write, alive, epoch);
  if (!*alive || epoch_ != epoch) {
    co_return AbortedErrorForReset();
  }
  ROS_CO_RETURN_IF_ERROR(written);  // imm_ stays frozen; the next flush retries

  // Publish (host-atomic): register the segment and repoint every key the
  // active memtable has not overwritten since the freeze.
  RegisterSegments(write);
  std::size_t i = 0;
  for (const auto& [key, entry] : imm_) {
    const KeyRef& ref = write.refs[i++];
    // A tombstone's keydir entry is already gone; a newer write in the
    // active memtable makes the record dead on arrival (compaction
    // reclaims it).
    if (entry.tombstone || active_.contains(key)) {
      continue;
    }
    auto kit = keydir_.find(key);
    if (kit != keydir_.end() && kit->second.seg_id == 0) {
      Relink(kit->second, ref);
    }
  }
  // Cached decodes of memtable-resident entries now have a segment-backed
  // miss cost; drop them so hit and miss charges stay identical.
  CacheEraseBySegment(0);
  imm_.clear();
  imm_bytes_ = 0;
  ++counters_.memtable_flushes;

  // The frozen generation's WAL files are covered by the segment now.
  Status trimmed = co_await log_.DeleteBelow(log_.current_seq());
  if (!*alive || epoch_ != epoch) {
    co_return AbortedErrorForReset();
  }
  co_return trimmed;
}

// --- segment writer ----------------------------------------------------

void MetadataVolume::AddToSegments(SegmentWrite& write,
                                   const mvlog::Record& record) const {
  if (write.open.has_value() && write.open->bytes() >= kMaxSegmentBytes) {
    SealSegment(write);
  }
  if (!write.open.has_value()) {
    write.open_id = next_seg_id_++;
    write.open.emplace(write.rank, write.open_id);
  }
  write.open->Add(record);
}

void MetadataVolume::SealSegment(SegmentWrite& write) {
  if (!write.open.has_value()) {
    return;
  }
  SegmentFile file;
  file.id = write.open_id;
  file.name = mvseg::SegmentFileName(write.rank, file.id);
  for (const auto& [offset, length] : write.open->refs()) {
    write.refs.push_back(KeyRef{file.id, offset, length});
  }
  file.records = write.open->count();
  file.bytes = std::move(*write.open).Finish();
  file.byte_size = file.bytes.size();
  write.files.push_back(std::move(file));
  write.open.reset();
}

sim::Task<Status> MetadataVolume::WriteSegments(
    SegmentWrite* write, std::shared_ptr<const bool> alive,
    std::uint64_t epoch) const {
  // Every file is written before any shared state changes: readers keep
  // using the inputs, and a crash here just leaves extra files that
  // recovery replays idempotently.
  SealSegment(*write);
  Status status = OkStatus();
  std::size_t created = 0;
  for (SegmentFile& file : write->files) {
    status = co_await volume_->Create(file.name);
    if (!*alive || epoch_ != epoch) {
      co_return AbortedErrorForReset();
    }
    if (!status.ok()) {
      break;
    }
    ++created;
    status = co_await volume_->Append(file.name, std::move(file.bytes));
    if (!*alive || epoch_ != epoch) {
      co_return AbortedErrorForReset();
    }
    if (!status.ok()) {
      break;
    }
  }
  for (std::size_t i = 0; !status.ok() && i < created; ++i) {
    Status cleanup = co_await volume_->Delete(write->files[i].name);
    if (!*alive || epoch_ != epoch) {
      co_return AbortedErrorForReset();
    }
    if (!cleanup.ok() && last_background_error_.ok()) {
      last_background_error_ = cleanup;
    }
  }
  co_return status;
}

void MetadataVolume::RegisterSegments(const SegmentWrite& write) const {
  for (const SegmentFile& file : write.files) {
    SegmentPtr info = std::make_shared<SegmentInfo>();
    info->rank = write.rank;
    info->id = file.id;
    info->file = file.name;
    info->records_total = file.records;
    info->bytes = file.byte_size;
    segs_by_id_.emplace(file.id, info);
    segments_.insert(
        std::upper_bound(segments_.begin(), segments_.end(), info,
                         [](const SegmentPtr& a, const SegmentPtr& b) {
                           return std::tie(a->rank, a->id) <
                                  std::tie(b->rank, b->id);
                         }),
        info);
  }
}

// --- background compaction ---------------------------------------------

// A sealed segment is at the size cap with every record still live:
// merging it again cannot shrink anything, so it neither counts toward the
// size trigger nor gets picked as a merge input. (A retained tombstone or
// any overwritten record keeps records_live below records_total, which
// unseals the segment.)
bool MetadataVolume::SealedSegment(const SegmentInfo& seg) {
  return seg.bytes >= kMaxSegmentBytes &&
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
  return total > 0 && static_cast<double>(total - live) >
                          kCompactGarbageRatio * static_cast<double>(total);
}

void MetadataVolume::MaybeScheduleCompaction() const {
  if (compact_running_ || !opened_ || !CompactionNeeded()) {
    return;
  }
  compact_running_ = true;
  sim_.Spawn(BackgroundTask(/*compact=*/true, alive_));
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

  std::vector<std::vector<mvlog::Record>> runs(inputs.size());
  std::vector<std::vector<KeyRef>> run_refs(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    auto data = co_await volume_->ReadAll(inputs[i]->file);
    if (!*alive || epoch_ != epoch) {
      co_return AbortedErrorForReset();
    }
    if (!data.ok()) {
      co_return data.status();
    }
    Status parsed = mvseg::ParseSegment(
        std::span<const std::uint8_t>(data->data(), data->size()), nullptr,
        [&, i](mvlog::Record record, std::uint64_t offset,
               std::uint32_t length) {
          runs[i].push_back(std::move(record));
          run_refs[i].push_back(KeyRef{inputs[i]->id, offset, length});
        });
    if (!parsed.ok()) {
      // Corrupted underneath us (external poke). Leave the store alone;
      // point reads surface kDataLoss per record, recovery handles rest.
      co_return parsed;
    }
  }

  // Newest run wins per key. A put survives only if the keydir still
  // points at it, so dead records are dropped instead of rewritten; a
  // tombstone that reaches here is kept (drop_tombstones is off). The
  // keydir holds committed state only, so a record shadowed by a mutation
  // still in its group commit survives. Outputs take the oldest input's
  // rank, so recovery replays them in the inputs' position.
  SegmentWrite write;
  write.rank = inputs.front()->rank;
  std::vector<std::pair<std::string, KeyRef>> kept;  // key, input record
  mvseg::MergeSortedRuns(
      std::move(runs), drop_tombstones,
      [&](mvlog::Record record, mvseg::MergeSource from) {
        const KeyRef& source = run_refs[from.run][from.index];
        if (record.type != mvlog::RecordType::kRemove) {
          auto kit = keydir_.find(record.key);
          if (kit == keydir_.end() || kit->second != source) {
            return;  // dead: overwritten or removed since it was flushed
          }
        }
        AddToSegments(write, record);
        kept.emplace_back(std::move(record.key), source);
      });
  Status written = co_await WriteSegments(&write, alive, epoch);
  if (!*alive || epoch_ != epoch) {
    co_return AbortedErrorForReset();
  }
  ROS_CO_RETURN_IF_ERROR(written);

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
  RegisterSegments(write);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    auto kit = keydir_.find(kept[i].first);
    if (kit != keydir_.end() && kit->second == kept[i].second) {
      Relink(kit->second, write.refs[i]);
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
  StoreStats stats = counters_;
  stats.wal = log_.stats();
  stats.memtable_entries = active_.size() + imm_.size();
  stats.memtable_bytes = memtable_bytes_ + imm_bytes_;
  stats.segment_count = segments_.size();
  for (const SegmentPtr& seg : segments_) {
    stats.segment_records_total += seg->records_total;
    stats.segment_records_live += seg->records_live;
    stats.segment_bytes += seg->bytes;
  }
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
