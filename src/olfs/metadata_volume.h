// The Metadata Volume (MV), §4.2.
//
// MV maintains the updatable map between millions of global-namespace
// entries and thousands of discs. It lives on a small, fast ext4-style
// volume (a pair of SSDs in RAID-1 with 1 KiB blocks and 128-byte inodes)
// and stores the namespace index plus system running state. Metadata and
// data storage are physically decoupled: nothing here holds file payloads
// (except the optional forepart).
//
// The store is log-structured (DESIGN.md §5i): mutations append framed
// records — each index record holds the paper's IndexFile JSON — to a WAL
// with group commit: concurrent writers coalesce into one batched volume
// append per flush window, each caller awaiting the batch's durability
// barrier. Reads come from an ordered in-memory memtable over immutable
// sorted segment files; a background compactor (simulated time, fully
// deterministic) merges segments and drops dead records. Crash recovery
// replays segments in file-name order and then the WAL tail; per-record
// CRCs detect a torn tail, which is truncated away — acked mutations
// always survive, unacked ones vanish cleanly.
//
// Hot reads are served from a bounded write-through LRU cache of *decoded*
// IndexFile objects shared as immutable `IndexPtr`s (DESIGN.md §5d). The
// cache removes host-side JSON decode work only: memtable-resident entries
// charge nothing either way (they are RAM on both paths), and a hit on a
// segment-backed entry replays the record's segment read, so simulated
// timings are identical with the cache on or off.
//
// A mutation is visible to readers from the moment it is issued, but it
// reaches the memtable and keydir only once its WAL batch has landed, in
// log order. Until then it waits in a small staging map that reads and the
// synchronous accessors consult first. Flush and compaction therefore see
// only committed records: a failed commit simply drops the staged entry
// and returns the error, and an acked record is never reclaimed while the
// mutation that shadows it could still fail.
//
// Coherence is owned by the store: every mutation (Put, Remove, restore)
// drops the key's cached decode when it is staged, and again if its commit
// fails; flush and compaction drop the decodes whose read charge they
// move; and write-through inserts are pinned to the store's mutation
// generation, so a writer never publishes a decode that another mutation
// overtook during its commit wait. Writes that bypass the store (raw
// volume pokes) are not tracked.
#ifndef ROS_SRC_OLFS_METADATA_VOLUME_H_
#define ROS_SRC_OLFS_METADATA_VOLUME_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/json.h"
#include "src/common/status.h"
#include "src/disk/volume.h"
#include "src/olfs/index_file.h"
#include "src/olfs/mv_log.h"
#include "src/olfs/mv_segment.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/udf/image.h"

namespace ros::olfs {

class MetadataVolume {
 public:
  // Default bound: ~64k decoded entries. At the paper's ~388 bytes per
  // index file this is a few tens of MB of RAM fronting a billion-entry
  // namespace's hot set. `cache_capacity = 0` disables the cache entirely
  // (differential tests and the mv_hotpath baseline use this).
  static constexpr std::size_t kDefaultCacheCapacity = 64 * 1024;

  // Segment outputs are split at this size.
  static constexpr std::uint64_t kMaxSegmentBytes = 64 * kMiB;
  // Compact when more than this fraction of segment records are dead.
  static constexpr double kCompactGarbageRatio = 0.5;

  struct Options {
    std::size_t cache_capacity = kDefaultCacheCapacity;
    // Freeze + flush the active memtable once its serialized size reaches
    // this. Bounds resident bytes: at most ~2 windows of mutations (active
    // + one immutable generation) stay decoded in RAM.
    std::uint64_t memtable_flush_bytes = 8 * kMiB;
    // Compact when the store holds more than this many segments, merging
    // this many oldest segments per round.
    std::size_t compact_min_segments = 8;
    std::size_t compact_fan_in = 4;
  };

  // The simulator powers the WAL flusher and the compactor.
  MetadataVolume(sim::Simulator& sim, disk::Volume* volume, Options options);

  ~MetadataVolume();

  // Background tasks hold `this` until the alive flag drops.
  MetadataVolume(const MetadataVolume&) = delete;
  MetadataVolume& operator=(const MetadataVolume&) = delete;

  // Recovery entry point: replays segments + WAL from the volume. Implicit
  // on the first async operation against a dirty volume; callers that want
  // recovery timing (or its error) call it directly. Synchronous accessors
  // (Exists, index_count, ListChildren, ...) on a not-yet-opened store
  // report an empty namespace. No-op when already open.
  sim::Task<Status> Open();

  // --- index files ---

  bool Exists(const std::string& path) const;

  sim::Task<Status> Put(IndexFile index);

  // Hot read path: the decoded index as an immutable shared object. A
  // cache hit hands back the cached object itself (a refcount bump, no
  // deep copy); a miss decodes, publishes to the cache, and returns the
  // shared decode. Readers that never modify the index (stat, read,
  // forepart) should use this.
  using IndexPtr = std::shared_ptr<const IndexFile>;
  sim::Task<StatusOr<IndexPtr>> GetRef(std::string path) const;

  // Mutable copy for callers about to modify and Put back.
  sim::Task<StatusOr<IndexFile>> Get(std::string path) const;

  sim::Task<Status> Remove(std::string path);

  // Direct children (leaf names) of a directory in the global namespace.
  // Range-bounded: skips whole subtrees instead of filtering every
  // descendant.
  std::vector<std::string> ListChildren(const std::string& path) const;

  // True when the directory has at least one entry below it (O(log n);
  // cheaper than ListChildren when only emptiness matters).
  bool HasChildren(const std::string& path) const;

  // All namespace paths (for snapshots and consistency checks).
  std::vector<std::string> AllPaths() const;

  // --- system running state (also JSON, §4.2) ---

  sim::Task<Status> PutState(std::string key, json::Value v);
  sim::Task<StatusOr<json::Value>> GetState(std::string key) const;

  // --- durability (§4.2: MV is periodically burned into discs) ---

  // Packs every index file into a self-describing UDF image (under
  // /.mv/...) that the burn pipeline writes to discs like any other image.
  sim::Task<StatusOr<udf::Image>> BuildSnapshotImage(
      std::string image_id, std::uint64_t capacity) const;

  // Restores the namespace from a snapshot image (inverse of the above).
  // Existing index files are replaced. Entries commit in windows of one
  // group commit each; a failed window does not abort the restore, which
  // reports the first error (annotated with how many more windows failed).
  sim::Task<Status> RestoreFromSnapshot(const udf::Image& snapshot);

  // Wipes the namespace (simulating MV loss before a recovery). Requires
  // quiescence: no MV operation may be in flight.
  void WipeAll();

  std::uint64_t index_count() const;
  disk::Volume* volume() { return volume_; }

  // --- decoded-index cache introspection ---

  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;    // any Get not served from cache
    std::uint64_t evictions = 0;  // LRU capacity evictions only
  };
  const CacheStats& cache_stats() const { return cache_stats_; }
  std::size_t cache_size() const { return cache_map_.size(); }
  std::size_t cache_capacity() const { return options_.cache_capacity; }

  // --- store introspection ---

  struct StoreStats {
    MvLog::Stats wal;
    std::uint64_t memtable_entries = 0;
    std::uint64_t memtable_bytes = 0;  // serialized size, active + immutable
    std::uint64_t segment_count = 0;
    std::uint64_t segment_records_total = 0;
    std::uint64_t segment_records_live = 0;
    std::uint64_t segment_bytes = 0;
    std::uint64_t memtable_flushes = 0;
    std::uint64_t compactions = 0;
    std::uint64_t segments_deleted = 0;  // compacted away
    // Recovery telemetry (cumulative across opens of this object).
    std::uint64_t recovered_segments = 0;
    std::uint64_t corrupt_segments = 0;  // damaged ones skipped/truncated
    std::uint64_t replayed_wal_records = 0;
    std::uint64_t torn_tail_bytes = 0;   // discarded by replay
  };
  StoreStats store_stats() const;

  static constexpr std::string_view kSnapshotDir = "/.mv";

  // Key-space mapping (exposed for tests). Namespace paths all start with
  // '/', so index keys share the "i/" prefix and state keys the disjoint
  // "s/" prefix, keeping both in one ordered keydir.
  static std::string IndexKey(const std::string& path) { return "i" + path; }
  static std::string StateKey(const std::string& key) { return "s/" + key; }

 private:
  // Where the newest version of a live key lives.
  struct KeyRef {
    std::uint64_t seg_id = 0;  // 0 = memtable tier
    std::uint64_t offset = 0;  // record frame within the segment file
    std::uint32_t length = 0;

    friend bool operator==(const KeyRef&, const KeyRef&) = default;
  };

  struct CacheEntry {
    std::string path;
    IndexPtr index;  // immutable; hits share it, eviction can't invalidate
    // The record the decode came from: hits on a segment-backed entry
    // replay its read charge. Entries of a segment are dropped wholesale
    // when that segment is flushed over (seg_id 0) or compacted away.
    KeyRef ref;
  };
  using LruList = std::list<CacheEntry>;

  // --- store state (DESIGN.md §5i) ---

  struct MemEntry {
    std::string value;
    bool tombstone = false;
  };
  using Memtable = std::map<std::string, MemEntry>;

  // A key's newest mutation not yet resolved by its WAL batch, and how
  // many of the key's mutations are still in flight.
  struct Staged : MemEntry {
    std::uint32_t inflight = 0;
    std::uint64_t seq = 0;  // WAL sequence the newest mutation went to
  };

  struct SegmentInfo {
    std::uint64_t rank = 0;
    std::uint64_t id = 0;
    std::string file;
    std::uint64_t records_total = 0;
    std::uint64_t records_live = 0;  // still referenced by the keydir
    std::uint64_t bytes = 0;
    std::uint64_t pins = 0;  // point reads in flight against the file
    bool retired = false;    // unlinked from the keydir, awaiting delete
  };
  using SegmentPtr = std::shared_ptr<SegmentInfo>;

  // A flush or compaction output being serialized: `files` in id order,
  // all of one rank, the file still being filled, and where each input
  // record landed, in input order.
  struct SegmentFile {
    std::uint64_t id = 0;
    std::string name;
    std::vector<std::uint8_t> bytes;  // moved out by the write
    std::uint64_t byte_size = 0;
    std::uint64_t records = 0;
  };
  struct SegmentWrite {
    std::uint64_t rank = 0;
    std::vector<SegmentFile> files;
    std::vector<KeyRef> refs;
    std::optional<mvseg::SegmentBuilder> open;
    std::uint64_t open_id = 0;
  };

  // Decodes nothing itself: callers hand over the decoded index and the
  // record it was decoded from.
  void CacheInsert(const std::string& path, IndexPtr index, KeyRef ref) const;
  void CacheErase(std::string_view path) const;
  void CacheClear() const;
  // Drops every entry whose record lives in `seg_id` (their replay charge
  // is about to stop matching a fresh miss).
  void CacheEraseBySegment(std::uint64_t seg_id) const;

  // Memtable lookup, newest tier first: staged, active, then immutable.
  const MemEntry* FindMem(const std::string& key) const;

  // Applies one committed mutation to `tier` (active_ or imm_) + keydir +
  // live counters. Host-atomic (no suspension). Does NOT touch the WAL:
  // callers apply what already landed (the commit hook) or replay it.
  void MemtableApply(Memtable& tier, const std::string& key,
                     std::string value, bool tombstone) const;
  // MvLog's commit hook: a landed record joins the generation its WAL
  // file belongs to — the frozen one while a flush is writing it out.
  void OnCommit(mvlog::Record record, std::uint64_t seq) const;
  // Points `key` at `ref`, or unlinks it for a tombstone, keeping the
  // index count and the live count of the segment it left in step.
  void KeydirApply(const std::string& key, KeyRef ref, bool tombstone) const;
  // Detaches a key's previous location (segment live-count bookkeeping).
  void DecLiveRef(const KeyRef& ref) const;
  // Moves a keydir slot to a record of a just-registered segment.
  void Relink(KeyRef& slot, const KeyRef& ref) const;

  // Serialized size of one memtable entry, for the flush threshold.
  static std::uint64_t EntryBytes(const std::string& key,
                                  const std::string& value) {
    return mvlog::kRecordHeaderBytes + key.size() + value.size();
  }
  // The active generation's size as readers see it: the committed bytes,
  // with each key staged since the last freeze counted at its staged size
  // (it lands in this generation). Zero when the generation is empty.
  std::uint64_t ActiveBytes() const;

  // Recovery: single-flight replay of segments + WAL into a clean store.
  sim::Task<Status> EnsureOpen() const;
  sim::Task<Status> Recover() const;
  void ResetState() const;

  // Makes a mutation visible before it commits: bumps the store
  // generation, drops the key's cached decode and stages the value.
  // Returns the record to commit; it carries a copy of the value sized to
  // fit, which is what the memtable keeps once the record lands.
  mvlog::Record Stage(mvlog::RecordType type, const std::string& key,
                      std::string value) const;
  // Appends a staged mutation's record to the WAL and awaits its batch.
  // When the key's last in-flight mutation resolves, the staged entry
  // goes; if that commit failed, readers fall back to the committed state.
  sim::Task<Status> CommitStaged(mvlog::Record record);
  // Visibility of a key to readers: staged first, then the keydir.
  bool Visible(const std::string& key) const;
  // The smallest key >= `from` that readers can see, or nullptr.
  const std::string* FirstVisibleFrom(const std::string& from) const;

  // Full point read of a key's raw value bytes (memtable, then segment).
  // Does not consult or fill the decoded-index cache. `ref_out`, when
  // set, receives the record the value was read from.
  sim::Task<StatusOr<std::string>> ReadValue(std::string key,
                                             KeyRef* ref_out) const;
  // A point read in flight keeps the compactor from deleting the file.
  void Unpin(SegmentInfo& seg) const;

  // Background memtable flush + segment compaction. Detached coroutines:
  // they re-check `alive` after every suspension (the MV can be destroyed
  // under them on re-attach) and `epoch_` (WipeAll invalidates the world).
  void MaybeScheduleFlush() const;
  void MaybeScheduleCompaction() const;
  // Runs one flush or compaction, then schedules whatever is due next.
  sim::Task<void> BackgroundTask(bool compact,
                                 std::shared_ptr<const bool> alive) const;
  sim::Task<Status> FlushOnce(std::shared_ptr<const bool> alive) const;
  sim::Task<Status> CompactOnce(std::shared_ptr<const bool> alive) const;
  bool CompactionNeeded() const;
  // Full-size and fully live: re-merging it cannot shrink anything.
  static bool SealedSegment(const SegmentInfo& seg);

  // The one segment writer behind flush and compaction. Serializes
  // key-ordered records into files of the write's rank, split at
  // kMaxSegmentBytes, each with a fresh id.
  void AddToSegments(SegmentWrite& write, const mvlog::Record& record) const;
  // Closes the file being filled, if any.
  static void SealSegment(SegmentWrite& write);
  // Seals the last file, then creates and writes every file in order. On
  // failure deletes the files it created and returns the error; the
  // inputs stay authoritative.
  sim::Task<Status> WriteSegments(SegmentWrite* write,
                                  std::shared_ptr<const bool> alive,
                                  std::uint64_t epoch) const;
  // Links written files into the segment table in (rank, id) order. The
  // keydir is the caller's: it relinks the records that are still live.
  void RegisterSegments(const SegmentWrite& write) const;

  sim::Simulator& sim_;
  disk::Volume* volume_;
  Options options_;
  // The cache is a performance detail of logically-const Gets. The map is
  // keyed on each entry's own path string (list nodes are stable), so
  // lookups and invalidations never build a key.
  mutable LruList lru_;  // front = most recently used
  // ros_analyze: allow(unordered-member): point lookups by path only;
  // eviction order comes from lru_, never from this map.
  mutable std::unordered_map<std::string_view, LruList::iterator> cache_map_;
  mutable CacheStats cache_stats_;

  // Mutable: logically-const reads pin segments, open the store, and
  // publish cache state; the public API's constness is the contract.
  mutable MvLog log_;
  // Set false in the destructor; detached background tasks that wake later
  // see it and return without touching the dead store.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  mutable Memtable active_;
  // The frozen generation a flush is writing out; empty when none is.
  mutable Memtable imm_;
  mutable std::uint64_t memtable_bytes_ = 0;  // active_ serialized size
  mutable std::uint64_t imm_bytes_ = 0;
  // Every committed live key, ordered — under the staged mutations, the
  // authority for Exists/listing/counts, and the only one for flush and
  // compaction. Tombstoned keys are absent (the tombstone itself lives in
  // the memtable until flushed).
  mutable std::map<std::string, KeyRef> keydir_;
  // Mutations in flight, visible to readers ahead of the committed state.
  mutable std::map<std::string, Staged> staged_;
  mutable std::uint64_t staged_bytes_ = 0;  // EntryBytes over staged_
  mutable std::vector<SegmentPtr> segments_;  // (rank, id) order, oldest first
  mutable std::map<std::uint64_t, SegmentPtr> segs_by_id_;
  mutable std::uint64_t live_index_count_ = 0;  // keys in the "i" domain
  mutable std::uint64_t next_rank_ = 1;
  mutable std::uint64_t next_seg_id_ = 1;
  mutable std::uint64_t store_gen_ = 0;  // bumps on every visible change
  mutable std::uint64_t epoch_ = 0;      // bumps on WipeAll
  mutable bool opened_ = true;   // false: dirty volume awaiting recovery
  mutable bool opening_ = false;
  mutable sim::Event open_done_;             // pulsed after each attempt
  mutable sim::ConditionVariable pin_cv_;    // pin released
  mutable bool flush_running_ = false;
  mutable bool compact_running_ = false;
  // The counters of store_stats(); the gauges are filled in on demand.
  mutable StoreStats counters_;
  mutable Status last_background_error_;  // first flush/compact failure
};

}  // namespace ros::olfs

#endif  // ROS_SRC_OLFS_METADATA_VOLUME_H_
