// Store-level tests for the log-structured MetadataVolume (DESIGN.md §5i):
// observers against a reference model, memtable flush + compaction, crash
// recovery (incl. mid-group-commit device loss and torn WAL tails),
// store-to-store snapshots, cache coherence under group commit,
// double-run determinism, and a crash-point sweep that fails every device
// op of a flushing and compacting workload in turn.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/disk/block_device.h"
#include "src/disk/raid.h"
#include "src/olfs/metadata_volume.h"
#include "src/olfs/mv_log.h"
#include "src/sim/fault.h"
#include "src/sim/join.h"
#include "src/sim/simulator.h"

namespace ros::olfs {
namespace {

std::string PathOf(int i) {
  return "/d" + std::to_string(i % 4) + "/f" + std::to_string(i);
}

IndexFile FileIndex(const std::string& path, std::uint64_t size) {
  IndexFile index(path, EntryType::kFile);
  VersionEntry entry;
  entry.total_size = size;
  entry.parts.push_back({"img-000000", size});
  index.AddVersion(std::move(entry), 15);
  return index;
}

// --- driver coroutines (free functions: params by value, no captures) ---

sim::Task<Status> PutOne(MetadataVolume* mv, int i, std::uint64_t size) {
  IndexFile index = FileIndex(PathOf(i), size);
  co_return co_await mv->Put(std::move(index));
}

sim::Task<Status> PutRange(MetadataVolume* mv, int first, int count,
                           std::uint64_t size) {
  for (int i = first; i < first + count; ++i) {
    Status status = co_await PutOne(mv, i, size);
    if (!status.ok()) {
      co_return status;
    }
  }
  co_return OkStatus();
}

// Records the per-put ack (AllOk would only surface the first error; the
// crash tests need to know exactly which mutations were acknowledged).
sim::Task<Status> PutRecording(MetadataVolume* mv, int i,
                               std::vector<std::pair<int, bool>>* acks) {
  Status status = co_await PutOne(mv, i, 64);
  acks->push_back({i, status.ok()});
  co_return OkStatus();
}

sim::Task<Status> PutBurstRecording(sim::Simulator* sim, MetadataVolume* mv,
                                    int first, int count,
                                    std::vector<std::pair<int, bool>>* acks) {
  std::vector<sim::Task<Status>> puts;
  for (int i = first; i < first + count; ++i) {
    puts.push_back(PutRecording(mv, i, acks));
  }
  co_return co_await sim::AllOk(*sim, std::move(puts));
}

class MvStoreTest : public ::testing::Test {
 protected:
  MvStoreTest()
      : device_(sim_, "ssd", 256 * kMiB, disk::SsdPerf()),
        volume_(sim_, &device_, disk::MetadataVolumeParams()) {}

  static MetadataVolume::Options LsOptions() {
    MetadataVolume::Options options;
    options.cache_capacity = 16;
    return options;
  }

  // Small enough that a few dozen ~300-byte entries roll the memtable.
  static MetadataVolume::Options TinyFlushOptions() {
    MetadataVolume::Options options = LsOptions();
    options.memtable_flush_bytes = 2 * kKiB;
    options.compact_min_segments = 2;
    options.compact_fan_in = 2;
    return options;
  }

  void Attach(MetadataVolume::Options options) {
    // Destroy first — this is the crash model: the process dies, a new one
    // opens the volume.
    mv_.reset();
    mv_ = std::make_unique<MetadataVolume>(sim_, &volume_, std::move(options));
  }

  // Runs the simulated clock forward so detached background work (memtable
  // flushes, compaction rounds) finishes.
  void DrainBackground() { sim_.RunFor(sim::Seconds(10)); }

  std::vector<std::uint8_t> ReadRaw(const std::string& name) {
    auto bytes = sim_.RunUntilComplete(volume_.ReadAll(name));
    EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
    return bytes.ok() ? *bytes : std::vector<std::uint8_t>{};
  }

  std::string GetJson(MetadataVolume* mv, const std::string& path) {
    auto index = sim_.RunUntilComplete(mv->Get(path));
    EXPECT_TRUE(index.ok()) << path << ": " << index.status().ToString();
    return index.ok() ? index->ToJson() : std::string();
  }

  sim::Simulator sim_;
  disk::StorageDevice device_;
  disk::Volume volume_;
  std::unique_ptr<MetadataVolume> mv_;
};

// Reference listing of `dir` over the live paths: the leaf names of its
// direct child entries (what ListChildren returns), and whether any entry
// at all lies below it (what HasChildren answers).
std::pair<std::vector<std::string>, bool> ModelListing(
    const std::map<std::string, int>& live, const std::string& dir) {
  const std::string prefix = dir == "/" ? "/" : dir + "/";
  std::vector<std::string> children;
  bool any = false;
  for (const auto& [path, size] : live) {
    if (path.size() <= prefix.size() ||
        path.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    any = true;
    const std::string rest = path.substr(prefix.size());
    if (rest.find('/') == std::string::npos) {
      children.push_back(rest);
    }
  }
  return {children, any};
}

TEST_F(MvStoreTest, ObserversMatchReferenceModel) {
  // Puts, overwrites and removals against the store and a plain map of
  // live paths; every read-side observer must agree with the map, while
  // entries sit in the memtable and again once flushed into segments.
  Attach(TinyFlushOptions());
  std::map<std::string, int> live;  // path -> size of its latest Put
  ASSERT_TRUE(sim_.RunUntilComplete(PutRange(mv_.get(), 0, 40, 100)).ok());
  for (int i = 0; i < 40; ++i) {
    live[PathOf(i)] = 100;
  }
  ASSERT_TRUE(sim_.RunUntilComplete(PutRange(mv_.get(), 8, 4, 999)).ok());
  for (int i = 8; i < 12; ++i) {
    live[PathOf(i)] = 999;
  }
  for (int i = 20; i < 26; ++i) {
    ASSERT_TRUE(sim_.RunUntilComplete(mv_->Remove(PathOf(i))).ok());
    live.erase(PathOf(i));
  }

  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(pass == 0 ? "fresh" : "after flush");
    std::vector<std::string> paths;
    for (const auto& [path, size] : live) {
      paths.push_back(path);
    }
    EXPECT_EQ(mv_->index_count(), live.size());
    EXPECT_EQ(mv_->AllPaths(), paths);
    for (const char* dir : {"/", "/d0", "/d1", "/d2", "/d3", "/nope"}) {
      const auto [children, any] = ModelListing(live, dir);
      EXPECT_EQ(mv_->ListChildren(dir), children) << dir;
      EXPECT_EQ(mv_->HasChildren(dir), any) << dir;
    }
    for (const auto& [path, size] : live) {
      EXPECT_TRUE(mv_->Exists(path)) << path;
      EXPECT_EQ(GetJson(mv_.get(), path),
                FileIndex(path, static_cast<std::uint64_t>(size)).ToJson())
          << path;
    }
    EXPECT_FALSE(mv_->Exists(PathOf(20)));
    EXPECT_EQ(sim_.RunUntilComplete(mv_->Get(PathOf(20))).status().code(),
              StatusCode::kNotFound);
    DrainBackground();
  }
  EXPECT_GT(mv_->store_stats().memtable_flushes, 0u);
}

TEST_F(MvStoreTest, ConcurrentPutNeverLeavesAStaleDecode) {
  // Regression: a Put that shares its commit window with another key's Put
  // skips its write-through insert; the value it replaced must not stay
  // cached behind it.
  Attach(LsOptions());
  ASSERT_TRUE(sim_.RunUntilComplete(PutOne(mv_.get(), 0, 1)).ok());
  auto warm = sim_.RunUntilComplete(mv_->Get(PathOf(0)));
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  std::vector<sim::Task<Status>> burst;
  burst.push_back(PutOne(mv_.get(), 0, 2));
  burst.push_back(PutOne(mv_.get(), 1, 1));
  ASSERT_TRUE(
      sim_.RunUntilComplete(sim::AllOk(sim_, std::move(burst))).ok());

  auto index = sim_.RunUntilComplete(mv_->Get(PathOf(0)));
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  auto latest = index->Latest();
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ((*latest)->total_size, 2u) << "served the overwritten decode";
}

TEST_F(MvStoreTest, MemtableFlushPublishesSegments) {
  Attach(TinyFlushOptions());
  ASSERT_TRUE(sim_.RunUntilComplete(PutRange(mv_.get(), 0, 60, 100)).ok());
  DrainBackground();

  const MetadataVolume::StoreStats stats = mv_->store_stats();
  EXPECT_GT(stats.memtable_flushes, 0u);
  EXPECT_GT(stats.segment_count, 0u);
  // The flush threshold bounds what stays decoded in RAM.
  EXPECT_LT(stats.memtable_bytes, 2 * 2 * kKiB);

  // Every entry is still readable — most now through a segment point read.
  EXPECT_EQ(mv_->index_count(), 60u);
  for (int i = 0; i < 60; ++i) {
    auto index = sim_.RunUntilComplete(mv_->GetRef(PathOf(i)));
    ASSERT_TRUE(index.ok()) << PathOf(i) << ": " << index.status().ToString();
    EXPECT_EQ((*index)->path(), PathOf(i));
  }
}

TEST_F(MvStoreTest, CompactionDropsDeadRecordsAndKeepsTruth) {
  Attach(TinyFlushOptions());
  // Overwrite a small key set many times: every generation but the last is
  // garbage, which is exactly what compaction exists to drop.
  for (int round = 0; round < 12; ++round) {
    ASSERT_TRUE(sim_.RunUntilComplete(
                    PutRange(mv_.get(), 0, 16, 100 + round))
                    .ok());
    DrainBackground();
  }
  for (int i = 12; i < 16; ++i) {
    ASSERT_TRUE(sim_.RunUntilComplete(mv_->Remove(PathOf(i))).ok());
  }
  DrainBackground();

  const MetadataVolume::StoreStats stats = mv_->store_stats();
  EXPECT_GT(stats.compactions, 0u);
  EXPECT_GT(stats.segments_deleted, 0u);
  EXPECT_EQ(mv_->index_count(), 12u);
  for (int i = 0; i < 12; ++i) {
    auto index = sim_.RunUntilComplete(mv_->Get(PathOf(i)));
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    auto latest = index->Latest();
    ASSERT_TRUE(latest.ok()) << latest.status().ToString();
    EXPECT_EQ((*latest)->total_size, 111u) << PathOf(i);
  }

  // The removals must stay removed across a crash: compaction is not
  // allowed to drop a tombstone that still shadows older segments.
  Attach(TinyFlushOptions());
  ASSERT_TRUE(sim_.RunUntilComplete(mv_->Open()).ok());
  EXPECT_EQ(mv_->index_count(), 12u);
  for (int i = 12; i < 16; ++i) {
    EXPECT_FALSE(mv_->Exists(PathOf(i))) << "resurrected " << PathOf(i);
  }
}

TEST_F(MvStoreTest, RecoveryReplaysSegmentsAndWalTail) {
  Attach(TinyFlushOptions());
  ASSERT_TRUE(sim_.RunUntilComplete(PutRange(mv_.get(), 0, 50, 100)).ok());
  DrainBackground();
  // A few more acked puts that stay WAL-only (no drain: the flush may not
  // have caught them yet — recovery must replay the tail regardless).
  ASSERT_TRUE(sim_.RunUntilComplete(PutRange(mv_.get(), 50, 5, 100)).ok());

  Attach(TinyFlushOptions());
  ASSERT_TRUE(sim_.RunUntilComplete(mv_->Open()).ok());

  EXPECT_EQ(mv_->index_count(), 55u);
  for (int i = 0; i < 55; ++i) {
    EXPECT_TRUE(mv_->Exists(PathOf(i))) << PathOf(i);
  }
  const MetadataVolume::StoreStats stats = mv_->store_stats();
  EXPECT_GT(stats.recovered_segments, 0u);
  EXPECT_EQ(stats.corrupt_segments, 0u);
}

TEST_F(MvStoreTest, DeviceLossMidGroupCommitLosesNoAckedMutation) {
  Attach(LsOptions());
  ASSERT_TRUE(sim_.RunUntilComplete(PutRange(mv_.get(), 0, 10, 100)).ok());

  // Kill the device under a concurrent burst: the in-flight group commit
  // fails, so none of its members may claim durability.
  sim::FaultInjector faults(/*seed=*/11);
  device_.set_fault_injector(&faults);
  faults.FailNth(sim::FaultKind::kHddFailure, "ssd", 1);
  std::vector<std::pair<int, bool>> acks;
  ASSERT_TRUE(sim_.RunUntilComplete(
                  PutBurstRecording(&sim_, mv_.get(), 10, 8, &acks))
                  .ok());
  ASSERT_EQ(acks.size(), 8u);
  std::size_t failed = 0;
  for (const auto& [i, ok] : acks) {
    if (!ok) {
      ++failed;
    }
  }
  EXPECT_GT(failed, 0u) << "fault injector never fired";

  // Power comes back; a fresh store opens the same volume.
  device_.Revive();
  Attach(LsOptions());
  ASSERT_TRUE(sim_.RunUntilComplete(mv_->Open()).ok());

  // The durability contract: every acked put is present; nothing else is
  // promised (a failed put may or may not have reached the platter).
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(mv_->Exists(PathOf(i))) << "lost acked " << PathOf(i);
  }
  for (const auto& [i, ok] : acks) {
    if (ok) {
      EXPECT_TRUE(mv_->Exists(PathOf(i))) << "lost acked " << PathOf(i);
    }
  }
  // And the recovered store still takes writes.
  ASSERT_TRUE(sim_.RunUntilComplete(PutRange(mv_.get(), 100, 3, 1)).ok());
  EXPECT_TRUE(mv_->Exists(PathOf(100)));
}

TEST_F(MvStoreTest, TornWalTailIsTruncatedAway) {
  Attach(LsOptions());
  ASSERT_TRUE(sim_.RunUntilComplete(PutRange(mv_.get(), 0, 20, 100)).ok());
  const std::uint64_t wal_seq = 1;
  mv_.reset();  // crash

  // A torn final sector: half a record's worth of garbage lands after the
  // last committed frame.
  std::vector<std::uint8_t> garbage(9, 0xEE);
  ASSERT_TRUE(sim_.RunUntilComplete(
                  volume_.Append(MvLog::FileName(wal_seq), std::move(garbage)))
                  .ok());

  Attach(LsOptions());
  ASSERT_TRUE(sim_.RunUntilComplete(mv_->Open()).ok());
  EXPECT_EQ(mv_->index_count(), 20u);
  const MetadataVolume::StoreStats stats = mv_->store_stats();
  EXPECT_EQ(stats.torn_tail_bytes, 9u);
  EXPECT_EQ(stats.replayed_wal_records, 20u);

  // The next write must land on a clean tail: crash again and re-open.
  ASSERT_TRUE(sim_.RunUntilComplete(PutRange(mv_.get(), 20, 1, 100)).ok());
  Attach(LsOptions());
  ASSERT_TRUE(sim_.RunUntilComplete(mv_->Open()).ok());
  EXPECT_EQ(mv_->index_count(), 21u);
  EXPECT_TRUE(mv_->Exists(PathOf(20)));
}

TEST_F(MvStoreTest, CorruptSegmentIsSkippedNotFatal) {
  Attach(TinyFlushOptions());
  ASSERT_TRUE(sim_.RunUntilComplete(PutRange(mv_.get(), 0, 60, 100)).ok());
  DrainBackground();
  ASSERT_GT(mv_->store_stats().segment_count, 0u);
  mv_.reset();  // crash

  // Flip one bit in the middle of the first segment file.
  std::vector<std::string> segs = volume_.List("/mvseg.");
  ASSERT_FALSE(segs.empty());
  std::sort(segs.begin(), segs.end());
  std::vector<std::uint8_t> bytes = ReadRaw(segs.front());
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] ^= 0x04;
  ASSERT_TRUE(sim_.RunUntilComplete(
                  volume_.WriteAll(segs.front(), std::move(bytes)))
                  .ok());

  // Recovery survives: the damaged segment is quarantined, everything else
  // replays, and the store stays internally consistent.
  Attach(TinyFlushOptions());
  ASSERT_TRUE(sim_.RunUntilComplete(mv_->Open()).ok());
  const MetadataVolume::StoreStats stats = mv_->store_stats();
  EXPECT_EQ(stats.corrupt_segments, 1u);
  EXPECT_EQ(mv_->index_count(), mv_->AllPaths().size());
  ASSERT_TRUE(sim_.RunUntilComplete(PutRange(mv_.get(), 200, 2, 1)).ok());
  EXPECT_TRUE(mv_->Exists(PathOf(200)));
}

TEST_F(MvStoreTest, SnapshotsRoundTripBetweenStores) {
  // One store writes the snapshot, a second store on its own volume
  // restores it — and the other way around, into a wiped first store.
  disk::StorageDevice device2(sim_, "ssd2", 256 * kMiB, disk::SsdPerf());
  disk::Volume volume2(sim_, &device2, disk::MetadataVolumeParams());
  MetadataVolume other(sim_, &volume2, TinyFlushOptions());
  Attach(LsOptions());

  ASSERT_TRUE(sim_.RunUntilComplete(PutRange(&other, 0, 25, 100)).ok());
  DrainBackground();  // part of the source is segment-backed
  auto image = sim_.RunUntilComplete(
      other.BuildSnapshotImage("img-mv-1", 64 * kMiB));
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  ASSERT_TRUE(sim_.RunUntilComplete(mv_->RestoreFromSnapshot(*image)).ok());
  EXPECT_EQ(mv_->AllPaths(), other.AllPaths());
  EXPECT_EQ(mv_->index_count(), 25u);
  for (const std::string& path : other.AllPaths()) {
    EXPECT_EQ(GetJson(mv_.get(), path), GetJson(&other, path)) << path;
  }

  // Reverse: mutate the restored store, snapshot it, restore into the
  // wiped source (restore replaces matching entries but never deletes —
  // MV-loss recovery starts from a clean volume).
  ASSERT_TRUE(sim_.RunUntilComplete(PutRange(mv_.get(), 25, 10, 7)).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(mv_->Remove(PathOf(0))).ok());
  auto image2 = sim_.RunUntilComplete(
      mv_->BuildSnapshotImage("img-mv-2", 64 * kMiB));
  ASSERT_TRUE(image2.ok()) << image2.status().ToString();
  other.WipeAll();
  ASSERT_TRUE(
      sim_.RunUntilComplete(other.RestoreFromSnapshot(*image2)).ok());
  EXPECT_EQ(other.AllPaths(), mv_->AllPaths());
  for (const std::string& path : mv_->AllPaths()) {
    EXPECT_EQ(GetJson(&other, path), GetJson(mv_.get(), path)) << path;
  }
  DrainBackground();  // `other`'s flushes finish before its volume goes
}

TEST_F(MvStoreTest, StateKeysSurviveRecovery) {
  Attach(LsOptions());
  json::Object cursor;
  cursor["at"] = 7;
  cursor["img"] = "img-0042";
  ASSERT_TRUE(sim_.RunUntilComplete(
                  mv_->PutState("burn/cursor", json::Value(cursor)))
                  .ok());
  const auto before = sim_.RunUntilComplete(mv_->GetState("burn/cursor"));
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  Attach(LsOptions());
  ASSERT_TRUE(sim_.RunUntilComplete(mv_->Open()).ok());
  const auto after = sim_.RunUntilComplete(mv_->GetState("burn/cursor"));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->Dump(), before->Dump());
  // State keys live in the "s/" domain: they never count as namespace
  // entries.
  EXPECT_EQ(mv_->index_count(), 0u);
}

TEST_F(MvStoreTest, WipeAllEmptiesTheStoreDurably) {
  Attach(TinyFlushOptions());
  ASSERT_TRUE(sim_.RunUntilComplete(PutRange(mv_.get(), 0, 40, 100)).ok());
  DrainBackground();
  mv_->WipeAll();
  EXPECT_EQ(mv_->index_count(), 0u);
  EXPECT_TRUE(mv_->AllPaths().empty());

  // The wipe must hold across recovery, and the store must accept new
  // writes on the clean slate.
  ASSERT_TRUE(sim_.RunUntilComplete(PutRange(mv_.get(), 300, 2, 5)).ok());
  Attach(TinyFlushOptions());
  ASSERT_TRUE(sim_.RunUntilComplete(mv_->Open()).ok());
  EXPECT_EQ(mv_->index_count(), 2u);
  EXPECT_TRUE(mv_->Exists(PathOf(300)));
  EXPECT_FALSE(mv_->Exists(PathOf(0)));
}

TEST_F(MvStoreTest, IndexCountTracksAllPathsThroughChurn) {
  Attach(TinyFlushOptions());
  for (int round = 0; round < 6; ++round) {
    ASSERT_TRUE(sim_.RunUntilComplete(
                    PutRange(mv_.get(), round * 10, 15, 100))
                    .ok());
    ASSERT_TRUE(
        sim_.RunUntilComplete(mv_->Remove(PathOf(round * 10 + 3))).ok());
    DrainBackground();
    EXPECT_EQ(mv_->index_count(), mv_->AllPaths().size()) << round;
  }
}

// --- double-run determinism --------------------------------------------

struct WorldResult {
  sim::TimePoint now = 0;
  std::vector<std::string> paths;
  std::uint64_t batches = 0;
  std::uint64_t flushes = 0;
  std::uint64_t compactions = 0;
};

sim::Task<Status> DriveSeededWorkload(sim::Simulator* sim,
                                      MetadataVolume* mv) {
  for (int round = 0; round < 8; ++round) {
    std::vector<sim::Task<Status>> burst;
    for (int i = 0; i < 12; ++i) {
      // Overwrites (i % 30) collide across rounds, creating garbage for
      // the compactor; sizes vary so record lengths differ.
      burst.push_back(PutOne(mv, (round * 12 + i) % 30,
                             100 + static_cast<std::uint64_t>(round)));
    }
    Status status = co_await sim::AllOk(*sim, std::move(burst));
    if (!status.ok()) {
      co_return status;
    }
    Status removed = co_await mv->Remove(PathOf(round));
    if (!removed.ok()) {
      co_return removed;
    }
  }
  co_return OkStatus();
}

WorldResult RunSeededWorld() {
  sim::Simulator sim;
  disk::StorageDevice device(sim, "ssd", 256 * kMiB, disk::SsdPerf());
  disk::Volume volume(sim, &device, disk::MetadataVolumeParams());
  MetadataVolume::Options options;
  options.cache_capacity = 16;
  options.memtable_flush_bytes = 2 * kKiB;
  options.compact_min_segments = 2;
  options.compact_fan_in = 2;
  MetadataVolume mv(sim, &volume, options);

  WorldResult result;
  Status status = sim.RunUntilComplete(DriveSeededWorkload(&sim, &mv));
  EXPECT_TRUE(status.ok()) << status.ToString();
  sim.RunFor(sim::Seconds(10));  // drain flush + compaction
  result.now = sim.now();
  result.paths = mv.AllPaths();
  const MetadataVolume::StoreStats stats = mv.store_stats();
  result.batches = stats.wal.batches_committed;
  result.flushes = stats.memtable_flushes;
  result.compactions = stats.compactions;
  return result;
}

TEST(MvStoreDeterminism, DoubleRunConverges) {
  // The whole store — group commit, background flush, compaction — must
  // be a pure function of the (simulated) schedule: two runs of the same
  // workload end at the same simulated instant with identical state and
  // identical background activity.
  const WorldResult a = RunSeededWorld();
  const WorldResult b = RunSeededWorld();
  EXPECT_EQ(a.now, b.now);
  EXPECT_EQ(a.paths, b.paths);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.flushes, b.flushes);
  EXPECT_EQ(a.compactions, b.compactions);
  EXPECT_GT(a.flushes, 0u);
}

// --- crash-point sweeps --------------------------------------------------

// One mutation a sweep key went through: the size it Put, or kRemoved.
struct KeyOp {
  std::int64_t state = 0;
  bool acked = false;
};
constexpr std::int64_t kRemoved = -1;

struct CrashRun {
  std::uint64_t device_ops = 0;  // ops the workload issued to ssd0
  std::uint64_t flushes = 0;
  std::uint64_t compactions = 0;
  std::vector<std::string> violations;
};

// On a single SSD the faulted op kills the SSD until power comes back.
// On a RAID-1 pair it kills one member: the batch it belonged to fails
// while later batches land on the survivor. Sequential issue waits for each
// mutation; concurrent issue starts every key's mutation of a phase at
// once, staggered over several group commits, so writes are in flight
// while flush and compaction run.
struct SweepLayout {
  bool raid1 = false;
  bool concurrent = false;
};

// One staggered mutation of a concurrent phase: a Put of `state`, or a
// Remove for kRemoved.
sim::Task<Status> StaggeredMutation(sim::Simulator* sim, MetadataVolume* mv,
                                    int i, std::int64_t state,
                                    sim::Duration delay, KeyOp* op) {
  co_await sim->Delay(delay);
  Status status = OkStatus();
  if (state == kRemoved) {
    status = co_await mv->Remove(PathOf(i));
  } else {
    status = co_await PutOne(mv, i, static_cast<std::uint64_t>(state));
  }
  *op = KeyOp{state, status.ok()};
  co_return OkStatus();
}

// Issues every (key, state) mutation of one phase and records its ack.
void RunPhase(sim::Simulator& sim, MetadataVolume* mv, SweepLayout layout,
              const std::vector<std::pair<int, std::int64_t>>& phase,
              std::map<int, std::vector<KeyOp>>* history) {
  if (!layout.concurrent) {
    for (const auto& [i, state] : phase) {
      Status status =
          state == kRemoved
              ? sim.RunUntilComplete(mv->Remove(PathOf(i)))
              : sim.RunUntilComplete(
                    PutOne(mv, i, static_cast<std::uint64_t>(state)));
      (*history)[i].push_back({state, status.ok()});
    }
    return;
  }
  std::vector<KeyOp> ops(phase.size());
  std::vector<sim::Task<Status>> tasks;
  for (std::size_t j = 0; j < phase.size(); ++j) {
    tasks.push_back(StaggeredMutation(&sim, mv, phase[j].first,
                                      phase[j].second,
                                      sim::Micros(40 * j), &ops[j]));
  }
  EXPECT_TRUE(sim.RunUntilComplete(sim::AllOk(sim, std::move(tasks))).ok());
  for (std::size_t j = 0; j < phase.size(); ++j) {
    (*history)[phase[j].first].push_back(ops[j]);
  }
}

// Every key must read back its last acked state, or the state of an
// unacked mutation issued after that ack. With `exact`, as in the store
// that saw every mutation resolve, a failed mutation must have left no
// trace: only the last acked state will do.
void CheckAckedStates(sim::Simulator& sim, MetadataVolume* mv,
                      const std::map<int, std::vector<KeyOp>>& history,
                      bool exact, std::vector<std::string>* violations) {
  for (const auto& [i, ops] : history) {
    std::set<std::int64_t> allowed;
    std::size_t from = 0;
    for (std::size_t j = 0; j < ops.size(); ++j) {
      if (ops[j].acked) {
        from = j;
      }
    }
    allowed.insert(ops[from].acked ? ops[from].state
                                   : kRemoved);  // never acked: absent
    for (std::size_t j = from; !exact && j < ops.size(); ++j) {
      allowed.insert(ops[j].state);
    }
    std::int64_t got = kRemoved;
    auto index = sim.RunUntilComplete(mv->Get(PathOf(i)));
    if (index.ok()) {
      auto latest = index->Latest();
      got = latest.ok() ? static_cast<std::int64_t>((*latest)->total_size)
                        : -2;
    } else if (index.status().code() != StatusCode::kNotFound) {
      got = -2;
    }
    if (allowed.count(got) == 0) {
      std::string want;
      for (const std::int64_t state : allowed) {
        want += " " + std::to_string(state);
      }
      violations->push_back(PathOf(i) + " reads " + std::to_string(got) +
                            ", allowed {" + want + " }");
    }
  }
}

// 16 keys over 12 rounds; every 4th round then removes every 3rd key.
// With `fail_at` > 0 the `fail_at`-th op (1-based) on ssd0 kills it; the
// workload keeps issuing mutations. On RAID-1 the store that ran them
// can still read, and must show exactly the acked states. Then the
// process dies: a fresh store opens the volume (after power comes back,
// for the single SSD; on the surviving member, for RAID-1) and every key
// is checked.
CrashRun RunCrashPoint(std::uint64_t fail_at, SweepLayout layout) {
  constexpr int kKeys = 16;
  constexpr int kRounds = 12;
  const bool raid = layout.raid1;
  sim::Simulator sim;
  disk::StorageDevice ssd0(sim, "ssd0", 256 * kMiB, disk::SsdPerf());
  disk::StorageDevice ssd1(sim, "ssd1", 256 * kMiB, disk::SsdPerf());
  disk::RaidVolume pair(sim, disk::RaidLevel::kRaid1,
                        std::vector<disk::StorageDevice*>{&ssd0, &ssd1});
  // Write-through: a member that dies under a write fails that write, as
  // the controller cache would otherwise hide it until destage.
  pair.set_write_cache(false);
  disk::Volume volume(sim, raid ? static_cast<disk::BlockDevice*>(&pair)
                                : &ssd0,
                      disk::MetadataVolumeParams());
  sim::FaultInjector faults(/*seed=*/1);
  if (fail_at > 0) {
    faults.FailNth(sim::FaultKind::kHddFailure, "ssd0", fail_at);
  }
  ssd0.set_fault_injector(&faults);
  MetadataVolume::Options options;
  options.cache_capacity = 16;
  options.memtable_flush_bytes = 2 * kKiB;
  options.compact_min_segments = 2;
  options.compact_fan_in = 2;
  auto mv = std::make_unique<MetadataVolume>(sim, &volume, options);

  std::map<int, std::vector<KeyOp>> history;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::pair<int, std::int64_t>> puts;
    for (int i = 0; i < kKeys; ++i) {
      puts.emplace_back(i, 100 + round);
    }
    RunPhase(sim, mv.get(), layout, puts, &history);
    if (round % 4 == 3) {
      std::vector<std::pair<int, std::int64_t>> removes;
      for (int i = 0; i < kKeys; i += 3) {
        removes.emplace_back(i, kRemoved);
      }
      RunPhase(sim, mv.get(), layout, removes, &history);
    }
    sim.RunFor(sim::Seconds(10));  // drain flush + compaction
  }
  CrashRun run;
  run.device_ops = faults.ops_seen(sim::FaultKind::kHddFailure);
  run.flushes = mv->store_stats().memtable_flushes;
  run.compactions = mv->store_stats().compactions;
  if (raid) {
    std::vector<std::string> live;
    CheckAckedStates(sim, mv.get(), history, /*exact=*/true, &live);
    for (const std::string& violation : live) {
      run.violations.push_back("before the crash: " + violation);
    }
  }

  ssd0.set_fault_injector(nullptr);
  if (!raid) {
    ssd0.Revive();  // a RAID-1 member that died holds stale data
  }
  mv = std::make_unique<MetadataVolume>(sim, &volume, options);
  Status opened = sim.RunUntilComplete(mv->Open());
  if (!opened.ok()) {
    run.violations.push_back("open failed: " + opened.ToString());
    return run;
  }
  CheckAckedStates(sim, mv.get(), history, /*exact=*/false, &run.violations);
  sim.RunFor(sim::Seconds(10));  // the recovered store's background work
  return run;
}

void SweepEveryDeviceOp(SweepLayout layout, std::uint64_t min_ops) {
  const CrashRun clean = RunCrashPoint(0, layout);
  ASSERT_TRUE(clean.violations.empty()) << clean.violations.front();
  ASSERT_GT(clean.flushes, 0u);
  ASSERT_GT(clean.compactions, 0u);
  ASSERT_GT(clean.device_ops, min_ops);
  std::vector<std::string> failures;
  for (std::uint64_t n = 1; n <= clean.device_ops; ++n) {
    const CrashRun run = RunCrashPoint(n, layout);
    for (const std::string& violation : run.violations) {
      failures.push_back("fail at op " + std::to_string(n) + ": " +
                         violation);
    }
  }
  std::string report;
  for (const std::string& failure : failures) {
    report += failure + "\n";
  }
  EXPECT_TRUE(failures.empty()) << failures.size() << " violations over "
                                << clean.device_ops << " crash points:\n"
                                << report;
}

TEST(MvStoreCrashSweep, EveryDeviceFaultPointKeepsAckedWrites) {
  SweepEveryDeviceOp({.raid1 = false, .concurrent = false}, /*min_ops=*/100);
}

TEST(MvStoreCrashSweep, ConcurrentWritersKeepAckedWrites) {
  SweepEveryDeviceOp({.raid1 = false, .concurrent = true}, /*min_ops=*/50);
}

TEST(MvStoreCrashSweep, ConcurrentWritersOnRaid1KeepAckedWrites) {
  SweepEveryDeviceOp({.raid1 = true, .concurrent = true}, /*min_ops=*/50);
}

}  // namespace
}  // namespace ros::olfs
