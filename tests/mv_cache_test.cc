// Randomized differential test for the MV's decoded-index cache.
//
// Two full MV stacks run the same randomized op sequence: one with a small
// cache (so hits, invalidations, and LRU evictions all exercise), one with
// the cache disabled (capacity 0). Every op's observable outcome — decoded
// JSON, error codes, namespace listings — must be byte-identical, the
// cached side's bookkeeping must respect its bound, and both simulated
// clocks must stay equal (a hit replays exactly what a miss charges). A
// tiny memtable keeps flushes and compactions running underneath, so hits
// land on memtable- and segment-backed entries alike, and concurrent Put
// bursts share one group-commit window. This is the falsification harness
// for the store-owned invalidation: if any mutation path fails to drop a
// cached entry, the cached side eventually serves a stale decode and the
// streams diverge.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/disk/block_device.h"
#include "src/disk/raid.h"
#include "src/olfs/metadata_volume.h"
#include "src/sim/join.h"
#include "src/sim/simulator.h"

namespace ros::olfs {
namespace {

constexpr std::size_t kCacheCapacity = 8;

MetadataVolume::Options StackOptions(std::size_t cache_capacity,
                                     std::uint64_t memtable_flush_bytes) {
  MetadataVolume::Options options;
  options.cache_capacity = cache_capacity;
  options.memtable_flush_bytes = memtable_flush_bytes;
  options.compact_min_segments = 2;
  options.compact_fan_in = 2;
  return options;
}

// An MV on one bare SSD, or with `raid1` on a RAID-1 SSD pair with the
// controller cache on (a rack's MV).
struct Stack {
  explicit Stack(std::size_t cache_capacity,
                 std::uint64_t memtable_flush_bytes = 8 * kMiB,
                 bool raid1 = false)
      : device(sim, "ssd", 64 * kMiB, disk::SsdPerf()),
        mirror(sim, "ssd-mirror", 64 * kMiB, disk::SsdPerf()),
        raid(sim, disk::RaidLevel::kRaid1, {&device, &mirror}),
        volume(sim,
               raid1 ? static_cast<disk::BlockDevice*>(&raid) : &device,
               disk::MetadataVolumeParams()),
        mv(sim, &volume,
           StackOptions(cache_capacity, memtable_flush_bytes)) {}

  sim::Simulator sim;
  disk::StorageDevice device;
  disk::StorageDevice mirror;
  disk::RaidVolume raid;
  disk::Volume volume;
  MetadataVolume mv;
};

IndexFile MakeIndex(const std::string& path, std::uint64_t size) {
  IndexFile index(path, EntryType::kFile);
  VersionEntry entry;
  entry.total_size = size;
  entry.parts.push_back({"img-000042", size});
  index.AddVersion(std::move(entry), 15);
  return index;
}

sim::Task<Status> PutIndex(MetadataVolume* mv, std::string path,
                           std::uint64_t size) {
  co_return co_await mv->Put(MakeIndex(path, size));
}

// One op against one stack; returns a string capturing everything the op
// observed. op/path/size are decided by the caller so both stacks see the
// exact same sequence.
sim::Task<std::string> ApplyOp(sim::Simulator* sim, MetadataVolume* mv,
                               int op, std::vector<std::string> paths,
                               std::uint64_t size) {
  const std::string path = paths.front();
  std::string outcome;
  if (op == 0) {  // Put
    Status status = co_await mv->Put(MakeIndex(path, size));
    outcome = "put:" + std::string(StatusCodeName(status.code()));
  } else if (op == 1) {  // Get via the shared-ref path and the copy path
    auto ref = co_await mv->GetRef(path);
    outcome = "get:";
    if (ref.ok()) {
      outcome += (*ref)->ToJson();
    } else {
      outcome += StatusCodeName(ref.status().code());
    }
    auto copy = co_await mv->Get(path);
    outcome += "|copy:";
    if (copy.ok()) {
      outcome += copy->ToJson();
    } else {
      outcome += StatusCodeName(copy.status().code());
    }
  } else if (op == 2) {  // Remove
    Status status = co_await mv->Remove(path);
    outcome = "rm:" + std::string(StatusCodeName(status.code()));
  } else if (op == 3) {  // concurrent Puts joining one group commit
    std::vector<sim::Task<Status>> burst;
    for (std::size_t i = 0; i < paths.size(); ++i) {
      burst.push_back(PutIndex(mv, paths[i], size + i));
    }
    Status status = co_await sim::AllOk(*sim, std::move(burst));
    outcome = "burst:" + std::string(StatusCodeName(status.code()));
  } else if (op == 4) {  // namespace reads
    outcome = "ls:";
    for (const auto& child : mv->ListChildren("/t")) {
      outcome += child + ",";
    }
    outcome += mv->HasChildren("/t") ? "|has" : "|none";
    outcome += "|n=" + std::to_string(mv->index_count());
  } else {  // snapshot → wipe → restore cycle
    auto snapshot = co_await mv->BuildSnapshotImage("snap", 64 * kMiB);
    outcome = "cycle:";
    if (!snapshot.ok()) {
      outcome += StatusCodeName(snapshot.status().code());
    } else {
      mv->WipeAll();
      Status restored = co_await mv->RestoreFromSnapshot(*snapshot);
      outcome += StatusCodeName(restored.code());
      outcome += "|n=" + std::to_string(mv->index_count());
    }
  }
  co_return outcome;
}

TEST(MvCacheTest, RandomizedOpsMatchCacheDisabledStack) {
  // ~300-byte entries against a 2 KiB memtable: a flush every few Puts.
  constexpr std::uint64_t kTinyMemtable = 2 * kKiB;
  Stack cached(kCacheCapacity, kTinyMemtable);
  Stack plain(0, kTinyMemtable);
  Rng rng(20260807);

  // More paths than cache slots, so the LRU bound and eviction path are
  // continuously exercised, not just the happy hit path.
  std::vector<std::string> paths;
  for (int i = 0; i < 24; ++i) {
    paths.push_back("/t/f" + std::to_string(i));
  }

  auto step_both = [&](int step, int op, std::vector<std::string> op_paths,
                       std::uint64_t size) {
    auto got = cached.sim.RunUntilComplete(
        ApplyOp(&cached.sim, &cached.mv, op, op_paths, size));
    auto want = plain.sim.RunUntilComplete(
        ApplyOp(&plain.sim, &plain.mv, op, op_paths, size));
    ASSERT_EQ(got, want) << "diverged at step " << step << " op " << op
                         << " path " << op_paths.front();
    ASSERT_EQ(cached.sim.now(), plain.sim.now())
        << "cache shifted simulated time at step " << step << " op " << op;
    ASSERT_LE(cached.mv.cache_size(), kCacheCapacity)
        << "cache exceeded its bound at step " << step;
    ASSERT_EQ(plain.mv.cache_size(), 0u);
  };

  for (int step = 0; step < 600; ++step) {
    // Ops 0-4 uniform; the expensive snapshot→wipe→restore cycle (op 5)
    // runs on ~2% of steps — enough to interleave restores with cached
    // reads without dominating the run.
    int op = static_cast<int>(rng.Below(5));
    if (rng.Chance(0.02)) {
      op = 5;
    }
    std::vector<std::string> op_paths = {paths[rng.Below(paths.size())]};
    if (op == 3) {
      const std::size_t extra = 1 + rng.Below(3);
      for (std::size_t i = 0; i < extra; ++i) {
        op_paths.push_back(paths[rng.Below(paths.size())]);
      }
    }
    const std::uint64_t size = 1 + rng.Below(1 << 20);
    step_both(step, op, std::move(op_paths), size);
    if (HasFatalFailure()) {
      return;
    }
    if (step % 16 == 15) {
      // Let detached flushes and compactions finish on both stacks.
      cached.sim.RunFor(sim::Millis(20));
      plain.sim.RunFor(sim::Millis(20));
    }
  }

  // Deterministic closing sweep: writing and then reading every path in
  // order forces the working set past the 8-slot bound (the random walk
  // above can stay under it when a restore cycle or a flush clears the
  // cache near a peak). Still differential: both stacks apply the same ops.
  for (int op : {0, 1}) {
    for (const std::string& path : paths) {
      step_both(600, op, {path}, 1);
      if (HasFatalFailure()) {
        return;
      }
    }
    cached.sim.RunFor(sim::Millis(20));
    plain.sim.RunFor(sim::Millis(20));
  }
  EXPECT_EQ(cached.mv.cache_size(), kCacheCapacity);

  const auto& stats = cached.mv.cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.evictions, 0u) << "24 paths vs 8 slots must evict";
  EXPECT_EQ(plain.mv.cache_stats().hits, 0u);
  const MetadataVolume::StoreStats store = cached.mv.store_stats();
  EXPECT_GT(store.memtable_flushes, 0u);
  EXPECT_GT(store.compactions, 0u);
}

// A hit on a segment-backed entry replays the miss's device read, on a
// bare SSD and on a cached RAID-1 pair alike.
TEST(MvCacheTest, SegmentBackedHitChargesTheMissRead) {
  for (const bool raid1 : {false, true}) {
    SCOPED_TRACE(raid1 ? "RAID-1 pair" : "bare SSD");
    Stack stack(kCacheCapacity, /*memtable_flush_bytes=*/1 * kKiB, raid1);
    auto& sim = stack.sim;
    auto& mv = stack.mv;
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(sim.RunUntilComplete(
                      mv.Put(MakeIndex("/t/s" + std::to_string(i), 5)))
                      .ok());
    }
    sim.RunFor(sim::Seconds(5));  // flush: early entries live in segments
    ASSERT_GT(mv.store_stats().segment_count, 0u);

    const auto before = mv.cache_stats();
    sim::TimePoint t0 = sim.now();
    ASSERT_TRUE(sim.RunUntilComplete(mv.GetRef("/t/s0")).ok());
    const sim::Duration miss = sim.now() - t0;
    t0 = sim.now();
    ASSERT_TRUE(sim.RunUntilComplete(mv.GetRef("/t/s0")).ok());
    const sim::Duration hit = sim.now() - t0;
    EXPECT_EQ(mv.cache_stats().misses, before.misses + 1);
    EXPECT_EQ(mv.cache_stats().hits, before.hits + 1);
    EXPECT_GT(miss, 0) << "a segment point read charges the SSD";
    EXPECT_EQ(hit, miss);
    sim.Shutdown();
  }
}

TEST(MvCacheTest, LruEvictsOldestAndCountsIt) {
  Stack stack(2);
  auto& sim = stack.sim;
  auto& mv = stack.mv;
  for (const char* path : {"/t/a", "/t/b", "/t/c"}) {
    ASSERT_TRUE(sim.RunUntilComplete(mv.Put(MakeIndex(path, 1))).ok());
  }
  EXPECT_EQ(mv.cache_size(), 2u);
  EXPECT_EQ(mv.cache_stats().evictions, 1u);

  // "/t/a" was evicted (oldest); "/t/b" and "/t/c" are resident.
  const auto before = mv.cache_stats();
  ASSERT_TRUE(sim.RunUntilComplete(mv.Get("/t/c")).ok());
  ASSERT_TRUE(sim.RunUntilComplete(mv.Get("/t/b")).ok());
  EXPECT_EQ(mv.cache_stats().hits, before.hits + 2);
  ASSERT_TRUE(sim.RunUntilComplete(mv.Get("/t/a")).ok());
  EXPECT_EQ(mv.cache_stats().misses, before.misses + 1);
  // The miss re-published "/t/a", evicting the then-oldest entry ("/t/c",
  // demoted by the touch order above).
  EXPECT_EQ(mv.cache_stats().evictions, 2u);
  const auto mid = mv.cache_stats();
  ASSERT_TRUE(sim.RunUntilComplete(mv.Get("/t/b")).ok());
  ASSERT_TRUE(sim.RunUntilComplete(mv.Get("/t/a")).ok());
  EXPECT_EQ(mv.cache_stats().hits, mid.hits + 2);
}

TEST(MvCacheTest, ZeroCapacityNeverCaches) {
  Stack stack(0);
  auto& sim = stack.sim;
  auto& mv = stack.mv;
  ASSERT_TRUE(sim.RunUntilComplete(mv.Put(MakeIndex("/t/z", 3))).ok());
  for (int i = 0; i < 3; ++i) {
    auto index = sim.RunUntilComplete(mv.Get("/t/z"));
    ASSERT_TRUE(index.ok());
    EXPECT_EQ((*index->Latest())->total_size, 3u);
  }
  EXPECT_EQ(mv.cache_size(), 0u);
  EXPECT_EQ(mv.cache_stats().hits, 0u);
  EXPECT_EQ(mv.cache_stats().misses, 0u);  // disabled, not "always missing"
}

}  // namespace
}  // namespace ros::olfs
