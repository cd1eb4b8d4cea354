// Tests of the file-granular read cache and sibling prefetch (§4.1's
// future-work refinement), both the data structure and its integration.
#include "src/olfs/file_cache.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/common/rng.h"
#include "src/olfs/olfs.h"
#include "src/sim/time.h"

namespace ros::olfs {
namespace {

using sim::Seconds;
using sim::ToSeconds;

TEST(FileCache, DisabledWhenZeroCapacity) {
  FileCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.Put("k", {1, 2, 3});
  EXPECT_EQ(cache.Get("k"), nullptr);
}

TEST(FileCache, PutGetRoundTrip) {
  FileCache cache(1000);
  cache.Put("a", {1, 2, 3});
  const auto* content = cache.Get("a");
  ASSERT_NE(content, nullptr);
  EXPECT_EQ(*content, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(FileCache, LruEvictionByBytes) {
  FileCache cache(100);
  cache.Put("a", std::vector<std::uint8_t>(40));
  cache.Put("b", std::vector<std::uint8_t>(40));
  ASSERT_NE(cache.Get("a"), nullptr);          // refresh a
  cache.Put("c", std::vector<std::uint8_t>(40));  // evicts b
  EXPECT_TRUE(cache.Contains("a"));
  EXPECT_FALSE(cache.Contains("b"));
  EXPECT_TRUE(cache.Contains("c"));
  EXPECT_LE(cache.used_bytes(), 100u);
}

TEST(FileCache, PutRefreshesExistingKey) {
  FileCache cache(1000);
  cache.Put("a", std::vector<std::uint8_t>(10, 1));
  cache.Put("a", std::vector<std::uint8_t>(20, 2));
  EXPECT_EQ(cache.used_bytes(), 20u);
  const auto* content = cache.Get("a");
  ASSERT_NE(content, nullptr);
  EXPECT_EQ((*content)[0], 2);
}

TEST(FileCache, KeyFormat) {
  EXPECT_EQ(FileCache::Key("img-1", "/a/b#v2"), "img-1@/a/b#v2");
}

// --- integration ---

std::vector<std::uint8_t> RandomBytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  return out;
}

struct Rig {
  explicit Rig(std::uint64_t file_cache_bytes, int prefetch) {
    system = std::make_unique<RosSystem>(sim, TestSystemConfig());
    OlfsParams params;
    params.disc_capacity_override = 16 * kMiB;
    params.read_cache_bytes = 0;  // force every cold read onto discs
    params.file_cache_bytes = file_cache_bytes;
    params.prefetch_siblings = prefetch;
    olfs = std::make_unique<Olfs>(sim, system.get(), params);
    olfs->burns().burn_start_interval = Seconds(1);
  }

  // Preserves `count` sibling files under /dir and burns them to discs.
  void Preserve(int count) {
    for (int i = 0; i < count; ++i) {
      ROS_CHECK(sim.RunUntilComplete(
                    olfs->Create("/dir/f" + std::to_string(i),
                                 RandomBytes(8 * kKiB, 1000 + i)))
                    .ok());
    }
    ROS_CHECK(sim.RunUntilComplete(olfs->FlushAndDrain()).ok());
  }

  double TimedRead(int i) {
    sim::TimePoint t0 = sim.now();
    auto data = sim.RunUntilComplete(
        olfs->Read("/dir/f" + std::to_string(i), 0, 8 * kKiB));
    ROS_CHECK(data.ok());
    ROS_CHECK(*data == RandomBytes(8 * kKiB, 1000 + i));
    return ToSeconds(sim.now() - t0);
  }

  sim::Simulator sim;
  std::unique_ptr<RosSystem> system;
  std::unique_ptr<Olfs> olfs;
};

TEST(FileCacheIntegration, RepeatReadsHitAfterArrayUnloaded) {
  Rig rig(64 * kMiB, 0);
  rig.Preserve(4);

  // Cold read: mechanical fetch.
  double cold = rig.TimedRead(0);
  EXPECT_GT(cold, 60.0);
  rig.sim.Run();  // let the background prefetch finish

  // Force the array out of the drives (another task claims the bay).
  const int bay = rig.sim.RunUntilComplete(
      rig.olfs->fetch_scheduler()->AcquireForBurn());
  ASSERT_TRUE(rig.sim.RunUntilComplete(
                  rig.olfs->mech().UnloadArray(bay)).ok());
  rig.olfs->fetch_scheduler()->ReleaseBay(bay);

  // The file-granular cache still answers without any mechanics.
  double warm = rig.TimedRead(0);
  EXPECT_LT(warm, 0.1);
  EXPECT_GT(rig.olfs->file_cache().hits(), 0u);
}

TEST(FileCacheIntegration, SiblingPrefetchWarmsTheDirectory) {
  Rig rig(64 * kMiB, 8);
  rig.Preserve(5);

  (void)rig.TimedRead(0);  // cold; prefetch kicks off in the background
  rig.sim.Run();

  // All siblings are now cached.
  for (int i = 1; i < 5; ++i) {
    EXPECT_TRUE(rig.olfs->file_cache().Contains(FileCache::Key(
        rig.olfs->images().BurnedImages().empty()
            ? ""
            : [&] {
                auto index = rig.sim.RunUntilComplete(
                    rig.olfs->mv().Get("/dir/f" + std::to_string(i)));
                return (*index->Latest())->parts[0].image_id;
              }(),
        "/dir/f" + std::to_string(i))))
        << i;
  }

  // Unload the array; sibling reads are served from the cache.
  const int bay = rig.sim.RunUntilComplete(
      rig.olfs->fetch_scheduler()->AcquireForBurn());
  if (rig.olfs->mech().bay_tray(bay).has_value()) {
    ASSERT_TRUE(rig.sim.RunUntilComplete(
                    rig.olfs->mech().UnloadArray(bay)).ok());
  }
  rig.olfs->fetch_scheduler()->ReleaseBay(bay);
  for (int i = 1; i < 5; ++i) {
    EXPECT_LT(rig.TimedRead(i), 0.1) << i;
  }
  EXPECT_EQ(rig.olfs->fetches().fetches(), 1u);  // one mechanical fetch
}

TEST(FileCacheIntegration, DisabledCacheRefetchesMechanically) {
  Rig rig(0, 0);
  rig.Preserve(2);
  EXPECT_GT(rig.TimedRead(0), 60.0);  // cold fetch
  // Array parked: fast. Unload it...
  const int bay = rig.sim.RunUntilComplete(
      rig.olfs->fetch_scheduler()->AcquireForBurn());
  ASSERT_TRUE(rig.sim.RunUntilComplete(
                  rig.olfs->mech().UnloadArray(bay)).ok());
  rig.olfs->fetch_scheduler()->ReleaseBay(bay);
  // ...and without a file cache the next read fetches again.
  EXPECT_GT(rig.TimedRead(0), 60.0);
  EXPECT_EQ(rig.olfs->fetches().fetches(), 2u);
}

}  // namespace
}  // namespace ros::olfs
