// Edge cases of the fetch scheduler's speculative class and the aging
// bound: strict FIFO at a zero bound, cancellation of queued speculative
// claims when demand queues, demand absorbing an in-flight speculative
// cycle, the never-evict-demanded invariant, and Quiesce draining the
// burn pipeline and the scheduler without polling.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/mech/geometry.h"
#include "src/olfs/olfs.h"
#include "src/sim/join.h"
#include "src/sim/time.h"

namespace ros::olfs {
namespace {

using sim::Seconds;

std::vector<std::uint8_t> RandomBytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  return out;
}

// One-bay rig: speculative work and demand contend for a single drive set,
// which is where the background class's yielding rules are observable.
class FetchSpeculativeTest : public ::testing::Test {
 protected:
  FetchSpeculativeTest() {
    SystemConfig config = TestSystemConfig();
    config.drive_sets = 1;
    system_ = std::make_unique<RosSystem>(sim_, config);
  }

  void Init(OlfsParams params) {
    params.disc_capacity_override = 16 * kMiB;
    params.read_cache_bytes = 0;
    olfs_ = std::make_unique<Olfs>(sim_, system_.get(), params);
    olfs_->burns().burn_start_interval = Seconds(1);
  }

  // Creates `files` files on one fresh array rooted at `root` and drains
  // the burn, so each call claims the next tray.
  void StageArray(const std::string& root, int files, std::uint64_t seed) {
    for (int i = 0; i < files; ++i) {
      ROS_CHECK(sim_.RunUntilComplete(
                    olfs_->Create(root + "/f" + std::to_string(i),
                                  RandomBytes(8 * kKiB, seed + i),
                                  10 * kMiB))
                    .ok());
    }
    ROS_CHECK(sim_.RunUntilComplete(olfs_->FlushAndDrain()).ok());
  }

  Status ReadOk(const std::string& path) {
    auto data = sim_.RunUntilComplete(olfs_->Read(path, 0, 8 * kKiB));
    return data.status();
  }

  ~FetchSpeculativeTest() override { sim_.Shutdown(); }

  sim::Simulator sim_;
  std::unique_ptr<RosSystem> system_;
  std::unique_ptr<Olfs> olfs_;
};

// fetch_aging_bound = 0: every queued request is immediately past the
// bound, so every dispatch is a strict-FIFO promotion and completions
// follow arrival order exactly.
TEST_F(FetchSpeculativeTest, ZeroAgingBoundIsStrictFifo) {
  OlfsParams params;
  params.fetch_aging_bound = 0;
  Init(params);
  StageArray("/a", 1, 100);
  StageArray("/b", 1, 200);
  StageArray("/c", 1, 300);

  std::vector<int> completion_order;
  std::vector<sim::Task<Status>> reads;
  const char* order[] = {"/c/f0", "/a/f0", "/b/f0"};
  for (int i = 0; i < 3; ++i) {
    reads.push_back([](Olfs* o, std::string p, int slot,
                       std::vector<int>* done) -> sim::Task<Status> {
      auto data = co_await o->Read(p, 0, 8 * kKiB);
      done->push_back(slot);
      co_return data.status();
    }(olfs_.get(), order[i], i, &completion_order));
    // Pin arrival order: each reader reaches its queue before the next
    // is spawned.
    sim_.RunFor(sim::Millis(1));
  }
  ASSERT_TRUE(
      sim_.RunUntilComplete(sim::AllOk(sim_, std::move(reads))).ok());

  EXPECT_EQ(completion_order, (std::vector<int>{0, 1, 2}));
  const FetchSchedulerStats& stats = olfs_->fetch_scheduler()->stats();
  // All three loads were dispatched through the aged (strict FIFO) path.
  EXPECT_EQ(stats.loads, 3u);
  EXPECT_EQ(stats.aged_dispatches, 3u);
}

// A speculative load still waiting in the pending queue is canceled the
// moment demand queues: it must never reach the dispatch log.
TEST_F(FetchSpeculativeTest, QueuedSpeculativeCanceledByDemand) {
  Init(OlfsParams{});
  StageArray("/a", 1, 400);
  StageArray("/b", 1, 500);
  StageArray("/c", 1, 450);

  // Learn C's tray, end with A resident, then let B's demand load take
  // the only bay.
  ASSERT_TRUE(ReadOk("/c/f0").ok());
  ASSERT_TRUE(ReadOk("/a/f0").ok());
  const auto& log = olfs_->fetch_scheduler()->dispatch_log();
  ASSERT_EQ(log.size(), 2u);
  const int tray_c = log[0].first;

  Status b_status = UnavailableError("still running");
  sim_.Spawn([](Olfs* o, Status* out) -> sim::Task<void> {
    auto data = co_await o->Read("/b/f0", 0, 8 * kKiB);
    *out = data.status();
  }(olfs_.get(), &b_status));
  sim_.RunFor(Seconds(2));  // B's demand load cycle is in flight

  // Speculation on the cold C parks in the pending queue (the only bay
  // is mid-load), then a fresh demand read of A cancels it.
  olfs_->fetch_scheduler()->EnqueueSpeculative(
      mech::TrayAddress::FromIndex(tray_c));
  sim_.RunFor(sim::Millis(1));
  const FetchSchedulerStats& stats = olfs_->fetch_scheduler()->stats();
  EXPECT_EQ(stats.speculative_enqueued, 1u);
  EXPECT_EQ(stats.speculative_loads, 0u);

  ASSERT_TRUE(ReadOk("/a/f0").ok());
  sim_.RunFor(Seconds(300));
  EXPECT_TRUE(b_status.ok()) << b_status.ToString();
  EXPECT_EQ(stats.speculative_canceled, 1u);
  EXPECT_EQ(stats.speculative_loads, 0u);
  EXPECT_EQ(stats.speculative_demand_evictions, 0u);
  // The canceled tray never reached the dispatch log: only the four
  // demand loads (C, A, B, A again) did.
  EXPECT_EQ(log.size(), 4u);
}

// Demand arriving while a speculative load cycle is mid-flight joins that
// cycle and is absorbed exactly like a batched demand load.
TEST_F(FetchSpeculativeTest, DemandAbsorbsInFlightSpeculativeLoad) {
  Init(OlfsParams{});
  StageArray("/a", 1, 600);
  StageArray("/b", 1, 700);

  // Learn both tray indices, ending with A resident.
  ASSERT_TRUE(ReadOk("/a/f0").ok());
  ASSERT_TRUE(ReadOk("/b/f0").ok());
  ASSERT_TRUE(ReadOk("/a/f0").ok());
  const auto& log = olfs_->fetch_scheduler()->dispatch_log();
  ASSERT_EQ(log.size(), 3u);
  const int tray_b = log[1].first;

  // With the bays demand-idle the speculative load starts (evicting the
  // idle A), and the demand read that arrives mid-cycle rides it home.
  olfs_->fetch_scheduler()->EnqueueSpeculative(
      mech::TrayAddress::FromIndex(tray_b));
  sim_.RunFor(Seconds(5));
  const FetchSchedulerStats& stats = olfs_->fetch_scheduler()->stats();
  ASSERT_EQ(stats.speculative_loads, 1u);

  ASSERT_TRUE(ReadOk("/b/f0").ok());
  EXPECT_EQ(stats.speculative_useful, 1u);
  EXPECT_EQ(stats.speculative_canceled, 0u);
  EXPECT_EQ(stats.speculative_demand_evictions, 0u);
  // The demand read consumed the speculative cycle: no fourth demand load.
  EXPECT_EQ(stats.loads, 4u);
}

// The background class never steals a bay from demand: with readers
// queued on the resident array, a speculative request for another tray
// waits until the demand queue drains, then takes the bay cleanly.
TEST_F(FetchSpeculativeTest, SpeculativeNeverEvictsTrayWithQueuedDemand) {
  Init(OlfsParams{});
  StageArray("/a", 3, 800);
  StageArray("/b", 1, 900);

  ASSERT_TRUE(ReadOk("/a/f0").ok());
  ASSERT_TRUE(ReadOk("/b/f0").ok());
  ASSERT_TRUE(ReadOk("/a/f0").ok());  // A resident again; B's tray known
  const auto& log = olfs_->fetch_scheduler()->dispatch_log();
  ASSERT_EQ(log.size(), 3u);
  const int tray_a = log[0].first;
  const int tray_b = log[1].first;

  // Two readers keep demand on the resident A (one claims the bay, one
  // queues behind it for a handoff).
  Status a_status[2] = {UnavailableError("running"),
                        UnavailableError("running")};
  for (int i = 0; i < 2; ++i) {
    sim_.Spawn([](Olfs* o, int idx, Status* out) -> sim::Task<void> {
      auto data = co_await o->Read("/a/f" + std::to_string(idx + 1), 0,
                                   8 * kKiB);
      *out = data.status();
    }(olfs_.get(), i, &a_status[i]));
  }
  // Run until the readers' metadata path reaches the scheduler: one
  // claims the parked bay, the other is queued demand behind it.
  for (int i = 0; i < 1000 && olfs_->fetch_scheduler()->queue_depth() == 0;
       ++i) {
    sim_.RunFor(sim::Millis(1));
  }
  ASSERT_GT(olfs_->fetch_scheduler()->queue_depth(), 0);

  olfs_->fetch_scheduler()->EnqueueSpeculative(
      mech::TrayAddress::FromIndex(tray_b));
  sim_.RunFor(Seconds(300));
  EXPECT_TRUE(a_status[0].ok()) << a_status[0].ToString();
  EXPECT_TRUE(a_status[1].ok()) << a_status[1].ToString();

  const FetchSchedulerStats& stats = olfs_->fetch_scheduler()->stats();
  EXPECT_EQ(stats.speculative_demand_evictions, 0u);
  EXPECT_GE(stats.handoffs, 1u);  // demand drained through bay handoffs
  // The speculative load ran only after demand finished with the bay, so
  // it is the final dispatch — A was never reloaded behind it.
  EXPECT_EQ(stats.speculative_loads, 1u);
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log.back().first, tray_b);
  EXPECT_EQ(log[2].first, tray_a);
}

// Quiesce waits on the counters it drains: it returns at the sim instant
// the last burn ends, not on a polling grid.
TEST_F(FetchSpeculativeTest, QuiesceReturnsWhenTheLastBurnEnds) {
  Init(OlfsParams{});
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(sim_.RunUntilComplete(
                        olfs_->Create("/q/f" + std::to_string(i),
                                      RandomBytes(8 * kKiB, 40 + i),
                                      10 * kMiB))
                    .ok());
  }
  ASSERT_TRUE(
      sim_.RunUntilComplete(olfs_->buckets().CloseCurrentBucket()).ok());
  ASSERT_TRUE(
      sim_.RunUntilComplete(olfs_->burns().FlushPartialArray()).ok());
  ASSERT_GT(olfs_->burns().active_burns(), 0);

  sim::TimePoint burned = -1;
  sim_.Spawn([](Olfs* o, sim::Simulator* sim,
                sim::TimePoint* at) -> sim::Task<void> {
    Status drained = co_await o->burns().DrainAll();
    ROS_CHECK(drained.ok());
    *at = sim->now();
  }(olfs_.get(), &sim_, &burned));
  sim_.RunUntilComplete(olfs_->Quiesce());
  EXPECT_GT(burned, 0);
  EXPECT_EQ(sim_.now(), burned);
  EXPECT_TRUE(olfs_->fetch_scheduler()->Idle());
}

}  // namespace
}  // namespace ros::olfs
