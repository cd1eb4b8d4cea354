// Tests of the background policies (§4.2 periodic MV snapshots, §4.3
// burning policies) and the burn-retry path (DAindex kFailed arrays).
//
// Note: background policy loops run forever, so these tests advance the
// clock with RunFor/RunUntilComplete rather than Run().
#include <gtest/gtest.h>

#include <memory>

#include "src/common/rng.h"
#include "src/olfs/olfs.h"
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

class BackgroundPolicyTest : public ::testing::Test {
 protected:
  BackgroundPolicyTest() {
    system_ = std::make_unique<RosSystem>(sim_, TestSystemConfig());
    OlfsParams params;
    params.disc_capacity_override = 16 * kMiB;
    olfs_ = std::make_unique<Olfs>(sim_, system_.get(), params);
    olfs_->burns().burn_start_interval = Seconds(1);
  }

  sim::Simulator sim_;
  std::unique_ptr<RosSystem> system_;
  std::unique_ptr<Olfs> olfs_;
};

TEST_F(BackgroundPolicyTest, AutoFlushBurnsIdleData) {
  olfs_->StartBackgroundPolicies(/*mv_snapshot_interval=*/0,
                                 /*auto_flush_interval=*/Seconds(300));
  ASSERT_TRUE(sim_.RunUntilComplete(
                  olfs_->Create("/idle/a", RandomBytes(4000, 1), 4000))
                  .ok());
  EXPECT_EQ(olfs_->burns().arrays_burned(), 0);

  // After the data sits idle past the flush interval, it burns by itself.
  sim_.RunFor(Seconds(1200));
  EXPECT_GE(olfs_->burns().arrays_burned(), 1);
  auto info = sim_.RunUntilComplete(olfs_->Stat("/idle/a"));
  ASSERT_TRUE(info.ok());
  EXPECT_NE(info->location, LocationKind::kBucket);
}

TEST_F(BackgroundPolicyTest, AutoFlushLeavesActiveIngestAlone) {
  olfs_->StartBackgroundPolicies(0, Seconds(300));
  // Keep writing every 100 s: never idle for a full interval.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(sim_.RunUntilComplete(
                    olfs_->Create("/busy/f" + std::to_string(i),
                                  RandomBytes(1000, i), 1000))
                    .ok());
    sim_.RunFor(Seconds(100));
  }
  EXPECT_EQ(olfs_->burns().arrays_burned(), 0);
}

// A streaming writer is an active ingest too: each AppendStream's bucket
// write restarts the idle clock, so the stream keeps its one open part.
TEST_F(BackgroundPolicyTest, AutoFlushLeavesActiveStreamAlone) {
  olfs_->StartBackgroundPolicies(0, Seconds(300));
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->Create("/busy/s", {}, 0)).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(sim_.RunUntilComplete(olfs_->AppendStream(
                                          "/busy/s", RandomBytes(1000, i),
                                          1000))
                    .ok());
    sim_.RunFor(Seconds(100));
  }
  EXPECT_EQ(olfs_->burns().arrays_burned(), 0);
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->CloseStream("/busy/s")).ok());
  auto index = sim_.RunUntilComplete(olfs_->mv().Get("/busy/s"));
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index->Latest())->parts.size(), 1u);
  EXPECT_EQ((*index->Latest())->total_size, 8000u);
}

// Every index commit dirties the namespace, not only new versions: an
// Unlink and a Mkdir after a snapshot are in the next one.
TEST_F(BackgroundPolicyTest, UnlinkAndMkdirDirtyTheSnapshot) {
  olfs_->StartBackgroundPolicies(/*mv_snapshot_interval=*/Seconds(600),
                                 /*auto_flush_interval=*/0);
  ASSERT_TRUE(sim_.RunUntilComplete(
                  olfs_->Create("/snap/a", RandomBytes(2000, 9), 2000))
                  .ok());
  sim_.RunFor(Seconds(700));
  ASSERT_TRUE(olfs_->images().Lookup("mv-snap-0").ok());
  ASSERT_FALSE(olfs_->images().Lookup("mv-snap-1").ok());

  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->Unlink("/snap/a")).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->Mkdir("/snap/d")).ok());
  sim_.RunFor(Seconds(1300));
  EXPECT_TRUE(olfs_->images().Lookup("mv-snap-1").ok());
}

TEST_F(BackgroundPolicyTest, PeriodicMvSnapshotsBurnWhenDirty) {
  olfs_->StartBackgroundPolicies(/*mv_snapshot_interval=*/Seconds(600),
                                 /*auto_flush_interval=*/Seconds(200));
  ASSERT_TRUE(sim_.RunUntilComplete(
                  olfs_->Create("/snap/x", RandomBytes(2000, 3), 2000))
                  .ok());
  sim_.RunFor(Seconds(2000));

  int snapshots = 0;
  for (const std::string& id : olfs_->images().BurnedImages()) {
    snapshots += id.rfind("mv-snap-", 0) == 0;
  }
  EXPECT_GE(snapshots, 1);

  // No further writes: the snapshot loop stays quiet (no churn).
  sim_.RunFor(Seconds(3000));
  int snapshots_after = 0;
  for (const std::string& id : olfs_->images().BurnedImages()) {
    snapshots_after += id.rfind("mv-snap-", 0) == 0;
  }
  EXPECT_LE(snapshots_after, snapshots + 1);
}

TEST_F(BackgroundPolicyTest, BurnRetryMovesToFreshArrayOnBadMedia) {
  // Poison every disc of the first array (tray 0): pre-burn junk that
  // leaves no capacity, so the burn fails with ResourceExhausted.
  for (int i = 0; i < mech::kDiscsPerTray; ++i) {
    drive::Disc* disc =
        olfs_->mech().DiscAt({mech::TrayAddress::FromIndex(0), i});
    ROS_CHECK(disc->AppendSession("junk", disc->capacity(), {}, true).ok());
  }

  ASSERT_TRUE(sim_.RunUntilComplete(
                  olfs_->Create("/retry/f", RandomBytes(3000, 9), 3000))
                  .ok());
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->FlushAndDrain()).ok());

  // The first array is marked failed; the data burned onto the second.
  EXPECT_EQ(olfs_->da_index().state(mech::TrayAddress::FromIndex(0)),
            ArrayState::kFailed);
  EXPECT_EQ(olfs_->burns().arrays_burned(), 1);
  auto index = sim_.RunUntilComplete(olfs_->mv().Get("/retry/f"));
  ASSERT_TRUE(index.ok());
  auto record = olfs_->images().Lookup((*index->Latest())->parts[0].image_id);
  ASSERT_TRUE(record.ok());
  ASSERT_TRUE((*record)->disc.has_value());
  EXPECT_NE((*record)->disc->tray.ToIndex(), 0);
  auto data = sim_.RunUntilComplete(olfs_->Read("/retry/f", 0, 3000));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, RandomBytes(3000, 9));
}

// §4.7: scheduled scrubbing finds sector rot during idle periods and
// repairs + re-burns without operator involvement.
TEST_F(BackgroundPolicyTest, ScheduledScrubRepairsDuringIdle) {
  olfs_->StartBackgroundPolicies(0, 0, /*scrub_interval=*/Seconds(900));
  auto payload = RandomBytes(20 * kKiB, 21);
  ASSERT_TRUE(sim_.RunUntilComplete(
                  olfs_->Create("/rot/a", payload, payload.size())).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->FlushAndDrain()).ok());

  auto index = sim_.RunUntilComplete(olfs_->mv().Get("/rot/a"));
  ASSERT_TRUE(index.ok());
  auto record = olfs_->images().Lookup((*index->Latest())->parts[0].image_id);
  ASSERT_TRUE(record.ok());
  const mech::DiscAddress damaged = *(*record)->disc;
  olfs_->mech().DiscAt(damaged)->CorruptSector(1);

  // Idle for a few scrub intervals: the loop detects, repairs, re-burns.
  sim_.RunFor(Seconds(3 * 900 + 2000));
  auto repaired_record =
      olfs_->images().Lookup((*index->Latest())->parts[0].image_id);
  ASSERT_TRUE(repaired_record.ok());
  ASSERT_TRUE((*repaired_record)->disc.has_value());
  EXPECT_NE(*(*repaired_record)->disc, damaged);  // re-burned elsewhere
  auto data = sim_.RunUntilComplete(
      olfs_->Read("/rot/a", 0, payload.size()));
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(*data, payload);
}

}  // namespace
}  // namespace ros::olfs
