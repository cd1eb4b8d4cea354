// Tests of the Maintenance Interface (MI, §4.1) and checkpoint/restore
// (§4.2).
#include "src/olfs/maintenance.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/common/rng.h"
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

class MaintenanceTest : public ::testing::Test {
 protected:
  MaintenanceTest() {
    system_ = std::make_unique<RosSystem>(sim_, TestSystemConfig());
    NewController();
  }

  void NewController() {
    // A replaced controller's background loops still reference the old
    // Olfs; destroy those frames before the old controller dies.
    sim_.Shutdown();
    olfs_ = std::make_unique<Olfs>(sim_, system_.get(), Params());
    olfs_->burns().burn_start_interval = Seconds(1);
    mi_ = std::make_unique<Maintenance>(olfs_.get());
  }

  static OlfsParams Params() {
    OlfsParams params;
    params.disc_capacity_override = 16 * kMiB;
    return params;
  }

  // Destroy suspended background coroutines (burn/snapshot/scrub loops)
  // while the system objects they borrow are still alive.
  ~MaintenanceTest() override { sim_.Shutdown(); }

  sim::Simulator sim_;
  std::unique_ptr<RosSystem> system_;
  std::unique_ptr<Olfs> olfs_;
  std::unique_ptr<Maintenance> mi_;
};

TEST_F(MaintenanceTest, StatusReportReflectsSystemState) {
  ASSERT_TRUE(sim_.RunUntilComplete(
                  olfs_->Create("/m/a", RandomBytes(5000, 1), 5000)).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->FlushAndDrain()).ok());

  json::Value report = mi_->StatusReport();
  EXPECT_EQ(report["disc_arrays"]["used"].as_int(), 1);
  EXPECT_EQ(report["pipeline"]["arrays_burned"].as_int(), 1);
  EXPECT_EQ(report["pipeline"]["active_burns"].as_int(), 0);
  EXPECT_GE(report["namespace"]["entries"].as_int(), 2);  // /m and /m/a
  EXPECT_GE(report["images"].as_array().size(), 2u);  // data + parity
  // It round-trips through JSON (the console wire format).
  auto reparsed = json::Parse(report.Dump());
  ASSERT_TRUE(reparsed.ok());
}

// The report exposes the background prefetch class, the read cache's
// ghost list, and the whole-tray readahead counters — all zero on an
// untagged workload, and speculative_demand_evictions (the scheduler's
// self-check) must be zero always.
TEST_F(MaintenanceTest, StatusReportExposesHintTelemetry) {
  ASSERT_TRUE(sim_.RunUntilComplete(
                  olfs_->Create("/m/t", RandomBytes(5000, 2), 5000)).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->FlushAndDrain()).ok());

  json::Value report = mi_->StatusReport();
  EXPECT_EQ(report["fetch_scheduler"]["speculative_enqueued"].as_int(), 0);
  EXPECT_EQ(report["fetch_scheduler"]["speculative_loads"].as_int(), 0);
  EXPECT_EQ(
      report["fetch_scheduler"]["speculative_demand_evictions"].as_int(),
      0);
  EXPECT_EQ(report["fetch_scheduler"]["background_acquires"].as_int(), 0);
  EXPECT_EQ(report["fetch_scheduler"]["background_yields"].as_int(), 0);
  EXPECT_GE(report["caches"]["image_ghost_entries"].as_int(), 0);
  EXPECT_GE(report["caches"]["image_probationary_bytes"].as_int(), 0);
  EXPECT_EQ(report["caches"]["readahead_images"].as_int(), 0);
  EXPECT_EQ(report["caches"]["readahead_bytes"].as_int(), 0);

  // A burned image evicted from the read cache lands in the ghost list,
  // and the occupancy shows up in the next report.
  olfs_->cache().Remove(report["images"].as_array()[0]["id"].as_string());
  json::Value after = mi_->StatusReport();
  EXPECT_GE(after["caches"]["image_ghost_entries"].as_int(), 1);
}

TEST_F(MaintenanceTest, ScrubPassRepairsAndReportsIt) {
  auto payload = RandomBytes(20 * kKiB, 3);
  ASSERT_TRUE(sim_.RunUntilComplete(
                  olfs_->Create("/m/s", payload, payload.size())).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->FlushAndDrain()).ok());
  auto index = sim_.RunUntilComplete(olfs_->mv().Get("/m/s"));
  ASSERT_TRUE(index.ok());
  auto record = olfs_->images().Lookup((*index->Latest())->parts[0].image_id);
  ASSERT_TRUE(record.ok());
  olfs_->mech().DiscAt(*(*record)->disc)->CorruptSector(1);

  auto pass = sim_.RunUntilComplete(olfs_->scrub().RunPass());
  ASSERT_TRUE(pass.ok()) << pass.status().ToString();
  EXPECT_EQ(pass->repairs, 1);
  json::Value report = mi_->StatusReport();
  EXPECT_EQ(report["preservation"]["scrub_passes"].as_int(), 1);
  EXPECT_EQ(report["preservation"]["scrub_repairs"].as_int(), 1);
}

// §4.2: a crashed controller restores from the MV checkpoint — far faster
// than the disc-scan recovery, with buffered (unburned) images preserved.
TEST_F(MaintenanceTest, CheckpointRestoreSurvivesControllerCrash) {
  // A burned file plus an unburned one still in the buffer.
  auto burned = RandomBytes(30 * kKiB, 10);
  auto buffered = RandomBytes(12 * kKiB, 11);
  ASSERT_TRUE(sim_.RunUntilComplete(
                  olfs_->Create("/m/burned", burned, burned.size())).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->FlushAndDrain()).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(
                  olfs_->Create("/m/buffered", buffered, buffered.size()))
                  .ok());

  ASSERT_TRUE(sim_.RunUntilComplete(mi_->Checkpoint()).ok());
  const int counter_before = olfs_->buckets().buckets_created();

  // Crash: the controller process dies; MV and disk buffer survive.
  NewController();
  EXPECT_EQ(sim_.RunUntilComplete(olfs_->Read("/m/burned", 0, 8))
                .status()
                .code(),
            StatusCode::kNotFound);  // DIM is empty before restore

  ASSERT_TRUE(sim_.RunUntilComplete(mi_->RestoreFromCheckpoint()).ok());

  // Burned content is readable (via the disc), buffered content from the
  // restored buffer image.
  auto data = sim_.RunUntilComplete(
      olfs_->Read("/m/burned", 0, burned.size()));
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(*data, burned);
  data = sim_.RunUntilComplete(
      olfs_->Read("/m/buffered", 0, buffered.size()));
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(*data, buffered);

  // DAindex survived; image-id numbering continues past old ids.
  EXPECT_EQ(olfs_->da_index().CountState(ArrayState::kUsed), 1);
  EXPECT_GE(olfs_->buckets().buckets_created(), counter_before);

  // The restored (formerly open) bucket burns as a normal image.
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->FlushAndDrain()).ok());
  data = sim_.RunUntilComplete(
      olfs_->Read("/m/buffered", 0, buffered.size()));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, buffered);
}

TEST_F(MaintenanceTest, RestoreWithoutCheckpointFails) {
  EXPECT_FALSE(
      sim_.RunUntilComplete(mi_->RestoreFromCheckpoint()).ok());
}

// A malformed checkpoint is rejected as a whole before any of it is
// applied: kDataLoss, and the DAindex is left as it was.
TEST_F(MaintenanceTest, MalformedCheckpointIsDataLossAndAppliesNothing) {
  ASSERT_TRUE(sim_.RunUntilComplete(
                  olfs_->Create("/m/x", RandomBytes(1000, 1), 1000)).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->FlushAndDrain()).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(mi_->Checkpoint()).ok());
  auto good = sim_.RunUntilComplete(
      olfs_->mv().GetState(Maintenance::kCheckpointKey));
  ASSERT_TRUE(good.ok());
  ASSERT_FALSE(good->as_object().at("da_used").as_array().empty());

  auto wrong_type = *good;
  wrong_type.as_object()["da_used"] = json::Value("oops");
  // A valid tray first, so a partial apply would show in the DAindex.
  auto out_of_range = *good;
  out_of_range.as_object()["da_used"].as_array().push_back(
      json::Value(1000000));
  for (const json::Value& bad : {wrong_type, out_of_range}) {
    NewController();
    ASSERT_TRUE(sim_.RunUntilComplete(olfs_->mv().PutState(
                    Maintenance::kCheckpointKey, bad)).ok());
    const int used = olfs_->da_index().CountState(ArrayState::kUsed);
    EXPECT_EQ(sim_.RunUntilComplete(mi_->RestoreFromCheckpoint()).code(),
              StatusCode::kDataLoss);
    EXPECT_EQ(olfs_->da_index().CountState(ArrayState::kUsed), used);
    EXPECT_EQ(olfs_->da_index().CountState(ArrayState::kFailed), 0);
  }
}

TEST_F(MaintenanceTest, CheckpointIsIdempotent) {
  ASSERT_TRUE(sim_.RunUntilComplete(
                  olfs_->Create("/m/x", RandomBytes(1000, 1), 1000)).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(mi_->Checkpoint()).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(mi_->Checkpoint()).ok());
}

}  // namespace
}  // namespace ros::olfs
