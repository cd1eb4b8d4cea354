// Policy and schema tests: the busy-drive policies of §4.8, the RAID-6
// disc-array schema of §4.7, power reference points, and dual-erasure
// stream recovery.
#include <gtest/gtest.h>

#include <memory>

#include "src/common/rng.h"
#include "src/olfs/olfs.h"
#include "src/olfs/parity.h"
#include "src/olfs/power.h"
#include "src/sim/time.h"
#include "src/udf/serializer.h"

namespace ros::olfs {
namespace {

using sim::Seconds;
using sim::ToSeconds;

std::vector<std::uint8_t> RandomBytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  return out;
}

struct Rig {
  explicit Rig(OlfsParams params) {
    SystemConfig config = TestSystemConfig();
    config.drive_sets = 1;  // a single bay: burns and fetches collide
    config.hdd_capacity = 8 * kGiB;
    system = std::make_unique<RosSystem>(sim, config);
    olfs = std::make_unique<Olfs>(sim, system.get(), params);
    olfs->burns().burn_start_interval = Seconds(1);
  }

  sim::Simulator sim;
  std::unique_ptr<RosSystem> system;
  std::unique_ptr<Olfs> olfs;
};

OlfsParams PolicyParams(BusyDrivePolicy policy) {
  OlfsParams params;
  // Large enough media that a residual burn takes minutes — the regime
  // where the two policies of §4.8 diverge.
  params.disc_capacity_override = 2 * kGiB;
  params.read_cache_bytes = 0;
  params.busy_drive_policy = policy;
  return params;
}

// Burns the cold file onto its own array.
void BurnColdFile(Rig& rig) {
  auto payload = RandomBytes(64 * kKiB, 77);
  ROS_CHECK(rig.sim.RunUntilComplete(
                rig.olfs->Create("/cold/data.bin", payload, payload.size()))
                .ok());
  ROS_CHECK(rig.sim.RunUntilComplete(rig.olfs->FlushAndDrain()).ok());
}

// Kicks off a burn of three files under `dir` that occupies the single bay
// for minutes, and lets it get past loading and into recording.
void StartLongBurn(Rig& rig, const std::string& dir) {
  Olfs& olfs = *rig.olfs;
  sim::Simulator& sim = rig.sim;
  for (int i = 0; i < 3; ++i) {
    ROS_CHECK(sim.RunUntilComplete(
                  olfs.Create(dir + "/f" + std::to_string(i),
                              RandomBytes(4096, i), 1536 * kMiB))
                  .ok());
  }
  ROS_CHECK(sim.RunUntilComplete(olfs.buckets().CloseCurrentBucket()).ok());
  ROS_CHECK(sim.RunUntilComplete(olfs.burns().FlushPartialArray()).ok());
  sim.RunFor(Seconds(80));
}

// Shared scenario: burn a first batch (the cold file), then start a long
// second burn, and read the cold file while the only bay is burning.
// Returns the read latency in seconds.
double ReadDuringBurn(Rig& rig) {
  Olfs& olfs = *rig.olfs;
  sim::Simulator& sim = rig.sim;
  BurnColdFile(rig);
  StartLongBurn(rig, "/bulk");

  sim::TimePoint t0 = sim.now();
  auto data = sim.RunUntilComplete(
      olfs.Read("/cold/data.bin", 0, 64 * kKiB));
  ROS_CHECK(data.ok());
  ROS_CHECK(std::equal(data->begin(), data->end(),
                       RandomBytes(64 * kKiB, 77).begin()));
  double seconds = ToSeconds(sim.now() - t0);
  ROS_CHECK(sim.RunUntilComplete(olfs.burns().DrainAll()).ok());
  return seconds;
}

// §4.8 policy one: wait for the burning task to complete.
TEST(BusyDrivePolicy, WaitForBurnWaitsOutTheBurn) {
  Rig rig(PolicyParams(BusyDrivePolicy::kWaitForBurn));
  double seconds = ReadDuringBurn(rig);
  // Residual burn (minutes-scale in Table 1's terms for real media; tens
  // of seconds on the shrunken test media) + unload + load.
  EXPECT_GT(seconds, 120.0);
  EXPECT_EQ(rig.olfs->burns().interrupts_taken(), 0);
}

// §4.8 policy two: interrupt the burn, swap arrays, resume in append-burn
// mode afterwards.
TEST(BusyDrivePolicy, InterruptAndSwapServesReadSooner) {
  Rig wait_rig(PolicyParams(BusyDrivePolicy::kWaitForBurn));
  const double waited = ReadDuringBurn(wait_rig);

  Rig swap_rig(PolicyParams(BusyDrivePolicy::kInterruptAndSwap));
  const double swapped = ReadDuringBurn(swap_rig);

  EXPECT_GT(swap_rig.olfs->burns().interrupts_taken(), 0);
  EXPECT_LT(swapped, waited);

  // The interrupted burn resumed and completed: everything is on discs
  // and still readable.
  Olfs& olfs = *swap_rig.olfs;
  for (int i = 0; i < 3; ++i) {
    auto data = swap_rig.sim.RunUntilComplete(
        olfs.Read("/bulk/f" + std::to_string(i), 0, 4096));
    ASSERT_TRUE(data.ok()) << i << ": " << data.status().ToString();
    EXPECT_TRUE(std::equal(data->begin(), data->end(),
                           RandomBytes(4096, i).begin()));
  }
}

// Under interrupt-and-swap only a demand fetch interrupts a burn. A
// background fetch (scrub, audit, refresh) waits for the bay instead.
TEST(BusyDrivePolicy, InterruptAndSwapSparesBurnsFromBackgroundFetches) {
  Rig rig(PolicyParams(BusyDrivePolicy::kInterruptAndSwap));
  Olfs& olfs = *rig.olfs;
  sim::Simulator& sim = rig.sim;
  BurnColdFile(rig);
  auto index = sim.RunUntilComplete(olfs.mv().Get("/cold/data.bin"));
  ASSERT_TRUE(index.ok());
  const std::string image_id = (*index->Latest())->parts[0].image_id;

  StartLongBurn(rig, "/bulk");
  ASSERT_EQ(olfs.mech().bay_state(0), BayState::kBusy);
  auto lease = sim.RunUntilComplete(
      olfs.fetches().FetchDisc(image_id, FetchClass::kBackground));
  ASSERT_TRUE(lease.ok()) << lease.status().ToString();
  EXPECT_EQ(olfs.burns().interrupts_taken(), 0);
  lease->Release();
  ASSERT_TRUE(sim.RunUntilComplete(olfs.burns().DrainAll()).ok());

  StartLongBurn(rig, "/more");
  ASSERT_EQ(olfs.mech().bay_state(0), BayState::kBusy);
  auto data = sim.RunUntilComplete(olfs.Read("/cold/data.bin", 0, 64 * kKiB));
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(*data, RandomBytes(64 * kKiB, 77));
  EXPECT_GT(olfs.burns().interrupts_taken(), 0);
  ASSERT_TRUE(sim.RunUntilComplete(olfs.burns().DrainAll()).ok());
}

// §4.7: the RAID-6 schema (10 data + 2 parity) burns 12-disc arrays and
// survives a corrupted data disc via the scrubber.
TEST(Raid6Schema, BurnsAndScrubsWithTwoParityImages) {
  OlfsParams params = PolicyParams(BusyDrivePolicy::kWaitForBurn);
  params.parity_images = 2;
  Rig rig(params);
  Olfs& olfs = *rig.olfs;
  sim::Simulator& sim = rig.sim;

  auto payload = RandomBytes(32 * kKiB, 5);
  ROS_CHECK(sim.RunUntilComplete(
                olfs.Create("/r6/a", payload, payload.size())).ok());
  ROS_CHECK(sim.RunUntilComplete(
                olfs.Create("/r6/b", RandomBytes(16 * kKiB, 6),
                            16 * kKiB)).ok());
  ASSERT_TRUE(sim.RunUntilComplete(olfs.FlushAndDrain()).ok());

  // 1 data image + P + Q burned.
  int parities = 0;
  for (const std::string& id : olfs.images().BurnedImages()) {
    parities += id.ends_with("-P") || id.ends_with("-Q");
  }
  EXPECT_EQ(parities, 2);

  // Corrupt the data disc; the scrub repairs from P.
  auto index = sim.RunUntilComplete(olfs.mv().Get("/r6/a"));
  ASSERT_TRUE(index.ok());
  auto record = olfs.images().Lookup((*index->Latest())->parts[0].image_id);
  ASSERT_TRUE(record.ok());
  olfs.mech().DiscAt(*(*record)->disc)->CorruptSector(1);
  auto pass = sim.RunUntilComplete(olfs.scrub().RunPass());
  ASSERT_TRUE(pass.ok()) << pass.status().ToString();
  EXPECT_EQ(pass->repairs, 1);
  ASSERT_TRUE(sim.RunUntilComplete(olfs.FlushAndDrain()).ok());
  auto data = sim.RunUntilComplete(olfs.Read("/r6/a", 0, payload.size()));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, payload);
}

// §5.1's power reference points.
TEST(PowerModel, MatchesPrototypeFigures) {
  SystemConfig prototype;
  PowerModel model;
  EXPECT_NEAR(model.IdleWatts(prototype), 185.0, 3.0);
  EXPECT_NEAR(model.PeakWatts(prototype), 652.0, 3.0);
  EXPECT_LE(model.roller_active_w, 50.0);
  EXPECT_NEAR(model.drive_busy_w, 8.0, 0.01);
  // Monotonicity: more activity, more power.
  PowerModel::Activity light{.controller_busy = true};
  PowerModel::Activity heavy{.controller_busy = true, .hdds_busy = 14,
                             .drives_busy = 24};
  EXPECT_LT(model.Watts(prototype, light), model.Watts(prototype, heavy));
}

}  // namespace
}  // namespace ros::olfs
