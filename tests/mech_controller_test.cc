// Unit tests for the Mechanical Controller's bay/array management, and for
// the FetchScheduler's bay arbitration on top of it (burn and read claims).
#include "src/olfs/mech_controller.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/olfs/fetch_scheduler.h"
#include "src/olfs/system.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace ros::olfs {
namespace {

class MechControllerTest : public ::testing::Test {
 protected:
  MechControllerTest() {
    SystemConfig config = TestSystemConfig();
    config.drive_sets = 2;
    config.rollers = 1;
    system_ = std::make_unique<RosSystem>(sim_, config);
    params_.disc_capacity_override = 16 * kMiB;
    mc_ = std::make_unique<MechController>(sim_, system_->library(),
                                           system_->drive_sets(),
                                           &system_->discs(), params_);
    sched_ = std::make_unique<FetchScheduler>(sim_, params_, mc_.get());
  }

  // The scheduler's dispatcher stays suspended on bay_changed(); destroy
  // it while the controller it waits on is alive.
  ~MechControllerTest() override { sim_.Shutdown(); }

  // A read claim of `tray`, loading it if needed; returns the bay.
  int Read(mech::TrayAddress tray) {
    auto bay = sim_.RunUntilComplete(sched_->AcquireForRead({tray, 0}));
    ROS_CHECK(bay.ok());
    return *bay;
  }

  // Parks `tray` in a bay through a read claim and its release.
  int Park(mech::TrayAddress tray) {
    const int bay = Read(tray);
    sched_->ReleaseBay(bay);
    return bay;
  }

  // Claims the parked array in `bay` for a read and queues a second
  // reader of it behind that claim. Releasing the bay through the
  // controller (skipping the scheduler's handoff) then leaves it parked
  // with queued demand until the dispatcher's next pass, so callers claim
  // inline, before the simulator runs again.
  void HoldWithQueuedReader(int bay) {
    const mech::TrayAddress tray = *mc_->bay_tray(bay);
    const int depth = sched_->queue_depth();
    ASSERT_EQ(Read(tray), bay);
    sim_.Spawn([](FetchScheduler* sched,
                  mech::TrayAddress want) -> sim::Task<void> {
      auto got = co_await sched->AcquireForRead({want, 0});
      ROS_CHECK(got.ok());
      sched->ReleaseBay(*got);
    }(sched_.get(), tray));
    sim_.RunFor(sim::Seconds(1));
    ASSERT_EQ(sched_->queue_depth(), depth + 1);
  }

  // Spawns `claim` and records the bay it is granted; the test releases
  // the bay.
  void SpawnClaim(sim::Task<StatusOr<int>> claim, std::optional<int>* bay) {
    sim_.Spawn([](sim::Task<StatusOr<int>> pending,
                  std::optional<int>* out) -> sim::Task<void> {
      auto got = co_await std::move(pending);
      ROS_CHECK(got.ok());
      *out = *got;
    }(std::move(claim), bay));
  }

  // The background class's hold after each demand arrival.
  sim::Duration Hold() {
    return mc_->library().plc().timing().LoadArrayTime();
  }

  sim::Simulator sim_;
  std::unique_ptr<RosSystem> system_;
  OlfsParams params_;
  std::unique_ptr<MechController> mc_;
  std::unique_ptr<FetchScheduler> sched_;
};

TEST_F(MechControllerTest, TryClaimBayTakesOnlyNonBusyBays) {
  ASSERT_TRUE(mc_->TryClaimBay(0));
  EXPECT_EQ(mc_->bay_state(0), BayState::kBusy);
  EXPECT_FALSE(mc_->TryClaimBay(0));
  mc_->ReleaseBay(0);
  EXPECT_EQ(mc_->bay_state(0), BayState::kEmpty);
  EXPECT_TRUE(mc_->TryClaimBay(0));
  mc_->ReleaseBay(0);
}

TEST_F(MechControllerTest, LoadInsertsDiscsIntoDrives) {
  mech::TrayAddress tray{0, 7, 2};
  ASSERT_TRUE(mc_->TryClaimBay(0));
  ASSERT_TRUE(sim_.RunUntilComplete(mc_->LoadArray(tray, 0)).ok());
  for (int i = 0; i < 12; ++i) {
    EXPECT_TRUE(mc_->drive_set(0).drive(i).has_disc());
    EXPECT_EQ(mc_->drive_set(0).drive(i).disc()->id(),
              (mech::DiscAddress{tray, i}.ToString()));
  }
  EXPECT_NE(mc_->DriveHolding({tray, 5}), nullptr);
  EXPECT_EQ(mc_->DriveHolding({{0, 8, 2}, 5}), nullptr);

  ASSERT_TRUE(sim_.RunUntilComplete(mc_->UnloadArray(0)).ok());
  for (int i = 0; i < 12; ++i) {
    EXPECT_FALSE(mc_->drive_set(0).drive(i).has_disc());
  }
  mc_->ReleaseBay(0);
  EXPECT_EQ(mc_->bay_state(0), BayState::kEmpty);
}

TEST_F(MechControllerTest, DiscIdentityStableAcrossLoads) {
  mech::TrayAddress tray{0, 1, 0};
  drive::Disc* disc = mc_->DiscAt({tray, 4});
  ASSERT_TRUE(disc->AppendSession("img", 100, {1, 2, 3}, true).ok());

  ASSERT_TRUE(mc_->TryClaimBay(0));
  ASSERT_TRUE(sim_.RunUntilComplete(mc_->LoadArray(tray, 0)).ok());
  // The same physical media (with its burned session) is in the drive.
  EXPECT_TRUE(mc_->drive_set(0).drive(4).disc()->FindSession("img").ok());
  ASSERT_TRUE(sim_.RunUntilComplete(mc_->UnloadArray(0)).ok());
  mc_->ReleaseBay(0);
}

TEST_F(MechControllerTest, BootInventoryFindsParkedArrays) {
  mech::TrayAddress tray{0, 2, 3};
  ASSERT_TRUE(mc_->TryClaimBay(1));
  ASSERT_TRUE(sim_.RunUntilComplete(mc_->LoadArray(tray, 1)).ok());
  mc_->ReleaseBay(1);

  // Controller replacement: physical state is rediscovered.
  MechController fresh(sim_, system_->library(), system_->drive_sets(),
                       &system_->discs(), params_);
  EXPECT_EQ(fresh.bay_state(1), BayState::kParked);
  ASSERT_TRUE(fresh.bay_tray(1).has_value());
  EXPECT_EQ(*fresh.bay_tray(1), tray);
}

TEST_F(MechControllerTest, LoadIntoOccupiedBayFails) {
  ASSERT_TRUE(mc_->TryClaimBay(0));
  ASSERT_TRUE(sim_.RunUntilComplete(
                  mc_->LoadArray({0, 0, 0}, 0)).ok());
  EXPECT_EQ(sim_.RunUntilComplete(mc_->LoadArray({0, 0, 1}, 0)).code(),
            StatusCode::kFailedPrecondition);
}

// A read of a parked array claims the bay that holds it: no load cycle.
TEST_F(MechControllerTest, ReadClaimPrefersBayHoldingWantedArray) {
  mech::TrayAddress tray{0, 3, 1};
  const int bay = Park(tray);
  EXPECT_EQ(mc_->bay_state(bay), BayState::kParked);

  EXPECT_EQ(Read(tray), bay);
  ASSERT_TRUE(mc_->bay_tray(bay).has_value());
  EXPECT_EQ(*mc_->bay_tray(bay), tray);
  EXPECT_EQ(sched_->stats().loads, 1u);
  EXPECT_EQ(sched_->stats().parked_hits, 1u);
  sched_->ReleaseBay(bay);
}

TEST_F(MechControllerTest, BurnClaimTakesEmptyBayFirst) {
  const int parked = Park({0, 4, 1});
  const int bay = sim_.RunUntilComplete(sched_->AcquireForBurn());
  EXPECT_NE(bay, parked);
  EXPECT_EQ(mc_->bay_state(bay), BayState::kBusy);
  EXPECT_FALSE(mc_->bay_tray(bay).has_value());
  EXPECT_EQ(mc_->bay_state(parked), BayState::kParked);
  sched_->ReleaseBay(bay);
  EXPECT_EQ(mc_->bay_state(bay), BayState::kEmpty);
}

TEST_F(MechControllerTest, BurnClaimTakesLruParkedBay) {
  const int older = Park({0, 4, 1});
  const int newer = Park({0, 5, 1});
  ASSERT_NE(older, newer);
  EXPECT_EQ(sim_.RunUntilComplete(sched_->AcquireForBurn()), older);
  sched_->ReleaseBay(older);
  // The release made `older` the most recently used bay.
  EXPECT_EQ(sim_.RunUntilComplete(sched_->AcquireForBurn()), newer);
  sched_->ReleaseBay(newer);
}

TEST_F(MechControllerTest, BurnClaimSparesDemandedTray) {
  const int older = Park({0, 4, 1});
  const int newer = Park({0, 5, 1});
  HoldWithQueuedReader(older);
  mc_->ReleaseBay(older);
  // LRU alone would pick `older`; its queued reader keeps it resident.
  EXPECT_EQ(sim_.RunUntilComplete(sched_->AcquireForBurn()), newer);
  EXPECT_EQ(sched_->queue_depth(), 1);  // claimed without waiting
  sched_->ReleaseBay(newer);
  sim_.Run();
  EXPECT_EQ(sched_->queue_depth(), 0);
  EXPECT_EQ(sched_->stats().loads, 2u);
}

TEST_F(MechControllerTest, BurnClaimEvictsDemandedTrayWhenAllAre) {
  const int older = Park({0, 4, 1});
  const int newer = Park({0, 5, 1});
  HoldWithQueuedReader(older);
  HoldWithQueuedReader(newer);
  mc_->ReleaseBay(older);
  mc_->ReleaseBay(newer);
  // Both parked arrays have a queued reader. The burn does not queue
  // behind reads, so it takes the LRU one at once.
  EXPECT_EQ(sim_.RunUntilComplete(sched_->AcquireForBurn()), older);
  EXPECT_EQ(sched_->queue_depth(), 2);
  // The burn left the array loaded: its release hands the bay to the
  // queued reader.
  sched_->ReleaseBay(older);
  sim_.Run();
  EXPECT_EQ(sched_->queue_depth(), 0);
  EXPECT_EQ(sched_->stats().loads, 2u);
}

TEST_F(MechControllerTest, BurnClaimWaitsForReleaseWhenAllBaysBusy) {
  const int a = Read({0, 4, 1});
  const int b = Read({0, 5, 1});
  std::optional<int> burn_bay;
  sim_.Spawn([](FetchScheduler* sched,
                std::optional<int>* out) -> sim::Task<void> {
    *out = co_await sched->AcquireForBurn();
  }(sched_.get(), &burn_bay));
  sim_.RunFor(sim::Seconds(5));
  EXPECT_FALSE(burn_bay.has_value());
  sched_->ReleaseBay(a);
  sim_.Run();
  ASSERT_TRUE(burn_bay.has_value());
  EXPECT_EQ(*burn_bay, a);
  EXPECT_EQ(mc_->bay_state(a), BayState::kBusy);
  sched_->ReleaseBay(a);
  sched_->ReleaseBay(b);
}

// A reader of the array a burn holds queues behind the burn and gets the
// same bay when it is released, array still loaded (§4.8's wait-for-burn
// shape): loading the array into the free bay would fork the media.
TEST_F(MechControllerTest, ReadOfArrayHeldByBurnWaitsForItsBay) {
  mech::TrayAddress tray{0, 4, 1};
  const int bay = sim_.RunUntilComplete(sched_->AcquireForBurn());
  ASSERT_TRUE(sim_.RunUntilComplete(mc_->LoadArray(tray, bay)).ok());
  ASSERT_EQ(mc_->bay_state(1 - bay), BayState::kEmpty);

  std::optional<int> woken;
  sim_.Spawn([](FetchScheduler* sched, mech::TrayAddress want,
                std::optional<int>* out) -> sim::Task<void> {
    auto got = co_await sched->AcquireForRead({want, 0});
    ROS_CHECK(got.ok());
    *out = *got;
    sched->ReleaseBay(*got);
  }(sched_.get(), tray, &woken));
  sim_.RunFor(sim::Seconds(5));
  EXPECT_FALSE(woken.has_value());
  EXPECT_EQ(mc_->bay_state(1 - bay), BayState::kEmpty);
  sched_->ReleaseBay(bay);
  sim_.Run();
  ASSERT_TRUE(woken.has_value());
  EXPECT_EQ(*woken, bay);
  EXPECT_EQ(sched_->stats().loads, 0u);
  EXPECT_EQ(sched_->stats().handoffs, 1u);
}

TEST_F(MechControllerTest, BurnClaimOfSpeculativeTrayCountsItWasted) {
  sched_->EnqueueSpeculative({0, 4, 1});
  sim_.Run();
  sched_->EnqueueSpeculative({0, 5, 1});
  sim_.Run();
  ASSERT_EQ(sched_->stats().speculative_loads, 2u);
  ASSERT_EQ(mc_->bay_state(0), BayState::kParked);
  ASSERT_EQ(mc_->bay_state(1), BayState::kParked);

  const int bay = sim_.RunUntilComplete(sched_->AcquireForBurn());
  EXPECT_EQ(sched_->stats().speculative_wasted, 1u);
  ASSERT_TRUE(sim_.RunUntilComplete(mc_->UnloadArray(bay)).ok());
  sched_->ReleaseBay(bay);
  EXPECT_EQ(sched_->stats().speculative_wasted, 1u);
  EXPECT_EQ(sched_->stats().speculative_useful, 0u);
}

// A readahead claim takes only a parked, idle bay and never queues: it
// fails at once for a tray that is not resident, that a reader holds, or
// that has a reader queued, and leaves no claim and no load behind.
TEST_F(MechControllerTest, ReadaheadClaimTakesOnlyAnIdleParkedBay) {
  const mech::TrayAddress tray{0, 4, 1};
  EXPECT_EQ(sched_->AcquireIfParked({tray, 0}).status().code(),
            StatusCode::kFailedPrecondition);
  const int bay = Park(tray);
  HoldWithQueuedReader(bay);
  EXPECT_FALSE(sched_->AcquireIfParked({tray, 0}).ok());  // held
  mc_->ReleaseBay(bay);
  EXPECT_FALSE(sched_->AcquireIfParked({tray, 0}).ok());  // reader queued
  sim_.Run();
  ASSERT_EQ(mc_->bay_state(bay), BayState::kParked);
  EXPECT_EQ(sched_->queue_depth(), 0);

  auto claimed = sched_->AcquireIfParked({tray, 0});
  ASSERT_TRUE(claimed.ok()) << claimed.status().ToString();
  EXPECT_EQ(*claimed, bay);
  EXPECT_EQ(mc_->bay_state(bay), BayState::kBusy);
  sched_->ReleaseBay(bay);
  sim_.Run();
  EXPECT_EQ(sched_->stats().loads, 1u);
  EXPECT_EQ(sched_->stats().completed, sched_->stats().requests);
}

// A background claim waits out the hold after a demand arrival, even one
// served without queueing, on one timer: a handful of events, not one
// per second of the wait.
TEST_F(MechControllerTest, BackgroundClaimWaitsOutTheHoldOnOneTimer) {
  const mech::TrayAddress hot{0, 4, 1};
  Park(hot);
  const sim::TimePoint arrival = sim_.now();
  sched_->ReleaseBay(Read(hot));  // a parked hit: no queue, still demand

  std::optional<int> bay;
  SpawnClaim(sched_->AcquireForBackground({{0, 5, 1}, 0}), &bay);
  const std::uint64_t events = sim_.events_processed();
  sim_.RunUntil(arrival + Hold() - 1);
  EXPECT_EQ(sched_->stats().background_acquires, 0u);
  EXPECT_LE(sim_.events_processed() - events, 2u);
  sim_.RunUntil(arrival + Hold());
  EXPECT_EQ(sched_->stats().background_acquires, 1u);
  EXPECT_EQ(sched_->stats().background_yields, 1u);
  sim_.Run();
  ASSERT_TRUE(bay.has_value());
  sched_->ReleaseBay(*bay);
}

// A background claim arriving while the machinery is idle and the hold is
// over is admitted on arrival and counts no deferral.
TEST_F(MechControllerTest, BackgroundClaimIsAdmittedAtOnceWhenIdle) {
  std::optional<int> bay;
  SpawnClaim(sched_->AcquireForBackground({{0, 5, 1}, 0}), &bay);
  EXPECT_EQ(sched_->stats().background_acquires, 1u);
  EXPECT_EQ(sched_->stats().background_yields, 0u);
  EXPECT_EQ(sched_->queue_depth(), 1);  // queued for its load like a read
  sim_.Run();
  ASSERT_TRUE(bay.has_value());
  sched_->ReleaseBay(*bay);
}

// A background claim is not admitted while demand is queued or loading,
// however long ago the hold began; the dispatcher re-checks it on the bay
// release that ends the demand burst.
TEST_F(MechControllerTest, BackgroundClaimYieldsToQueuedAndLoadingDemand) {
  const int a = Read({0, 4, 1});
  const int b = Read({0, 5, 1});
  std::optional<int> reader;
  SpawnClaim(sched_->AcquireForRead({{0, 6, 1}, 0}), &reader);
  std::optional<int> sweep;
  SpawnClaim(sched_->AcquireForBackground({{0, 7, 1}, 0}), &sweep);

  sim_.RunFor(Hold() * 2);  // the read is queued: every bay is busy
  EXPECT_EQ(sched_->queue_depth(), 1);
  EXPECT_EQ(sched_->stats().background_acquires, 0u);
  sched_->ReleaseBay(a);  // the read loads into `a`
  while (!reader.has_value()) {
    sim_.RunFor(sim::Seconds(1));
    ASSERT_EQ(sched_->stats().background_acquires, 0u);
  }
  EXPECT_EQ(*reader, a);
  sim_.RunFor(sim::Seconds(5));  // the reader holds its bay
  EXPECT_EQ(sched_->stats().background_acquires, 0u);
  sched_->ReleaseBay(*reader);
  sim_.RunFor(0);
  EXPECT_EQ(sched_->stats().background_acquires, 1u);
  sim_.Run();
  ASSERT_TRUE(sweep.has_value());
  sched_->ReleaseBay(*sweep);
  sched_->ReleaseBay(b);
}

// A queued burn is granted the next freed bay ahead of a read that was
// queued before it.
TEST_F(MechControllerTest, BurnTakesFreedBayAheadOfQueuedRead) {
  const int a = Read({0, 4, 1});
  const int b = Read({0, 5, 1});
  std::optional<int> reader;
  SpawnClaim(sched_->AcquireForRead({{0, 6, 1}, 0}), &reader);
  std::optional<int> burn_bay;
  sim_.Spawn([](FetchScheduler* sched,
                std::optional<int>* out) -> sim::Task<void> {
    *out = co_await sched->AcquireForBurn();
  }(sched_.get(), &burn_bay));
  sim_.RunFor(sim::Seconds(5));
  ASSERT_FALSE(burn_bay.has_value());

  sched_->ReleaseBay(a);
  sim_.RunFor(sim::Seconds(5));
  ASSERT_TRUE(burn_bay.has_value());
  EXPECT_EQ(*burn_bay, a);
  EXPECT_FALSE(reader.has_value());
  EXPECT_EQ(sched_->queue_depth(), 1);
  EXPECT_EQ(sched_->stats().loads, 2u);

  sched_->ReleaseBay(b);  // the read takes the next bay
  sim_.Run();
  ASSERT_TRUE(reader.has_value());
  EXPECT_EQ(*reader, b);
  sched_->ReleaseBay(*reader);
  sched_->ReleaseBay(*burn_bay);
}

// Every class in the one queue: the burn is granted first, then the
// demand read, then the background sweep once demand is idle, and a
// speculative tray last, never into a bay whose tray has demand.
TEST_F(MechControllerTest, OneQueueGrantsEachClassInTurn) {
  const mech::TrayAddress read_tray{0, 6, 1};
  const mech::TrayAddress sweep_tray{0, 7, 1};
  const mech::TrayAddress spec_tray{0, 8, 1};
  const int a = Read({0, 4, 1});
  const int b = Read({0, 5, 1});
  std::optional<int> reader;
  SpawnClaim(sched_->AcquireForRead({read_tray, 0}), &reader);
  sched_->EnqueueSpeculative(spec_tray);
  std::optional<int> sweep;
  SpawnClaim(sched_->AcquireForBackground({sweep_tray, 0}), &sweep);
  std::optional<int> burn_bay;
  sim_.Spawn([](FetchScheduler* sched,
                std::optional<int>* out) -> sim::Task<void> {
    *out = co_await sched->AcquireForBurn();
  }(sched_.get(), &burn_bay));
  sim_.RunFor(sim::Seconds(1));

  sched_->ReleaseBay(a);
  sim_.RunFor(0);
  ASSERT_TRUE(burn_bay.has_value());
  EXPECT_EQ(*burn_bay, a);
  sched_->ReleaseBay(b);
  while (!reader.has_value()) {
    sim_.RunFor(sim::Seconds(1));
  }
  EXPECT_EQ(*reader, b);
  EXPECT_EQ(sched_->stats().background_acquires, 0u);
  EXPECT_EQ(sched_->stats().speculative_loads, 0u);
  sched_->ReleaseBay(*reader);
  while (!sweep.has_value()) {
    sim_.RunFor(sim::Seconds(1));
  }
  EXPECT_EQ(*sweep, b);
  // Admitting the sweep queued demand, which canceled the speculative
  // claim. A fresh one waits for a bay whose tray has no demand.
  EXPECT_EQ(sched_->stats().speculative_canceled, 1u);
  sched_->EnqueueSpeculative(spec_tray);
  sim_.RunFor(sim::Seconds(5));
  EXPECT_EQ(sched_->stats().speculative_loads, 0u);
  sched_->ReleaseBay(*sweep);
  sim_.Run();
  EXPECT_EQ(sched_->stats().speculative_loads, 1u);
  EXPECT_EQ(sched_->stats().speculative_demand_evictions, 0u);
  EXPECT_EQ(*mc_->bay_tray(b), spec_tray);
  const std::vector<std::pair<int, int>> want = {
      {mech::TrayAddress{0, 4, 1}.ToIndex(), a},
      {mech::TrayAddress{0, 5, 1}.ToIndex(), b},
      {read_tray.ToIndex(), b},
      {sweep_tray.ToIndex(), b},
      {spec_tray.ToIndex(), b}};
  EXPECT_EQ(sched_->dispatch_log(), want);
  EXPECT_TRUE(sched_->Idle());
  sched_->ReleaseBay(*burn_bay);
}

// Tearing the scheduler down in the instant of a bay change leaves the
// dispatcher's wakeup queued; the woken loop must touch nothing (the
// sanitizer build reports any access to the freed scheduler).
TEST_F(MechControllerTest, DispatcherWokenAfterTeardownTouchesNothing) {
  const int bay = Read({0, 4, 1});  // starts the dispatcher
  sched_->ReleaseBay(bay);          // queues its wakeup
  sched_.reset();
  sim_.Run();
  EXPECT_EQ(mc_->bay_state(bay), BayState::kParked);
}

}  // namespace
}  // namespace ros::olfs
