// Determinism oracle tests (DESIGN.md §5h).
//
// Unit-level: the EventHasher's record/check modes, first-divergence
// capture, and truncation detection. System-level: a mixed OLFS workload
// (writes under fault injection, read-back, scrub) double-run with the
// oracle installed must replay its event stream bit-identically.
#include "src/sim/event_hasher.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/olfs/olfs.h"
#include "src/sim/fault.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace ros::sim {
namespace {

TEST(EventHasher, RecordBuildsTrailAndDigest) {
  EventHasher hasher;
  EXPECT_FALSE(hasher.checking());
  hasher.Fold("dispatch", "coro", 1, 2);
  hasher.Fold("fault", "drive:0", 3, 4);
  EXPECT_EQ(hasher.event_count(), 2u);
  ASSERT_EQ(hasher.trail().size(), 2u);
  // The trail is chained: the last entry IS the running digest.
  EXPECT_EQ(hasher.trail().back(), hasher.digest());
  EXPECT_NE(hasher.trail()[0], hasher.trail()[1]);
}

TEST(EventHasher, IdenticalFoldsProduceIdenticalDigests) {
  EventHasher a;
  EventHasher b;
  for (int i = 0; i < 100; ++i) {
    a.Fold("dispatch", "coro", static_cast<std::uint64_t>(i), 7);
    b.Fold("dispatch", "coro", static_cast<std::uint64_t>(i), 7);
  }
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.trail(), b.trail());
}

TEST(EventHasher, OrderAndPayloadChangeTheDigest) {
  EventHasher ab;
  ab.Fold("plc", "GRAB_ARRAY", 1);
  ab.Fold("plc", "PLACE_ARRAY", 1);
  EventHasher ba;
  ba.Fold("plc", "PLACE_ARRAY", 1);
  ba.Fold("plc", "GRAB_ARRAY", 1);
  EXPECT_NE(ab.digest(), ba.digest());

  // Concatenation boundaries must matter: ("ab","c") != ("a","bc").
  EventHasher split1;
  split1.Fold("ab", "c");
  EventHasher split2;
  split2.Fold("a", "bc");
  EXPECT_NE(split1.digest(), split2.digest());
}

TEST(EventHasher, CheckModePassesOnIdenticalStream) {
  EventHasher record;
  record.Fold("dispatch", "fn", 10, 0);
  record.Fold("dispatch", "coro", 10, 1);
  EventHasher check(record.trail());
  EXPECT_TRUE(check.checking());
  check.Fold("dispatch", "fn", 10, 0);
  check.Fold("dispatch", "coro", 10, 1);
  check.Finish();
  EXPECT_FALSE(check.diverged());
  EXPECT_EQ(check.digest(), record.digest());
}

TEST(EventHasher, CheckModeNamesTheFirstDivergentEvent) {
  EventHasher record;
  record.Fold("dispatch", "coro", 10, 0);
  record.Fold("fault", "drive:0", 2, 1);
  record.Fold("dispatch", "coro", 20, 2);
  EventHasher check(record.trail());
  check.Fold("dispatch", "coro", 10, 0);
  check.Fold("fault", "drive:1", 2, 1);  // diverges HERE
  check.Fold("dispatch", "coro", 20, 2);
  check.Finish();
  ASSERT_TRUE(check.diverged());
  EXPECT_EQ(check.divergence()->index, 1u);
  // The description names the check run's event, not the reference's.
  EXPECT_NE(check.divergence()->description.find("drive:1"),
            std::string::npos);
  // Only the first divergence is captured even though the chained digest
  // never re-converges afterwards.
  EXPECT_NE(check.digest(), record.digest());
}

TEST(EventHasher, CheckModeFlagsExtraAndMissingEvents) {
  EventHasher record;
  record.Fold("dispatch", "coro", 1, 0);
  record.Fold("dispatch", "coro", 2, 1);

  EventHasher longer(record.trail());
  longer.Fold("dispatch", "coro", 1, 0);
  longer.Fold("dispatch", "coro", 2, 1);
  longer.Fold("dispatch", "coro", 3, 2);  // one past the reference
  ASSERT_TRUE(longer.diverged());
  EXPECT_EQ(longer.divergence()->index, 2u);

  EventHasher shorter(record.trail());
  shorter.Fold("dispatch", "coro", 1, 0);
  EXPECT_FALSE(shorter.diverged());  // not yet: only Finish() can tell
  shorter.Finish();
  ASSERT_TRUE(shorter.diverged());
  EXPECT_EQ(shorter.divergence()->index, 1u);
}

TEST(EventHasher, SimulatorFoldsDispatches) {
  auto run = [](EventHasher* hasher) {
    Simulator sim;
    sim.set_event_hasher(hasher);
    sim.ScheduleAfter(Seconds(2), [] {});
    sim.ScheduleAfter(Seconds(1), [] {});
    sim.Run();
  };
  EventHasher record;
  run(&record);
  EXPECT_EQ(record.event_count(), 2u);
  EventHasher check(record.trail());
  run(&check);
  check.Finish();
  EXPECT_FALSE(check.diverged());
}

TEST(EventHasher, FaultInjectorFoldsDecisions) {
  auto run = [](EventHasher* hasher, double rate) {
    FaultInjector faults(/*seed=*/42);
    faults.set_event_hasher(hasher);
    faults.SetRate(FaultKind::kLatentSectorError, rate);
    for (int i = 0; i < 50; ++i) {
      faults.ShouldInject(FaultKind::kLatentSectorError, "drive:0");
    }
  };
  EventHasher record;
  run(&record, 0.2);
  EXPECT_EQ(record.event_count(), 50u);
  EventHasher same(record.trail());
  run(&same, 0.2);
  same.Finish();
  EXPECT_FALSE(same.diverged());
  // A different fault plan diverges at the first differing decision.
  EventHasher other(record.trail());
  run(&other, 0.9);
  other.Finish();
  EXPECT_TRUE(other.diverged());
}

// --- system-level double run -------------------------------------------

std::vector<std::uint8_t> DeterministicBytes(std::size_t n,
                                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  return out;
}

// One seeded mixed workload: writes under a fault storm, a burn drain,
// read-back, scrub. Returns the total simulated time as a cheap secondary
// fingerprint; the hasher carries the real one. Every create/remove here
// also runs the MV's WAL group commit and any background memtable
// flushes, so their device I/O is part of the hashed event stream
// (compaction-vs-foreground determinism at store granularity is pinned
// separately by mv_store_test).
TimePoint RunMixedWorkload(EventHasher* hasher) {
  Simulator sim;
  sim.set_event_hasher(hasher);
  olfs::RosSystem system(sim, olfs::TestSystemConfig());
  olfs::OlfsParams params;
  params.disc_type = drive::DiscType::kBdr25;
  params.disc_capacity_override = 16 * kMiB;
  params.read_cache_bytes = 0;
  auto olfs = std::make_unique<olfs::Olfs>(sim, &system, params);
  olfs->burns().burn_start_interval = Seconds(1);

  FaultInjector faults(/*seed=*/7);
  faults.set_event_hasher(hasher);
  faults.FailNth(FaultKind::kBurnFailure, "", 1);
  faults.SetRate(FaultKind::kLatentSectorError, 0.01);
  system.InstallFaultInjector(&faults);

  for (int i = 0; i < 3; ++i) {
    const std::string path = "/det/f" + std::to_string(i);
    auto payload = DeterministicBytes(8 * kKiB, 100 + i);
    EXPECT_TRUE(
        sim.RunUntilComplete(olfs->Create(path, payload)).ok());
  }
  EXPECT_TRUE(sim.RunUntilComplete(olfs->FlushAndDrain()).ok());
  for (int i = 0; i < 3; ++i) {
    const std::string path = "/det/f" + std::to_string(i);
    auto data = sim.RunUntilComplete(olfs->Read(path, 0, 8 * kKiB));
    EXPECT_TRUE(data.ok());
  }
  system.InstallFaultInjector(nullptr);
  EXPECT_TRUE(sim.RunUntilComplete(olfs->scrub().RunPass()).ok());
  const TimePoint end = sim.now();
  sim.Shutdown();
  return end;
}

TEST(Determinism, MixedWorkloadDoubleRunReplaysExactly) {
  EventHasher record;
  const TimePoint first = RunMixedWorkload(&record);
  ASSERT_GT(record.event_count(), 0u);

  EventHasher check(record.trail());
  const TimePoint second = RunMixedWorkload(&check);
  check.Finish();
  if (check.diverged()) {
    FAIL() << "event stream diverged at event #"
           << check.divergence()->index << ": "
           << check.divergence()->description;
  }
  EXPECT_EQ(first, second);
  EXPECT_EQ(check.digest(), record.digest());
  EXPECT_EQ(check.event_count(), record.event_count());
}

}  // namespace
}  // namespace ros::sim
