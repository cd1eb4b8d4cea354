// Chaos tests: deterministic fault injection against the full OLFS stack.
//
// Every test runs a seeded fault plan and asserts the self-healing
// invariants of §4.7: acked writes stay readable byte-for-byte, failed
// burns migrate to spare arrays, transient mechanical faults are retried
// in place, and an installed-but-empty injector leaves the simulation
// bit-identical to running with none at all.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/olfs/maintenance.h"
#include "src/olfs/olfs.h"
#include "src/sim/fault.h"
#include "src/sim/join.h"
#include "src/sim/time.h"

namespace ros::olfs {
namespace {

using sim::FaultKind;
using sim::Seconds;

OlfsParams ChaosParams() {
  OlfsParams params;
  params.disc_type = drive::DiscType::kBdr25;
  params.disc_capacity_override = 16 * kMiB;
  // No read cache: every read exercises the fetch + optical read path,
  // which is where the fault hooks live.
  params.read_cache_bytes = 0;
  return params;
}

class ChaosTest : public ::testing::Test {
 protected:
  ChaosTest() { Reset(ChaosParams()); }

  ~ChaosTest() override {
    if (sim_ != nullptr) {
      sim_->Shutdown();
    }
  }

  void Reset(OlfsParams params) {
    if (sim_ != nullptr) {
      sim_->Shutdown();
    }
    olfs_.reset();
    system_.reset();
    faults_.reset();
    sim_ = std::make_unique<sim::Simulator>();
    system_ = std::make_unique<RosSystem>(*sim_, TestSystemConfig());
    olfs_ = std::make_unique<Olfs>(*sim_, system_.get(), params);
    olfs_->burns().burn_start_interval = Seconds(1);
  }

  // Installs a fresh injector on every hook in the rack.
  sim::FaultInjector& InstallInjector(std::uint64_t seed) {
    faults_ = std::make_unique<sim::FaultInjector>(seed);
    system_->InstallFaultInjector(faults_.get());
    return *faults_;
  }

  std::vector<std::uint8_t> RandomBytes(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::uint8_t> out(n);
    for (auto& b : out) {
      b = static_cast<std::uint8_t>(rng.Next());
    }
    return out;
  }

  Status Create(const std::string& path,
                const std::vector<std::uint8_t>& data) {
    return sim_->RunUntilComplete(olfs_->Create(path, data, data.size()));
  }

  // Reads `path` fully and requires the bytes to match `expect`.
  void ExpectReadsBack(const std::string& path,
                       const std::vector<std::uint8_t>& expect) {
    auto data = sim_->RunUntilComplete(
        olfs_->Read(path, 0, expect.size()));
    ASSERT_TRUE(data.ok()) << path << ": " << data.status().ToString();
    EXPECT_EQ(*data, expect) << path;
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<RosSystem> system_;
  std::unique_ptr<Olfs> olfs_;
  std::unique_ptr<sim::FaultInjector> faults_;
};

// An installed injector with no configured faults must not perturb the
// simulation: same bytes, same simulated clock, tick for tick.
TEST_F(ChaosTest, EmptyInjectorIsTickAndByteIdentical) {
  auto workload = [&]() -> std::pair<sim::TimePoint,
                                     std::vector<std::uint8_t>> {
    std::vector<std::uint8_t> all;
    for (int i = 0; i < 3; ++i) {
      auto payload = RandomBytes(24 * kKiB + i * 1000, 100 + i);
      ROS_CHECK(Create("/d/f" + std::to_string(i), payload).ok());
    }
    ROS_CHECK(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());
    for (int i = 0; i < 3; ++i) {
      auto data = sim_->RunUntilComplete(olfs_->Read(
          "/d/f" + std::to_string(i), 0, 24 * kKiB + i * 1000));
      ROS_CHECK(data.ok());
      all.insert(all.end(), data->begin(), data->end());
    }
    return {sim_->now(), std::move(all)};
  };

  auto [baseline_now, baseline_bytes] = workload();

  Reset(ChaosParams());
  sim::FaultInjector& faults = InstallInjector(/*seed=*/42);
  auto [chaos_now, chaos_bytes] = workload();

  EXPECT_EQ(baseline_now, chaos_now);
  EXPECT_EQ(baseline_bytes, chaos_bytes);
  // The hooks were consulted but injected nothing and drew no randomness.
  EXPECT_GT(faults.ops_seen(FaultKind::kLatentSectorError), 0u);
  EXPECT_EQ(faults.total_injected(), 0u);
}

// The aged injector hook with extra_rate=0 is indistinguishable from the
// plain hook: same decisions, same randomness consumed, so installing the
// (disabled) aging model can never perturb a run.
TEST_F(ChaosTest, DisabledAgingHookIsDrawForDrawIdentical) {
  sim::FaultInjector plain(/*seed=*/123);
  sim::FaultInjector aged(/*seed=*/123);
  plain.SetRate(FaultKind::kLatentSectorError, 0.3);
  aged.SetRate(FaultKind::kLatentSectorError, 0.3);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(plain.ShouldInject(FaultKind::kLatentSectorError, "read"),
              aged.ShouldInjectAged(FaultKind::kLatentSectorError, "read",
                                    /*extra_rate=*/0.0))
        << "diverged at draw " << i;
  }
  EXPECT_EQ(plain.injected(FaultKind::kLatentSectorError),
            aged.injected(FaultKind::kLatentSectorError));
  // Both injectors are in the same RNG state afterwards: their futures
  // agree too.
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(plain.ShouldInject(FaultKind::kMechFault, "mech"),
              aged.ShouldInject(FaultKind::kMechFault, "mech"));
  }
  // RecordExternal bumps telemetry without consuming randomness.
  aged.RecordExternal(FaultKind::kLatentSectorError, "aging", 5);
  EXPECT_EQ(aged.injected(FaultKind::kLatentSectorError),
            plain.injected(FaultKind::kLatentSectorError) + 5);
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(plain.ShouldInject(FaultKind::kMechFault, "mech"),
              aged.ShouldInject(FaultKind::kMechFault, "mech"));
  }
}

// A populated-but-disabled media aging model must leave the simulation
// bit-identical to the default configuration — same clock, same bytes —
// exactly like an installed-but-empty fault injector.
TEST_F(ChaosTest, DisabledAgingModelIsTickAndByteIdentical) {
  auto workload = [&]() -> std::pair<sim::TimePoint,
                                     std::vector<std::uint8_t>> {
    std::vector<std::uint8_t> all;
    for (int i = 0; i < 3; ++i) {
      auto payload = RandomBytes(24 * kKiB + i * 1000, 500 + i);
      ROS_CHECK(Create("/age/f" + std::to_string(i), payload).ok());
    }
    ROS_CHECK(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());
    sim_->RunFor(Seconds(3600));  // idle time the aging clock could use
    for (int i = 0; i < 3; ++i) {
      auto data = sim_->RunUntilComplete(olfs_->Read(
          "/age/f" + std::to_string(i), 0, 24 * kKiB + i * 1000));
      ROS_CHECK(data.ok());
      all.insert(all.end(), data->begin(), data->end());
    }
    return {sim_->now(), std::move(all)};
  };

  auto [baseline_now, baseline_bytes] = workload();

  OlfsParams aged = ChaosParams();
  // Every rate dialed up, but the master switch off: nothing may change.
  aged.media_aging.enabled = false;
  aged.media_aging.lse_per_sector_year = 10.0;
  aged.media_aging.growth_per_year = 10.0;
  aged.media_aging.read_fault_per_year = 10.0;
  Reset(aged);
  sim::FaultInjector& faults = InstallInjector(/*seed=*/42);
  auto [aged_now, aged_bytes] = workload();

  EXPECT_EQ(baseline_now, aged_now);
  EXPECT_EQ(baseline_bytes, aged_bytes);
  EXPECT_EQ(faults.total_injected(), 0u);
}

// The deep scrub runs strictly in the scheduler's background class: under
// a concurrent foreground read stream every read completes, queue delays
// stay bounded, and the scheduler's self-checks hold.
TEST_F(ChaosTest, BackgroundScrubNeverStarvesForegroundReads) {
  OlfsParams params = ChaosParams();
  params.media_aging.enabled = true;
  params.media_aging.lse_per_sector_year = 0.0005;
  params.media_aging.seed = 77;
  Reset(params);

  std::map<std::string, std::vector<std::uint8_t>> acked;
  std::vector<std::string> paths;
  for (int i = 0; i < 4; ++i) {
    const std::string path = "/busy/f" + std::to_string(i);
    auto payload = RandomBytes(12 * kKiB + i * 2000, 700 + i);
    ASSERT_TRUE(Create(path, payload).ok()) << path;
    ASSERT_TRUE(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());
    acked[path] = std::move(payload);
    paths.push_back(path);
  }
  ASSERT_NE(olfs_->fetch_scheduler(), nullptr);
  sim_->RunFor(Seconds(3 * 365 * 24 * 3600.0));  // three years of rot

  // Scrub pass and foreground reads in flight together.
  StatusOr<ScrubPassReport> pass = UnavailableError("still running");
  sim_->Spawn([](Olfs* olfs,
                 StatusOr<ScrubPassReport>* out) -> sim::Task<void> {
    *out = co_await olfs->scrub().RunPass();
  }(olfs_.get(), &pass));

  std::vector<Status> results(paths.size(), UnavailableError("running"));
  for (std::size_t i = 0; i < paths.size(); ++i) {
    sim_->Spawn([](Olfs* olfs, std::string path,
                   const std::vector<std::uint8_t>* expect,
                   Status* out) -> sim::Task<void> {
      auto data = co_await olfs->Read(path, 0, expect->size());
      if (!data.ok()) {
        *out = data.status();
      } else {
        *out = *data == *expect ? OkStatus()
                                : DataLossError("content mismatch");
      }
    }(olfs_.get(), paths[i], &acked[paths[i]], &results[i]));
  }
  sim_->Run();  // drain: scrub + every foreground read complete

  ASSERT_TRUE(pass.ok()) << pass.status().ToString();
  EXPECT_GT(pass->images, 0);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].ok())
        << paths[i] << ": " << results[i].ToString();
  }
  const FetchSchedulerStats& stats = olfs_->fetch_scheduler()->stats();
  // The scrub went through the background class, which yields while
  // foreground demand is queued — and foreground delay stays bounded by
  // at most a handful of array swaps, not the length of the scrub.
  EXPECT_GT(stats.background_acquires, 0u);
  EXPECT_EQ(stats.speculative_demand_evictions, 0u);
  EXPECT_LT(stats.max_queue_delay, Seconds(900));
  for (int b = 0; b < olfs_->mech().num_bays(); ++b) {
    EXPECT_NE(olfs_->mech().bay_state(b), BayState::kBusy) << "bay " << b;
  }
}

// A latent sector error under the read head is served degraded from
// parity — correct bytes, counters ticking — and repaired onto fresh
// media in the background.
TEST_F(ChaosTest, InjectedSectorErrorServedDegradedAndRepaired) {
  auto payload = RandomBytes(48 * kKiB, 7);
  ASSERT_TRUE(Create("/chaos/rot.bin", payload).ok());
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());

  sim::FaultInjector& faults = InstallInjector(/*seed=*/7);
  faults.FailNth(FaultKind::kLatentSectorError, /*site=*/"", /*nth=*/1);

  ExpectReadsBack("/chaos/rot.bin", payload);
  EXPECT_EQ(faults.injected(FaultKind::kLatentSectorError), 1u);
  EXPECT_EQ(olfs_->degraded_reads(), 1u);
  EXPECT_EQ(olfs_->reconstructions(), 1u);
  EXPECT_EQ(olfs_->images_repaired(), 1u);

  // The repair re-burn drains; afterwards the file reads clean.
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());
  ExpectReadsBack("/chaos/rot.bin", payload);
  EXPECT_EQ(olfs_->degraded_reads(), 1u);
}

// A permanent burn failure marks the array kFailed and the job completes
// on a spare array: the acked data ends up safely on other media.
TEST_F(ChaosTest, FailedBurnEndsOnSpareArray) {
  sim::FaultInjector& faults = InstallInjector(/*seed=*/3);
  faults.FailNth(FaultKind::kBurnFailure, /*site=*/"", /*nth=*/1);

  auto payload = RandomBytes(32 * kKiB, 9);
  ASSERT_TRUE(Create("/chaos/burnme.bin", payload).ok());
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());

  EXPECT_EQ(faults.injected(FaultKind::kBurnFailure), 1u);
  EXPECT_EQ(olfs_->burns().arrays_reallocated(), 1);
  EXPECT_EQ(olfs_->da_index().CountState(ArrayState::kFailed), 1);
  EXPECT_EQ(olfs_->da_index().CountState(ArrayState::kUsed), 1);
  EXPECT_TRUE(olfs_->burns().fatal_error().ok());
  EXPECT_EQ(olfs_->burns().last_error().code(), StatusCode::kDataLoss);

  auto index = sim_->RunUntilComplete(olfs_->mv().Get("/chaos/burnme.bin"));
  ASSERT_TRUE(index.ok());
  auto record =
      olfs_->images().Lookup((*index->Latest())->parts[0].image_id);
  ASSERT_TRUE(record.ok());
  ASSERT_TRUE((*record)->disc.has_value());
  // The image's home is the spare (kUsed) array, not the failed one.
  EXPECT_EQ(olfs_->da_index().state((*record)->disc->tray),
            ArrayState::kUsed);
  ExpectReadsBack("/chaos/burnme.bin", payload);
}

// S3: a transient mechanical fault mid-burn is retried in place.
// last_error() records the transient error for telemetry while
// fatal_error() — what DrainAll reports — stays clean.
TEST_F(ChaosTest, TransientMechFaultRetriedInPlace) {
  sim::FaultInjector& faults = InstallInjector(/*seed=*/5);
  faults.FailNth(FaultKind::kMechFault, /*site=*/"", /*nth=*/1);

  auto payload = RandomBytes(20 * kKiB, 11);
  ASSERT_TRUE(Create("/chaos/retry.bin", payload).ok());
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());

  EXPECT_EQ(faults.injected(FaultKind::kMechFault), 1u);
  EXPECT_GE(olfs_->burns().burn_retries(), 1);
  EXPECT_EQ(olfs_->burns().arrays_reallocated(), 0);
  EXPECT_EQ(olfs_->burns().last_error().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(olfs_->burns().fatal_error().ok());
  ExpectReadsBack("/chaos/retry.bin", payload);
}

// S3: three transient mechanical faults in a row on one array load spend
// kBurnRetry's whole budget. The media is sound, so the job backs off and
// retries the same array under the array cap: the drain succeeds, no
// array is marked failed, and the file reads back from its disc.
TEST_F(ChaosTest, TransientFaultsPastTheRetryBudgetRetryTheSameArray) {
  sim::FaultInjector& faults = InstallInjector(/*seed=*/5);
  for (std::uint64_t nth = 1; nth <= 3; ++nth) {
    faults.FailNth(FaultKind::kMechFault, /*site=*/"", nth);
  }

  auto payload = RandomBytes(20 * kKiB, 31);
  ASSERT_TRUE(Create("/chaos/stubborn.bin", payload).ok());
  Status drained = sim_->RunUntilComplete(olfs_->FlushAndDrain());
  ASSERT_TRUE(drained.ok()) << drained.ToString();

  EXPECT_EQ(faults.injected(FaultKind::kMechFault), 3u);
  EXPECT_GE(olfs_->burns().burn_retries(), 3);
  EXPECT_EQ(olfs_->burns().arrays_reallocated(), 0);
  EXPECT_EQ(olfs_->da_index().CountState(ArrayState::kFailed), 0);
  EXPECT_TRUE(olfs_->burns().fatal_error().ok());

  auto index = sim_->RunUntilComplete(olfs_->mv().Get("/chaos/stubborn.bin"));
  ASSERT_TRUE(index.ok());
  auto record =
      olfs_->images().Lookup((*index->Latest())->parts[0].image_id);
  ASSERT_TRUE(record.ok());
  ASSERT_TRUE((*record)->disc.has_value());
  ExpectReadsBack("/chaos/stubborn.bin", payload);
}

// S3: when every burn attempt fails permanently, reallocation gives up
// after exhausting the spare budget and DrainAll reports the terminal
// error — but the acked bytes are still served from the disk buffer.
TEST_F(ChaosTest, TerminalBurnFailureReportedByDrainAll) {
  sim::FaultInjector& faults = InstallInjector(/*seed=*/13);
  faults.SetRate(FaultKind::kBurnFailure, 1.0);

  auto payload = RandomBytes(16 * kKiB, 17);
  ASSERT_TRUE(Create("/chaos/doomed.bin", payload).ok());
  Status drained = sim_->RunUntilComplete(olfs_->FlushAndDrain());
  EXPECT_EQ(drained.code(), StatusCode::kDataLoss);
  EXPECT_EQ(olfs_->burns().fatal_error().code(), StatusCode::kDataLoss);
  EXPECT_EQ(olfs_->burns().last_error().code(), StatusCode::kDataLoss);
  EXPECT_GT(olfs_->da_index().CountState(ArrayState::kFailed), 0);
  ExpectReadsBack("/chaos/doomed.bin", payload);
}

// S1 regression: a FetchLease parks its bay when dropped, and a fetch
// that errors out mid-flight never leaks a busy bay.
TEST_F(ChaosTest, FetchLeaseReleasesBayOnDropAndOnError) {
  auto payload = RandomBytes(24 * kKiB, 23);
  ASSERT_TRUE(Create("/chaos/lease.bin", payload).ok());
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());
  auto index = sim_->RunUntilComplete(olfs_->mv().Get("/chaos/lease.bin"));
  ASSERT_TRUE(index.ok());
  const std::string image_id = (*index->Latest())->parts[0].image_id;

  // Drop a live lease without calling Release(): the destructor parks it.
  int bay = -1;
  {
    auto lease =
        sim_->RunUntilComplete(olfs_->fetches().FetchDisc(image_id));
    ASSERT_TRUE(lease.ok()) << lease.status().ToString();
    bay = lease->bay();
    EXPECT_EQ(olfs_->mech().bay_state(bay), BayState::kBusy);
  }
  EXPECT_EQ(olfs_->mech().bay_state(bay), BayState::kParked);

  // Release() is idempotent, and the destructor of a released lease does
  // not release again.
  {
    auto lease =
        sim_->RunUntilComplete(olfs_->fetches().FetchDisc(image_id));
    ASSERT_TRUE(lease.ok()) << lease.status().ToString();
    EXPECT_EQ(lease->bay(), bay);  // parked hit on the same bay
    lease->Release();
    EXPECT_FALSE(lease->valid());
    EXPECT_EQ(olfs_->mech().bay_state(bay), BayState::kParked);
    lease->Release();
    EXPECT_EQ(olfs_->mech().bay_state(bay), BayState::kParked);
  }
  EXPECT_EQ(olfs_->mech().bay_state(bay), BayState::kParked);
  // Park the array back on its tray so later fetches must reload it.
  {
    auto again =
        sim_->RunUntilComplete(olfs_->fetches().FetchDisc(image_id));
    ASSERT_TRUE(again.ok());
    ASSERT_TRUE(sim_->RunUntilComplete(
                    olfs_->mech().UnloadArray(again->bay())).ok());
  }

  // Every mechanical op faults: the fetch retries, then errors out.
  sim::FaultInjector& faults = InstallInjector(/*seed=*/29);
  faults.SetRate(FaultKind::kMechFault, 1.0);
  auto lease = sim_->RunUntilComplete(olfs_->fetches().FetchDisc(image_id));
  EXPECT_FALSE(lease.ok());
  EXPECT_GE(olfs_->fetches().retries(), 1u);
  for (int b = 0; b < olfs_->mech().num_bays(); ++b) {
    EXPECT_NE(olfs_->mech().bay_state(b), BayState::kBusy) << "bay " << b;
  }

  // With the mechanics healthy again the same bay serves the read.
  faults.SetRate(FaultKind::kMechFault, 0.0);
  ExpectReadsBack("/chaos/lease.bin", payload);
}

// A read that fails while it holds its lease returns early; the lease
// destructor is then the only release. It must hand the bay to the next
// queued reader of the same tray, and the failed read is still served
// degraded from parity.
TEST_F(ChaosTest, FailedReadDropsLeaseToQueuedSameTrayReader) {
  // With 1 MiB discs a 1.5 MiB file splits over two images on two discs
  // of one array (one tray); the offsets below fall one in each image.
  OlfsParams params = ChaosParams();
  params.disc_capacity_override = 1 * kMiB;
  Reset(params);
  auto payload = RandomBytes(1536 * kKiB, 31);
  ASSERT_TRUE(Create("/chaos/tray.bin", payload).ok());
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());

  sim::FaultInjector& faults = InstallInjector(/*seed=*/7);
  faults.FailNth(FaultKind::kLatentSectorError, /*site=*/"", /*nth=*/1);

  // Both readers queue for the same tray; whichever claims the bay first
  // hits the sector error while the other waits behind it.
  const std::uint64_t offsets[] = {64 * kKiB, 1400 * kKiB};
  std::vector<sim::Task<Status>> reads;
  for (std::uint64_t offset : offsets) {
    reads.push_back([](Olfs* olfs, const std::vector<std::uint8_t>* expect,
                       std::uint64_t off) -> sim::Task<Status> {
      auto data = co_await olfs->Read("/chaos/tray.bin", off, 48 * kKiB);
      if (!data.ok()) {
        co_return data.status();
      }
      const std::vector<std::uint8_t> want(
          expect->begin() + static_cast<std::ptrdiff_t>(off),
          expect->begin() + static_cast<std::ptrdiff_t>(off + 48 * kKiB));
      co_return *data == want ? OkStatus()
                              : DataLossError("content mismatch");
    }(olfs_.get(), &payload, offset));
  }
  Status status = sim_->RunUntilComplete(sim::AllOk(*sim_, std::move(reads)));
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(faults.injected(FaultKind::kLatentSectorError), 1u);
  EXPECT_EQ(olfs_->degraded_reads(), 1u);
  EXPECT_GE(olfs_->fetch_scheduler()->stats().handoffs, 1u);

  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());
  for (int b = 0; b < olfs_->mech().num_bays(); ++b) {
    EXPECT_NE(olfs_->mech().bay_state(b), BayState::kBusy) << "bay " << b;
  }
}

// The headline invariant: under a seeded mix of at least three fault
// kinds, every acked write reads back byte-identical, and after the storm
// a physical disc scan (RebuildNamespace) still recovers the namespace.
TEST_F(ChaosTest, SeededChaosRunLosesNoAckedWrites) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    Reset(ChaosParams());
    sim::FaultInjector& faults = InstallInjector(seed);
    // Scripted one-shots guarantee kind coverage; low background rates
    // add seed-dependent extra damage on top.
    faults.FailNth(FaultKind::kBurnFailure, /*site=*/"", /*nth=*/2);
    faults.FailNth(FaultKind::kMechFault, /*site=*/"", /*nth=*/10);
    faults.FailNth(FaultKind::kLatentSectorError, /*site=*/"", /*nth=*/3);
    faults.SetRate(FaultKind::kLatentSectorError, 0.002);
    faults.SetRate(FaultKind::kMechFault, 0.002);

    std::map<std::string, std::vector<std::uint8_t>> acked;
    for (int i = 0; i < 5; ++i) {
      const std::string path = "/storm/f" + std::to_string(i);
      auto payload = RandomBytes(8 * kKiB + i * 5000, seed * 100 + i);
      ASSERT_TRUE(Create(path, payload).ok()) << path;
      acked[path] = std::move(payload);
    }
    Status drained = sim_->RunUntilComplete(olfs_->FlushAndDrain());
    ASSERT_TRUE(drained.ok()) << drained.ToString();

    // Every acked write reads back byte-identical (degraded is fine).
    for (const auto& [path, expect] : acked) {
      ExpectReadsBack(path, expect);
    }
    int kinds_hit = 0;
    for (int k = 0; k < sim::kNumFaultKinds; ++k) {
      kinds_hit += faults.injected(static_cast<FaultKind>(k)) > 0;
    }
    EXPECT_GE(kinds_hit, 3);

    // Storm over: scrub out the physical rot, drain repairs, then prove
    // the namespace survives a from-scratch disc scan.
    system_->InstallFaultInjector(nullptr);
    auto scrubbed = sim_->RunUntilComplete(olfs_->scrub().RunPass());
    ASSERT_TRUE(scrubbed.ok()) << scrubbed.status().ToString();
    ASSERT_TRUE(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());
    // The pass repairs before it refreshes, so an array with no more
    // damaged members than parity rows loses none: no acked file's image
    // is left behind on a retired tray.
    for (const auto& [path, expect] : acked) {
      auto index = sim_->RunUntilComplete(olfs_->mv().Get(path));
      ASSERT_TRUE(index.ok()) << path << ": " << index.status().ToString();
      for (const auto& part : (*index->Latest())->parts) {
        auto record = olfs_->images().Lookup(part.image_id);
        ASSERT_TRUE(record.ok()) << part.image_id;
        if ((*record)->disc.has_value()) {
          EXPECT_NE(olfs_->da_index().state((*record)->disc->tray),
                    ArrayState::kFailed)
              << path << " is on retired tray "
              << (*record)->disc->tray.ToString();
        }
      }
    }

    std::set<int> tray_indices;
    for (const std::string& id : olfs_->images().BurnedImages()) {
      auto record = olfs_->images().Lookup(id);
      ASSERT_TRUE(record.ok());
      if ((*record)->disc.has_value()) {
        tray_indices.insert((*record)->disc->tray.ToIndex());
      }
    }
    ASSERT_FALSE(tray_indices.empty());
    std::vector<mech::TrayAddress> trays;
    for (int t : tray_indices) {
      trays.push_back(mech::TrayAddress::FromIndex(t));
    }
    olfs_ = std::make_unique<Olfs>(*sim_, system_.get(), ChaosParams());
    olfs_->burns().burn_start_interval = Seconds(1);
    auto report = sim_->RunUntilComplete(olfs_->RebuildNamespace(trays));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    // Rotted sectors stay rotted on WORM media (repairs re-burn onto
    // fresh discs), so the scan may skip old damaged media — what must
    // hold is that every acked write is recovered regardless.
    EXPECT_GE(report->images_parsed, 1);
    for (const auto& [path, expect] : acked) {
      ExpectReadsBack(path, expect);
    }
  }
}

// The fetch scheduler under a mechanical fault storm: a failed load
// fails its whole batch, every waiter re-enters the queue through the
// fetch retry policy, and once the storm passes all reads complete
// byte-identical with no bay left busy and no request stranded.
TEST_F(ChaosTest, SchedulerFaultStormRetriesRequeueWithoutBayLeaks) {
  OlfsParams params = ChaosParams();
  // Give fetches enough retry budget to outlast the storm window.
  params.mech_retry.max_attempts = 10;
  Reset(params);

  // Three files on three separate arrays: the scheduler has real
  // dispatch decisions to make while the mechanics are failing.
  std::vector<std::string> paths;
  std::map<std::string, std::vector<std::uint8_t>> acked;
  for (int i = 0; i < 3; ++i) {
    const std::string path = "/storm/s" + std::to_string(i);
    auto payload = RandomBytes(8 * kKiB + i * 1000, 60 + i);
    ASSERT_TRUE(Create(path, payload).ok()) << path;
    ASSERT_TRUE(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());
    acked[path] = std::move(payload);
    paths.push_back(path);
  }
  ASSERT_NE(olfs_->fetch_scheduler(), nullptr);

  sim::FaultInjector& faults = InstallInjector(/*seed=*/41);
  faults.SetRate(FaultKind::kMechFault, 1.0);

  std::vector<Status> results(paths.size(), UnavailableError("running"));
  for (std::size_t i = 0; i < paths.size(); ++i) {
    sim_->Spawn([](Olfs* olfs, std::string path,
                   const std::vector<std::uint8_t>* expect,
                   Status* out) -> sim::Task<void> {
      auto data = co_await olfs->Read(path, 0, expect->size());
      if (!data.ok()) {
        *out = data.status();
      } else {
        *out = *data == *expect ? OkStatus()
                                : DataLossError("content mismatch");
      }
    }(olfs_.get(), paths[i], &acked[paths[i]], &results[i]));
  }

  // Storm: every mechanical op faults; loads fail and batches fan out to
  // their waiters, which re-enter the queue with backoff.
  sim_->RunFor(Seconds(100));
  faults.SetRate(FaultKind::kMechFault, 0.0);
  sim_->RunFor(Seconds(900));  // heal: retries drain the queue

  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].ok())
        << paths[i] << ": " << results[i].ToString();
  }
  const FetchSchedulerStats& stats = olfs_->fetch_scheduler()->stats();
  EXPECT_GE(stats.failed_batches, 1u);
  EXPECT_GE(olfs_->fetches().retries(), 1u);
  // No bay leaked busy, no request stranded in the queue.
  for (int b = 0; b < olfs_->mech().num_bays(); ++b) {
    EXPECT_NE(olfs_->mech().bay_state(b), BayState::kBusy) << "bay " << b;
  }
  EXPECT_EQ(olfs_->fetch_scheduler()->queue_depth(), 0);
  EXPECT_EQ(stats.completed, stats.requests);
}

// The maintenance report surfaces the self-healing counters and the raw
// injector telemetry for the administrator console.
TEST_F(ChaosTest, MaintenanceReportExposesResilienceCounters) {
  auto payload = RandomBytes(24 * kKiB, 31);
  ASSERT_TRUE(Create("/mi/report.bin", payload).ok());
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());

  sim::FaultInjector& faults = InstallInjector(/*seed=*/37);
  faults.FailNth(FaultKind::kLatentSectorError, /*site=*/"", /*nth=*/1);
  ExpectReadsBack("/mi/report.bin", payload);

  Maintenance mi(olfs_.get());
  json::Value report = mi.StatusReport();
  ASSERT_TRUE(report.contains("resilience"));
  const json::Value& res = report["resilience"];
  EXPECT_EQ(res["degraded_reads"].as_int(), 1);
  EXPECT_EQ(res["reconstructions"].as_int(), 1);
  EXPECT_EQ(res["images_repaired"].as_int(), 1);
  EXPECT_EQ(res["burn_retries"].as_int(), 0);
  EXPECT_EQ(res["arrays_reallocated"].as_int(), 0);
  EXPECT_EQ(res["fetch_retries"].as_int(), 0);
  EXPECT_EQ(res["mech_recoveries"].as_int(), 0);
  ASSERT_TRUE(res.contains("injected_faults"));
  const json::Value& injected = res["injected_faults"];
  EXPECT_EQ(injected["latent_sector_error"]["injected"].as_int(), 1);
  EXPECT_GE(injected["latent_sector_error"]["ops_seen"].as_int(), 1);
  EXPECT_EQ(injected["burn_failure"]["injected"].as_int(), 0);
}

}  // namespace
}  // namespace ros::olfs
