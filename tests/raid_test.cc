#include "src/disk/raid.h"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace ros::disk {
namespace {

using sim::ToSeconds;

struct Rig {
  explicit Rig(RaidLevel level, int n, std::uint64_t dev_cap = 64 * kMiB,
               DevicePerf perf = HddPerf(),
               std::uint64_t stripe_unit = 64 * kKiB) {
    for (int i = 0; i < n; ++i) {
      devices.push_back(std::make_unique<StorageDevice>(
          sim, "dev" + std::to_string(i), dev_cap, perf));
    }
    std::vector<StorageDevice*> ptrs;
    for (auto& d : devices) {
      ptrs.push_back(d.get());
    }
    volume = std::make_unique<RaidVolume>(sim, level, ptrs, stripe_unit);
  }

  // Destroy suspended background coroutines (destage writes) while the
  // devices they borrow are still alive.
  ~Rig() { sim.Shutdown(); }

  std::vector<std::uint8_t> MakeData(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::uint8_t> data(n);
    for (auto& b : data) {
      b = static_cast<std::uint8_t>(rng.Next());
    }
    return data;
  }

  sim::Simulator sim;
  std::vector<std::unique_ptr<StorageDevice>> devices;
  std::unique_ptr<RaidVolume> volume;
};

TEST(RaidCapacity, PerLevel) {
  const std::uint64_t cap = 64 * kMiB;
  EXPECT_EQ(Rig(RaidLevel::kRaid0, 4).volume->capacity(), 4 * cap);
  EXPECT_EQ(Rig(RaidLevel::kRaid1, 2).volume->capacity(), cap);
  EXPECT_EQ(Rig(RaidLevel::kRaid5, 7).volume->capacity(), 6 * cap);
  EXPECT_EQ(Rig(RaidLevel::kRaid6, 12).volume->capacity(), 10 * cap);
}

class RaidRoundTrip
    : public ::testing::TestWithParam<std::tuple<RaidLevel, int>> {};

TEST_P(RaidRoundTrip, RandomOffsetsAndSizes) {
  auto [level, n] = GetParam();
  Rig rig(level, n);
  Rng rng(n * 100 + static_cast<int>(level));
  // Property: any write followed by a read of the same range returns the
  // written bytes, across unaligned offsets and sizes.
  for (int iter = 0; iter < 12; ++iter) {
    std::uint64_t offset = rng.Below(rig.volume->capacity() - kMiB);
    std::uint64_t size = 1 + rng.Below(700 * kKiB);
    auto data = rig.MakeData(size, iter);
    ASSERT_TRUE(rig.sim.RunUntilComplete(rig.volume->Write(offset, data)).ok());
    auto read = rig.sim.RunUntilComplete(rig.volume->Read(offset, size));
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(*read, data) << "iter " << iter;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Levels, RaidRoundTrip,
    ::testing::Values(std::tuple{RaidLevel::kRaid0, 4},
                      std::tuple{RaidLevel::kRaid1, 2},
                      std::tuple{RaidLevel::kRaid5, 3},
                      std::tuple{RaidLevel::kRaid5, 7},
                      std::tuple{RaidLevel::kRaid6, 4},
                      std::tuple{RaidLevel::kRaid6, 12}));

TEST(Raid5, DegradedReadReconstructs) {
  Rig rig(RaidLevel::kRaid5, 7);
  auto data = rig.MakeData(3 * kMiB, 1);
  ASSERT_TRUE(rig.sim.RunUntilComplete(rig.volume->Write(kMiB, data)).ok());
  for (int fail = 0; fail < 7; ++fail) {
    rig.devices[fail]->Fail();
    EXPECT_TRUE(rig.volume->operational());
    auto read = rig.sim.RunUntilComplete(rig.volume->Read(kMiB, data.size()));
    ASSERT_TRUE(read.ok()) << "failed device " << fail;
    EXPECT_EQ(*read, data) << "failed device " << fail;
    rig.devices[fail]->Replace();
    ASSERT_TRUE(
        rig.sim.RunUntilComplete(rig.volume->Rebuild(fail)).ok());
  }
}

TEST(Raid5, TwoFailuresFatal) {
  Rig rig(RaidLevel::kRaid5, 7);
  rig.devices[0]->Fail();
  rig.devices[1]->Fail();
  EXPECT_FALSE(rig.volume->operational());
  EXPECT_EQ(rig.sim.RunUntilComplete(rig.volume->Read(0, 16)).status().code(),
            StatusCode::kUnavailable);
}

class Raid6DoubleFailure
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Raid6DoubleFailure, ReconstructsAnyTwoDevices) {
  auto [a, b] = GetParam();
  if (a >= b) {
    GTEST_SKIP();
  }
  Rig rig(RaidLevel::kRaid6, 6);
  auto data = rig.MakeData(2 * kMiB + 777, 99);
  ASSERT_TRUE(rig.sim.RunUntilComplete(rig.volume->Write(12345, data)).ok());
  rig.devices[a]->Fail();
  rig.devices[b]->Fail();
  EXPECT_TRUE(rig.volume->operational());
  auto read = rig.sim.RunUntilComplete(rig.volume->Read(12345, data.size()));
  ASSERT_TRUE(read.ok()) << "devices " << a << "," << b;
  EXPECT_EQ(*read, data);
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, Raid6DoubleFailure,
    ::testing::Combine(::testing::Range(0, 6), ::testing::Range(0, 6)));

// An odd, non-multiple-of-8 stripe unit drives the word-sliced kernels'
// head/tail paths through the full RAID-6 write → double-degraded read →
// rebuild cycle, not just through unit-level differential tests.
TEST(Raid6, OddStripeUnitSurvivesDoubleFailureAndRebuild) {
  Rig rig(RaidLevel::kRaid6, 5, 4 * kMiB, HddPerf(), /*stripe_unit=*/1031);
  rig.volume->set_write_cache(false);
  auto data = rig.MakeData(300 * 1031 + 17, 42);
  ASSERT_TRUE(rig.sim.RunUntilComplete(rig.volume->Write(513, data)).ok());
  rig.devices[0]->Fail();
  rig.devices[2]->Fail();
  ASSERT_TRUE(rig.volume->operational());
  auto read = rig.sim.RunUntilComplete(rig.volume->Read(513, data.size()));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
  rig.devices[0]->Replace();
  ASSERT_TRUE(rig.sim.RunUntilComplete(rig.volume->Rebuild(0)).ok());
  rig.devices[2]->Replace();
  ASSERT_TRUE(rig.sim.RunUntilComplete(rig.volume->Rebuild(2)).ok());
  read = rig.sim.RunUntilComplete(rig.volume->Read(513, data.size()));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

TEST(Raid6, WritesWhileDoubleDegradedThenRebuild) {
  Rig rig(RaidLevel::kRaid6, 5);
  auto data = rig.MakeData(kMiB, 5);
  rig.devices[1]->Fail();
  rig.devices[3]->Fail();
  ASSERT_TRUE(rig.sim.RunUntilComplete(rig.volume->Write(0, data)).ok());
  // Repair both, rebuild, then verify with the original devices healthy.
  rig.devices[1]->Replace();
  ASSERT_TRUE(rig.sim.RunUntilComplete(rig.volume->Rebuild(1)).ok());
  rig.devices[3]->Replace();
  ASSERT_TRUE(rig.sim.RunUntilComplete(rig.volume->Rebuild(3)).ok());
  auto read = rig.sim.RunUntilComplete(rig.volume->Read(0, data.size()));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

// Rebuild must regenerate parity chunks, not just data: after rebuilding
// devices 1 and 3, any two OTHER devices fail, so every read decodes
// through what the rebuild wrote. P and Q rotate across the stripes, so
// the rebuilt devices hold data, P and Q chunks.
TEST(Raid6, RebuiltDevicesHoldCorrectPAndQ) {
  Rig rig(RaidLevel::kRaid6, 5);
  auto data = rig.MakeData(2 * kMiB, 9);
  ASSERT_TRUE(rig.sim.RunUntilComplete(rig.volume->Write(0, data)).ok());
  rig.devices[1]->Fail();
  rig.devices[3]->Fail();
  rig.devices[1]->Replace();
  ASSERT_TRUE(rig.sim.RunUntilComplete(rig.volume->Rebuild(1)).ok());
  rig.devices[3]->Replace();
  ASSERT_TRUE(rig.sim.RunUntilComplete(rig.volume->Rebuild(3)).ok());
  for (auto [a, b] : {std::pair{0, 2}, std::pair{0, 4}, std::pair{2, 4}}) {
    rig.devices[a]->Fail();
    rig.devices[b]->Fail();
    auto read = rig.sim.RunUntilComplete(rig.volume->Read(0, data.size()));
    ASSERT_TRUE(read.ok()) << a << "," << b;
    EXPECT_EQ(*read, data) << a << "," << b;
    rig.devices[a]->Revive();
    rig.devices[b]->Revive();
  }
}

TEST(Raid1, MirrorsSurviveSingleFailureAndRebuild) {
  Rig rig(RaidLevel::kRaid1, 2);
  auto data = rig.MakeData(256 * kKiB, 3);
  ASSERT_TRUE(rig.sim.RunUntilComplete(rig.volume->Write(0, data)).ok());
  rig.devices[0]->Fail();
  auto read = rig.sim.RunUntilComplete(rig.volume->Read(0, data.size()));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
  rig.devices[0]->Replace();
  ASSERT_TRUE(rig.sim.RunUntilComplete(rig.volume->Rebuild(0)).ok());
  rig.devices[1]->Fail();  // now the other mirror dies
  read = rig.sim.RunUntilComplete(rig.volume->Read(0, data.size()));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

TEST(Raid5, RebuiltDeviceHoldsCorrectParity) {
  Rig rig(RaidLevel::kRaid5, 4);
  auto data = rig.MakeData(4 * kMiB, 8);
  ASSERT_TRUE(rig.sim.RunUntilComplete(rig.volume->Write(0, data)).ok());
  // Snapshot-by-proxy: fail+replace+rebuild device 2, then fail a DIFFERENT
  // device; reads must still reconstruct correctly, proving the rebuilt
  // device's data+parity chunks are right.
  rig.devices[2]->Fail();
  rig.devices[2]->Replace();
  ASSERT_TRUE(rig.sim.RunUntilComplete(rig.volume->Rebuild(2)).ok());
  rig.devices[0]->Fail();
  auto read = rig.sim.RunUntilComplete(rig.volume->Read(0, data.size()));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

// §3.3: each RAID-5 of 7 HDDs sustains ~1.2 GB/s reads / ~1.0 GB/s writes.
TEST(Raid5, SevenDriveVolumeMatchesPaperThroughput) {
  Rig rig(RaidLevel::kRaid5, 7, kGiB);
  const std::uint64_t n = 600 * kMB;
  std::vector<std::uint8_t> data(n, 7);
  sim::TimePoint t0 = rig.sim.now();
  ASSERT_TRUE(rig.sim.RunUntilComplete(rig.volume->Write(0, data)).ok());
  double write_rate = static_cast<double>(n) / ToSeconds(rig.sim.now() - t0);
  EXPECT_NEAR(write_rate / 1e9, 1.0, 0.12);

  t0 = rig.sim.now();
  ASSERT_TRUE(rig.sim.RunUntilComplete(rig.volume->Read(0, n)).ok());
  double read_rate = static_cast<double>(n) / ToSeconds(rig.sim.now() - t0);
  EXPECT_NEAR(read_rate / 1e9, 1.2, 0.12);
}

TEST(Raid, OutOfRangeRejected) {
  Rig rig(RaidLevel::kRaid5, 3);
  EXPECT_EQ(rig.sim
                .RunUntilComplete(rig.volume->Write(
                    rig.volume->capacity(), std::vector<std::uint8_t>(1)))
                .code(),
            StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace ros::disk
