#include "src/disk/raid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/erasure.h"
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

// One cost model: a request is charged the same whether or not it carries
// bytes. Write and WriteDiscard, then Read and ReadDiscard, over the same
// ranges leave the same clock after every request and the same busy time
// on every member; the ranges are stripe-aligned and unaligned, small
// enough for the controller cache and larger than it.
class RaidChargeModel
    : public ::testing::TestWithParam<
          std::tuple<std::tuple<RaidLevel, int>, bool, bool>> {};

TEST_P(RaidChargeModel, BytesDoNotChangeTheCharge) {
  const auto [shape, cache, degraded] = GetParam();
  const auto [level, n] = shape;
  struct Range {
    std::uint64_t offset;
    std::uint64_t length;
  };
  const std::vector<Range> ranges = {
      {0, 2 * kMiB},                  // stripe-aligned, uncached
      {10 * kMiB + 1000, 70000},      // unaligned, cacheable
      {20 * kMiB + 100, 512},         // one partial chunk
      {30 * kMiB + 4097, kMiB + 123},  // unaligned, uncached
      {10 * kMiB + 1000, 70000},      // a cache hit for the read
  };
  struct Outcome {
    std::vector<sim::TimePoint> clocks;
    std::vector<sim::Duration> busy;
  };
  auto run = [&](bool bytes) {
    Rig rig(level, n);
    rig.volume->set_write_cache(cache);
    if (degraded) {
      rig.devices[1]->Fail();
    }
    Outcome outcome;
    for (const bool is_read : {false, true}) {
      for (const Range& r : ranges) {
        Status status;
        if (is_read) {
          status = bytes ? rig.sim.RunUntilComplete(
                               rig.volume->Read(r.offset, r.length))
                               .status()
                         : rig.sim.RunUntilComplete(
                               rig.volume->ReadDiscard(r.offset, r.length));
        } else {
          status = bytes ? rig.sim.RunUntilComplete(rig.volume->Write(
                               r.offset, rig.MakeData(r.length, r.offset)))
                         : rig.sim.RunUntilComplete(
                               rig.volume->WriteDiscard(r.offset, r.length));
        }
        EXPECT_TRUE(status.ok()) << status.ToString();
        outcome.clocks.push_back(rig.sim.now());
      }
      rig.sim.Run();  // destages land
      outcome.clocks.push_back(rig.sim.now());
    }
    for (const auto& device : rig.devices) {
      outcome.busy.push_back(device->busy_time());
    }
    return outcome;
  };
  const Outcome with_bytes = run(true);
  const Outcome discard = run(false);
  EXPECT_EQ(with_bytes.clocks, discard.clocks);
  EXPECT_EQ(with_bytes.busy, discard.busy);
}

INSTANTIATE_TEST_SUITE_P(
    LevelsCacheHealth, RaidChargeModel,
    ::testing::Combine(::testing::Values(std::tuple{RaidLevel::kRaid1, 2},
                                         std::tuple{RaidLevel::kRaid5, 7},
                                         std::tuple{RaidLevel::kRaid6, 8}),
                       ::testing::Bool(), ::testing::Bool()),
    [](const auto& info) {
      const RaidLevel level = std::get<0>(std::get<0>(info.param));
      return std::string(level == RaidLevel::kRaid1   ? "Raid1"
                         : level == RaidLevel::kRaid5 ? "Raid5"
                                                      : "Raid6") +
             (std::get<1>(info.param) ? "Cached" : "Uncached") +
             (std::get<2>(info.param) ? "Degraded" : "Healthy");
    });

// Parity stays the encode of the data it covers. A member's chunks are
// read back raw, by the left-symmetric layout raid.h documents: stripe s
// over n members keeps parity row r on member (n-1 - s%n + r) % n and data
// chunk k on the member m+k places after P, m being the parity row count.
class ParityOracle {
 public:
  ParityOracle(Rig& rig, int parity_rows, std::uint64_t stripe_unit)
      : rig_(rig), m_(parity_rows), unit_(stripe_unit) {}

  int members() const { return static_cast<int>(rig_.devices.size()); }
  int data_n() const { return members() - m_; }
  std::uint64_t stripe_bytes() const { return unit_ * data_n(); }

  std::vector<std::uint8_t> Chunk(int member, std::uint64_t stripe) {
    auto read = rig_.sim.RunUntilComplete(
        rig_.devices[member]->Read(stripe * unit_, unit_));
    ROS_CHECK(read.ok());
    return *std::move(read);
  }

  // Empty when the stripe's stored parity rows equal ec::Encode of its
  // stored data chunks, else which row differs.
  std::string Check(std::uint64_t stripe) {
    const int n = members();
    const int p = (n - 1 - static_cast<int>(stripe % n)) % n;
    std::vector<std::vector<std::uint8_t>> data;
    for (int k = 0; k < data_n(); ++k) {
      data.push_back(Chunk((p + m_ + k) % n, stripe));
    }
    const std::vector<std::span<const std::uint8_t>> shards(data.begin(),
                                                            data.end());
    const ec::Encoded want = ec::Encode(shards, m_);
    for (int r = 0; r < m_; ++r) {
      if (Chunk((p + r) % n, stripe) != want.rows[r]) {
        return "stripe " + std::to_string(stripe) + " parity row " +
               std::to_string(r);
      }
    }
    return "";
  }

  std::string CheckRange(std::uint64_t offset, std::uint64_t length) {
    for (std::uint64_t s = offset / stripe_bytes();
         s * stripe_bytes() < offset + length; ++s) {
      if (std::string bad = Check(s); !bad.empty()) {
        return bad;
      }
    }
    return "";
  }

 private:
  Rig& rig_;
  int m_;
  std::uint64_t unit_;
};

// A partly written stripe is updated by read-modify-write over the range
// the write covers. 200 seeded writes of 1 byte to 3 stripes, unaligned and
// often straddling a stripe end, must leave every touched stripe's P (and
// Q) equal to the encode of its data; then every member (every pair on
// RAID-6) fails in turn and the whole volume reads back byte-exact. The
// stripe unit does not divide the members' 64 KiB storage chunks, so
// parity pieces also straddle chunk ends.
class RaidParityUpdate
    : public ::testing::TestWithParam<std::tuple<std::tuple<RaidLevel, int>,
                                                 bool>> {};

TEST_P(RaidParityUpdate, ParityMatchesDataAfterEveryWrite) {
  const auto [shape, cache] = GetParam();
  const auto [level, n] = shape;
  constexpr std::uint64_t kUnit = 20000;
  Rig rig(level, n, kMiB, HddPerf(), kUnit);
  rig.volume->set_write_cache(cache);
  ParityOracle oracle(rig, level == RaidLevel::kRaid6 ? 2 : 1, kUnit);
  const std::uint64_t capacity = rig.volume->capacity();
  const std::uint64_t stripe = oracle.stripe_bytes();
  std::vector<std::uint8_t> model(capacity, 0);
  Rng rng(static_cast<std::uint64_t>(n) * 31 + (cache ? 1 : 0));
  for (int iter = 0; iter < 200; ++iter) {
    const std::uint64_t length = 1 + rng.Below(3 * stripe);
    std::uint64_t offset = rng.Below(capacity - length + 1);
    if (iter % 2 == 0) {
      // Straddle a stripe end by a few bytes on either side.
      const std::uint64_t end = stripe * (1 + rng.Below(capacity / stripe - 1));
      const std::uint64_t before = rng.Below(std::min(length, kUnit / 2) + 1);
      offset = std::min(end - std::min(end, before), capacity - length);
    }
    auto data = rig.MakeData(length, 1000 + iter);
    std::copy(data.begin(), data.end(),
              model.begin() + static_cast<std::ptrdiff_t>(offset));
    ASSERT_TRUE(
        rig.sim.RunUntilComplete(rig.volume->Write(offset, std::move(data)))
            .ok());
    const std::string bad = oracle.CheckRange(offset, length);
    ASSERT_EQ(bad, "") << "write " << iter << " at " << offset << "+"
                       << length;
  }
  rig.sim.Run();  // destages land
  std::vector<std::vector<int>> failures;
  for (int a = 0; a < n; ++a) {
    failures.push_back({a});
    for (int b = a + 1; b < n && level == RaidLevel::kRaid6; ++b) {
      failures.push_back({a, b});
    }
  }
  for (const std::vector<int>& failed : failures) {
    for (const int member : failed) {
      rig.devices[member]->Fail();
    }
    auto read = rig.sim.RunUntilComplete(rig.volume->Read(0, capacity));
    ASSERT_TRUE(read.ok());
    EXPECT_TRUE(*read == model) << "members " << failed.front() << ","
                                << failed.back() << " failed";
    for (const int member : failed) {
      rig.devices[member]->Revive();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    LevelsCache, RaidParityUpdate,
    ::testing::Combine(::testing::Values(std::tuple{RaidLevel::kRaid5, 3},
                                         std::tuple{RaidLevel::kRaid5, 4},
                                         std::tuple{RaidLevel::kRaid5, 7},
                                         std::tuple{RaidLevel::kRaid6, 4},
                                         std::tuple{RaidLevel::kRaid6, 5},
                                         std::tuple{RaidLevel::kRaid6, 8}),
                       ::testing::Bool()),
    [](const auto& info) {
      const auto& shape = std::get<0>(info.param);
      return std::string(std::get<0>(shape) == RaidLevel::kRaid5 ? "Raid5x"
                                                                 : "Raid6x") +
             std::to_string(std::get<1>(shape)) +
             (std::get<1>(info.param) ? "Cached" : "Uncached");
    });

// A member revived after missing a degraded write holds stale chunks
// that disagree with the parity stored meanwhile. Since the volume stored
// a write with a member down, a later partial write merges the stripe as
// the members hold it and re-encodes it, so parity matches the stored
// data again: no update in place on top of a parity that the member's
// chunks never had.
TEST(RaidOutOfSyncMember, PartialWritesReencodeTheStripe) {
  constexpr std::uint64_t kUnit = 64 * kKiB;
  Rig rig(RaidLevel::kRaid5, 4, 4 * kMiB);
  ParityOracle oracle(rig, 1, kUnit);
  const std::uint64_t stripe = oracle.stripe_bytes();
  ASSERT_TRUE(rig.sim
                  .RunUntilComplete(
                      rig.volume->Write(0, rig.MakeData(4 * stripe, 1)))
                  .ok());
  // Stripe 1's data chunk 0 lives on member (3 - 1 + 1) % 4 = 3. A degraded
  // write of all of stripe 1, which member 3 misses.
  rig.devices[3]->Fail();
  ASSERT_TRUE(rig.sim
                  .RunUntilComplete(
                      rig.volume->Write(stripe, rig.MakeData(stripe, 2)))
                  .ok());
  rig.devices[3]->Revive();
  // A small write to chunk 1 of stripe 1, on a member that kept up.
  ASSERT_TRUE(rig.sim
                  .RunUntilComplete(rig.volume->Write(stripe + kUnit + 100,
                                                      rig.MakeData(512, 3)))
                  .ok());
  EXPECT_EQ(oracle.Check(1), "");
  // A partial write to another stripe keeps its parity too.
  ASSERT_TRUE(rig.sim
                  .RunUntilComplete(
                      rig.volume->Write(3 * stripe + 7, rig.MakeData(1000, 4)))
                  .ok());
  EXPECT_EQ(oracle.Check(3), "");
}

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

// A write is charged before its bytes move: when a member dies while the
// write is in flight, the write fails and stores nothing, so once the
// member is back the range reads as it was before. The ranges are
// unaligned, and whole stripes on every level here (36 chunks).
TEST(Raid, WriteFailedMidFlightStoresNothing) {
  struct Range {
    std::uint64_t offset;
    std::uint64_t length;
  };
  for (const auto& [level, n] :
       {std::tuple{RaidLevel::kRaid1, 2}, std::tuple{RaidLevel::kRaid5, 7},
        std::tuple{RaidLevel::kRaid6, 8}}) {
    for (const Range r : {Range{100 * kKiB + 3, kMiB},
                          Range{0, 36 * 64 * kKiB}}) {
      Rig rig(level, n);
      rig.volume->set_write_cache(false);
      const auto before = rig.MakeData(r.length, 1);
      ASSERT_TRUE(
          rig.sim.RunUntilComplete(rig.volume->Write(r.offset, before)).ok());
      // The fail lands 1 ms into the write's 8 ms positioning time.
      rig.sim.ScheduleAfter(sim::Millis(1),
                            [&rig] { rig.devices[1]->Fail(); });
      EXPECT_EQ(rig.sim
                    .RunUntilComplete(rig.volume->Write(
                        r.offset, rig.MakeData(r.length, 2)))
                    .code(),
                StatusCode::kUnavailable);
      rig.devices[1]->Revive();
      auto read =
          rig.sim.RunUntilComplete(rig.volume->Read(r.offset, r.length));
      ASSERT_TRUE(read.ok());
      EXPECT_TRUE(*read == before)
          << "level " << static_cast<int>(level) << " offset " << r.offset;
    }
  }
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
