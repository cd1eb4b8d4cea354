// Tests of the RAID controller write-back cache and the sparse/discard
// I/O paths (the timing machinery behind PB-scale experiments).
#include <gtest/gtest.h>

#include <memory>

#include "src/common/rng.h"
#include "src/disk/raid.h"
#include "src/disk/volume.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace ros::disk {
namespace {

using sim::Seconds;
using sim::ToMillis;
using sim::ToSeconds;

struct Rig {
  explicit Rig(int n = 7, std::uint64_t cap = 2 * kGiB,
               RaidLevel level = RaidLevel::kRaid5) {
    for (int i = 0; i < n; ++i) {
      devices.push_back(std::make_unique<StorageDevice>(
          sim, "hdd" + std::to_string(i), cap, HddPerf()));
    }
    std::vector<StorageDevice*> ptrs;
    for (auto& d : devices) {
      ptrs.push_back(d.get());
    }
    volume = std::make_unique<RaidVolume>(sim, level, ptrs);
  }

  // Destroy suspended background coroutines (destage writes) while the
  // devices they borrow are still alive.
  ~Rig() { sim.Shutdown(); }

  sim::Simulator sim;
  std::vector<std::unique_ptr<StorageDevice>> devices;
  std::unique_ptr<RaidVolume> volume;
};

TEST(RaidCache, SmallWriteAcksAtControllerSpeed) {
  Rig rig;
  sim::TimePoint t0 = rig.sim.now();
  ASSERT_TRUE(rig.sim
                  .RunUntilComplete(rig.volume->Write(
                      0, std::vector<std::uint8_t>(4 * kKiB, 1)))
                  .ok());
  // Millisecond-scale ack, not an 8 ms-per-spindle read-modify-write.
  EXPECT_LT(ToMillis(rig.sim.now() - t0), 1.0);
  EXPECT_GT(rig.volume->dirty_bytes(), 0u);
  rig.sim.Run();  // destage drains
  EXPECT_EQ(rig.volume->dirty_bytes(), 0u);
}

TEST(RaidCache, CachedDataIsReadableImmediately) {
  Rig rig;
  std::vector<std::uint8_t> data{9, 8, 7, 6};
  ASSERT_TRUE(rig.sim.RunUntilComplete(rig.volume->Write(1000, data)).ok());
  // Before destaging completes, reads must already see the bytes.
  auto read = rig.sim.RunUntilComplete(rig.volume->Read(1000, 4));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

TEST(RaidCache, RecentWritesReadBackAtCacheSpeed) {
  Rig rig;
  ASSERT_TRUE(rig.sim
                  .RunUntilComplete(rig.volume->Write(
                      0, std::vector<std::uint8_t>(64 * kKiB, 2)))
                  .ok());
  rig.sim.Run();
  sim::TimePoint t0 = rig.sim.now();
  ASSERT_TRUE(rig.sim.RunUntilComplete(rig.volume->Read(0, 64 * kKiB)).ok());
  EXPECT_LT(ToMillis(rig.sim.now() - t0), 1.0);  // controller cache hit
}

TEST(RaidCache, DirtyLimitThrottlesToSpindleRate) {
  Rig rig;
  // Push well past the dirty limit; sustained rate converges to the
  // destage (spindle) rate, not the controller ack rate.
  const std::uint64_t total = 2 * RaidVolume::kCacheDirtyLimit;
  sim::TimePoint t0 = rig.sim.now();
  for (std::uint64_t done = 0; done < total; done += 8 * kMiB) {
    ASSERT_TRUE(rig.sim
                    .RunUntilComplete(rig.volume->Write(
                        done, std::vector<std::uint8_t>(8 * kMiB, 3)))
                    .ok());
  }
  const double rate =
      static_cast<double>(total) / ToSeconds(rig.sim.now() - t0);
  EXPECT_LT(rate, 1.6e9);  // way below the 2.5 GB/s controller rate
  EXPECT_GT(rate, 0.6e9);  // but still near the volume's spindle rate
}

TEST(RaidCache, DisabledCacheTakesSynchronousPath) {
  Rig rig;
  rig.volume->set_write_cache(false);
  sim::TimePoint t0 = rig.sim.now();
  ASSERT_TRUE(rig.sim
                  .RunUntilComplete(rig.volume->Write(
                      0, std::vector<std::uint8_t>(4 * kKiB, 1)))
                  .ok());
  // Full read-modify-write against the spindles: tens of ms.
  EXPECT_GT(ToMillis(rig.sim.now() - t0), 8.0);
  EXPECT_EQ(rig.volume->dirty_bytes(), 0u);
}

TEST(RaidCache, DegradedVolumeBypassesCache) {
  Rig rig;
  rig.devices[0]->Fail();
  std::vector<std::uint8_t> data(4 * kKiB, 5);
  ASSERT_TRUE(rig.sim.RunUntilComplete(rig.volume->Write(0, data)).ok());
  EXPECT_EQ(rig.volume->dirty_bytes(), 0u);  // synchronous path used
  auto read = rig.sim.RunUntilComplete(rig.volume->Read(0, 4 * kKiB));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

TEST(RaidCache, CachedWritesSurviveDeviceFailureAfterDestage) {
  Rig rig;
  Rng rng(5);
  std::vector<std::uint8_t> data(256 * kKiB);
  for (auto& b : data) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  ASSERT_TRUE(rig.sim.RunUntilComplete(rig.volume->Write(0, data)).ok());
  rig.sim.Run();  // destage everything
  rig.devices[3]->Fail();
  auto read = rig.sim.RunUntilComplete(rig.volume->Read(0, data.size()));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);  // parity was written through the cache path too
}

// A cached RAID-1 write destages at its own byte offset: two back-to-back
// writes at consecutive offsets stream on each mirror, paying one
// positioning latency per device, not one per destage.
TEST(RaidCache, Raid1DestagesStreamAtTheWriteOffsets) {
  Rig rig(2, 2 * kGiB, RaidLevel::kRaid1);
  constexpr std::uint64_t kWrite = 4 * kKiB;
  for (std::uint64_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(rig.sim
                    .RunUntilComplete(rig.volume->Write(
                        kMiB + i * kWrite,
                        std::vector<std::uint8_t>(kWrite, 1 + i)))
                    .ok());
  }
  rig.sim.Run();  // both destages land
  const DevicePerf perf = HddPerf();
  for (const auto& device : rig.devices) {
    EXPECT_EQ(device->busy_time(),
              perf.request_latency +
                  2 * sim::TransferTime(kWrite, perf.write_bytes_per_sec))
        << device->name();
  }
  auto read = rig.sim.RunUntilComplete(rig.volume->Read(kMiB, 2 * kWrite));
  ASSERT_TRUE(read.ok());
  std::vector<std::uint8_t> want(kWrite, 1);
  want.insert(want.end(), kWrite, 2);
  EXPECT_EQ(*read, want);
}

// --- sparse/discard paths ---

TEST(SparseIo, AppendSparseChargesFullTimeStoresLittle) {
  Rig rig;
  Volume volume(rig.sim, rig.volume.get(),
                VolumeParams{.journal_metadata = false});
  ASSERT_TRUE(rig.sim.RunUntilComplete(volume.Create("/big")).ok());
  sim::TimePoint t0 = rig.sim.now();
  ASSERT_TRUE(rig.sim
                  .RunUntilComplete(volume.AppendSparse(
                      "/big", std::vector<std::uint8_t>{1, 2, 3}, 600 * kMB))
                  .ok());
  // 600 MB at ~1 GB/s: hundreds of ms of simulated time...
  EXPECT_GT(ToSeconds(rig.sim.now() - t0), 0.4);
  // ...while the devices stored almost nothing.
  EXPECT_EQ(*volume.FileSize("/big"), 600 * kMB);
  auto head = rig.sim.RunUntilComplete(volume.Read("/big", 0, 3));
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(*head, (std::vector<std::uint8_t>{1, 2, 3}));
  auto tail = rig.sim.RunUntilComplete(volume.Read("/big", 600 * kMB - 4, 4));
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(*tail, std::vector<std::uint8_t>(4, 0));
}

TEST(SparseIo, ReadDiscardMatchesRealReadTiming) {
  Rig rig;
  Volume volume(rig.sim, rig.volume.get(),
                VolumeParams{.journal_metadata = false});
  ASSERT_TRUE(rig.sim.RunUntilComplete(volume.Create("/f")).ok());
  ASSERT_TRUE(rig.sim
                  .RunUntilComplete(volume.AppendSparse("/f", {}, 200 * kMB))
                  .ok());
  sim::TimePoint t0 = rig.sim.now();
  ASSERT_TRUE(rig.sim.RunUntilComplete(
                  volume.ReadDiscard("/f", 0, 200 * kMB)).ok());
  const double discard_seconds = ToSeconds(rig.sim.now() - t0);
  // ~200 MB at ~1.2 GB/s.
  EXPECT_NEAR(discard_seconds, 0.2 / 1.2, 0.05);
}

TEST(SparseIo, SequentialDiscardStreamsWithoutSeekStorms) {
  Rig rig;
  Volume volume(rig.sim, rig.volume.get(),
                VolumeParams{.journal_metadata = false});
  ASSERT_TRUE(rig.sim.RunUntilComplete(volume.Create("/s")).ok());
  // 128 sequential 1 MB sparse appends ~ one smooth 128 MB stream.
  sim::TimePoint t0 = rig.sim.now();
  for (int i = 0; i < 128; ++i) {
    ASSERT_TRUE(rig.sim
                    .RunUntilComplete(volume.AppendSparse("/s", {}, 1 * kMB))
                    .ok());
  }
  const double rate = 128e6 / ToSeconds(rig.sim.now() - t0);
  EXPECT_GT(rate, 0.8e9);  // no per-append positioning penalty
}

}  // namespace
}  // namespace ros::disk
