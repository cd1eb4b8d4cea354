#include "src/disk/block_device.h"

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace ros::disk {
namespace {

using sim::ToSeconds;

class BlockDeviceTest : public ::testing::Test {
 protected:
  sim::Simulator sim_;
};

TEST_F(BlockDeviceTest, WriteReadRoundTrip) {
  StorageDevice device(sim_, "hdd0", kGiB, HddPerf());
  std::vector<std::uint8_t> data{10, 20, 30, 40};
  ASSERT_TRUE(sim_.RunUntilComplete(device.Write(1000, data)).ok());
  auto read = sim_.RunUntilComplete(device.Read(1000, 4));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

TEST_F(BlockDeviceTest, UnwrittenRangesReadZero) {
  StorageDevice device(sim_, "hdd0", kGiB, HddPerf());
  auto read = sim_.RunUntilComplete(device.Read(12345, 8));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, std::vector<std::uint8_t>(8, 0));
}

TEST_F(BlockDeviceTest, CrossChunkBoundaryWrite) {
  StorageDevice device(sim_, "hdd0", kGiB, HddPerf());
  // 64 KiB chunks internally; write straddling a boundary.
  const std::uint64_t boundary = 64 * kKiB;
  std::vector<std::uint8_t> data(100, 0xEE);
  ASSERT_TRUE(sim_.RunUntilComplete(device.Write(boundary - 50, data)).ok());
  auto read = sim_.RunUntilComplete(device.Read(boundary - 50, 100));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

TEST_F(BlockDeviceTest, OutOfRangeRejected) {
  StorageDevice device(sim_, "hdd0", kMiB, HddPerf());
  EXPECT_EQ(sim_.RunUntilComplete(
                device.Write(kMiB - 1, std::vector<std::uint8_t>(2)))
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(sim_.RunUntilComplete(device.Read(kMiB, 1)).status().code(),
            StatusCode::kOutOfRange);
}

TEST_F(BlockDeviceTest, TransferTimeMatchesPerfModel) {
  StorageDevice device(sim_, "hdd0", 10 * kGiB, HddPerf());
  // 200 MB at 200 MB/s + 8 ms latency = 1.008 s.
  sim::TimePoint t0 = sim_.now();
  ASSERT_TRUE(sim_.RunUntilComplete(
                  device.Write(0, std::vector<std::uint8_t>(200 * kMB)))
                  .ok());
  EXPECT_NEAR(ToSeconds(sim_.now() - t0), 1.008, 1e-6);
}

TEST_F(BlockDeviceTest, ConcurrentRequestsSerialize) {
  StorageDevice device(sim_, "hdd0", 10 * kGiB, HddPerf());
  sim::TimePoint t0 = sim_.now();
  for (int i = 0; i < 4; ++i) {
    sim_.Spawn([](StorageDevice* d, int idx) -> sim::Task<void> {
      Status s = co_await d->Write(idx * kMB,
                                   std::vector<std::uint8_t>(100 * kMB));
      ROS_CHECK(s.ok());
    }(&device, i));
  }
  sim_.Run();
  // 4 x (0.5 s + 8 ms), strictly serialized on the single spindle.
  EXPECT_NEAR(ToSeconds(sim_.now() - t0), 4 * 0.508, 1e-6);
}

TEST_F(BlockDeviceTest, FailedDeviceRejectsIo) {
  StorageDevice device(sim_, "hdd0", kGiB, HddPerf());
  device.Fail();
  EXPECT_EQ(sim_.RunUntilComplete(
                device.Write(0, std::vector<std::uint8_t>(10)))
                .code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(sim_.RunUntilComplete(device.Read(0, 10)).status().code(),
            StatusCode::kUnavailable);
  device.Replace();
  EXPECT_TRUE(sim_.RunUntilComplete(
                  device.Write(0, std::vector<std::uint8_t>(10)))
                  .ok());
}

TEST_F(BlockDeviceTest, ReplaceClearsContents) {
  StorageDevice device(sim_, "hdd0", kGiB, HddPerf());
  ASSERT_TRUE(sim_.RunUntilComplete(
                  device.Write(0, std::vector<std::uint8_t>{1, 2, 3}))
                  .ok());
  device.Fail();
  device.Replace();
  auto read = sim_.RunUntilComplete(device.Read(0, 3));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, std::vector<std::uint8_t>(3, 0));
}

TEST_F(BlockDeviceTest, VectoredIoChargesOneLatency) {
  StorageDevice device(sim_, "hdd0", 10 * kGiB, HddPerf());
  std::vector<StorageDevice::Segment> segs;
  for (int i = 0; i < 10; ++i) {
    segs.push_back({static_cast<std::uint64_t>(i) * 10 * kMB,
                    std::vector<std::uint8_t>(10 * kMB, 1)});
  }
  sim::TimePoint t0 = sim_.now();
  ASSERT_TRUE(sim_.RunUntilComplete(device.WriteMulti(std::move(segs))).ok());
  // 100 MB at 200 MB/s + one 8 ms latency = 0.508 s.
  EXPECT_NEAR(ToSeconds(sim_.now() - t0), 0.508, 1e-6);

  std::vector<StorageDevice::Segment> reads;
  reads.push_back({0, std::vector<std::uint8_t>(4)});
  reads.push_back({10 * kMB, std::vector<std::uint8_t>(4)});
  ASSERT_TRUE(sim_.RunUntilComplete(device.ReadMulti(&reads)).ok());
  EXPECT_EQ(reads[0].data, std::vector<std::uint8_t>(4, 1));
  EXPECT_EQ(reads[1].data, std::vector<std::uint8_t>(4, 1));
}

TEST_F(BlockDeviceTest, TrafficCountersAccumulate) {
  StorageDevice device(sim_, "ssd0", kGiB, SsdPerf());
  ASSERT_TRUE(sim_.RunUntilComplete(
                  device.Write(0, std::vector<std::uint8_t>(1000)))
                  .ok());
  ASSERT_TRUE(sim_.RunUntilComplete(device.Read(0, 400)).ok());
  EXPECT_EQ(device.bytes_written(), 1000u);
  EXPECT_EQ(device.bytes_read(), 400u);
}

// Write, WriteDiscard and a one-segment WriteMulti are one request kind:
// over the same ranges they leave the same clock, counters and busy time.
// The same holds for the three reads.
TEST_F(BlockDeviceTest, EveryRequestKindChargesTheSame) {
  struct Range {
    std::uint64_t offset;
    std::uint64_t length;
  };
  // A seek, a streaming continuation, then a seek back.
  const std::vector<Range> ranges = {
      {3 * kMiB, 100 * kKiB}, {3 * kMiB + 100 * kKiB, 7000}, {0, 1}};
  enum class Kind { kPlain, kDiscard, kMulti };
  struct Outcome {
    sim::TimePoint now;
    std::uint64_t bytes;
    sim::Duration busy;
  };
  auto run = [&](bool is_read, Kind kind) {
    sim::Simulator sim;
    StorageDevice device(sim, "hdd0", kGiB, HddPerf());
    for (const Range& range : ranges) {
      Status status;
      if (kind == Kind::kDiscard) {
        status = sim.RunUntilComplete(
            is_read ? device.ReadDiscard(range.offset, range.length)
                    : device.WriteDiscard(range.offset, range.length));
      } else if (kind == Kind::kMulti) {
        std::vector<StorageDevice::Segment> segments;
        segments.push_back(
            {range.offset, std::vector<std::uint8_t>(range.length, 7)});
        status = sim.RunUntilComplete(
            is_read ? device.ReadMulti(&segments)
                    : device.WriteMulti(std::move(segments)));
      } else if (is_read) {
        status = sim.RunUntilComplete(device.Read(range.offset, range.length))
                     .status();
      } else {
        status = sim.RunUntilComplete(device.Write(
            range.offset, std::vector<std::uint8_t>(range.length, 7)));
      }
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
    return Outcome{sim.now(),
                   is_read ? device.bytes_read() : device.bytes_written(),
                   device.busy_time()};
  };
  for (const bool is_read : {false, true}) {
    const Outcome plain = run(is_read, Kind::kPlain);
    EXPECT_EQ(plain.bytes, 100 * kKiB + 7001);
    for (const Kind kind : {Kind::kDiscard, Kind::kMulti}) {
      const Outcome other = run(is_read, kind);
      EXPECT_EQ(other.now, plain.now) << is_read;
      EXPECT_EQ(other.bytes, plain.bytes) << is_read;
      EXPECT_EQ(other.busy, plain.busy) << is_read;
    }
  }
}

// A device that dies while a request is in flight fails that request,
// whatever its kind, and counts none of its bytes.
TEST_F(BlockDeviceTest, EveryRequestKindFailsWhenTheDeviceDiesMidFlight) {
  StorageDevice device(sim_, "hdd0", kGiB, HddPerf());
  std::vector<StorageDevice::Segment> reads;
  reads.push_back({0, std::vector<std::uint8_t>(4 * kKiB)});
  std::vector<std::pair<const char*, std::function<Status()>>> kinds = {
      {"Write",
       [&] {
         return sim_.RunUntilComplete(
             device.Write(0, std::vector<std::uint8_t>(4 * kKiB)));
       }},
      {"Read",
       [&] { return sim_.RunUntilComplete(device.Read(0, 4 * kKiB)).status(); }},
      {"WriteDiscard",
       [&] { return sim_.RunUntilComplete(device.WriteDiscard(0, 4 * kKiB)); }},
      {"ReadDiscard",
       [&] { return sim_.RunUntilComplete(device.ReadDiscard(0, 4 * kKiB)); }},
      {"WriteMulti",
       [&] {
         std::vector<StorageDevice::Segment> writes;
         writes.push_back({0, std::vector<std::uint8_t>(4 * kKiB)});
         return sim_.RunUntilComplete(device.WriteMulti(std::move(writes)));
       }},
      {"ReadMulti",
       [&] { return sim_.RunUntilComplete(device.ReadMulti(&reads)); }},
  };
  for (auto& [name, request] : kinds) {
    // The fail lands 1 ms into the request's 8 ms positioning time.
    sim_.ScheduleAfter(sim::Millis(1), [&device] { device.Fail(); });
    EXPECT_EQ(request().code(), StatusCode::kUnavailable) << name;
    device.Revive();
  }
  EXPECT_EQ(device.bytes_written(), 0u);
  EXPECT_EQ(device.bytes_read(), 0u);
}

}  // namespace
}  // namespace ros::disk
