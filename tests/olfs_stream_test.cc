// Tests of the streaming-handle API (the FUSE open/write*/release data
// path behind Fig 6's singlestream workloads).
#include <gtest/gtest.h>

#include <memory>

#include "src/common/rng.h"
#include "src/olfs/olfs.h"
#include "src/sim/join.h"
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

class OlfsStreamTest : public ::testing::Test {
 protected:
  explicit OlfsStreamTest(std::uint64_t disc_capacity = 4 * kMiB) {
    system_ = std::make_unique<RosSystem>(sim_, TestSystemConfig());
    OlfsParams params;
    params.disc_capacity_override = disc_capacity;
    olfs_ = std::make_unique<Olfs>(sim_, system_.get(), params);
    olfs_->burns().burn_start_interval = Seconds(1);
  }

  // Destroy suspended background coroutines (burn/snapshot/scrub loops)
  // while the system objects they borrow are still alive.
  ~OlfsStreamTest() override { sim_.Shutdown(); }

  sim::Simulator sim_;
  std::unique_ptr<RosSystem> system_;
  std::unique_ptr<Olfs> olfs_;
};

// Discs (and so buckets) large enough for a multi-MiB append in place.
class OlfsStreamBigDiscTest : public OlfsStreamTest {
 protected:
  OlfsStreamBigDiscTest() : OlfsStreamTest(64 * kMiB) {}
};

TEST_F(OlfsStreamTest, StreamedWritesAccumulate) {
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->Create("/s/f", {}, 0)).ok());
  auto part1 = RandomBytes(1000, 1);
  auto part2 = RandomBytes(2000, 2);
  ASSERT_TRUE(sim_.RunUntilComplete(
                  olfs_->AppendStream("/s/f", part1, part1.size())).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(
                  olfs_->AppendStream("/s/f", part2, part2.size())).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->CloseStream("/s/f")).ok());

  auto data = sim_.RunUntilComplete(olfs_->Read("/s/f", 0, 3000));
  ASSERT_TRUE(data.ok());
  std::vector<std::uint8_t> expect = part1;
  expect.insert(expect.end(), part2.begin(), part2.end());
  EXPECT_EQ(*data, expect);
}

TEST_F(OlfsStreamTest, ReadStreamServesWhileHandleOpen) {
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->Create("/s/r", {}, 0)).ok());
  auto payload = RandomBytes(5000, 3);
  ASSERT_TRUE(sim_.RunUntilComplete(
                  olfs_->AppendStream("/s/r", payload, payload.size())).ok());
  auto data = sim_.RunUntilComplete(olfs_->ReadStream("/s/r", 1000, 2000));
  ASSERT_TRUE(data.ok());
  EXPECT_TRUE(std::equal(data->begin(), data->end(),
                         payload.begin() + 1000));
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->CloseStream("/s/r")).ok());
}

TEST_F(OlfsStreamTest, StreamSpillsAcrossBucketsWithLinks) {
  // Stream 10 MiB into 4 MiB buckets: parts chain across images.
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->Create("/s/big", {}, 0)).ok());
  std::vector<std::uint8_t> expect;
  for (int i = 0; i < 10; ++i) {
    auto chunk = RandomBytes(1 * kMiB, 100 + i);
    expect.insert(expect.end(), chunk.begin(), chunk.end());
    ASSERT_TRUE(sim_.RunUntilComplete(
                    olfs_->AppendStream("/s/big", chunk, chunk.size()))
                    .ok())
        << i;
  }
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->CloseStream("/s/big")).ok());

  auto info = sim_.RunUntilComplete(olfs_->Stat("/s/big"));
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->size, expect.size());

  auto data = sim_.RunUntilComplete(
      olfs_->Read("/s/big", 0, expect.size()));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, expect);
  EXPECT_GE(olfs_->buckets().buckets_created(), 3);
}

TEST_F(OlfsStreamTest, StreamedFileSurvivesBurnAndRead) {
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->Create("/s/cold", {}, 0)).ok());
  auto payload = RandomBytes(64 * kKiB, 7);
  ASSERT_TRUE(sim_.RunUntilComplete(
                  olfs_->AppendStream("/s/cold", payload, payload.size()))
                  .ok());
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->CloseStream("/s/cold")).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->FlushAndDrain()).ok());
  auto data = sim_.RunUntilComplete(
      olfs_->Read("/s/cold", 0, payload.size()));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, payload);
}

// A handle that only read commits nothing: an Update made while it was
// open survives its close.
TEST_F(OlfsStreamTest, ClosingAReadHandleKeepsALaterUpdate) {
  ASSERT_TRUE(sim_.RunUntilComplete(
                  olfs_->Create("/s/f", RandomBytes(100, 11), 100))
                  .ok());
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->ReadStream("/s/f", 0, 100)).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(
                  olfs_->Update("/s/f", RandomBytes(200, 12), 200))
                  .ok());
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->CloseStream("/s/f")).ok());
  auto info = sim_.RunUntilComplete(olfs_->Stat("/s/f"));
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->version, 2);
  EXPECT_EQ(info->size, 200u);
}

// A write handle commits only the version it grew, onto the index as it
// stands at close: a version written meanwhile stays the latest.
TEST_F(OlfsStreamTest, ClosingAWriteHandleKeepsALaterUpdate) {
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->Create("/s/g", {}, 0)).ok());
  auto grown = RandomBytes(50, 13);
  ASSERT_TRUE(sim_.RunUntilComplete(
                  olfs_->AppendStream("/s/g", grown, grown.size()))
                  .ok());
  auto updated = RandomBytes(70, 14);
  ASSERT_TRUE(sim_.RunUntilComplete(
                  olfs_->Update("/s/g", updated, updated.size()))
                  .ok());
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->CloseStream("/s/g")).ok());

  auto v2 = sim_.RunUntilComplete(olfs_->ReadVersion("/s/g", 2, 0, 70));
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ(*v2, updated);
  auto v1 = sim_.RunUntilComplete(olfs_->ReadVersion("/s/g", 1, 0, 50));
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  EXPECT_EQ(*v1, grown);
  auto info = sim_.RunUntilComplete(olfs_->Stat("/s/g"));
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->version, 2);
}

// Nor does a grown handle undo an Unlink: its close rewrites the version
// it grew, and the tombstone above it stays the latest.
TEST_F(OlfsStreamTest, ClosingAWriteHandleKeepsALaterUnlink) {
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->Create("/s/u", {}, 0)).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(
                  olfs_->AppendStream("/s/u", RandomBytes(40, 17), 40))
                  .ok());
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->Unlink("/s/u")).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->CloseStream("/s/u")).ok());
  EXPECT_EQ(sim_.RunUntilComplete(olfs_->Stat("/s/u")).status().code(),
            StatusCode::kNotFound);
  auto v1 = sim_.RunUntilComplete(olfs_->ReadVersion("/s/u", 1, 0, 40));
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  EXPECT_EQ(*v1, RandomBytes(40, 17));
}

// CloseStream takes the path lock, so a close that arrives while an
// append is in its bucket write waits for it and commits what it wrote.
TEST_F(OlfsStreamBigDiscTest, CloseDuringAnAppendWaitsForIt) {
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->Create("/s/live", {}, 0)).ok());
  auto head = RandomBytes(1000, 15);
  ASSERT_TRUE(sim_.RunUntilComplete(
                  olfs_->AppendStream("/s/live", head, head.size()))
                  .ok());
  auto body = RandomBytes(7 * kMiB, 16);
  std::vector<sim::Task<Status>> ops;
  ops.push_back(olfs_->AppendStream("/s/live", body, body.size()));
  ops.push_back(olfs_->CloseStream("/s/live"));
  ASSERT_TRUE(sim_.RunUntilComplete(sim::AllOk(sim_, std::move(ops))).ok());

  std::vector<std::uint8_t> expect = head;
  expect.insert(expect.end(), body.begin(), body.end());
  auto info = sim_.RunUntilComplete(olfs_->Stat("/s/live"));
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->size, expect.size());
  auto data = sim_.RunUntilComplete(olfs_->Read("/s/live", 0, expect.size()));
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(*data, expect);
}

TEST_F(OlfsStreamTest, CloseWithoutHandleIsNoop) {
  EXPECT_TRUE(sim_.RunUntilComplete(olfs_->CloseStream("/never")).ok());
}

TEST_F(OlfsStreamTest, AppendStreamToMissingFileFails) {
  EXPECT_FALSE(sim_.RunUntilComplete(
                   olfs_->AppendStream("/missing", {1}, 1)).ok());
}

TEST_F(OlfsStreamTest, SparseStreamKeepsLogicalSize) {
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->Create("/s/sparse", {}, 0)).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(
                  olfs_->AppendStream("/s/sparse", {}, 1 * kMiB)).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->CloseStream("/s/sparse")).ok());
  auto info = sim_.RunUntilComplete(olfs_->Stat("/s/sparse"));
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->size, 1 * kMiB);
  auto data = sim_.RunUntilComplete(olfs_->Read("/s/sparse", 100, 16));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, std::vector<std::uint8_t>(16, 0));
}

}  // namespace
}  // namespace ros::olfs
