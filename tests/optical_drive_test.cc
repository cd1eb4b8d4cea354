#include "src/drive/optical_drive.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/common/units.h"
#include "src/drive/disc.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace ros::drive {
namespace {

using sim::Seconds;
using sim::ToSeconds;

std::unique_ptr<Disc> BlankDisc(DiscType type, const std::string& id = "d") {
  return std::make_unique<Disc>(id, type);
}

std::unique_ptr<Disc> BurnedDisc(const std::string& image,
                                 std::vector<std::uint8_t> data,
                                 std::uint64_t logical) {
  auto disc = BlankDisc(DiscType::kBdr25);
  ROS_CHECK(disc->AppendSession(image, logical, std::move(data), true).ok());
  return disc;
}

class OpticalDriveTest : public ::testing::Test {
 protected:
  sim::Simulator sim_;
  std::unique_ptr<Disc> disc_;
};

TEST_F(OpticalDriveTest, InsertEjectLifecycle) {
  OpticalDrive drive(sim_, nullptr, 0);
  EXPECT_EQ(drive.state(), DriveState::kEmpty);
  disc_ = BlankDisc(DiscType::kBdr25);
  ASSERT_TRUE(drive.InsertDisc(disc_.get()).ok());
  EXPECT_EQ(drive.state(), DriveState::kSleeping);
  auto second = BlankDisc(DiscType::kBdr25);
  EXPECT_EQ(drive.InsertDisc(second.get()).code(),
            StatusCode::kFailedPrecondition);
  auto out = drive.EjectDisc();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(drive.state(), DriveState::kEmpty);
  EXPECT_EQ(drive.EjectDisc().status().code(), StatusCode::kFailedPrecondition);
}

// §5.4: waking a sleeping drive costs ~2 s; VFS mount costs ~220 ms.
TEST_F(OpticalDriveTest, WakeAndMountDelays) {
  OpticalDrive drive(sim_, nullptr, 0);
  disc_ = BurnedDisc("img", {1, 2, 3}, kMB);
  ASSERT_TRUE(drive.InsertDisc(disc_.get()).ok());
  sim::TimePoint t0 = sim_.now();
  ASSERT_TRUE(sim_.RunUntilComplete(drive.EnsureAwake()).ok());
  EXPECT_EQ(sim_.now() - t0, Seconds(2.0));
  t0 = sim_.now();
  ASSERT_TRUE(sim_.RunUntilComplete(drive.MountVfs()).ok());
  EXPECT_EQ(sim_.now() - t0, sim::Millis(220));
  // Idempotent once mounted.
  t0 = sim_.now();
  ASSERT_TRUE(sim_.RunUntilComplete(drive.MountVfs()).ok());
  EXPECT_EQ(sim_.now(), t0);
  // Sleeping drops the mount.
  drive.Sleep();
  EXPECT_EQ(drive.state(), DriveState::kSleeping);
  EXPECT_FALSE(drive.vfs_mounted());
}

TEST_F(OpticalDriveTest, ReadReturnsBurnedBytes) {
  OpticalDrive drive(sim_, nullptr, 0);
  disc_ = BurnedDisc("img", {5, 6, 7, 8}, kMB);
  ASSERT_TRUE(drive.InsertDisc(disc_.get()).ok());
  auto data = sim_.RunUntilComplete(drive.Read("img", 1, 3));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, (std::vector<std::uint8_t>{6, 7, 8}));
  EXPECT_EQ(drive.bytes_read(), 3u);
}

// ReadAll is Read(0, stream size) after a session lookup: same bytes, same
// sim time, and no time at all when the image is not on the disc.
TEST_F(OpticalDriveTest, ReadAllReadsTheWholeStreamLikeRead) {
  const std::vector<std::uint8_t> stream(3 * kSectorSize + 17, 0x5a);
  OpticalDrive drive(sim_, nullptr, 0);
  disc_ = BurnedDisc("img", stream, kMB);
  ASSERT_TRUE(drive.InsertDisc(disc_.get()).ok());
  OpticalDrive twin(sim_, nullptr, 1);
  auto twin_disc = BurnedDisc("img", stream, kMB);
  ASSERT_TRUE(twin.InsertDisc(twin_disc.get()).ok());

  sim::TimePoint t0 = sim_.now();
  auto all = sim_.RunUntilComplete(drive.ReadAll("img"));
  const sim::Duration read_all = sim_.now() - t0;
  t0 = sim_.now();
  auto ranged = sim_.RunUntilComplete(twin.Read("img", 0, stream.size()));
  const sim::Duration read = sim_.now() - t0;
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(ranged.ok());
  EXPECT_EQ(*all, stream);
  EXPECT_EQ(read_all, read);
  EXPECT_GT(read_all, 0);
  EXPECT_EQ(drive.bytes_read(), stream.size());

  // Absent image: kNotFound before any wake, mount, seek or transfer.
  drive.Sleep();
  t0 = sim_.now();
  auto absent = sim_.RunUntilComplete(drive.ReadAll("other"));
  EXPECT_EQ(absent.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(sim_.now(), t0);

  // A rotten sector inside the stream surfaces as kDataLoss.
  disc_->CorruptSector((*disc_->FindSession("img"))->start / kSectorSize + 1);
  auto rotten = sim_.RunUntilComplete(drive.ReadAll("img"));
  EXPECT_EQ(rotten.status().code(), StatusCode::kDataLoss);
}

// ReadDiscard charges what Read charges (time, bytes_read, the head
// position) and fails the same way on a rotten sector.
TEST_F(OpticalDriveTest, ReadDiscardChargesLikeRead) {
  const std::vector<std::uint8_t> stream(3 * kSectorSize + 17, 0x5a);
  OpticalDrive drive(sim_, nullptr, 0);
  disc_ = BurnedDisc("img", stream, kMB);
  ASSERT_TRUE(drive.InsertDisc(disc_.get()).ok());
  OpticalDrive twin(sim_, nullptr, 1);
  auto twin_disc = BurnedDisc("img", stream, kMB);
  ASSERT_TRUE(twin.InsertDisc(twin_disc.get()).ok());

  for (std::uint64_t offset : {std::uint64_t{0}, std::uint64_t{5000}}) {
    sim::TimePoint t0 = sim_.now();
    ASSERT_TRUE(sim_.RunUntilComplete(drive.ReadDiscard("img", offset, 4000))
                    .ok());
    const sim::Duration discarded = sim_.now() - t0;
    t0 = sim_.now();
    ASSERT_TRUE(sim_.RunUntilComplete(twin.Read("img", offset, 4000)).ok());
    EXPECT_EQ(discarded, sim_.now() - t0);
  }
  EXPECT_EQ(drive.bytes_read(), twin.bytes_read());

  disc_->CorruptSector((*disc_->FindSession("img"))->start / kSectorSize + 1);
  EXPECT_EQ(sim_.RunUntilComplete(drive.ReadDiscard("img", 0, 4000)).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(drive.bytes_read(), twin.bytes_read());
}

// A session with no stored payload still pays for a 1-byte read.
TEST_F(OpticalDriveTest, ReadAllOfEmptySessionPaysOneByte) {
  OpticalDrive drive(sim_, nullptr, 0);
  disc_ = BurnedDisc("img", {}, kMB);
  ASSERT_TRUE(drive.InsertDisc(disc_.get()).ok());
  OpticalDrive twin(sim_, nullptr, 1);
  auto twin_disc = BurnedDisc("img", {}, kMB);
  ASSERT_TRUE(twin.InsertDisc(twin_disc.get()).ok());

  sim::TimePoint t0 = sim_.now();
  auto all = sim_.RunUntilComplete(drive.ReadAll("img"));
  const sim::Duration read_all = sim_.now() - t0;
  t0 = sim_.now();
  ASSERT_TRUE(sim_.RunUntilComplete(twin.Read("img", 0, 1)).ok());
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, std::vector<std::uint8_t>{0});
  EXPECT_EQ(read_all, sim_.now() - t0);
  EXPECT_EQ(drive.bytes_read(), 1u);
}

// Sequential continuation does not seek; switching files does.
TEST_F(OpticalDriveTest, SeekChargedOnlyOnHeadMovement) {
  OpticalDrive drive(sim_, nullptr, 0);
  auto disc = BlankDisc(DiscType::kBdr25);
  ASSERT_TRUE(disc->AppendSession("a", 10 * kMB, {}, true).ok());
  ASSERT_TRUE(disc->AppendSession("b", 10 * kMB, {}, true).ok());
  disc_ = std::move(disc);
  ASSERT_TRUE(drive.InsertDisc(disc_.get()).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(drive.MountVfs()).ok());

  // First read after mount: no seek (head parked at lead-in).
  sim::TimePoint t0 = sim_.now();
  ASSERT_TRUE(sim_.RunUntilComplete(drive.Read("a", 0, kMB)).ok());
  sim::Duration first = sim_.now() - t0;

  // Sequential continuation: same transfer time, still no seek.
  t0 = sim_.now();
  ASSERT_TRUE(sim_.RunUntilComplete(drive.Read("a", kMB, kMB)).ok());
  EXPECT_EQ(sim_.now() - t0, first);

  // File switch: one 100 ms seek on top.
  t0 = sim_.now();
  ASSERT_TRUE(sim_.RunUntilComplete(drive.Read("b", 0, kMB)).ok());
  EXPECT_EQ(sim_.now() - t0, first + sim::Millis(100));
}

// Burning a full 25 GB disc takes ~675 s (Fig 8) on a standalone drive.
TEST_F(OpticalDriveTest, Burn25GbMatchesFigure8) {
  OpticalDrive drive(sim_, nullptr, 0);
  disc_ = BlankDisc(DiscType::kBdr25);
  ASSERT_TRUE(drive.InsertDisc(disc_.get()).ok());
  sim::TimePoint t0 = sim_.now();
  auto result = sim_.RunUntilComplete(
      drive.BurnImage("img", 25 * kGB, std::vector<std::uint8_t>(64, 1)));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->completed);
  EXPECT_EQ(result->bytes_burned, 25 * kGB);
  // Includes the 2 s wake.
  EXPECT_NEAR(ToSeconds(sim_.now() - t0), 675.0 + 2.0, 12.0);
  EXPECT_TRUE(drive.disc()->FindSession("img").ok());
}

// Burning a full 100 GB disc takes ~3757 s (Fig 10).
TEST_F(OpticalDriveTest, Burn100GbMatchesFigure10) {
  OpticalDrive drive(sim_, nullptr, 0);
  disc_ = BlankDisc(DiscType::kBdr100);
  ASSERT_TRUE(drive.InsertDisc(disc_.get()).ok());
  sim::TimePoint t0 = sim_.now();
  auto result =
      sim_.RunUntilComplete(drive.BurnImage("img", 100 * kGB, {}));
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(ToSeconds(sim_.now() - t0), 3757.0 + 2.0, 45.0);
}

TEST_F(OpticalDriveTest, BurnObserverSeesRampUp) {
  OpticalDrive drive(sim_, nullptr, 0);
  disc_ = BlankDisc(DiscType::kBdr25);
  ASSERT_TRUE(drive.InsertDisc(disc_.get()).ok());
  std::vector<double> speeds;
  drive.burn_observer = [&](double, double speed_x) {
    speeds.push_back(speed_x);
  };
  ASSERT_TRUE(sim_.RunUntilComplete(drive.BurnImage("img", 25 * kGB, {})).ok());
  ASSERT_FALSE(speeds.empty());
  EXPECT_DOUBLE_EQ(speeds.front(), 1.6);
  EXPECT_DOUBLE_EQ(speeds.back(), 12.0);
}

TEST_F(OpticalDriveTest, WormDiscRejectsSecondImageBeyondCapacity) {
  OpticalDrive drive(sim_, nullptr, 0);
  disc_ = BlankDisc(DiscType::kBdr25);
  ASSERT_TRUE(drive.InsertDisc(disc_.get()).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(drive.BurnImage("a", 20 * kGB, {})).ok());
  auto result = sim_.RunUntilComplete(drive.BurnImage("b", 10 * kGB, {}));
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

// §4.8's interrupt-and-resume policy: an in-flight append-mode burn stops
// at a chunk boundary, leaves an open session, and resumes later.
TEST_F(OpticalDriveTest, InterruptAndResumeAppendBurn) {
  OpticalDrive drive(sim_, nullptr, 0);
  disc_ = BlankDisc(DiscType::kBdr25);
  ASSERT_TRUE(drive.InsertDisc(disc_.get()).ok());

  // Interrupt roughly mid-burn.
  sim_.ScheduleAfter(Seconds(300), [&] { drive.RequestInterrupt(); });
  auto result = sim_.RunUntilComplete(drive.BurnImage(
      "img", 20 * kGB, std::vector<std::uint8_t>(100, 3),
      {.close_session = true, .append_mode = true}));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->completed);
  EXPECT_GT(result->bytes_burned, 0u);
  EXPECT_LT(result->bytes_burned, 20 * kGB);
  EXPECT_FALSE(drive.disc()->sessions().back().closed);

  // Resume: completes the remaining bytes and closes the session.
  auto resumed = sim_.RunUntilComplete(drive.BurnImage(
      "img", 20 * kGB, std::vector<std::uint8_t>(100, 3),
      {.close_session = true, .append_mode = true}));
  ASSERT_TRUE(resumed.ok());
  EXPECT_TRUE(resumed->completed);
  EXPECT_EQ(resumed->bytes_burned, 20 * kGB);
  EXPECT_TRUE(drive.disc()->sessions().back().closed);
  // The metadata zone reserved by append mode consumed capacity.
  EXPECT_EQ(drive.disc()->burned_bytes(), 20 * kGB + kMetadataZoneBytes);
}

// Table 2: aggregate read speed of 12 drives is slightly below 12x single
// (282.5 MB/s for 25 GB media, 210.2 MB/s for 100 GB media).
TEST_F(OpticalDriveTest, AggregateReadSpeedMatchesTable2) {
  for (auto [type, expected_mb] :
       {std::pair{DiscType::kBdr25, 282.5},
        std::pair{DiscType::kBdr100, 210.2}}) {
    sim::Simulator sim;
    DriveSet set(sim, 0);
    std::vector<std::unique_ptr<Disc>> owned;
    const std::uint64_t bytes = 64 * kMB;
    for (int i = 0; i < set.size(); ++i) {
      auto disc = BlankDisc(type, "d" + std::to_string(i));
      ASSERT_TRUE(disc->AppendSession("img", bytes, {}, true).ok());
      owned.push_back(std::move(disc));
      ASSERT_TRUE(set.drive(i).InsertDisc(owned.back().get()).ok());
      // Pre-wake so the measurement covers pure transfer.
      ASSERT_TRUE(sim.RunUntilComplete(set.drive(i).MountVfs()).ok());
    }
    sim::TimePoint t0 = sim.now();
    for (int i = 0; i < set.size(); ++i) {
      sim.Spawn([](OpticalDrive* d, std::uint64_t n) -> sim::Task<void> {
        auto r = co_await d->Read("img", 0, n);
        ROS_CHECK(r.ok());
      }(&set.drive(i), bytes));
    }
    sim.Run();
    double seconds = ToSeconds(sim.now() - t0);
    double aggregate_mb = 12.0 * BytesToMB(bytes) / seconds;
    EXPECT_NEAR(aggregate_mb, expected_mb, expected_mb * 0.01)
        << "media type " << static_cast<int>(type);
  }
}

}  // namespace
}  // namespace ros::drive
