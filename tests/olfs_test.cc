// End-to-end tests of the OLFS stack on a small simulated rack.
#include "src/olfs/olfs.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/sim/fault.h"
#include "src/sim/join.h"
#include "src/sim/time.h"

namespace ros::olfs {
namespace {

using sim::Seconds;
using sim::ToSeconds;

OlfsParams TestParams() {
  OlfsParams params;
  params.disc_type = drive::DiscType::kBdr25;
  params.disc_capacity_override = 16 * kMiB;  // tiny media for fast tests
  params.read_cache_bytes = 256 * kMiB;
  return params;
}

class OlfsTest : public ::testing::Test {
 protected:
  OlfsTest() { Reset(TestParams()); }

  ~OlfsTest() override {
    // Destroy suspended background coroutines (burn/snapshot/scrub
    // loops) while the system objects they borrow are still alive.
    if (sim_ != nullptr) {
      sim_->Shutdown();
    }
  }

  void Reset(OlfsParams params) {
    if (sim_ != nullptr) {
      sim_->Shutdown();  // pending loops borrow the olfs_ we are resetting
    }
    olfs_.reset();
    system_.reset();
    sim_ = std::make_unique<sim::Simulator>();
    system_ = std::make_unique<RosSystem>(*sim_, TestSystemConfig());
    olfs_ = std::make_unique<Olfs>(*sim_, system_.get(), params);
    olfs_->burns().burn_start_interval = Seconds(1);
  }

  std::vector<std::uint8_t> Bytes(const std::string& s) {
    return {s.begin(), s.end()};
  }

  std::vector<std::uint8_t> RandomBytes(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::uint8_t> out(n);
    for (auto& b : out) {
      b = static_cast<std::uint8_t>(rng.Next());
    }
    return out;
  }

  // Image holding the first part of `path`'s latest version.
  std::string ImageOf(const std::string& path) {
    auto index = sim_->RunUntilComplete(olfs_->mv().Get(path));
    EXPECT_TRUE(index.ok());
    return (*index->Latest())->parts[0].image_id;
  }

  // Forces the array holding `image_id` out of its bay, as a fetch of
  // another tray would.
  void UnloadTrayOf(const std::string& image_id) {
    auto record = olfs_->images().Lookup(image_id);
    ASSERT_TRUE(record.ok() && (*record)->disc.has_value());
    const int tray = (*record)->disc->tray.ToIndex();
    MechController& mech = olfs_->mech();
    for (int bay = 0; bay < mech.num_bays(); ++bay) {
      if (mech.bay_tray(bay).has_value() &&
          mech.bay_tray(bay)->ToIndex() == tray) {
        // ros-lint: allow(acquire-bay): the test evicts one named tray,
        // which no scheduler claim selects.
        ASSERT_TRUE(mech.TryClaimBay(bay));
        ASSERT_TRUE(sim_->RunUntilComplete(mech.UnloadArray(bay)).ok());
        mech.ReleaseBay(bay);
        return;
      }
    }
    FAIL() << "tray of " << image_id << " is not in a bay";
  }

  std::uint64_t DriveBytesRead() {
    std::uint64_t total = 0;
    for (drive::DriveSet* set : system_->drive_sets()) {
      for (int i = 0; i < set->size(); ++i) {
        total += set->drive(i).bytes_read();
      }
    }
    return total;
  }

  std::uint64_t TrayLoads() {
    return olfs_->mech().library().loads_completed();
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<RosSystem> system_;
  std::unique_ptr<Olfs> olfs_;
};

TEST_F(OlfsTest, CreateAndReadBack) {
  ASSERT_TRUE(sim_->RunUntilComplete(
                  olfs_->Create("/archive/a.txt", Bytes("hello ros")))
                  .ok());
  auto data = sim_->RunUntilComplete(olfs_->Read("/archive/a.txt", 0, 9));
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(*data, Bytes("hello ros"));
  // Partial read.
  data = sim_->RunUntilComplete(olfs_->Read("/archive/a.txt", 6, 3));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, Bytes("ros"));
}

TEST_F(OlfsTest, CreateExistingFails) {
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->Create("/a", Bytes("1"))).ok());
  EXPECT_EQ(sim_->RunUntilComplete(olfs_->Create("/a", Bytes("2"))).code(),
            StatusCode::kAlreadyExists);
}

// A failed MV commit must not hide the namespace: the file that was there
// is still there, with its history, and a Create of it still fails.
TEST_F(OlfsTest, FailedMvCommitKeepsTheNamespace) {
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->Create("/f", Bytes("one"))).ok());
  ASSERT_TRUE(
      sim_->RunUntilComplete(olfs_->Update("/f", Bytes("two!"), 4)).ok());
  // One MV mirror dies under the next WAL append, which fails; the pair
  // keeps serving from the survivor. (Write-through: the controller cache
  // would hide the death until destage.)
  system_->mv_raid()->set_write_cache(false);
  sim::FaultInjector faults(/*seed=*/1);
  faults.FailNth(sim::FaultKind::kHddFailure, "ssd0", 1);
  system_->InstallFaultInjector(&faults);
  EXPECT_FALSE(
      sim_->RunUntilComplete(olfs_->Update("/f", Bytes("three"), 5)).ok());
  system_->InstallFaultInjector(nullptr);

  EXPECT_EQ(sim_->RunUntilComplete(olfs_->Create("/f", Bytes("new"))).code(),
            StatusCode::kAlreadyExists);
  auto listing = sim_->RunUntilComplete(olfs_->ReadDir("/"));
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(*listing, std::vector<std::string>{"f"});
  auto info = sim_->RunUntilComplete(olfs_->Stat("/f"));
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->version, 2);
  ASSERT_TRUE(
      sim_->RunUntilComplete(olfs_->Update("/f", Bytes("four"), 4)).ok());
  auto v1 = sim_->RunUntilComplete(olfs_->ReadVersion("/f", 1, 0, 3));
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(*v1, Bytes("one"));
  info = sim_->RunUntilComplete(olfs_->Stat("/f"));
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->version, 3);
}

TEST_F(OlfsTest, ReadMissingFails) {
  EXPECT_EQ(
      sim_->RunUntilComplete(olfs_->Read("/nope", 0, 1)).status().code(),
      StatusCode::kNotFound);
}

TEST_F(OlfsTest, WriteLatencyMatchesFigure7) {
  const std::vector<std::string> create_ops = {"stat", "mknod", "stat",
                                               "write", "close"};
  const std::vector<std::string> update_ops = {"stat", "write", "close"};
  // ext4+OLFS write: stat, mknod, stat, write, close -> ~16 ms (§5.3).
  sim::TimePoint t0 = sim_->now();
  ASSERT_TRUE(
      sim_->RunUntilComplete(olfs_->Create("/f", Bytes("x"))).ok());
  const double create_ms = sim::ToMillis(sim_->now() - t0);
  EXPECT_NEAR(create_ms, 16.0, 2.5);
  EXPECT_EQ(olfs_->last_op_trace(), create_ops);

  // An update of an existing file skips mknod and the second stat.
  t0 = sim_->now();
  ASSERT_TRUE(
      sim_->RunUntilComplete(olfs_->Update("/f", Bytes("y"), 1)).ok());
  const double update_ms = sim::ToMillis(sim_->now() - t0);
  EXPECT_NEAR(update_ms, 9.0, 1.5);
  EXPECT_EQ(olfs_->last_op_trace(), update_ops);

  // Write picks its branch under the path lock and charges what Create
  // or Update would: a new path first, then the same path again.
  t0 = sim_->now();
  ASSERT_TRUE(
      sim_->RunUntilComplete(olfs_->Write("/g", Bytes("x"), 1)).ok());
  EXPECT_NEAR(sim::ToMillis(sim_->now() - t0), create_ms, 0.5);
  EXPECT_EQ(olfs_->last_op_trace(), create_ops);
  t0 = sim_->now();
  ASSERT_TRUE(
      sim_->RunUntilComplete(olfs_->Write("/g", Bytes("y"), 1)).ok());
  EXPECT_NEAR(sim::ToMillis(sim_->now() - t0), update_ms, 0.5);
  EXPECT_EQ(olfs_->last_op_trace(), update_ops);
  auto info = sim_->RunUntilComplete(olfs_->Stat("/g"));
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->version, 2);
}

TEST_F(OlfsTest, ReadLatencyMatchesFigure7) {
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->Create("/f", Bytes("x"))).ok());
  // ext4+OLFS read: stat, read, close -> ~9 ms (§5.3).
  sim::TimePoint t0 = sim_->now();
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->Read("/f", 0, 1)).ok());
  double ms = sim::ToMillis(sim_->now() - t0);
  EXPECT_NEAR(ms, 9.0, 1.5);
  EXPECT_EQ(olfs_->last_op_trace(),
            (std::vector<std::string>{"stat", "read", "close"}));
}

TEST_F(OlfsTest, RootIsAlwaysAStatableDirectory) {
  auto info = sim_->RunUntilComplete(olfs_->Stat("/"));
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->is_directory);
  auto empty = sim_->RunUntilComplete(olfs_->ReadDir("/"));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST_F(OlfsTest, MkdirStatReadDir) {
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->Mkdir("/data/sub")).ok());
  ASSERT_TRUE(
      sim_->RunUntilComplete(olfs_->Create("/data/f1", Bytes("1"))).ok());
  ASSERT_TRUE(
      sim_->RunUntilComplete(olfs_->Create("/data/f2", Bytes("22"))).ok());

  auto info = sim_->RunUntilComplete(olfs_->Stat("/data"));
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->is_directory);

  info = sim_->RunUntilComplete(olfs_->Stat("/data/f2"));
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info->is_directory);
  EXPECT_EQ(info->size, 2u);
  EXPECT_EQ(info->version, 1);
  EXPECT_EQ(info->location, LocationKind::kBucket);

  auto children = sim_->RunUntilComplete(olfs_->ReadDir("/data"));
  ASSERT_TRUE(children.ok());
  EXPECT_EQ(*children, (std::vector<std::string>{"f1", "f2", "sub"}));
}

TEST_F(OlfsTest, UpdateCreatesVersionsAndHistoryIsReadable) {
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->Create("/v", Bytes("one"))).ok());
  ASSERT_TRUE(
      sim_->RunUntilComplete(olfs_->Update("/v", Bytes("two!"), 4)).ok());
  ASSERT_TRUE(
      sim_->RunUntilComplete(olfs_->Update("/v", Bytes("three"), 5)).ok());

  auto latest = sim_->RunUntilComplete(olfs_->Read("/v", 0, 5));
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, Bytes("three"));

  auto v1 = sim_->RunUntilComplete(olfs_->ReadVersion("/v", 1, 0, 3));
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(*v1, Bytes("one"));
  auto v2 = sim_->RunUntilComplete(olfs_->ReadVersion("/v", 2, 0, 4));
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, Bytes("two!"));

  auto info = sim_->RunUntilComplete(olfs_->Stat("/v"));
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->version, 3);
}

TEST_F(OlfsTest, AppendExtendsOpenBucketFileInPlace) {
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->Create("/log", Bytes("aa"))).ok());
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->Append("/log", Bytes("bb"))).ok());
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->Append("/log", Bytes("cc"))).ok());
  auto data = sim_->RunUntilComplete(olfs_->Read("/log", 0, 6));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, Bytes("aabbcc"));
  // In-place: still version 1.
  auto info = sim_->RunUntilComplete(olfs_->Stat("/log"));
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->version, 1);
}

// Appending to a file whose bucket is long burned writes the new bytes as
// a §4.5 continuation part: nothing is read back, so no tray is loaded.
TEST_F(OlfsTest, AppendToBurnedFileAddsAContinuationPart) {
  OlfsParams params = TestParams();
  params.read_cache_bytes = 0;  // the burned image leaves the buffer
  Reset(params);
  auto head = RandomBytes(3000, 61);
  ASSERT_TRUE(sim_->RunUntilComplete(
                  olfs_->Create("/cold", head, head.size()))
                  .ok());
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());
  auto record = olfs_->images().Lookup(ImageOf("/cold"));
  ASSERT_TRUE(record.ok());
  ASSERT_EQ((*record)->tier, ImageTier::kBurnedOnly);

  const std::uint64_t loads = system_->library()->loads_completed();
  const sim::TimePoint t0 = sim_->now();
  auto tail = RandomBytes(10, 62);
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->Append("/cold", tail)).ok());
  EXPECT_EQ(system_->library()->loads_completed(), loads);
  EXPECT_LT(ToSeconds(sim_->now() - t0), 1.0);

  auto index = sim_->RunUntilComplete(olfs_->mv().Get("/cold"));
  ASSERT_TRUE(index.ok());
  const VersionEntry& latest = **index->Latest();
  EXPECT_EQ(latest.version, 1);
  EXPECT_EQ(latest.total_size, 3010u);
  EXPECT_EQ(latest.parts.size(), 2u);

  std::vector<std::uint8_t> expect = head;
  expect.insert(expect.end(), tail.begin(), tail.end());
  auto data = sim_->RunUntilComplete(olfs_->Read("/cold", 0, 3010));
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(*data, expect);
}

TEST_F(OlfsTest, UnlinkTombstonesButKeepsHistory) {
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->Create("/d", Bytes("x"))).ok());
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->Unlink("/d")).ok());
  EXPECT_EQ(sim_->RunUntilComplete(olfs_->Read("/d", 0, 1)).status().code(),
            StatusCode::kNotFound);
  // Data provenance: the old version is still on WORM-bound media.
  auto v1 = sim_->RunUntilComplete(olfs_->ReadVersion("/d", 1, 0, 1));
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(*v1, Bytes("x"));
}

// §4.5: a file larger than a bucket's free space splits across buckets,
// with link files tying the parts together.
TEST_F(OlfsTest, LargeFileSplitsAcrossBuckets) {
  auto big = RandomBytes(20 * kMiB, 42);  // > 16 MiB bucket capacity
  ASSERT_TRUE(sim_->RunUntilComplete(
                  olfs_->Create("/big.bin", big, big.size()))
                  .ok());
  auto info = sim_->RunUntilComplete(olfs_->Stat("/big.bin"));
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->size, big.size());

  // Read back across the split boundary.
  auto data = sim_->RunUntilComplete(
      olfs_->Read("/big.bin", 0, big.size()));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, big);
  // A mid-file read spanning the boundary.
  auto middle = sim_->RunUntilComplete(
      olfs_->Read("/big.bin", 15 * kMiB, 2 * kMiB));
  ASSERT_TRUE(middle.ok());
  EXPECT_TRUE(std::equal(middle->begin(), middle->end(),
                         big.begin() + 15 * kMiB));
  // The first bucket closed (split forces closure).
  EXPECT_GE(olfs_->buckets().buckets_created(), 2);
}

// The full pipeline: enough data to close 11 buckets triggers parity
// generation and a 12-disc array burn, after which reads still succeed.
TEST_F(OlfsTest, BurnPipelineBurnsFullArray) {
  // Each file nearly fills a 16 MiB bucket; 13 files close >= 11 buckets,
  // triggering an automatic full-array burn.
  for (int i = 0; i < 13; ++i) {
    auto data = RandomBytes(64 * kKiB, 100 + i);
    ASSERT_TRUE(sim_->RunUntilComplete(
                    olfs_->Create("/vault/f" + std::to_string(i), data,
                                  15 * kMiB))
                    .ok());
  }
  sim_->Run();  // let the burn pipeline drain
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->burns().DrainAll()).ok())
      << olfs_->burns().last_error().ToString();
  EXPECT_EQ(olfs_->burns().arrays_burned(), 1);
  EXPECT_EQ(olfs_->da_index().CountState(ArrayState::kUsed), 1);

  // All 11 data images + 1 parity image are on discs.
  EXPECT_EQ(olfs_->images().BurnedImages().size(), 12u);

  // Reads hit the cached copies (images still in the disk buffer).
  auto data = sim_->RunUntilComplete(olfs_->Read("/vault/f3", 0, 64 * kKiB));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, RandomBytes(64 * kKiB, 103));
  EXPECT_GT(olfs_->cache().hits(), 0u);
}

TEST_F(OlfsTest, FlushAndDrainBurnsPartialArray) {
  ASSERT_TRUE(sim_->RunUntilComplete(
                  olfs_->Create("/x", RandomBytes(1000, 7), 1000))
                  .ok());
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());
  EXPECT_EQ(olfs_->burns().arrays_burned(), 1);
  // 1 data + 1 parity image burned.
  EXPECT_EQ(olfs_->images().BurnedImages().size(), 2u);
  auto data = sim_->RunUntilComplete(olfs_->Read("/x", 0, 1000));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, RandomBytes(1000, 7));
}

// Table 1's cold path: with no cache, a read fetches the disc (loading the
// array mechanically), and a second read of the same disc is served from
// the parked drive.
TEST_F(OlfsTest, ReadMissFetchesDiscMechanically) {
  OlfsParams params = TestParams();
  params.read_cache_bytes = 0;  // evict everything after burning
  Reset(params);

  auto payload = RandomBytes(100 * kKiB, 9);
  ASSERT_TRUE(sim_->RunUntilComplete(
                  olfs_->Create("/cold.bin", payload, payload.size()))
                  .ok());
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());

  // Evicted: the only copy is on disc now.
  auto record = olfs_->images().BurnedImages();
  ASSERT_FALSE(record.empty());
  auto info = sim_->RunUntilComplete(olfs_->Stat("/cold.bin"));
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->location, LocationKind::kDisc);

  sim::TimePoint t0 = sim_->now();
  auto data = sim_->RunUntilComplete(olfs_->Read("/cold.bin", 0, 1000));
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_TRUE(std::equal(data->begin(), data->end(), payload.begin()));
  double cold_seconds = ToSeconds(sim_->now() - t0);
  // Mechanical load (~69-74 s) + drive wake/mount + transfer.
  EXPECT_GT(cold_seconds, 65.0);
  EXPECT_LT(cold_seconds, 85.0);
  EXPECT_EQ(olfs_->fetches().fetches(), 1u);

  // Second read: disc already in the (parked) drive.
  t0 = sim_->now();
  data = sim_->RunUntilComplete(olfs_->Read("/cold.bin", 1000, 1000));
  ASSERT_TRUE(data.ok());
  double warm_seconds = ToSeconds(sim_->now() - t0);
  EXPECT_LT(warm_seconds, 1.0);
  EXPECT_EQ(olfs_->fetches().fetches(), 1u);  // no second fetch
}

// The parsed view a demand read left behind saves a parse, never a fetch
// or an optical read: once the tray has left its bay, a refresh of the
// image loads it again and reads the stream off the disc.
TEST_F(OlfsTest, RefreshAfterUnloadReadsTheDisc) {
  OlfsParams params = TestParams();
  params.read_cache_bytes = 0;  // burned images leave the buffer
  Reset(params);
  auto payload = RandomBytes(100 * kKiB, 21);
  ASSERT_TRUE(sim_->RunUntilComplete(
                  olfs_->Create("/a.bin", payload, payload.size()))
                  .ok());
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->Read("/a.bin", 0, 1000)).ok());
  const std::string image = ImageOf("/a.bin");
  UnloadTrayOf(image);

  const std::uint64_t loads = TrayLoads();
  const std::uint64_t bytes_read = DriveBytesRead();
  Status refreshed = sim_->RunUntilComplete(olfs_->RefreshImage(image));
  ASSERT_TRUE(refreshed.ok()) << refreshed.ToString();
  EXPECT_EQ(TrayLoads(), loads + 1);
  EXPECT_GT(DriveBytesRead(), bytes_read);
}

// A demand read does not follow a background read of the same image: the
// refresh's claim waits while demand for another tray keeps arriving, and
// a client read of the refreshed image still gets its own bounded fetch.
TEST_F(OlfsTest, DemandReadDoesNotWaitBehindARefresh) {
  OlfsParams params = TestParams();
  params.read_cache_bytes = 0;
  Reset(params);
  auto a = RandomBytes(100 * kKiB, 26);
  auto b = RandomBytes(100 * kKiB, 27);
  ASSERT_TRUE(
      sim_->RunUntilComplete(olfs_->Create("/a.bin", a, a.size())).ok());
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());
  ASSERT_TRUE(
      sim_->RunUntilComplete(olfs_->Create("/b.bin", b, b.size())).ok());
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());
  const std::string image_a = ImageOf("/a.bin");
  ASSERT_NE((*olfs_->images().Lookup(image_a))->disc->tray.ToIndex(),
            (*olfs_->images().Lookup(ImageOf("/b.bin")))->disc->tray.ToIndex());
  // Reads of B every 10 s: after the first loads B's tray into the one
  // bay, each is a parked hit that restarts the background hold.
  sim_->Spawn([](Olfs* olfs, sim::Simulator* sim) -> sim::Task<void> {
    for (int i = 0; i < 100; ++i) {
      (void)co_await olfs->Read("/b.bin", 0, 1000);
      co_await sim->Delay(Seconds(10));
    }
  }(olfs_.get(), sim_.get()));
  sim_->RunFor(Seconds(200));

  Status refreshed = UnavailableError("still running");
  sim_->Spawn([](Olfs* olfs, std::string image, Status* out)
                  -> sim::Task<void> {
    *out = co_await olfs->RefreshImage(image);
  }(olfs_.get(), image_a, &refreshed));
  sim_->RunFor(Seconds(20));
  ASSERT_FALSE(refreshed.ok());  // held behind the demand for B

  Status read_a = UnavailableError("still running");
  sim_->Spawn([](Olfs* olfs, Status* out) -> sim::Task<void> {
    auto data = co_await olfs->Read("/a.bin", 0, 1000);
    *out = data.status();
  }(olfs_.get(), &read_a));
  sim_->RunFor(olfs_->params().fetch_aging_bound);
  EXPECT_TRUE(read_a.ok()) << read_a.ToString();
  EXPECT_FALSE(refreshed.ok());

  sim_->RunFor(Seconds(3000));  // B's reads end; the refresh is admitted
  EXPECT_TRUE(refreshed.ok()) << refreshed.ToString();
}

// A parsed view left by an earlier read does not hide damage the disc took
// since: the next read re-parses, finds the rotted sector outside its own
// range, and is served degraded from parity, as a first read would be.
TEST_F(OlfsTest, RotAfterAReadIsFoundByTheNextRead) {
  OlfsParams params = TestParams();
  params.read_cache_bytes = 0;
  Reset(params);
  auto a = RandomBytes(100 * kKiB, 24);
  auto b = RandomBytes(100 * kKiB, 25);
  ASSERT_TRUE(
      sim_->RunUntilComplete(olfs_->Create("/a.bin", a, a.size())).ok());
  ASSERT_TRUE(
      sim_->RunUntilComplete(olfs_->Create("/b.bin", b, b.size())).ok());
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->Read("/a.bin", 0, 1000)).ok());

  const std::string image = ImageOf("/a.bin");
  auto record = olfs_->images().Lookup(image);
  ASSERT_TRUE(record.ok() && (*record)->disc.has_value());
  drive::Disc* disc = olfs_->mech().DiscAt(*(*record)->disc);
  auto session = disc->FindSession(image);
  ASSERT_TRUE(session.ok());
  // A sector near the stream's end, far past the bytes /a.bin's reads cover.
  disc->CorruptSector(((*session)->start + (*session)->data.size() - 10) /
                      drive::kSectorSize);

  auto data = sim_->RunUntilComplete(olfs_->Read("/a.bin", 0, 1000));
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_TRUE(std::equal(data->begin(), data->end(), a.begin()));
  EXPECT_EQ(olfs_->degraded_reads(), 1u);
}

// The staging twin: tray readahead behind a scan-hinted read stages a
// sibling whose parsed view an earlier demand read left behind, and still
// reads the sibling's whole stream off its disc.
TEST_F(OlfsTest, ReadaheadAfterUnloadReadsTheSibling) {
  OlfsParams params = TestParams();
  params.read_cache_bytes = 0;
  Reset(params);
  auto a = RandomBytes(100 * kKiB, 22);
  auto b = RandomBytes(100 * kKiB, 23);
  ASSERT_TRUE(
      sim_->RunUntilComplete(olfs_->Create("/a.bin", a, a.size())).ok());
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->buckets().CloseCurrentBucket())
                  .ok());
  ASSERT_TRUE(
      sim_->RunUntilComplete(olfs_->Create("/b.bin", b, b.size())).ok());
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());
  const std::string image_a = ImageOf("/a.bin");
  const std::string image_b = ImageOf("/b.bin");
  ASSERT_NE(image_a, image_b);
  auto record_b = olfs_->images().Lookup(image_b);
  ASSERT_TRUE(record_b.ok() && (*record_b)->disc.has_value());
  ASSERT_EQ((*olfs_->images().Lookup(image_a))->disc->tray.ToIndex(),
            (*record_b)->disc->tray.ToIndex());
  auto session_b =
      olfs_->mech().DiscAt(*(*record_b)->disc)->FindSession(image_b);
  ASSERT_TRUE(session_b.ok());
  const std::uint64_t stream_b = (*session_b)->data.size();

  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->Read("/b.bin", 0, 1000)).ok());
  UnloadTrayOf(image_a);

  const std::uint64_t bytes_read = DriveBytesRead();
  const AccessHint scan{/*stream=*/1, /*scan=*/true};
  ASSERT_TRUE(
      sim_->RunUntilComplete(olfs_->Read("/a.bin", 0, 1000, scan)).ok());
  sim_->RunFor(Seconds(600));  // the readahead runs behind the read
  EXPECT_EQ(olfs_->readahead_images(), 1u);
  EXPECT_GE(DriveBytesRead() - bytes_read, 1000 + stream_b);
}

// §4.7: a corrupted burned disc is detected by the scrub and repaired from
// the array's parity; the repaired image re-burns onto a fresh array.
TEST_F(OlfsTest, ScrubRepairsCorruptedDiscFromParity) {
  OlfsParams params = TestParams();
  params.read_cache_bytes = 0;
  Reset(params);

  auto payload = RandomBytes(50 * kKiB, 11);
  ASSERT_TRUE(sim_->RunUntilComplete(
                  olfs_->Create("/precious", payload, payload.size()))
                  .ok());
  ASSERT_TRUE(sim_->RunUntilComplete(
                  olfs_->Create("/second", RandomBytes(20 * kKiB, 12),
                                20 * kKiB))
                  .ok());
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());

  // Corrupt the disc holding /precious's image.
  auto index = sim_->RunUntilComplete(olfs_->mv().Get("/precious"));
  ASSERT_TRUE(index.ok());
  const std::string image_id = (*index->Latest())->parts[0].image_id;
  auto record = olfs_->images().Lookup(image_id);
  ASSERT_TRUE(record.ok());
  ASSERT_TRUE((*record)->disc.has_value());
  olfs_->mech().DiscAt(*(*record)->disc)->CorruptSector(1);

  // A direct read hits the data loss but is served degraded: the image is
  // reconstructed from parity inline and queued for repair.
  auto broken = sim_->RunUntilComplete(olfs_->Read("/precious", 0, 100));
  ASSERT_TRUE(broken.ok()) << broken.status().ToString();
  EXPECT_TRUE(std::equal(broken->begin(), broken->end(), payload.begin()));
  EXPECT_EQ(olfs_->degraded_reads(), 1u);
  EXPECT_EQ(olfs_->reconstructions(), 1u);
  EXPECT_EQ(olfs_->images_repaired(), 1u);
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());

  // The repair already re-staged the image, so the scrub finds nothing
  // further to do.
  auto pass = sim_->RunUntilComplete(olfs_->scrub().RunPass());
  ASSERT_TRUE(pass.ok()) << pass.status().ToString();
  EXPECT_EQ(pass->repairs, 0);

  auto data = sim_->RunUntilComplete(olfs_->Read("/precious", 0, 100));
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_TRUE(std::equal(data->begin(), data->end(), payload.begin()));
}

// §4.7: the scrub itself still detects and repairs silently corrupted
// burned media that no client has read.
TEST_F(OlfsTest, ScrubRepairsSilentCorruptionWithoutARead) {
  OlfsParams params = TestParams();
  params.read_cache_bytes = 0;
  Reset(params);

  auto payload = RandomBytes(50 * kKiB, 31);
  ASSERT_TRUE(sim_->RunUntilComplete(
                  olfs_->Create("/quiet", payload, payload.size()))
                  .ok());
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());

  auto index = sim_->RunUntilComplete(olfs_->mv().Get("/quiet"));
  ASSERT_TRUE(index.ok());
  const std::string image_id = (*index->Latest())->parts[0].image_id;
  auto record = olfs_->images().Lookup(image_id);
  ASSERT_TRUE(record.ok());
  ASSERT_TRUE((*record)->disc.has_value());
  olfs_->mech().DiscAt(*(*record)->disc)->CorruptSector(1);

  auto pass = sim_->RunUntilComplete(olfs_->scrub().RunPass());
  ASSERT_TRUE(pass.ok()) << pass.status().ToString();
  EXPECT_EQ(pass->repairs, 1);
  EXPECT_EQ(olfs_->reconstructions(), 1u);
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());

  auto data = sim_->RunUntilComplete(olfs_->Read("/quiet", 0, 100));
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_TRUE(std::equal(data->begin(), data->end(), payload.begin()));
  EXPECT_EQ(olfs_->degraded_reads(), 0u);
}

// The parity payloads stay in controller memory only until their array is
// burned and its audit manifest built; repair and audit read the parity
// discs.
TEST_F(OlfsTest, ParityPayloadsLeaveMemoryOnceTheArrayIsBurned) {
  OlfsParams params = TestParams();
  params.read_cache_bytes = 0;
  Reset(params);
  auto payload = RandomBytes(50 * kKiB, 71);
  ASSERT_TRUE(sim_->RunUntilComplete(
                  olfs_->Create("/kept", payload, payload.size()))
                  .ok());
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());

  int parity_images = 0;
  for (const std::string& id : olfs_->images().BurnedImages()) {
    if (ParityRowOf(id).has_value()) {
      ++parity_images;
      EXPECT_EQ(olfs_->parity().Get(id).status().code(),
                StatusCode::kNotFound)
          << id;
    }
  }
  ASSERT_GT(parity_images, 0);

  auto record = olfs_->images().Lookup(ImageOf("/kept"));
  ASSERT_TRUE(record.ok() && (*record)->disc.has_value());
  olfs_->mech().DiscAt(*(*record)->disc)->CorruptSector(1);
  auto pass = sim_->RunUntilComplete(olfs_->scrub().RunPass());
  ASSERT_TRUE(pass.ok()) << pass.status().ToString();
  EXPECT_EQ(pass->repairs, 1);

  auto audit = sim_->RunUntilComplete(olfs_->scrub().RunAudit(1.0, 7));
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  EXPECT_GT(audit->manifests, 0);
  EXPECT_EQ(audit->mismatches, 0u);
  auto data = sim_->RunUntilComplete(
      olfs_->Read("/kept", 0, payload.size()));
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(*data, payload);
}

// §4.4: with the MV wiped and even the controller replaced, scanning the
// survived discs rebuilds the namespace (unique file path + link files).
TEST_F(OlfsTest, NamespaceRebuiltFromDiscScanAfterTotalMvLoss) {
  auto payload_a = RandomBytes(40 * kKiB, 21);
  auto payload_b = RandomBytes(10 * kKiB, 22);
  ASSERT_TRUE(sim_->RunUntilComplete(
                  olfs_->Create("/proj/data/a.bin", payload_a,
                                payload_a.size()))
                  .ok());
  ASSERT_TRUE(sim_->RunUntilComplete(
                  olfs_->Create("/proj/notes/b.txt", payload_b,
                                payload_b.size()))
                  .ok());
  ASSERT_TRUE(sim_->RunUntilComplete(
                  olfs_->Update("/proj/notes/b.txt", Bytes("v2!"), 3))
                  .ok());
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());

  // Find where the array went before we lose the metadata.
  auto burned = olfs_->images().BurnedImages();
  ASSERT_FALSE(burned.empty());
  auto record = olfs_->images().Lookup(burned[0]);
  ASSERT_TRUE(record.ok());
  const mech::TrayAddress tray = (*record)->disc->tray;

  // Catastrophe: controller dies; a replacement boots with an empty MV.
  olfs_ = std::make_unique<Olfs>(*sim_, system_.get(), TestParams());
  olfs_->burns().burn_start_interval = Seconds(1);
  EXPECT_EQ(sim_->RunUntilComplete(
                olfs_->Read("/proj/data/a.bin", 0, 10)).status().code(),
            StatusCode::kNotFound);

  auto report = sim_->RunUntilComplete(olfs_->RebuildNamespace({tray}));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->discs_scanned, 12);
  // One data image (all three writes fit one bucket); the parity disc is
  // registered but not parsed (it is not a UDF volume, §4.7).
  EXPECT_GE(report->images_parsed, 1);
  EXPECT_GE(report->files_recovered, 2);
  EXPECT_EQ(report->unreadable_discs, 0);

  auto data = sim_->RunUntilComplete(
      olfs_->Read("/proj/data/a.bin", 0, payload_a.size()));
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(*data, payload_a);

  // Both the latest version and the directory structure survived.
  auto latest_b = sim_->RunUntilComplete(
      olfs_->Read("/proj/notes/b.txt", 0, 3));
  ASSERT_TRUE(latest_b.ok());
  EXPECT_EQ(*latest_b, Bytes("v2!"));
  auto children = sim_->RunUntilComplete(olfs_->ReadDir("/proj"));
  ASSERT_TRUE(children.ok());
  EXPECT_EQ(*children, (std::vector<std::string>{"data", "notes"}));
}

// A tray outside the rack is rejected before the MV is wiped: the
// namespace survives the failed rebuild untouched.
TEST_F(OlfsTest, RebuildRejectsTrayOutsideRackWithoutWiping) {
  ASSERT_TRUE(sim_->RunUntilComplete(
                  olfs_->Create("/keep/f", Bytes("payload"))).ok());
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());
  const int used = olfs_->da_index().CountState(ArrayState::kUsed);

  const mech::TrayAddress outside{olfs_->da_index().rollers(), 0, 0};
  for (const mech::TrayAddress& bad :
       {outside, mech::TrayAddress{0, -1, 0}}) {
    auto report = sim_->RunUntilComplete(
        olfs_->RebuildNamespace({mech::TrayAddress{0, 0, 0}, bad}));
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  }

  EXPECT_EQ(olfs_->da_index().CountState(ArrayState::kUsed), used);
  auto data = sim_->RunUntilComplete(olfs_->Read("/keep/f", 0, 7));
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(*data, Bytes("payload"));
  auto children = sim_->RunUntilComplete(olfs_->ReadDir("/keep"));
  ASSERT_TRUE(children.ok());
  EXPECT_EQ(*children, (std::vector<std::string>{"f"}));
}

// MV snapshots burned to disc (§4.2) restore the namespace too.
TEST_F(OlfsTest, MvSnapshotBurnsAndRestores) {
  ASSERT_TRUE(sim_->RunUntilComplete(
                  olfs_->Create("/snap/f", Bytes("payload")))
                  .ok());
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->BurnMvSnapshot()).ok());
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());
  // The snapshot image is on a disc alongside the data image.
  bool found_snapshot = false;
  for (const std::string& id : olfs_->images().BurnedImages()) {
    found_snapshot |= id.rfind("mv-snap-", 0) == 0;
  }
  EXPECT_TRUE(found_snapshot);
}

TEST_F(OlfsTest, ForepartFastPathAvoidsMechanicalFetchOnSmallReads) {
  OlfsParams params = TestParams();
  params.forepart_enabled = true;
  params.forepart_bytes = 8 * kKiB;
  params.read_cache_bytes = 0;
  Reset(params);

  auto payload = RandomBytes(64 * kKiB, 33);
  ASSERT_TRUE(sim_->RunUntilComplete(
                  olfs_->Create("/fp/file", payload, payload.size())).ok());
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());

  // A read inside the forepart answers from MV: milliseconds, no fetch.
  sim::TimePoint t0 = sim_->now();
  auto head = sim_->RunUntilComplete(olfs_->Read("/fp/file", 0, 4 * kKiB));
  ASSERT_TRUE(head.ok());
  EXPECT_TRUE(std::equal(head->begin(), head->end(), payload.begin()));
  EXPECT_LT(sim::ToMillis(sim_->now() - t0), 50.0);
  EXPECT_EQ(olfs_->fetches().fetches(), 0u);

  // A read past the forepart triggers the real fetch.
  t0 = sim_->now();
  auto tail = sim_->RunUntilComplete(
      olfs_->Read("/fp/file", 32 * kKiB, 1 * kKiB));
  ASSERT_TRUE(tail.ok());
  EXPECT_TRUE(std::equal(tail->begin(), tail->end(),
                         payload.begin() + 32 * kKiB));
  EXPECT_GT(ToSeconds(sim_->now() - t0), 60.0);
  EXPECT_EQ(olfs_->fetches().fetches(), 1u);
}

TEST_F(OlfsTest, ForepartServesFirstBytesQuickly) {
  OlfsParams params = TestParams();
  params.forepart_enabled = true;
  params.forepart_bytes = 4 * kKiB;
  params.read_cache_bytes = 0;
  Reset(params);

  auto payload = RandomBytes(100 * kKiB, 5);
  ASSERT_TRUE(sim_->RunUntilComplete(
                  olfs_->Create("/media/clip.ts", payload, payload.size()))
                  .ok());
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());

  // First bytes answer from MV in ~2 ms, no mechanical fetch.
  sim::TimePoint t0 = sim_->now();
  auto fore = sim_->RunUntilComplete(olfs_->ReadForepart("/media/clip.ts"));
  ASSERT_TRUE(fore.ok());
  EXPECT_LT(sim::ToMillis(sim_->now() - t0), 3.0);
  EXPECT_EQ(fore->size(), 4 * kKiB);
  EXPECT_TRUE(std::equal(fore->begin(), fore->end(), payload.begin()));
  EXPECT_EQ(olfs_->fetches().fetches(), 0u);
}

// A path's write lock lives only while a writer holds or awaits it: the
// second of two writers of one path queues on the first's lock, so the
// entry survives the first release and is gone after the second.
TEST_F(OlfsTest, PathLockLeavesWithItsLastWriter) {
  struct Seen {
    bool done = false;
    std::size_t locked_paths = 0;
  };
  auto writer = [](Olfs* olfs, std::vector<std::uint8_t> data,
                   Seen* seen) -> sim::Task<void> {
    const std::uint64_t n = data.size();
    EXPECT_TRUE((co_await olfs->Write("/locks/f", std::move(data), n)).ok());
    seen->done = true;
    seen->locked_paths = olfs->locked_paths();
  };
  Seen first;
  Seen second;
  sim_->Spawn(writer(olfs_.get(), RandomBytes(4000, 1), &first));
  sim_->Spawn(writer(olfs_.get(), RandomBytes(3000, 2), &second));
  sim_->RunFor(Seconds(60));
  ASSERT_TRUE(first.done && second.done);
  EXPECT_EQ(first.locked_paths, 1u);  // the second writer holds it now
  EXPECT_EQ(second.locked_paths, 0u);
  auto data = sim_->RunUntilComplete(olfs_->Read("/locks/f", 0, 3000));
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(*data, RandomBytes(3000, 2));
}

// A run that writes many distinct paths, some of them at once, leaves no
// path lock behind once the facade is quiesced.
TEST_F(OlfsTest, PathLocksDoNotOutliveTheirWrites) {
  std::vector<sim::Task<Status>> writes;
  for (int i = 0; i < 40; ++i) {
    writes.push_back(olfs_->Create("/many/f" + std::to_string(i),
                                   RandomBytes(2000, i), 2000));
  }
  ASSERT_TRUE(
      sim_->RunUntilComplete(sim::AllOk(*sim_, std::move(writes))).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(sim_->RunUntilComplete(
                    olfs_->Update("/many/f" + std::to_string(i),
                                  RandomBytes(1000, 100 + i), 1000))
                    .ok());
  }
  ASSERT_TRUE(sim_->RunUntilComplete(olfs_->Mkdir("/many/dir")).ok());
  sim_->RunUntilComplete(olfs_->Quiesce());
  EXPECT_EQ(olfs_->locked_paths(), 0u);
}

TEST_F(OlfsTest, DeterministicAcrossRuns) {
  auto run_once = [this]() {
    Reset(TestParams());
    for (int i = 0; i < 5; ++i) {
      ROS_CHECK(sim_->RunUntilComplete(
                    olfs_->Create("/det/f" + std::to_string(i),
                                  RandomBytes(5000, i), 5000))
                    .ok());
    }
    ROS_CHECK(sim_->RunUntilComplete(olfs_->FlushAndDrain()).ok());
    return sim_->now();
  };
  sim::TimePoint first = run_once();
  sim::TimePoint second = run_once();
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace ros::olfs
