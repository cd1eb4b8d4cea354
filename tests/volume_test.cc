#include "src/disk/volume.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "src/common/rng.h"
#include "src/sim/fault.h"
#include "src/sim/simulator.h"

namespace ros::disk {
namespace {

class VolumeTest : public ::testing::Test {
 protected:
  VolumeTest()
      : device_(sim_, "ssd", 64 * kMiB, SsdPerf()),
        volume_(sim_, &device_, MetadataVolumeParams()) {}

  std::vector<std::uint8_t> Bytes(const std::string& s) {
    return {s.begin(), s.end()};
  }

  sim::Simulator sim_;
  StorageDevice device_;
  Volume volume_;
};

TEST_F(VolumeTest, CreateWriteReadDelete) {
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create("/idx/a.json")).ok());
  EXPECT_TRUE(volume_.Exists("/idx/a.json"));
  ASSERT_TRUE(sim_.RunUntilComplete(
                  volume_.Write("/idx/a.json", 0, Bytes("hello")))
                  .ok());
  EXPECT_EQ(*volume_.FileSize("/idx/a.json"), 5u);
  auto data = sim_.RunUntilComplete(volume_.ReadAll("/idx/a.json"));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, Bytes("hello"));
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Delete("/idx/a.json")).ok());
  EXPECT_FALSE(volume_.Exists("/idx/a.json"));
}

TEST_F(VolumeTest, DuplicateCreateFails) {
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create("f")).ok());
  EXPECT_EQ(sim_.RunUntilComplete(volume_.Create("f")).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(VolumeTest, MissingFileErrors) {
  EXPECT_EQ(sim_.RunUntilComplete(volume_.Read("nope", 0, 1)).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(sim_.RunUntilComplete(volume_.Delete("nope")).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(volume_.FileSize("nope").status().code(), StatusCode::kNotFound);
}

TEST_F(VolumeTest, AppendGrowsFile) {
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create("log")).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(sim_.RunUntilComplete(volume_.Append("log", Bytes("ab"))).ok());
  }
  EXPECT_EQ(*volume_.FileSize("log"), 10u);
  auto data = sim_.RunUntilComplete(volume_.ReadAll("log"));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, Bytes("ababababab"));
}

TEST_F(VolumeTest, SparseWriteBeyondEnd) {
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create("sparse")).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Write("sparse", 5000, Bytes("X")))
                  .ok());
  EXPECT_EQ(*volume_.FileSize("sparse"), 5001u);
  auto data = sim_.RunUntilComplete(volume_.Read("sparse", 4998, 3));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ((*data)[2], 'X');
  EXPECT_EQ((*data)[0], 0);
}

TEST_F(VolumeTest, WriteAllTruncates) {
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create("f")).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(
                  volume_.WriteAll("f", std::vector<std::uint8_t>(10000, 1)))
                  .ok());
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.WriteAll("f", Bytes("tiny"))).ok());
  EXPECT_EQ(*volume_.FileSize("f"), 4u);
  auto data = sim_.RunUntilComplete(volume_.ReadAll("f"));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, Bytes("tiny"));
}

TEST_F(VolumeTest, ReadBeyondEofRejected) {
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create("f")).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Write("f", 0, Bytes("abc"))).ok());
  EXPECT_EQ(sim_.RunUntilComplete(volume_.Read("f", 2, 2)).status().code(),
            StatusCode::kOutOfRange);
}

TEST_F(VolumeTest, ListByPrefix) {
  for (const char* name : {"/a/1", "/a/2", "/b/1"}) {
    ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create(name)).ok());
  }
  EXPECT_EQ(volume_.List("/a/").size(), 2u);
  EXPECT_EQ(volume_.List().size(), 3u);
  EXPECT_EQ(volume_.List("/c").size(), 0u);
}

TEST_F(VolumeTest, SpaceAccountingAndReuse) {
  const std::uint64_t before = volume_.used_blocks();
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create("big")).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(
                  volume_.Write("big", 0, std::vector<std::uint8_t>(
                                              100 * volume_.block_size())))
                  .ok());
  EXPECT_EQ(volume_.used_blocks(), before + 100);
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Delete("big")).ok());
  EXPECT_EQ(volume_.used_blocks(), before);
}

TEST_F(VolumeTest, FillsAndReportsExhaustion) {
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create("huge")).ok());
  const std::uint64_t free = volume_.free_bytes();
  EXPECT_EQ(sim_.RunUntilComplete(
                volume_.Write("huge", 0,
                              std::vector<std::uint8_t>(free + kKiB)))
                .code(),
            StatusCode::kResourceExhausted);
  // Failed allocation must not leak blocks.
  ASSERT_TRUE(sim_.RunUntilComplete(
                  volume_.Write("huge", 0, std::vector<std::uint8_t>(free)))
                  .ok());
}

TEST_F(VolumeTest, FragmentationHandledByExtentChaining) {
  // Create interleaved files, delete every other one, then write a file
  // larger than any single hole.
  std::vector<std::string> names;
  for (int i = 0; i < 20; ++i) {
    std::string name = "frag" + std::to_string(i);
    names.push_back(name);
    ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create(name)).ok());
    ASSERT_TRUE(sim_.RunUntilComplete(
                    volume_.Write(name, 0, std::vector<std::uint8_t>(
                                               8 * volume_.block_size(), 1)))
                    .ok());
  }
  for (int i = 0; i < 20; i += 2) {
    ASSERT_TRUE(sim_.RunUntilComplete(volume_.Delete(names[i])).ok());
  }
  Rng rng(4);
  std::vector<std::uint8_t> data(60 * volume_.block_size());
  for (auto& b : data) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create("big")).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Write("big", 0, data)).ok());
  auto read = sim_.RunUntilComplete(volume_.ReadAll("big"));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

TEST_F(VolumeTest, CountAndAnyWithPrefix) {
  for (const char* name : {"/a/1", "/a/2", "/a/3", "/ab", "/b/1"}) {
    ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create(name)).ok());
  }
  EXPECT_EQ(volume_.CountPrefix("/a/"), 3u);
  EXPECT_EQ(volume_.CountPrefix("/a"), 4u);  // "/ab" matches too
  EXPECT_EQ(volume_.CountPrefix(""), 5u);
  EXPECT_EQ(volume_.CountPrefix("/c"), 0u);
  EXPECT_TRUE(volume_.AnyWithPrefix("/a/"));
  EXPECT_TRUE(volume_.AnyWithPrefix("/b"));
  EXPECT_FALSE(volume_.AnyWithPrefix("/c"));
  EXPECT_FALSE(volume_.AnyWithPrefix("/a/4"));
}

TEST_F(VolumeTest, ForEachPrefixVisitsInOrderWithSizes) {
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create("/p/b")).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create("/p/a")).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Write("/p/a", 0, Bytes("xy")))
                  .ok());
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create("/q")).ok());
  std::vector<std::pair<std::string, std::uint64_t>> seen;
  volume_.ForEachPrefix("/p/", [&seen](const std::string& name,
                                       std::uint64_t size) {
    seen.emplace_back(name, size);
  });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair<std::string, std::uint64_t>{"/p/a", 2u}));
  EXPECT_EQ(seen[1], (std::pair<std::string, std::uint64_t>{"/p/b", 0u}));
}

TEST_F(VolumeTest, ListChildrenSkipsSubtrees) {
  // A child is a name that exists itself (the MV gives every directory its
  // own index file); names deeper under it are skipped as one subtree.
  for (const char* name : {"/d", "/d/file", "/d/sub", "/d/sub/a",
                           "/d/sub/b/deep", "/d/zzz", "/e"}) {
    ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create(name)).ok());
  }
  EXPECT_EQ(volume_.ListChildren("/d/"),
            (std::vector<std::string>{"file", "sub", "zzz"}));
  EXPECT_EQ(volume_.ListChildren("/"), (std::vector<std::string>{"d", "e"}));
  // "/d/sub/b" never existed as its own name: descendants alone do not
  // make it a child, and the whole "/d/sub/b/..." subtree costs one seek.
  EXPECT_EQ(volume_.ListChildren("/d/sub/"),
            (std::vector<std::string>{"a"}));
  EXPECT_TRUE(volume_.ListChildren("/nope/").empty());
}

TEST_F(VolumeTest, MetadataVolumeUses1KBlocks) {
  EXPECT_EQ(volume_.block_size(), 1 * kKiB);
}

TEST_F(VolumeTest, FormatQuickResets) {
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create("x")).ok());
  volume_.FormatQuick();
  EXPECT_FALSE(volume_.Exists("x"));
  EXPECT_EQ(volume_.file_count(), 0u);
}

TEST_F(VolumeTest, AppendLandsAsOneMutation) {
  // A twin volume takes the same bytes as one Write at the same offset:
  // the append must cost exactly that, one metadata update and one
  // contiguous device request run. A group commit of N WAL records is one
  // such append (DESIGN.md §5i).
  StorageDevice twin_device(sim_, "ssd-twin", 64 * kMiB, SsdPerf());
  Volume twin(sim_, &twin_device, MetadataVolumeParams());
  for (Volume* volume : {&volume_, &twin}) {
    ASSERT_TRUE(sim_.RunUntilComplete(volume->Create("/wal")).ok());
    ASSERT_TRUE(
        sim_.RunUntilComplete(volume->Append("/wal", Bytes("head-"))).ok());
  }

  const std::uint64_t written_before = device_.bytes_written();
  sim::TimePoint t0 = sim_.now();
  ASSERT_TRUE(sim_.RunUntilComplete(
                  volume_.Append("/wal", Bytes("one-two-three")))
                  .ok());
  const sim::Duration append_time = sim_.now() - t0;
  t0 = sim_.now();
  ASSERT_TRUE(sim_.RunUntilComplete(
                  twin.Write("/wal", 5, Bytes("one-two-three")))
                  .ok());
  EXPECT_EQ(append_time, sim_.now() - t0);
  EXPECT_EQ(device_.bytes_written() - written_before,
            Bytes("one-two-three").size());
  EXPECT_EQ(twin_device.bytes_written(), device_.bytes_written());
  auto data = sim_.RunUntilComplete(volume_.ReadAll("/wal"));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, Bytes("head-one-two-three"));

  // An append to a missing file is NotFound before any bytes move.
  auto missing = sim_.RunUntilComplete(volume_.Append("/nope", Bytes("x")));
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);
  EXPECT_EQ(device_.bytes_written() - written_before,
            Bytes("one-two-three").size());
}

TEST_F(VolumeTest, TruncateShrinksAndFreesBlocks) {
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create("/wal")).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(
                  volume_.Write("/wal", 0,
                                std::vector<std::uint8_t>(3000, 0x5A)))
                  .ok());
  const std::uint64_t used_before = volume_.used_blocks();

  // Shrink to a non-block-aligned size: the tail past the cut is gone,
  // whole blocks past the new end return to the allocator.
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Truncate("/wal", 1100)).ok());
  EXPECT_EQ(*volume_.FileSize("/wal"), 1100u);
  EXPECT_LT(volume_.used_blocks(), used_before);
  auto data = sim_.RunUntilComplete(volume_.ReadAll("/wal"));
  ASSERT_TRUE(data.ok());
  ASSERT_EQ(data->size(), 1100u);
  EXPECT_EQ((*data)[1099], 0x5A);

  // Truncate never grows a file, and to-same-size is a no-op.
  auto grow = sim_.RunUntilComplete(volume_.Truncate("/wal", 5000));
  EXPECT_EQ(grow.code(), StatusCode::kOutOfRange);
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Truncate("/wal", 1100)).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Truncate("/wal", 0)).ok());
  EXPECT_EQ(*volume_.FileSize("/wal"), 0u);
}

TEST_F(VolumeTest, FailedAppendDoesNotGrowTheFile) {
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create("/wal")).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(
                  volume_.Append("/wal", std::vector<std::uint8_t>(100, 0x11)))
                  .ok());

  // The device dies under a growing append: the size must not cover the
  // bytes that never landed (the new blocks would read back stale data).
  device_.Fail();
  EXPECT_FALSE(sim_.RunUntilComplete(
                   volume_.Append("/wal",
                                  std::vector<std::uint8_t>(3000, 0x22)))
                   .ok());
  EXPECT_EQ(*volume_.FileSize("/wal"), 100u);
  const std::uint64_t used_after_failure = volume_.used_blocks();

  // The blocks the failed write allocated stay with the file; the next
  // append lands at the old end and reuses them.
  device_.Revive();
  ASSERT_TRUE(sim_.RunUntilComplete(
                  volume_.Append("/wal", std::vector<std::uint8_t>(50, 0x33)))
                  .ok());
  EXPECT_EQ(*volume_.FileSize("/wal"), 150u);
  EXPECT_EQ(volume_.used_blocks(), used_after_failure);
  auto data = sim_.RunUntilComplete(volume_.ReadAll("/wal"));
  ASSERT_TRUE(data.ok());
  std::vector<std::uint8_t> want(100, 0x11);
  want.insert(want.end(), 50, 0x33);
  EXPECT_EQ(*data, want);
}

TEST_F(VolumeTest, FailedSparseTailDoesNotGrowTheFile) {
  ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create("/img")).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(
                  volume_.Append("/img", std::vector<std::uint8_t>(100, 0x11)))
                  .ok());

  // The stored head lands (device request 1); the device dies on the
  // zero tail (request 2). The whole append is undone, as a failed Write.
  sim::FaultInjector faults;
  faults.FailNth(sim::FaultKind::kHddFailure, "ssd", 2);
  device_.set_fault_injector(&faults);
  EXPECT_EQ(sim_.RunUntilComplete(
                volume_.AppendSparse(
                    "/img", std::vector<std::uint8_t>(50, 0x22), 5000))
                .code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(faults.injected(sim::FaultKind::kHddFailure), 1u);
  EXPECT_EQ(*volume_.FileSize("/img"), 100u);

  // The next append lands at the old end.
  device_.set_fault_injector(nullptr);
  device_.Revive();
  ASSERT_TRUE(sim_.RunUntilComplete(
                  volume_.AppendSparse(
                      "/img", std::vector<std::uint8_t>(50, 0x33), 60))
                  .ok());
  EXPECT_EQ(*volume_.FileSize("/img"), 160u);
  auto data = sim_.RunUntilComplete(volume_.ReadAll("/img"));
  ASSERT_TRUE(data.ok());
  std::vector<std::uint8_t> want(100, 0x11);
  want.insert(want.end(), 50, 0x33);
  want.insert(want.end(), 10, 0);
  EXPECT_EQ(*data, want);
}

}  // namespace
}  // namespace ros::disk
