// Unit tests for the Metadata Volume (§4.2).
#include "src/olfs/metadata_volume.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/disk/block_device.h"
#include "src/sim/simulator.h"

namespace ros::olfs {
namespace {

class MetadataVolumeTest : public ::testing::Test {
 protected:
  MetadataVolumeTest()
      : device_(sim_, "ssd", 64 * kMiB, disk::SsdPerf()),
        volume_(sim_, &device_, disk::MetadataVolumeParams()),
        mv_(sim_, &volume_, MetadataVolume::Options{}) {}

  IndexFile FileIndex(const std::string& path, std::uint64_t size) {
    IndexFile index(path, EntryType::kFile);
    VersionEntry entry;
    entry.total_size = size;
    entry.parts.push_back({"img-000000", size});
    index.AddVersion(std::move(entry), 15);
    return index;
  }

  sim::Simulator sim_;
  disk::StorageDevice device_;
  disk::Volume volume_;
  MetadataVolume mv_;
};

TEST_F(MetadataVolumeTest, PutGetRoundTrip) {
  ASSERT_TRUE(sim_.RunUntilComplete(mv_.Put(FileIndex("/a/b", 123))).ok());
  EXPECT_TRUE(mv_.Exists("/a/b"));
  auto index = sim_.RunUntilComplete(mv_.Get("/a/b"));
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->path(), "/a/b");
  EXPECT_EQ((*index->Latest())->total_size, 123u);
}

TEST_F(MetadataVolumeTest, PutOverwritesInPlace) {
  ASSERT_TRUE(sim_.RunUntilComplete(mv_.Put(FileIndex("/f", 1))).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(mv_.Put(FileIndex("/f", 2))).ok());
  auto index = sim_.RunUntilComplete(mv_.Get("/f"));
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index->Latest())->total_size, 2u);
  EXPECT_EQ(mv_.index_count(), 1u);
}

TEST_F(MetadataVolumeTest, GetMissingFails) {
  EXPECT_EQ(sim_.RunUntilComplete(mv_.Get("/nope")).status().code(),
            StatusCode::kNotFound);
}

TEST_F(MetadataVolumeTest, RemoveDeletesIndex) {
  ASSERT_TRUE(sim_.RunUntilComplete(mv_.Put(FileIndex("/f", 1))).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(mv_.Remove("/f")).ok());
  EXPECT_FALSE(mv_.Exists("/f"));
}

TEST_F(MetadataVolumeTest, ListChildrenDirectOnly) {
  for (const char* path : {"/d", "/d/x", "/d/y", "/d/sub", "/d/sub/deep",
                           "/other"}) {
    IndexFile index(path, EntryType::kDirectory);
    ASSERT_TRUE(sim_.RunUntilComplete(mv_.Put(index)).ok());
  }
  auto children = mv_.ListChildren("/d");
  EXPECT_EQ(children, (std::vector<std::string>{"sub", "x", "y"}));
  EXPECT_EQ(mv_.ListChildren("/"),
            (std::vector<std::string>{"d", "other"}));
  EXPECT_TRUE(mv_.ListChildren("/d/x").empty());
}

TEST_F(MetadataVolumeTest, SystemStateRoundTrip) {
  json::Object state;
  state["arrays_burned"] = json::Value(7);
  ASSERT_TRUE(sim_.RunUntilComplete(
                  mv_.PutState("checkpoint", json::Value(std::move(state))))
                  .ok());
  auto loaded = sim_.RunUntilComplete(mv_.GetState("checkpoint"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)["arrays_burned"].as_int(), 7);
  // Overwrite works too.
  json::Object state2;
  state2["arrays_burned"] = json::Value(8);
  ASSERT_TRUE(sim_.RunUntilComplete(
                  mv_.PutState("checkpoint", json::Value(std::move(state2))))
                  .ok());
  loaded = sim_.RunUntilComplete(mv_.GetState("checkpoint"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)["arrays_burned"].as_int(), 8);
}

TEST_F(MetadataVolumeTest, SnapshotRoundTripRestoresNamespace) {
  ASSERT_TRUE(sim_.RunUntilComplete(mv_.Put(FileIndex("/p/a", 10))).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(mv_.Put(FileIndex("/p/b", 20))).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(
                  mv_.Put(IndexFile("/p", EntryType::kDirectory))).ok());

  auto snapshot = sim_.RunUntilComplete(
      mv_.BuildSnapshotImage("mv-snap-0", 64 * kMiB));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot->file_count(), 3u);

  mv_.WipeAll();
  EXPECT_EQ(mv_.index_count(), 0u);
  ASSERT_TRUE(sim_.RunUntilComplete(mv_.RestoreFromSnapshot(*snapshot)).ok());
  EXPECT_EQ(mv_.index_count(), 3u);
  auto index = sim_.RunUntilComplete(mv_.Get("/p/b"));
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index->Latest())->total_size, 20u);
}

TEST_F(MetadataVolumeTest, SnapshotHandlesDirectoryChildCollision) {
  // A directory index file and its children must coexist in the snapshot
  // (regression: the "#idx" suffix prevents path collisions).
  ASSERT_TRUE(sim_.RunUntilComplete(
                  mv_.Put(IndexFile("/snap", EntryType::kDirectory))).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(mv_.Put(FileIndex("/snap/f", 1))).ok());
  auto snapshot = sim_.RunUntilComplete(
      mv_.BuildSnapshotImage("mv-snap-1", 64 * kMiB));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
}

TEST_F(MetadataVolumeTest, AllPathsSorted) {
  for (const char* path : {"/z", "/a", "/m/k"}) {
    ASSERT_TRUE(sim_.RunUntilComplete(mv_.Put(FileIndex(path, 1))).ok());
  }
  EXPECT_EQ(mv_.AllPaths(), (std::vector<std::string>{"/a", "/m/k", "/z"}));
}

TEST_F(MetadataVolumeTest, HasChildrenMatchesListChildren) {
  EXPECT_FALSE(mv_.HasChildren("/"));
  ASSERT_TRUE(sim_.RunUntilComplete(
                  mv_.Put(IndexFile("/d", EntryType::kDirectory))).ok());
  EXPECT_FALSE(mv_.HasChildren("/d"));
  EXPECT_TRUE(mv_.HasChildren("/"));  // "/d" itself is a child of the root
  ASSERT_TRUE(sim_.RunUntilComplete(mv_.Put(FileIndex("/d/f", 1))).ok());
  EXPECT_TRUE(mv_.HasChildren("/d"));
  EXPECT_TRUE(mv_.HasChildren("/"));
  EXPECT_FALSE(mv_.HasChildren("/d/f"));
  ASSERT_TRUE(sim_.RunUntilComplete(mv_.Remove("/d/f")).ok());
  EXPECT_FALSE(mv_.HasChildren("/d"));
}

TEST_F(MetadataVolumeTest, PutPublishesToCacheAndGetHits) {
  ASSERT_TRUE(sim_.RunUntilComplete(mv_.Put(FileIndex("/c", 5))).ok());
  EXPECT_EQ(mv_.cache_size(), 1u);
  const auto before = mv_.cache_stats();
  auto index = sim_.RunUntilComplete(mv_.Get("/c"));
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index->Latest())->total_size, 5u);
  EXPECT_EQ(mv_.cache_stats().hits, before.hits + 1);
  EXPECT_EQ(mv_.cache_stats().misses, before.misses);
}

TEST_F(MetadataVolumeTest, GetRefSharesOneDecodedObject) {
  ASSERT_TRUE(sim_.RunUntilComplete(mv_.Put(FileIndex("/s", 9))).ok());
  auto first = sim_.RunUntilComplete(mv_.GetRef("/s"));
  auto second = sim_.RunUntilComplete(mv_.GetRef("/s"));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  // Hits hand out the same immutable decode, not copies.
  EXPECT_EQ(first->get(), second->get());
  EXPECT_EQ((**first).path(), "/s");
}

TEST_F(MetadataVolumeTest, GetAndGetRefAgree) {
  ASSERT_TRUE(sim_.RunUntilComplete(mv_.Put(FileIndex("/both", 3))).ok());
  auto ref = sim_.RunUntilComplete(mv_.GetRef("/both"));
  auto copy = sim_.RunUntilComplete(mv_.Get("/both"));
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ((*ref)->ToJson(), copy->ToJson());
  EXPECT_EQ(sim_.RunUntilComplete(mv_.GetRef("/nope")).status().code(),
            StatusCode::kNotFound);
}

TEST_F(MetadataVolumeTest, RemoveAndWipeDropCachedEntries) {
  ASSERT_TRUE(sim_.RunUntilComplete(mv_.Put(FileIndex("/r1", 1))).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(mv_.Put(FileIndex("/r2", 2))).ok());
  EXPECT_EQ(mv_.cache_size(), 2u);
  ASSERT_TRUE(sim_.RunUntilComplete(mv_.Remove("/r1")).ok());
  EXPECT_EQ(mv_.cache_size(), 1u);
  EXPECT_EQ(sim_.RunUntilComplete(mv_.Get("/r1")).status().code(),
            StatusCode::kNotFound);
  mv_.WipeAll();
  EXPECT_EQ(mv_.cache_size(), 0u);
  EXPECT_EQ(sim_.RunUntilComplete(mv_.Get("/r2")).status().code(),
            StatusCode::kNotFound);
}

TEST_F(MetadataVolumeTest, RestorePastWindowFailuresReportsCount) {
  // Three commit windows' worth of entries (a window holds 128).
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(sim_.RunUntilComplete(
                    mv_.Put(FileIndex("/p/f" + std::to_string(i), 7)))
                    .ok());
  }
  auto snapshot = sim_.RunUntilComplete(
      mv_.BuildSnapshotImage("mv-snap-err", 64 * kMiB));
  ASSERT_TRUE(snapshot.ok());

  mv_.WipeAll();
  // Leave the volume with no free space: every window's WAL append must
  // fail, and the restore should keep going and report all of it rather
  // than abort on the first window.
  disk::Volume* volume = mv_.volume();
  ASSERT_TRUE(sim_.RunUntilComplete(volume->Create("/fill")).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(
                  volume->Write("/fill", 0,
                                std::vector<std::uint8_t>(
                                    volume->free_bytes())))
                  .ok());

  Status status = sim_.RunUntilComplete(mv_.RestoreFromSnapshot(*snapshot));
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(std::string(status.message()).find("2 more restore failures"),
            std::string::npos)
      << status.ToString();
}

}  // namespace
}  // namespace ros::olfs
