// Unit tests for Writing Bucket Management (§4.3, §4.5).
#include "src/olfs/bucket_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "src/common/rng.h"
#include "src/disk/block_device.h"
#include "src/olfs/disc_image_store.h"
#include "src/sim/simulator.h"
#include "src/udf/image.h"

namespace ros::olfs {
namespace {

class BucketManagerTest : public ::testing::Test {
 protected:
  BucketManagerTest() {
    params_.disc_capacity_override = 1 * kMiB;  // tiny buckets
    for (int i = 0; i < 2; ++i) {
      devices_.push_back(std::make_unique<disk::StorageDevice>(
          sim_, "d" + std::to_string(i), 256 * kMiB, disk::SsdPerf()));
      volumes_.push_back(std::make_unique<disk::Volume>(
          sim_, devices_.back().get(),
          disk::VolumeParams{.journal_metadata = false}));
    }
    buckets_ = std::make_unique<BucketManager>(
        sim_, params_,
        std::vector<disk::Volume*>{volumes_[0].get(), volumes_[1].get()},
        &images_);
    buckets_->on_image_closed = [this](const std::string& id) {
      closed_.push_back(id);
    };
  }

  WriteReceipt Write(const std::string& path, std::uint64_t logical,
                     int version = 1) {
    auto receipt = sim_.RunUntilComplete(buckets_->WriteFile(
        path, version, std::vector<std::uint8_t>(64, 0x5A), logical));
    ROS_CHECK(receipt.ok());
    return *receipt;
  }

  sim::Simulator sim_;
  OlfsParams params_;
  std::vector<std::unique_ptr<disk::StorageDevice>> devices_;
  std::vector<std::unique_ptr<disk::Volume>> volumes_;
  DiscImageStore images_;
  std::unique_ptr<BucketManager> buckets_;
  std::vector<std::string> closed_;
};

TEST(InternalPath, VersionQualification) {
  EXPECT_EQ(InternalPath("/a/b", 1), "/a/b");
  EXPECT_EQ(InternalPath("/a/b", 3), "/a/b#v3");
  EXPECT_EQ(SplitLinkPath("/a/b#v3", 2), "/a/b#v3#prev2");
}

TEST_F(BucketManagerTest, SmallFileSinglePart) {
  WriteReceipt receipt = Write("/f", 64);
  ASSERT_EQ(receipt.parts.size(), 1u);
  EXPECT_EQ(receipt.parts[0].image_id, "img-000000");
  EXPECT_EQ(receipt.total_size, 64u);
  EXPECT_TRUE(closed_.empty());
}

TEST_F(BucketManagerTest, FilesAccumulateInOneBucketUntilFull) {
  for (int i = 0; i < 5; ++i) {
    Write("/small" + std::to_string(i), 10 * kKiB);
  }
  EXPECT_EQ(buckets_->buckets_created(), 1);
  // All landed in the same image.
  auto record = images_.Lookup("img-000000");
  ASSERT_TRUE(record.ok());
  EXPECT_EQ((*record)->image->file_count(), 5u);
}

TEST_F(BucketManagerTest, OversizeFileSplitsWithLinks) {
  // 2.5 MiB into 1 MiB buckets -> 3 parts.
  WriteReceipt receipt = Write("/huge", 2 * kMiB + 512 * kKiB);
  ASSERT_GE(receipt.parts.size(), 3u);
  std::uint64_t total = 0;
  for (const auto& part : receipt.parts) {
    total += part.size;
  }
  EXPECT_EQ(total, 2 * kMiB + 512 * kKiB);
  // Earlier buckets closed; continuation images carry link files.
  EXPECT_GE(closed_.size(), 2u);
  auto second = images_.Lookup(receipt.parts[1].image_id);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE((*second)->image->Exists(SplitLinkPath("/huge", 1)));
  auto link = (*second)->image->Lookup(SplitLinkPath("/huge", 1));
  ASSERT_TRUE(link.ok());
  EXPECT_EQ((*link)->link_target_image, receipt.parts[0].image_id);
}

// The buffer file holds the payload each part wrote, whether the volume
// took the writer's buffer (a file in one part) or a copy of its slice (a
// split file). Nothing else reads these bytes back yet.
TEST_F(BucketManagerTest, BufferFileHoldsEachPartsBytes) {
  auto random_bytes = [](std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::uint8_t> bytes(n);
    for (auto& b : bytes) {
      b = static_cast<std::uint8_t>(rng.Next());
    }
    return bytes;
  };
  auto expect_parts = [&](const WriteReceipt& receipt,
                          const std::vector<std::uint8_t>& want,
                          std::uint64_t first_offset) {
    std::uint64_t consumed = 0;
    for (std::size_t i = 0; i < receipt.parts.size(); ++i) {
      const FilePart& part = receipt.parts[i];
      auto record = images_.Lookup(part.image_id);
      ASSERT_TRUE(record.ok());
      auto stored = sim_.RunUntilComplete(
          volumes_[(*record)->volume_index]->Read(
              (*record)->volume_file, i == 0 ? first_offset : 0, part.size));
      ASSERT_TRUE(stored.ok()) << stored.status().ToString();
      EXPECT_TRUE(std::equal(stored->begin(), stored->end(),
                             want.begin() +
                                 static_cast<std::ptrdiff_t>(consumed)))
          << "part " << i << " in " << part.image_id;
      consumed += part.size;
    }
    EXPECT_EQ(consumed, want.size());
  };

  const std::vector<std::uint8_t> one = random_bytes(100 * kKiB, 1);
  auto receipt = sim_.RunUntilComplete(
      buckets_->WriteFile("/one", 1, one, one.size()));
  ASSERT_TRUE(receipt.ok());
  ASSERT_EQ(receipt->parts.size(), 1u);
  expect_parts(*receipt, one, 0);

  // 2.5 MiB into 1 MiB buckets: the head lands after /one in its bucket.
  const std::vector<std::uint8_t> split =
      random_bytes(2 * kMiB + 512 * kKiB, 2);
  receipt = sim_.RunUntilComplete(
      buckets_->WriteFile("/split", 1, split, split.size()));
  ASSERT_TRUE(receipt.ok());
  ASSERT_GE(receipt->parts.size(), 3u);
  EXPECT_EQ(receipt->parts[0].image_id, "img-000000");
  expect_parts(*receipt, split, one.size());
}

TEST_F(BucketManagerTest, BucketClosesWhenNearlyFull) {
  // Fill to within the closing threshold (§4.5): the bucket closes as
  // part of the write that exhausts it.
  Write("/filler", 1 * kMiB - 8 * kKiB);
  EXPECT_EQ(closed_.size(), 1u);
}

TEST_F(BucketManagerTest, BucketsAlternateAcrossVolumes) {
  Write("/a", 900 * kKiB);  // fills bucket 0 (closes via next write)
  Write("/b", 900 * kKiB);  // forces bucket 1
  Write("/c", 900 * kKiB);
  ASSERT_GE(buckets_->buckets_created(), 2);
  auto r0 = images_.Lookup("img-000000");
  auto r1 = images_.Lookup("img-000001");
  ASSERT_TRUE(r0.ok());
  ASSERT_TRUE(r1.ok());
  EXPECT_NE((*r0)->volume_index, (*r1)->volume_index);
}

TEST_F(BucketManagerTest, AppendToOpenFileGrowsInPlace) {
  WriteReceipt receipt = Write("/log", 100);
  ASSERT_TRUE(sim_.RunUntilComplete(
                  buckets_->AppendToOpenFile(
                      "/log", 1, receipt.parts[0].image_id,
                      std::vector<std::uint8_t>(50, 1), 50))
                  .ok());
  auto data = sim_.RunUntilComplete(
      buckets_->ReadBuffered(receipt.parts[0].image_id, "/log", 0, 150));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->size(), 150u);
  EXPECT_EQ((*data)[0], 0x5A);
  EXPECT_EQ((*data)[149], 0x01);
}

TEST_F(BucketManagerTest, AppendToClosedBucketFails) {
  WriteReceipt receipt = Write("/log", 100);
  ASSERT_TRUE(sim_.RunUntilComplete(buckets_->CloseCurrentBucket()).ok());
  EXPECT_EQ(sim_.RunUntilComplete(
                buckets_->AppendToOpenFile("/log", 1,
                                           receipt.parts[0].image_id,
                                           {1, 2}, 2))
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(BucketManagerTest, ContinuationSkipsBucketHoldingEarlierPart) {
  // Stream-style continuation: part 0 exists in the open bucket; asking
  // for a continuation must roll to a fresh bucket, not collide.
  WriteReceipt first = Write("/stream", 100);
  auto more = sim_.RunUntilComplete(buckets_->WriteFile(
      "/stream", 1, {}, 10 * kKiB, /*first_part=*/1,
      first.parts[0].image_id));
  ASSERT_TRUE(more.ok());
  ASSERT_EQ(more->parts.size(), 1u);
  EXPECT_NE(more->parts[0].image_id, first.parts[0].image_id);
}

TEST_F(BucketManagerTest, VersionsCoexistInSameBucket) {
  Write("/v", 100, 1);
  Write("/v", 100, 2);
  auto record = images_.Lookup("img-000000");
  ASSERT_TRUE(record.ok());
  EXPECT_TRUE((*record)->image->Exists("/v"));
  EXPECT_TRUE((*record)->image->Exists("/v#v2"));
}

TEST_F(BucketManagerTest, CloseChargesUdfMetadata) {
  Write("/meta-test", 100);
  auto record = images_.Lookup("img-000000");
  ASSERT_TRUE(record.ok());
  disk::Volume* volume = volumes_[(*record)->volume_index].get();
  const auto before = volume->FileSize((*record)->volume_file);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(sim_.RunUntilComplete(buckets_->CloseCurrentBucket()).ok());
  const auto after = volume->FileSize((*record)->volume_file);
  ASSERT_TRUE(after.ok());
  EXPECT_GT(*after, *before);  // directory/entry metadata appended
}

TEST_F(BucketManagerTest, AdmitImageRegistersClosed) {
  auto image = std::make_shared<udf::Image>("ext-img", 1 * kMiB);
  ASSERT_TRUE(image->AddFile("/x", std::vector<std::uint8_t>{1}).ok());
  image->Close();
  ASSERT_TRUE(sim_.RunUntilComplete(buckets_->AdmitImage(image)).ok());
  auto record = images_.Lookup("ext-img");
  ASSERT_TRUE(record.ok());
  EXPECT_EQ((*record)->tier, ImageTier::kBuffered);
  EXPECT_EQ(closed_.size(), 1u);
}

TEST_F(BucketManagerTest, PathOverheadExceedingCapacityRejected) {
  OlfsParams tiny = params_;
  tiny.disc_capacity_override = 3 * udf::kBlockSize;  // root + 1 entry
  BucketManager small(sim_, tiny,
                      std::vector<disk::Volume*>{volumes_[0].get()},
                      &images_);
  auto receipt = sim_.RunUntilComplete(
      small.WriteFile("/a/b/c/d/e/f", 1, {}, 1));
  EXPECT_EQ(receipt.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace ros::olfs
