// Unit tests for delayed parity generation and stream recovery (§4.7).
#include "src/olfs/parity.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/common/erasure.h"
#include "src/common/gf256.h"
#include "src/disk/block_device.h"
#include "src/olfs/bucket_manager.h"
#include "src/olfs/maintenance.h"
#include "src/olfs/system.h"
#include "src/sim/simulator.h"
#include "src/udf/serializer.h"

namespace ros::olfs {
namespace {

class ParityTest : public ::testing::Test {
 protected:
  ParityTest() {
    params_.disc_capacity_override = 4 * kMiB;
    for (int i = 0; i < 2; ++i) {
      devices_.push_back(std::make_unique<disk::StorageDevice>(
          sim_, "d" + std::to_string(i), 256 * kMiB, disk::SsdPerf()));
      volumes_.push_back(std::make_unique<disk::Volume>(
          sim_, devices_.back().get(),
          disk::VolumeParams{.journal_metadata = false}));
    }
    volume_ptrs_ = {volumes_[0].get(), volumes_[1].get()};
    builder_ = std::make_unique<ParityBuilder>(sim_, params_, &images_);
  }

  // Registers a closed image with distinct content.
  std::string MakeImage(int n) {
    const std::string id = "img-" + std::to_string(n);
    auto image = std::make_shared<udf::Image>(id, 4 * kMiB);
    ROS_CHECK(image->AddFile("/data/f" + std::to_string(n),
                             std::vector<std::uint8_t>(100 + n * 13,
                                                       static_cast<std::uint8_t>(n)))
                  .ok());
    const std::string file = BucketManager::VolumeFileName(id);
    disk::Volume* volume = volume_ptrs_[n % 2];
    ROS_CHECK(sim_.RunUntilComplete(volume->Create(file)).ok());
    ROS_CHECK(sim_.RunUntilComplete(
                  volume->AppendSparse(file, {}, image->used_bytes())).ok());
    ROS_CHECK(images_.RegisterBucket(image, n % 2, file).ok());
    ROS_CHECK(images_.MarkClosed(id).ok());
    return id;
  }

  sim::Simulator sim_;
  OlfsParams params_;
  std::vector<std::unique_ptr<disk::StorageDevice>> devices_;
  std::vector<std::unique_ptr<disk::Volume>> volumes_;
  std::vector<disk::Volume*> volume_ptrs_;
  DiscImageStore images_;
  std::unique_ptr<ParityBuilder> builder_;
};

TEST_F(ParityTest, BuildProducesXorOfSerializedStreams) {
  std::vector<std::string> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(MakeImage(i));
  }
  auto parities = sim_.RunUntilComplete(
      builder_->Build(ids, volume_ptrs_, 1));
  ASSERT_TRUE(parities.ok());
  ASSERT_EQ(parities->size(), 1u);
  const ParityImage& p = (*parities)[0];
  EXPECT_EQ(p.member_ids, ids);
  // Build returns metadata; the single retained payload lives in the
  // builder and is served by Get().
  EXPECT_TRUE(p.bytes.empty());
  auto retained = builder_->Get(p.id);
  ASSERT_TRUE(retained.ok());

  // Independently recompute the XOR.
  std::size_t max_len = 0;
  std::vector<std::vector<std::uint8_t>> streams;
  for (const auto& id : ids) {
    auto record = images_.Lookup(id);
    streams.push_back(udf::Serializer::Serialize(*(*record)->image));
    max_len = std::max(max_len, streams.back().size());
  }
  std::vector<std::uint8_t> expected(max_len, 0);
  for (const auto& stream : streams) {
    gf256::XorAcc(expected, stream);
  }
  EXPECT_EQ((*retained)->bytes, expected);

  // The parity image is registered with DIM on the requested volume.
  auto record = images_.Lookup(p.id);
  ASSERT_TRUE(record.ok());
  EXPECT_TRUE((*record)->parity);
  EXPECT_EQ((*record)->volume_index, 1);
}

TEST_F(ParityTest, Raid6BuildsPAndQ) {
  params_.parity_images = 2;
  builder_ = std::make_unique<ParityBuilder>(sim_, params_, &images_);
  std::vector<std::string> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(MakeImage(10 + i));
  }
  auto parities = sim_.RunUntilComplete(
      builder_->Build(ids, volume_ptrs_, 0));
  ASSERT_TRUE(parities.ok());
  ASSERT_EQ(parities->size(), 2u);
  EXPECT_TRUE((*parities)[0].id.ends_with("-P"));
  EXPECT_TRUE((*parities)[1].id.ends_with("-Q"));
  EXPECT_EQ(ParityRowOf((*parities)[0].id), 0);
  EXPECT_EQ(ParityRowOf((*parities)[1].id), 1);
  EXPECT_EQ(ParityRowOf(ids[0]), std::nullopt);
  auto p = builder_->Get((*parities)[0].id);
  auto q = builder_->Get((*parities)[1].id);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(q.ok());
  EXPECT_NE((*p)->bytes, (*q)->bytes);

  // Q must be the classic sum of g^k * d_k even though it was produced by
  // the fused Horner sweep.
  std::size_t max_len = 0;
  std::vector<std::vector<std::uint8_t>> streams;
  for (const auto& id : ids) {
    auto record = images_.Lookup(id);
    streams.push_back(udf::Serializer::Serialize(*(*record)->image));
    max_len = std::max(max_len, streams.back().size());
  }
  std::vector<std::uint8_t> expected_p(max_len, 0);
  std::vector<std::uint8_t> expected_q(max_len, 0);
  for (std::size_t k = 0; k < streams.size(); ++k) {
    gf256::XorAccScalar(expected_p, streams[k]);
    gf256::MulAccScalar(expected_q, gf256::Pow2(static_cast<unsigned>(k)),
                        streams[k]);
  }
  EXPECT_EQ((*p)->bytes, expected_p);
  EXPECT_EQ((*q)->bytes, expected_q);
}

TEST_F(ParityTest, BuildSweepsEachMemberOnceEvenForPQ) {
  params_.parity_images = 2;
  builder_ = std::make_unique<ParityBuilder>(sim_, params_, &images_);
  std::vector<std::string> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(MakeImage(60 + i));
  }
  auto parities = sim_.RunUntilComplete(
      builder_->Build(ids, volume_ptrs_, 0));
  ASSERT_TRUE(parities.ok());
  // Single-pass pipeline: one fused kernel sweep per member stream, not one
  // per member per parity image.
  EXPECT_EQ(builder_->last_build_stream_passes(), 6);
}

TEST_F(ParityTest, Raid6DoubleLossRoundTripThroughFusedPath) {
  params_.parity_images = 2;
  builder_ = std::make_unique<ParityBuilder>(sim_, params_, &images_);
  std::vector<std::string> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(MakeImage(70 + i));
  }
  auto parities = sim_.RunUntilComplete(
      builder_->Build(ids, volume_ptrs_, 0));
  ASSERT_TRUE(parities.ok());
  auto p = builder_->Get((*parities)[0].id);
  auto q = builder_->Get((*parities)[1].id);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(q.ok());

  std::vector<std::vector<std::uint8_t>> streams;
  for (const auto& id : ids) {
    auto record = images_.Lookup(id);
    streams.push_back(udf::Serializer::Serialize(*(*record)->image));
  }
  for (int a = 0; a < 5; ++a) {
    for (int b = a + 1; b < 5; ++b) {
      auto shards = streams;
      shards.push_back((*p)->bytes);
      shards.push_back((*q)->bytes);
      shards[a].clear();
      shards[b].clear();
      const int erased[] = {a, b};
      ASSERT_TRUE(ec::Decode(5, shards, erased).ok()) << a << "," << b;
      EXPECT_TRUE(std::equal(streams[a].begin(), streams[a].end(),
                             shards[a].begin()));
      EXPECT_TRUE(std::equal(streams[b].begin(), streams[b].end(),
                             shards[b].begin()));
      // Both recovered streams must parse back to the lost images.
      auto parsed_a = udf::Serializer::Parse(shards[a]);
      auto parsed_b = udf::Serializer::Parse(shards[b]);
      ASSERT_TRUE(parsed_a.ok());
      ASSERT_TRUE(parsed_b.ok());
      EXPECT_EQ(parsed_a->id(), ids[a]);
      EXPECT_EQ(parsed_b->id(), ids[b]);
    }
  }
}

// When the P disc rots along with a data member, the Reed-Solomon Q
// parity alone still solves the single erasure.
TEST_F(ParityTest, DecodesFromQAloneWhenPIsUnreadable) {
  params_.parity_images = 2;
  builder_ = std::make_unique<ParityBuilder>(sim_, params_, &images_);
  std::vector<std::string> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(MakeImage(40 + i));
  }
  auto parities = sim_.RunUntilComplete(
      builder_->Build(ids, volume_ptrs_, 0));
  ASSERT_TRUE(parities.ok());
  auto q = builder_->Get((*parities)[1].id);
  ASSERT_TRUE(q.ok());

  std::vector<std::vector<std::uint8_t>> streams;
  for (const auto& id : ids) {
    auto record = images_.Lookup(id);
    streams.push_back(udf::Serializer::Serialize(*(*record)->image));
  }
  // Shards 0-4 are the members, 5 is the unreadable P, 6 is Q.
  const auto with_q_only = [&] {
    auto shards = streams;
    shards.emplace_back();
    shards.push_back((*q)->bytes);
    return shards;
  };
  for (int missing = 0; missing < 5; ++missing) {
    auto shards = with_q_only();
    shards[missing].clear();
    const int erased[] = {missing, 5};
    ASSERT_TRUE(ec::Decode(5, shards, erased).ok()) << "missing " << missing;
    const auto& original = streams[missing];
    ASSERT_GE(shards[missing].size(), original.size());
    EXPECT_TRUE(std::equal(original.begin(), original.end(),
                           shards[missing].begin()));
    auto parsed = udf::Serializer::Parse(shards[missing]);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->id(), ids[missing]);
  }
  // Guards: occupied erased slot, double loss with one readable row.
  auto shards = with_q_only();
  shards[0].clear();
  const int occupied[] = {1, 5};
  EXPECT_EQ(ec::Decode(5, shards, occupied).code(),
            StatusCode::kInvalidArgument);
  shards[1].clear();
  const int double_loss[] = {0, 1, 5};
  EXPECT_EQ(ec::Decode(5, shards, double_loss).code(), StatusCode::kDataLoss);
}

TEST_F(ParityTest, DecodeReconstructsAnyMissingMember) {
  std::vector<std::string> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(MakeImage(20 + i));
  }
  auto parities = sim_.RunUntilComplete(
      builder_->Build(ids, volume_ptrs_, 0));
  ASSERT_TRUE(parities.ok());
  auto p_image = builder_->Get((*parities)[0].id);
  ASSERT_TRUE(p_image.ok());

  std::vector<std::vector<std::uint8_t>> streams;
  for (const auto& id : ids) {
    auto record = images_.Lookup(id);
    streams.push_back(udf::Serializer::Serialize(*(*record)->image));
  }

  for (int missing = 0; missing < 5; ++missing) {
    auto shards = streams;
    shards.push_back((*p_image)->bytes);
    shards[missing].clear();
    const int erased[] = {missing};
    ASSERT_TRUE(ec::Decode(5, shards, erased).ok()) << "missing " << missing;
    // Zero-padded to the parity length; the prefix is the original.
    const auto& original = streams[missing];
    ASSERT_GE(shards[missing].size(), original.size());
    EXPECT_TRUE(std::equal(original.begin(), original.end(),
                           shards[missing].begin()));
    // And the recovered stream parses back to a valid image.
    auto parsed = udf::Serializer::Parse(shards[missing]);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->id(), ids[missing]);
  }
}

// A recovered member shorter than the longest one carries the parity's
// zero padding after its anchor. Parse must stop at the anchor, so the
// repaired image burns exactly the original stream (no extra bytes, no
// extra sim time).
TEST_F(ParityTest, RecoveredShortMemberParsesToItsExactStream) {
  std::vector<std::string> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(MakeImage(50 + i));  // payloads grow with i
  }
  auto parities = sim_.RunUntilComplete(
      builder_->Build(ids, volume_ptrs_, 0));
  ASSERT_TRUE(parities.ok());
  auto p_image = builder_->Get((*parities)[0].id);
  ASSERT_TRUE(p_image.ok());

  std::vector<std::vector<std::uint8_t>> streams;
  for (const auto& id : ids) {
    streams.push_back(*(*images_.Lookup(id))->image->stream());
  }
  auto shards = streams;
  shards.push_back((*p_image)->bytes);
  const std::vector<std::uint8_t> original = std::move(shards[0]);
  shards[0].clear();
  const int erased[] = {0};
  ASSERT_TRUE(ec::Decode(4, shards, erased).ok());
  ASSERT_GT(shards[0].size(), original.size());  // padded

  auto parsed = udf::Serializer::Parse(shards[0]);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed->stream(), original);
  EXPECT_EQ(udf::Serializer::Serialize(*parsed), original);
}

TEST_F(ParityTest, BuildReadsTheSharedStreamsWithoutEncoding) {
  std::vector<std::string> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(MakeImage(80 + i));
  }
  const std::uint64_t before = udf::Serializer::tree_encodes();
  auto parities = sim_.RunUntilComplete(
      builder_->Build(ids, volume_ptrs_, 0));
  ASSERT_TRUE(parities.ok());
  EXPECT_EQ(udf::Serializer::tree_encodes(), before);
}

TEST_F(ParityTest, BuildRequiresBufferedImages) {
  const std::string id = MakeImage(30);
  ROS_CHECK(images_.MarkBurned(id, mech::DiscAddress{}).ok());
  ROS_CHECK(images_.DropFromBuffer(id).ok());
  auto parities = sim_.RunUntilComplete(
      builder_->Build({id}, volume_ptrs_, 0));
  EXPECT_FALSE(parities.ok());
}

TEST_F(ParityTest, ParityIdsUniqueAcrossGenerations) {
  auto a = sim_.RunUntilComplete(
      builder_->Build({MakeImage(40)}, volume_ptrs_, 0));
  auto b = sim_.RunUntilComplete(
      builder_->Build({MakeImage(41)}, volume_ptrs_, 0));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE((*a)[0].id, (*b)[0].id);
}

// The write pipeline encodes each data image once, when its bucket
// closes; parity, burn and audit share that stream.
class SerializeOncePipelineTest : public ::testing::Test {
 protected:
  SerializeOncePipelineTest() {
    system_ = std::make_unique<RosSystem>(sim_, TestSystemConfig());
    OlfsParams params;
    params.disc_capacity_override = 16 * kMiB;
    olfs_ = std::make_unique<Olfs>(sim_, system_.get(), params);
    olfs_->burns().burn_start_interval = sim::Seconds(1);
    mi_ = std::make_unique<Maintenance>(olfs_.get());
  }
  ~SerializeOncePipelineTest() override { sim_.Shutdown(); }

  void Create(const std::string& path, std::size_t bytes) {
    std::vector<std::uint8_t> data(bytes);
    for (std::size_t i = 0; i < bytes; ++i) {
      data[i] = static_cast<std::uint8_t>(i * 7 + path.size());
    }
    ASSERT_TRUE(
        sim_.RunUntilComplete(olfs_->Create(path, data, bytes)).ok());
  }

  int DataImages() {
    int n = 0;
    for (const ImageRecord* record : olfs_->images().AllRecords()) {
      n += record->parity ? 0 : 1;
    }
    return n;
  }

  sim::Simulator sim_;
  std::unique_ptr<RosSystem> system_;
  std::unique_ptr<Olfs> olfs_;
  std::unique_ptr<Maintenance> mi_;
};

TEST_F(SerializeOncePipelineTest, FlushAndDrainEncodesEachDataImageOnce) {
  const std::uint64_t before = udf::Serializer::tree_encodes();
  for (int i = 0; i < 8; ++i) {
    Create("/p/f" + std::to_string(i), 3 * kMiB);
  }
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->FlushAndDrain()).ok());
  const int images = DataImages();
  ASSERT_GE(images, 2);
  EXPECT_GE(olfs_->burns().arrays_burned(), 1);
  // One encode per image at close; not one more per parity, burn and
  // audit pass.
  EXPECT_EQ(udf::Serializer::tree_encodes(),
            before + static_cast<std::uint64_t>(images));
}

TEST_F(SerializeOncePipelineTest, CheckpointEncodesOnlyOpenBuckets) {
  Create("/p/closed", 2 * kMiB);
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->buckets().CloseCurrentBucket())
                  .ok());
  std::uint64_t before = udf::Serializer::tree_encodes();
  ASSERT_TRUE(sim_.RunUntilComplete(mi_->Checkpoint()).ok());
  EXPECT_EQ(udf::Serializer::tree_encodes(), before);  // closed: copied

  Create("/p/open", kMiB);  // opens a fresh bucket
  before = udf::Serializer::tree_encodes();
  ASSERT_TRUE(sim_.RunUntilComplete(mi_->Checkpoint()).ok());
  EXPECT_EQ(udf::Serializer::tree_encodes(), before + 1);
}

}  // namespace
}  // namespace ros::olfs
