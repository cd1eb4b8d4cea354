// Tests of the object-storage adapter (§4.2's interface extension).
#include "src/frontend/object_store.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/common/rng.h"
#include "src/sim/join.h"
#include "src/sim/time.h"

namespace ros::frontend {
namespace {

using olfs::Olfs;
using olfs::RosSystem;

std::vector<std::uint8_t> Bytes(const std::string& s) {
  return {s.begin(), s.end()};
}

class ObjectStoreTest : public ::testing::Test {
 protected:
  ObjectStoreTest() {
    system_ = std::make_unique<RosSystem>(sim_, olfs::TestSystemConfig());
    olfs::OlfsParams params;
    params.disc_capacity_override = 16 * kMiB;
    olfs_ = std::make_unique<Olfs>(sim_, system_.get(), params);
    olfs_->burns().burn_start_interval = sim::Seconds(1);
    store_ = std::make_unique<ObjectStore>(olfs_.get());
  }

  sim::Simulator sim_;
  std::unique_ptr<RosSystem> system_;
  std::unique_ptr<Olfs> olfs_;
  std::unique_ptr<ObjectStore> store_;
};

TEST(ObjectPath, MappingAndValidation) {
  auto path = ObjectStore::ObjectPath("archive", "2016/run/a.dat");
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(*path, "/objects/archive/2016/run/a.dat");
  EXPECT_FALSE(ObjectStore::ObjectPath("", "k").ok());
  EXPECT_FALSE(ObjectStore::ObjectPath("b/ad", "k").ok());
  EXPECT_FALSE(ObjectStore::ObjectPath("b", "").ok());
  EXPECT_FALSE(ObjectStore::ObjectPath("b", "/lead").ok());
  EXPECT_FALSE(ObjectStore::ObjectPath("b", "trail/").ok());
  EXPECT_FALSE(ObjectStore::ObjectPath("b", "a//b").ok());
  EXPECT_FALSE(ObjectStore::ObjectPath("b", "a/../b").ok());
}

TEST(ObjectPath, EscapingReservedCharacters) {
  auto path = ObjectStore::ObjectPath("b", "weird#key%name");
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(*path, "/objects/b/weird%23key%25name");
  EXPECT_EQ(ObjectStore::UnescapeComponent("weird%23key%25name"),
            "weird#key%name");
}

// Two puts of a new key race: the create-or-update choice is made under
// the path lock, so the second becomes version 2 instead of failing.
TEST_F(ObjectStoreTest, ConcurrentFirstPutsBothLand) {
  ASSERT_TRUE(sim_.RunUntilComplete(store_->CreateBucket("b")).ok());
  std::vector<sim::Task<Status>> puts;
  puts.push_back(store_->PutObject("b", "k", Bytes("first")));
  puts.push_back(store_->PutObject("b", "k", Bytes("second")));
  Status status = sim_.RunUntilComplete(sim::AllOk(sim_, std::move(puts)));
  ASSERT_TRUE(status.ok()) << status.ToString();
  auto v1 = sim_.RunUntilComplete(store_->GetObjectVersion("b", "k", 1));
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  auto v2 = sim_.RunUntilComplete(store_->GetObjectVersion("b", "k", 2));
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_NE(*v1, *v2);
}

TEST_F(ObjectStoreTest, PutGetHeadRoundTrip) {
  ASSERT_TRUE(sim_.RunUntilComplete(store_->CreateBucket("vault")).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(
                  store_->PutObject("vault", "docs/readme.txt",
                                    Bytes("hello object world")))
                  .ok());
  auto data = sim_.RunUntilComplete(
      store_->GetObject("vault", "docs/readme.txt"));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, Bytes("hello object world"));

  auto head = sim_.RunUntilComplete(
      store_->HeadObject("vault", "docs/readme.txt"));
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(head->size, 18u);
  EXPECT_EQ(head->version, 1);
}

TEST_F(ObjectStoreTest, OverwriteVersions) {
  ASSERT_TRUE(sim_.RunUntilComplete(
                  store_->PutObject("b", "k", Bytes("v1"))).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(
                  store_->PutObject("b", "k", Bytes("v2..."))).ok());
  auto head = sim_.RunUntilComplete(store_->HeadObject("b", "k"));
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(head->version, 2);
  auto v1 = sim_.RunUntilComplete(store_->GetObjectVersion("b", "k", 1));
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(*v1, Bytes("v1"));
  auto latest = sim_.RunUntilComplete(store_->GetObject("b", "k"));
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, Bytes("v2..."));
}

TEST_F(ObjectStoreTest, DeleteTombstones) {
  ASSERT_TRUE(sim_.RunUntilComplete(
                  store_->PutObject("b", "gone", Bytes("x"))).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(store_->DeleteObject("b", "gone")).ok());
  EXPECT_EQ(sim_.RunUntilComplete(store_->GetObject("b", "gone"))
                .status()
                .code(),
            StatusCode::kNotFound);
  // Provenance survives the delete.
  auto v1 = sim_.RunUntilComplete(store_->GetObjectVersion("b", "gone", 1));
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(*v1, Bytes("x"));
}

TEST_F(ObjectStoreTest, ListObjectsWithPrefix) {
  for (const char* key : {"logs/2016/jan", "logs/2016/feb", "logs/2017/jan",
                          "data/raw"}) {
    ASSERT_TRUE(sim_.RunUntilComplete(
                    store_->PutObject("b", key, Bytes("1"))).ok());
  }
  auto all = sim_.RunUntilComplete(store_->ListObjects("b"));
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 4u);

  auto logs_2016 = sim_.RunUntilComplete(
      store_->ListObjects("b", "logs/2016/"));
  ASSERT_TRUE(logs_2016.ok());
  ASSERT_EQ(logs_2016->size(), 2u);
  EXPECT_EQ((*logs_2016)[0].key, "logs/2016/feb");
  EXPECT_EQ((*logs_2016)[1].key, "logs/2016/jan");

  EXPECT_EQ(sim_.RunUntilComplete(store_->ListObjects("nope"))
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(ObjectStoreTest, ListBuckets) {
  ASSERT_TRUE(sim_.RunUntilComplete(store_->CreateBucket("alpha")).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(store_->CreateBucket("beta")).ok());
  auto buckets = sim_.RunUntilComplete(store_->ListBuckets());
  ASSERT_TRUE(buckets.ok());
  EXPECT_EQ(*buckets, (std::vector<std::string>{"alpha", "beta"}));
}

TEST_F(ObjectStoreTest, ObjectsSurviveBurningToDiscs) {
  auto payload = Bytes("cold object payload");
  ASSERT_TRUE(sim_.RunUntilComplete(
                  store_->PutObject("cold", "deep/key", payload)).ok());
  ASSERT_TRUE(sim_.RunUntilComplete(olfs_->FlushAndDrain()).ok());
  auto data = sim_.RunUntilComplete(store_->GetObject("cold", "deep/key"));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, payload);
}

TEST_F(ObjectStoreTest, ReservedCharacterKeysRoundTrip) {
  ASSERT_TRUE(sim_.RunUntilComplete(
                  store_->PutObject("b", "odd#name%v", Bytes("ok"))).ok());
  auto data = sim_.RunUntilComplete(store_->GetObject("b", "odd#name%v"));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, Bytes("ok"));
  auto list = sim_.RunUntilComplete(store_->ListObjects("b"));
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 1u);
  EXPECT_EQ((*list)[0].key, "odd#name%v");
}

}  // namespace
}  // namespace ros::frontend
