#include "src/olfs/index_file.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace ros::olfs {
namespace {

VersionEntry MakeEntry(LocationKind loc, const std::string& image,
                       std::uint64_t size) {
  VersionEntry entry;
  entry.location = loc;
  entry.total_size = size;
  entry.parts.push_back({image, size});
  return entry;
}

TEST(IndexFile, LocationCodesRoundTrip) {
  for (LocationKind kind : {LocationKind::kBucket, LocationKind::kImage,
                            LocationKind::kDisc}) {
    auto back = LocationFromCode(LocationCode(kind));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(LocationFromCode('X').ok());
}

TEST(IndexFile, VersionsIncrementMonotonically) {
  IndexFile index("/a", EntryType::kFile);
  EXPECT_FALSE(index.has_versions());
  EXPECT_FALSE(index.Latest().ok());
  for (int i = 1; i <= 5; ++i) {
    index.AddVersion(MakeEntry(LocationKind::kBucket, "img", 10 * i), 15);
  }
  EXPECT_EQ(index.latest_version(), 5);
  auto latest = index.Latest();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ((*latest)->total_size, 50u);
  auto v2 = index.Version(2);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ((*v2)->total_size, 20u);
}

// §4.6: the 15-entry ring overwrites the oldest entry when full.
TEST(IndexFile, RingOverwritesOldest) {
  IndexFile index("/a", EntryType::kFile);
  for (int i = 1; i <= 20; ++i) {
    index.AddVersion(MakeEntry(LocationKind::kBucket, "img", i), 15);
  }
  EXPECT_EQ(index.entries().size(), 15u);
  EXPECT_EQ(index.latest_version(), 20);
  // Versions 1..5 fell out of the ring; 6..20 remain.
  EXPECT_FALSE(index.Version(5).ok());
  EXPECT_TRUE(index.Version(6).ok());
  EXPECT_TRUE(index.Version(20).ok());
}

TEST(IndexFile, UpdateVersionRewritesOnlyThatVersion) {
  IndexFile index("/a", EntryType::kFile);
  index.AddVersion(MakeEntry(LocationKind::kBucket, "img-1", 100), 15);
  index.AddVersion(MakeEntry(LocationKind::kBucket, "img-2", 200), 15);
  VersionEntry grown = MakeEntry(LocationKind::kImage, "img-1", 150);
  grown.version = 1;
  ASSERT_TRUE(index.UpdateVersion(grown).ok());
  auto v1 = index.Version(1);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ((*v1)->total_size, 150u);
  EXPECT_EQ((*v1)->location, LocationKind::kImage);
  // The latest version is untouched.
  auto latest = index.Latest();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ((*latest)->version, 2);
  EXPECT_EQ((*latest)->total_size, 200u);
  // A version that left the ring (or never existed) is not recreated.
  grown.version = 7;
  EXPECT_EQ(index.UpdateVersion(grown).code(), StatusCode::kNotFound);
  EXPECT_EQ(index.entries().size(), 2u);
}

TEST(IndexFile, TombstoneHidesLatest) {
  IndexFile index("/a", EntryType::kFile);
  index.AddVersion(MakeEntry(LocationKind::kBucket, "img", 10), 15);
  VersionEntry tomb;
  tomb.tombstone = true;
  index.AddVersion(std::move(tomb), 15);
  EXPECT_FALSE(index.Latest().ok());
  // Historic version still reachable (data provenance, §4.6).
  EXPECT_TRUE(index.Version(1).ok());
}

TEST(IndexFile, JsonRoundTrip) {
  IndexFile index("/archive/data.bin", EntryType::kFile);
  VersionEntry entry = MakeEntry(LocationKind::kDisc, "img-000001", 5000);
  entry.parts.push_back({"img-000002", 7000});
  entry.total_size = 12000;
  index.AddVersion(std::move(entry), 15);
  index.set_forepart({0x01, 0xFF, 0x00, 0xAB});

  auto parsed = IndexFile::FromJson(index.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->path(), "/archive/data.bin");
  EXPECT_EQ(parsed->type(), EntryType::kFile);
  EXPECT_EQ(parsed->latest_version(), 1);
  auto latest = parsed->Latest();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ((*latest)->parts.size(), 2u);
  EXPECT_EQ((*latest)->parts[1].image_id, "img-000002");
  EXPECT_EQ((*latest)->total_size, 12000u);
  EXPECT_EQ(parsed->forepart(),
            (std::vector<std::uint8_t>{0x01, 0xFF, 0x00, 0xAB}));
  // Round-trip is byte-stable.
  EXPECT_EQ(parsed->ToJson(), index.ToJson());
}

TEST(IndexFile, DirectoryEntryJson) {
  IndexFile dir("/archive", EntryType::kDirectory);
  auto parsed = IndexFile::FromJson(dir.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->type(), EntryType::kDirectory);
}

// §4.2: a typical index file is a few hundred bytes (the paper says ~388).
TEST(IndexFile, TypicalSizeMatchesPaper) {
  IndexFile index("/archive/2016/jan/records/file-000001.dat",
                  EntryType::kFile);
  index.AddVersion(MakeEntry(LocationKind::kDisc, "img-001234", 123456789),
                   15);
  EXPECT_GT(index.ApproximateSize(), 150u);
  EXPECT_LT(index.ApproximateSize(), 500u);
}

TEST(IndexFile, MalformedJsonRejected) {
  EXPECT_FALSE(IndexFile::FromJson("not json").ok());
  EXPECT_FALSE(IndexFile::FromJson("[]").ok());
  EXPECT_FALSE(IndexFile::FromJson(
                   R"({"path":"/a","type":"file","next_ver":2,)"
                   R"("entries":[{"ver":1,"loc":"Z","size":0,"parts":[]}]})")
                   .ok());
}

// A corpus of index files covering every encoded feature: directories,
// multi-part versions, tombstones, deleted-flag entries, foreparts, ring
// wraparound, and escape-needing paths.
std::vector<IndexFile> CorpusIndexes() {
  std::vector<IndexFile> corpus;
  corpus.emplace_back("/dir", EntryType::kDirectory);

  IndexFile multi("/a/multi", EntryType::kFile);
  VersionEntry entry = MakeEntry(LocationKind::kDisc, "img-000001", 5000);
  entry.parts.push_back({"img-000002", 7000});
  entry.total_size = 12000;
  multi.AddVersion(std::move(entry), 15);
  multi.set_forepart({0x00, 0x01, 0xFF});
  corpus.push_back(std::move(multi));

  IndexFile tomb("/a/tomb", EntryType::kFile);
  tomb.AddVersion(MakeEntry(LocationKind::kBucket, "img-1", 1), 15);
  VersionEntry dead;
  dead.tombstone = true;
  tomb.AddVersion(std::move(dead), 15);
  corpus.push_back(std::move(tomb));

  IndexFile ring("/a/ring", EntryType::kFile);
  for (int i = 1; i <= 20; ++i) {
    ring.AddVersion(MakeEntry(LocationKind::kImage, "img", i), 15);
  }
  corpus.push_back(std::move(ring));

  IndexFile escaped("/a/we\"ird\npath", EntryType::kFile);
  escaped.AddVersion(MakeEntry(LocationKind::kBucket, "b\\1", 3), 15);
  corpus.push_back(std::move(escaped));
  return corpus;
}

// The canonical-shape fast parser and the tree parser must agree on every
// document either of them accepts; ToJson must be byte-stable through both.
TEST(IndexFile, FastAndTreeParsersAgreeOnCorpus) {
  for (const IndexFile& index : CorpusIndexes()) {
    const std::string doc = index.ToJson();
    auto fast = IndexFile::FromJson(doc);
    auto tree = IndexFile::FromJsonTree(doc);
    ASSERT_TRUE(fast.ok()) << doc;
    ASSERT_TRUE(tree.ok()) << doc;
    EXPECT_EQ(fast->ToJson(), doc);
    EXPECT_EQ(tree->ToJson(), doc);
  }
}

TEST(IndexFile, NonCanonicalDocumentsFallBackToTreeParser) {
  // Same data, keys reordered: valid JSON, but not the shape ToJson emits.
  const std::string reordered =
      R"({"type":"file","path":"/x","next_ver":2,)"
      R"("entries":[{"loc":"B","ver":1,"del":false,"size":9,)"
      R"("parts":[{"size":9,"img":"img-7"}]}]})";
  auto via_tree = IndexFile::FromJsonTree(reordered);
  auto via_front_door = IndexFile::FromJson(reordered);
  ASSERT_TRUE(via_tree.ok()) << via_tree.status().ToString();
  ASSERT_TRUE(via_front_door.ok()) << via_front_door.status().ToString();
  EXPECT_EQ(via_tree->ToJson(), via_front_door->ToJson());
  EXPECT_EQ(via_front_door->path(), "/x");
  EXPECT_EQ((*via_front_door->Latest())->total_size, 9u);
}

TEST(IndexFile, ParsersRejectTheSameCorruptInputs) {
  const std::string good = CorpusIndexes()[1].ToJson();
  std::vector<std::string> corrupt;
  corrupt.push_back(good.substr(0, good.size() / 2));  // truncated
  corrupt.push_back(good + "garbage");                 // trailing bytes
  std::string flipped = good;
  flipped[good.find(':')] = ';';                       // structural damage
  corrupt.push_back(flipped);
  corrupt.push_back("{}");                             // fields missing
  for (const std::string& doc : corrupt) {
    EXPECT_FALSE(IndexFile::FromJson(doc).ok()) << doc;
    EXPECT_FALSE(IndexFile::FromJsonTree(doc).ok()) << doc;
  }
}

}  // namespace
}  // namespace ros::olfs
