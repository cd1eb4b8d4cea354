// Corrupted-media recovery (§4.4): the namespace must be rebuildable from
// whatever bytes survive, which means every durable-state parser has to
// turn truncation, bit rot and hostile field values into clean
// kDataLoss / kInvalidArgument statuses — never an abort, throw, or UB.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/disk/block_device.h"
#include "src/olfs/index_file.h"
#include "src/olfs/metadata_volume.h"
#include "src/olfs/mv_log.h"
#include "src/sim/simulator.h"
#include "src/udf/serializer.h"

namespace ros::olfs {
namespace {

bool IsCleanParseFailure(const Status& status) {
  return status.code() == StatusCode::kInvalidArgument ||
         status.code() == StatusCode::kDataLoss;
}

std::string ValidIndexJson() {
  IndexFile index("/docs/report.pdf", EntryType::kFile);
  for (int i = 0; i < 3; ++i) {
    VersionEntry v;
    v.location = LocationKind::kBucket;
    v.total_size = 100 + static_cast<std::uint64_t>(i);
    v.parts.push_back({"img-0001", v.total_size});
    index.AddVersion(std::move(v), 15);
  }
  index.set_forepart({1, 2, 3, 4});
  return index.ToJson();
}

std::vector<std::uint8_t> ValidImageBytes() {
  udf::Image image("img-corrupt-test", 1 << 20);
  (void)image.MakeDirs("/docs");
  (void)image.AddFile("/docs/a", {'a', 'b', 'c'});
  (void)image.AddFile("/docs/b", std::vector<std::uint8_t>(64, 0x5A), 4096);
  (void)image.AddLink("/docs/c", "img-elsewhere");
  image.Close();
  return udf::Serializer::Serialize(image);
}

// --- index files ---

TEST(CorruptIndexFile, EveryTruncationFailsCleanly) {
  const std::string json = ValidIndexJson();
  for (std::size_t len = 0; len < json.size(); ++len) {
    auto parsed = IndexFile::FromJson(std::string_view(json).substr(0, len));
    ASSERT_FALSE(parsed.ok()) << "prefix length " << len;
    EXPECT_TRUE(IsCleanParseFailure(parsed.status()))
        << "prefix length " << len << ": " << parsed.status().ToString();
  }
}

TEST(CorruptIndexFile, EveryBitFlipParsesOrFailsCleanly) {
  const std::string json = ValidIndexJson();
  for (std::size_t pos = 0; pos < json.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = json;
      mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << bit));
      auto parsed = IndexFile::FromJson(mutated);
      if (!parsed.ok()) {
        EXPECT_TRUE(IsCleanParseFailure(parsed.status()))
            << "pos " << pos << " bit " << bit << ": "
            << parsed.status().ToString();
      }
    }
  }
}

TEST(CorruptIndexFile, TypeConfusedFieldsRejected) {
  // Every field with the wrong JSON type must be InvalidArgument, not a
  // std::bad_variant_access crash (the pre-fuzzing decoder asserted types).
  const char* cases[] = {
      R"({"path":1,"type":"file","next_ver":1,"entries":[]})",
      R"({"path":"/a","type":7,"next_ver":1,"entries":[]})",
      R"({"path":"/a","type":"file","next_ver":"x","entries":[]})",
      R"({"path":"/a","type":"file","next_ver":1,"entries":{}})",
      R"({"path":"/a","type":"file","next_ver":1,"entries":[42]})",
      R"({"path":"/a","type":"file","next_ver":2,"entries":[{"ver":true,"loc":"B","size":1,"parts":[]}]})",
      R"({"path":"/a","type":"file","next_ver":2,"entries":[{"ver":1,"loc":9,"size":1,"parts":[]}]})",
      R"({"path":"/a","type":"file","next_ver":2,"entries":[{"ver":1,"loc":"B","size":"big","parts":[]}]})",
      R"({"path":"/a","type":"file","next_ver":2,"entries":[{"ver":1,"loc":"B","size":1,"parts":[null]}]})",
      R"({"path":"/a","type":"file","next_ver":2,"entries":[{"ver":1,"loc":"B","size":1,"parts":[{"img":3,"size":1}]}]})",
      R"({"path":"/a","type":"file","next_ver":1,"entries":[],"forepart":12})",
      R"([1,2,3])",
      R"(null)",
  };
  for (const char* json : cases) {
    auto parsed = IndexFile::FromJson(json);
    ASSERT_FALSE(parsed.ok()) << json;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << json;
  }
}

TEST(CorruptIndexFile, HostileNumbersRejected) {
  const char* cases[] = {
      // Negative / zero next_ver, versions outside [1, next_ver).
      R"({"path":"/a","type":"file","next_ver":0,"entries":[]})",
      R"({"path":"/a","type":"file","next_ver":-3,"entries":[]})",
      R"({"path":"/a","type":"file","next_ver":99999999999999,"entries":[]})",
      R"({"path":"/a","type":"file","next_ver":2,"entries":[{"ver":5,"loc":"B","size":1,"parts":[]}]})",
      R"({"path":"/a","type":"file","next_ver":2,"entries":[{"ver":-1,"loc":"B","size":1,"parts":[]}]})",
      // Negative sizes would wrap to absurd uint64 values.
      R"({"path":"/a","type":"file","next_ver":2,"entries":[{"ver":1,"loc":"B","size":-5,"parts":[]}]})",
      R"({"path":"/a","type":"file","next_ver":2,"entries":[{"ver":1,"loc":"B","size":1,"parts":[{"img":"i","size":-1}]}]})",
      // Doubles where integers belong (1e300 used to be a float-cast UB).
      R"({"path":"/a","type":"file","next_ver":1e300,"entries":[]})",
  };
  for (const char* json : cases) {
    auto parsed = IndexFile::FromJson(json);
    ASSERT_FALSE(parsed.ok()) << json;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << json;
  }
}

TEST(CorruptIndexFile, DuplicateKeysAreDefinedBehavior) {
  // JSON objects with duplicate keys: the decoder keeps the last value
  // (std::map assignment) — defined, no crash, and the result still obeys
  // the round-trip invariant.
  auto parsed = IndexFile::FromJson(
      R"({"path":"/dup","path":"/dup2","type":"file","type":"dir",)"
      R"("next_ver":1,"next_ver":1,"entries":[],"entries":[]})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->path(), "/dup2");
  EXPECT_EQ(parsed->type(), EntryType::kDirectory);
  auto reparsed = IndexFile::FromJson(parsed->ToJson());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->ToJson(), parsed->ToJson());
}

// --- UDF image streams ---

TEST(CorruptUdfImage, EveryTruncationIsDataLoss) {
  const std::vector<std::uint8_t> bytes = ValidImageBytes();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    auto parsed = udf::Serializer::Parse(
        std::span<const std::uint8_t>(bytes.data(), len));
    ASSERT_FALSE(parsed.ok()) << "prefix length " << len;
    EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss)
        << "prefix length " << len << ": " << parsed.status().ToString();
  }
}

TEST(CorruptUdfImage, EveryBitFlipIsDataLoss) {
  // The stream ends with a CRC32 over everything before the anchor, so any
  // single-bit flip must surface as kDataLoss (never parse, never crash).
  const std::vector<std::uint8_t> bytes = ValidImageBytes();
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> mutated = bytes;
      mutated[pos] = static_cast<std::uint8_t>(mutated[pos] ^ (1u << bit));
      auto parsed = udf::Serializer::Parse(mutated);
      ASSERT_FALSE(parsed.ok()) << "pos " << pos << " bit " << bit;
      EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss)
          << "pos " << pos << " bit " << bit << ": "
          << parsed.status().ToString();
    }
  }
}

std::size_t FindPattern(const std::vector<std::uint8_t>& haystack,
                        const std::vector<std::uint8_t>& needle) {
  auto it = std::search(haystack.begin(), haystack.end(), needle.begin(),
                        needle.end());
  return it == haystack.end()
             ? haystack.size()
             : static_cast<std::size_t>(it - haystack.begin());
}

TEST(CorruptUdfImage, HugeLengthFieldIsDataLoss) {
  // Regression: a data_len of ~2^64 used to wrap the reader's `pos_ + n`
  // bounds check and walk off the buffer. Overwrite /docs/a's data_len
  // (the u64 right before the payload "abc") with all-ones.
  std::vector<std::uint8_t> bytes = ValidImageBytes();
  const std::size_t payload = FindPattern(bytes, {'a', 'b', 'c'});
  ASSERT_LT(payload, bytes.size());
  for (std::size_t i = payload - 8; i < payload; ++i) {
    bytes[i] = 0xFF;
  }
  auto parsed = udf::Serializer::Parse(bytes);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss);
}

TEST(CorruptUdfImage, TinyCapacityIsDataLoss) {
  // Regression: a corrupted capacity below the root-directory overhead used
  // to wrap free_bytes() to ~2^64 and accept everything. The capacity u64
  // sits right after the image id string.
  std::vector<std::uint8_t> bytes = ValidImageBytes();
  const std::string id = "img-corrupt-test";
  const std::size_t id_at =
      FindPattern(bytes, std::vector<std::uint8_t>(id.begin(), id.end()));
  ASSERT_LT(id_at, bytes.size());
  for (std::size_t i = id_at + id.size(); i < id_at + id.size() + 8; ++i) {
    bytes[i] = 0;
  }
  auto parsed = udf::Serializer::Parse(bytes);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss);
}

// --- end to end through the Metadata Volume ---

class MvCorruptionTest : public ::testing::Test {
 protected:
  MvCorruptionTest()
      : device_(sim_, "ssd", 64 * kMiB, disk::SsdPerf()),
        volume_(sim_, &device_, disk::MetadataVolumeParams()) {
    Attach();
  }

  void Attach() {
    mv_.reset();
    mv_ = std::make_unique<MetadataVolume>(sim_, &volume_,
                                           MetadataVolume::Options{});
  }

  // Lands a well-framed WAL record carrying `value` as is — content that
  // rotted before it was written (the record CRC covers the bad bytes) —
  // and re-opens the store, which replays it.
  void WriteRawRecord(mvlog::RecordType type, const std::string& key,
                      const std::string& value) {
    mv_.reset();  // crash
    const std::vector<std::string> wal =
        volume_.List(std::string(MvLog::kFilePrefix));
    const std::string name = wal.empty() ? MvLog::FileName(1) : wal.back();
    if (wal.empty()) {
      ASSERT_TRUE(sim_.RunUntilComplete(volume_.Create(name)).ok());
    }
    std::vector<std::uint8_t> frame;
    mvlog::AppendRecord(mvlog::Record{type, key, value}, &frame);
    ASSERT_TRUE(
        sim_.RunUntilComplete(volume_.Append(name, std::move(frame))).ok());
    Attach();
    ASSERT_TRUE(sim_.RunUntilComplete(mv_->Open()).ok());
  }

  void WriteRawIndex(const std::string& path, const std::string& content) {
    WriteRawRecord(mvlog::RecordType::kPut, MetadataVolume::IndexKey(path),
                   content);
  }

  sim::Simulator sim_;
  disk::StorageDevice device_;
  disk::Volume volume_;
  std::unique_ptr<MetadataVolume> mv_;
};

TEST_F(MvCorruptionTest, GetOnRottedIndexFailsCleanly) {
  const std::string good = ValidIndexJson();
  // Torn write: only the first half of the index document was logged.
  WriteRawIndex("/torn", good.substr(0, good.size() / 2));
  auto torn = sim_.RunUntilComplete(mv_->Get("/torn"));
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), StatusCode::kInvalidArgument);

  // Bit rot in the middle of the JSON.
  std::string rotted = good;
  rotted[rotted.size() / 2] =
      static_cast<char>(rotted[rotted.size() / 2] ^ 0x08);
  WriteRawIndex("/rotted", rotted);
  auto result = sim_.RunUntilComplete(mv_->Get("/rotted"));
  if (!result.ok()) {
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(MvCorruptionTest, RestoreFromSnapshotWithCorruptPayloads) {
  // A snapshot image can carry index files that rotted *before* the burn.
  // Restore copies bytes faithfully; the corruption must then surface as a
  // clean parse failure on Get, not poison the whole namespace.
  udf::Image snapshot("mv-snap-rot", 4 * kMiB);
  const std::string good = ValidIndexJson();
  ASSERT_TRUE(snapshot
                  .AddFile("/.mv/docs/good#idx",
                           {good.begin(), good.end()})
                  .ok());
  const std::string bad = good.substr(0, good.size() / 3);
  ASSERT_TRUE(snapshot
                  .AddFile("/.mv/docs/bad#idx", {bad.begin(), bad.end()})
                  .ok());
  snapshot.Close();

  ASSERT_TRUE(sim_.RunUntilComplete(mv_->RestoreFromSnapshot(snapshot)).ok());
  auto good_index = sim_.RunUntilComplete(mv_->Get("/docs/good"));
  ASSERT_TRUE(good_index.ok()) << good_index.status().ToString();
  EXPECT_EQ(good_index->path(), "/docs/report.pdf");

  auto bad_index = sim_.RunUntilComplete(mv_->Get("/docs/bad"));
  ASSERT_FALSE(bad_index.ok());
  EXPECT_EQ(bad_index.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(MvCorruptionTest, StateBlobCorruptionFailsCleanly) {
  ASSERT_TRUE(sim_.RunUntilComplete(
                  mv_->PutState("checkpoint", json::Value(json::Object{})))
                  .ok());
  // A newer version of the state blob is garbage.
  WriteRawRecord(mvlog::RecordType::kPutState,
                 MetadataVolume::StateKey("checkpoint"),
                 std::string("\xFF\x00\x7B\x22", 4));
  auto state = sim_.RunUntilComplete(mv_->GetState("checkpoint"));
  ASSERT_FALSE(state.ok());
  EXPECT_EQ(state.status().code(), StatusCode::kInvalidArgument);
}

// --- log-structured store: segment bit-flip sweep -----------------------

IndexFile SmallIndex(int i) {
  IndexFile index("/d/f" + std::to_string(i), EntryType::kFile);
  VersionEntry v;
  v.total_size = 100 + static_cast<std::uint64_t>(i);
  v.parts.push_back({"img-000000", v.total_size});
  index.AddVersion(std::move(v), 15);
  return index;
}

TEST(MvSegmentCorruption, BitFlipSweepNeverPoisonsRecovery) {
  // Store-level counterpart of mv_segment_test's exhaustive parser sweep:
  // for a sample of single-bit flips across a real flushed segment file,
  // recovery must quarantine the damaged segment (clean statuses, counted
  // in corrupt_segments) and leave an internally consistent, writable
  // store — never abort, hang, or resurrect inconsistent state.
  sim::Simulator sim;
  disk::StorageDevice device(sim, "ssd", 64 * kMiB, disk::SsdPerf());
  disk::Volume volume(sim, &device, disk::MetadataVolumeParams());
  MetadataVolume::Options options;
  options.cache_capacity = 8;
  options.memtable_flush_bytes = 1 * kKiB;
  auto mv = std::make_unique<MetadataVolume>(sim, &volume, options);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(sim.RunUntilComplete(mv->Put(SmallIndex(i))).ok());
  }
  sim.RunFor(sim::Seconds(5));  // drain the background flushes
  ASSERT_GT(mv->store_stats().segment_count, 0u);
  mv.reset();  // crash; every recovery below opens a fresh store

  std::vector<std::string> segs = volume.List("/mvseg.");
  ASSERT_FALSE(segs.empty());
  std::sort(segs.begin(), segs.end());
  const std::string victim = segs.front();
  auto pristine = sim.RunUntilComplete(volume.ReadAll(victim));
  ASSERT_TRUE(pristine.ok()) << pristine.status().ToString();

  for (std::size_t at = 0; at < pristine->size(); at += 13) {
    SCOPED_TRACE("flip at byte " + std::to_string(at));
    std::vector<std::uint8_t> flipped = *pristine;
    flipped[at] ^= static_cast<std::uint8_t>(1u << (at % 8));
    ASSERT_TRUE(
        sim.RunUntilComplete(volume.WriteAll(victim, std::move(flipped)))
            .ok());

    mv = std::make_unique<MetadataVolume>(sim, &volume, options);
    ASSERT_TRUE(sim.RunUntilComplete(mv->Open()).ok());
    const MetadataVolume::StoreStats stats = mv->store_stats();
    EXPECT_EQ(stats.corrupt_segments, 1u);
    EXPECT_EQ(mv->index_count(), mv->AllPaths().size());
    mv.reset();

    // Put the pristine bytes back for the next flip.
    ASSERT_TRUE(
        sim.RunUntilComplete(volume.WriteAll(victim, *pristine)).ok());
  }
}

}  // namespace
}  // namespace ros::olfs
