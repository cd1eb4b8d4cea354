#include "src/udf/serializer.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/udf/image.h"

namespace ros::udf {
namespace {

std::vector<std::uint8_t> Bytes(const std::string& s) {
  return {s.begin(), s.end()};
}

Image SampleImage() {
  Image image("image-0042", 25 * kGB);
  ROS_CHECK(image.AddFile("/archive/2016/trace.bin", Bytes("trace-data"),
                          4096).ok());
  ROS_CHECK(image.AddFile("/archive/2016/notes.txt", Bytes("hello")).ok());
  ROS_CHECK(image.AddLink("/archive/2017/huge.part1", "image-0041").ok());
  ROS_CHECK(image.MakeDirs("/empty/dir/chain").ok());
  image.Close();
  return image;
}

TEST(UdfSerializer, RoundTripPreservesEverything) {
  Image original = SampleImage();
  auto bytes = Serializer::Serialize(original);
  auto parsed = Serializer::Parse(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  EXPECT_EQ(parsed->id(), "image-0042");
  EXPECT_EQ(parsed->capacity(), 25 * kGB);
  EXPECT_TRUE(parsed->closed());
  EXPECT_EQ(parsed->file_count(), original.file_count());
  EXPECT_EQ(parsed->used_bytes(), original.used_bytes());

  auto data = parsed->ReadFile("/archive/2016/trace.bin", 0, 10);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, Bytes("trace-data"));
  // Sparse logical size survives.
  auto node = parsed->Lookup("/archive/2016/trace.bin");
  ASSERT_TRUE(node.ok());
  EXPECT_EQ((*node)->logical_size, 4096u);

  auto link = parsed->Lookup("/archive/2017/huge.part1");
  ASSERT_TRUE(link.ok());
  EXPECT_EQ((*link)->link_target_image, "image-0041");

  EXPECT_TRUE(parsed->Exists("/empty/dir/chain"));
}

TEST(UdfSerializer, WalkOrderIsDeterministic) {
  Image original = SampleImage();
  auto a = Serializer::Serialize(original);
  auto b = Serializer::Serialize(original);
  EXPECT_EQ(a, b);
}

TEST(UdfSerializer, CorruptionDetectedByCrc) {
  auto bytes = Serializer::Serialize(SampleImage());
  for (std::size_t pos : {std::size_t{20}, bytes.size() / 2,
                          bytes.size() - 20}) {
    auto corrupted = bytes;
    corrupted[pos] ^= 0xFF;
    auto parsed = Serializer::Parse(corrupted);
    EXPECT_FALSE(parsed.ok()) << "flip at " << pos;
  }
}

TEST(UdfSerializer, TruncationDetected) {
  auto bytes = Serializer::Serialize(SampleImage());
  for (std::size_t keep : {std::size_t{4}, std::size_t{30},
                           bytes.size() - 1}) {
    auto truncated = std::vector<std::uint8_t>(bytes.begin(),
                                               bytes.begin() + keep);
    EXPECT_FALSE(Serializer::Parse(truncated).ok()) << "keep " << keep;
  }
}

TEST(UdfSerializer, BadMagicRejected) {
  auto bytes = Serializer::Serialize(SampleImage());
  bytes[0] = 'X';
  EXPECT_EQ(Serializer::Parse(bytes).status().code(), StatusCode::kDataLoss);
}

TEST(UdfSerializer, EmptyImageRoundTrips) {
  Image empty("empty-img", kGB);
  auto parsed = Serializer::Parse(Serializer::Serialize(empty));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->file_count(), 0u);
  EXPECT_EQ(parsed->id(), "empty-img");
}

// --- serialize once: a closed image's stream is built by Close() ---

// An open image with every payload shape: dense, sparse tail, appended
// (materialized sparse gap plus real bytes), and a link.
Image MixedOpenImage() {
  Image image("mixed", kGB);
  ROS_CHECK(image.AddFile("/d/dense", Bytes("dense-bytes")).ok());
  ROS_CHECK(image.AddFile("/d/sparse", Bytes("head"), 10000).ok());
  ROS_CHECK(image.AddFile("/d/appended", Bytes("abc"), 5).ok());
  ROS_CHECK(image.AppendToFile("/d/appended", Bytes("xyz"), 3).ok());
  ROS_CHECK(image.AppendToFile("/d/appended", {}, 4000).ok());
  ROS_CHECK(image.AddLink("/d/link.part1", "image-7").ok());
  return image;
}

TEST(UdfSerializeOnce, ReadFileIdenticalBeforeAndAfterClose) {
  Image image = MixedOpenImage();
  const char* files[] = {"/d/dense", "/d/sparse", "/d/appended"};
  std::vector<std::vector<std::uint8_t>> before;
  for (const char* path : files) {
    auto node = image.Lookup(path);
    ASSERT_TRUE(node.ok());
    auto bytes = image.ReadFile(path, 0, (*node)->logical_size);
    ASSERT_TRUE(bytes.ok()) << path;
    before.push_back(*bytes);
  }
  EXPECT_EQ(image.ReadFile("/d/link.part1", 0, 0).status().code(),
            StatusCode::kInvalidArgument);

  image.Close();
  ASSERT_NE(image.stream(), nullptr);
  for (std::size_t i = 0; i < std::size(files); ++i) {
    auto node = image.Lookup(files[i]);
    ASSERT_TRUE(node.ok());
    // The payload lives only in the stream now.
    EXPECT_TRUE((*node)->data.empty()) << files[i];
    auto bytes = image.ReadFile(files[i], 0, (*node)->logical_size);
    ASSERT_TRUE(bytes.ok()) << files[i];
    EXPECT_EQ(*bytes, before[i]) << files[i];
    const std::span<const std::uint8_t> stored = image.FileBytes(**node);
    EXPECT_GE(stored.data(), image.stream()->data());
    EXPECT_LE(stored.data() + stored.size(),
              image.stream()->data() + image.stream()->size());
  }
  auto link = image.Lookup("/d/link.part1");
  ASSERT_TRUE(link.ok());
  EXPECT_EQ((*link)->link_target_image, "image-7");
  EXPECT_EQ(image.ReadFile("/d/link.part1", 0, 0).status().code(),
            StatusCode::kInvalidArgument);
  // Offsets in a closed file still work; the appended gap reads as zeros.
  auto mid = image.ReadFile("/d/appended", 2, 5);
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(*mid, (std::vector<std::uint8_t>{'c', 0, 0, 'x', 'y'}));
}

TEST(UdfSerializeOnce, SerializeOfClosedImageEqualsSerializationBeforeClose) {
  Image image = MixedOpenImage();
  const std::vector<std::uint8_t> open_bytes = Serializer::Serialize(image);
  image.Close();
  EXPECT_EQ(*image.stream(), open_bytes);
  EXPECT_EQ(Serializer::Serialize(image), open_bytes);
  // Exact capacity: no growth slack behind the shared stream.
  EXPECT_EQ(image.stream()->capacity(), image.stream()->size());
}

TEST(UdfSerializeOnce, SecondCloseIsANoOpAndSerializeDoesNotEncode) {
  Image image = MixedOpenImage();
  const std::uint64_t before = Serializer::tree_encodes();
  image.Close();
  const auto stream = image.stream();
  image.Close();
  EXPECT_EQ(image.stream(), stream);  // same buffer, not rebuilt
  (void)Serializer::Serialize(image);
  EXPECT_EQ(Serializer::tree_encodes(), before + 1);
  EXPECT_FALSE(image.AddFile("/d/late", Bytes("x")).ok());
}

TEST(UdfSerializeOnce, ParseAdoptsACanonicalStreamWithoutEncoding) {
  const std::vector<std::uint8_t> bytes = Serializer::Serialize(SampleImage());
  const std::uint64_t before = Serializer::tree_encodes();
  auto parsed = Serializer::Parse(bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(Serializer::tree_encodes(), before);
  ASSERT_NE(parsed->stream(), nullptr);
  EXPECT_EQ(*parsed->stream(), bytes);
  auto data = parsed->ReadFile("/archive/2016/notes.txt", 0, 5);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, Bytes("hello"));
}

TEST(UdfSerializeOnce, ParseOfAnOwnedStreamKeepsItsBuffer) {
  std::vector<std::uint8_t> bytes = Serializer::Serialize(SampleImage());
  const std::vector<std::uint8_t> want = bytes;
  const std::uint8_t* buffer = bytes.data();
  auto parsed = Serializer::Parse(std::move(bytes));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->stream()->data(), buffer);  // moved, not copied
  EXPECT_EQ(*parsed->stream(), want);
}

TEST(UdfSerializeOnce, ParseNeverAdoptsBytesAfterTheAnchor) {
  const std::vector<std::uint8_t> bytes = Serializer::Serialize(SampleImage());
  std::vector<std::uint8_t> padded = bytes;
  padded.resize(bytes.size() + 4096, 0);  // as a recovered parity stream
  auto parsed = Serializer::Parse(padded);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed->stream(), bytes);
  EXPECT_EQ(Serializer::Serialize(*parsed), bytes);
  // An owned padded buffer is not kept either: only its prefix is.
  auto owned = Serializer::Parse(std::move(padded));
  ASSERT_TRUE(owned.ok());
  EXPECT_EQ(*owned->stream(), bytes);
}

// Hand-encodes a valid stream whose node records need not be in Walk
// order (Serialize always writes Walk order).
struct RawNode {
  NodeType type;
  std::string path;
  std::string payload;  // files only
};

std::vector<std::uint8_t> EncodeRaw(const std::vector<RawNode>& nodes) {
  std::vector<std::uint8_t> out;
  auto put = [&](std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  auto str = [&](const std::string& s) {
    put(s.size(), 4);
    out.insert(out.end(), s.begin(), s.end());
  };
  const std::string magic = "ROSUDF01";
  out.insert(out.end(), magic.begin(), magic.end());
  put(1, 4);  // version
  str("raw");
  put(kGB, 8);
  put(nodes.size(), 8);
  for (const RawNode& node : nodes) {
    out.push_back(static_cast<std::uint8_t>(node.type));
    str(node.path);
    if (node.type == NodeType::kFile) {
      put(node.payload.size(), 8);  // logical size
      put(node.payload.size(), 8);  // stored bytes
      out.insert(out.end(), node.payload.begin(), node.payload.end());
    }
  }
  put(Crc32(out), 4);
  const std::string anchor = "ROSUDFED";
  out.insert(out.end(), anchor.begin(), anchor.end());
  return out;
}

TEST(UdfSerializeOnce, EncodeRawMatchesSerializeForWalkOrder) {
  Image image("raw", kGB);
  ROS_CHECK(image.AddFile("/a/x", Bytes("payload")).ok());
  EXPECT_EQ(EncodeRaw({{NodeType::kDirectory, "/a", ""},
                       {NodeType::kFile, "/a/x", "payload"}}),
            Serializer::Serialize(image));
}

TEST(UdfSerializeOnce, ParseReencodesANonCanonicalNodeOrder) {
  Image canonical("raw", kGB);
  ROS_CHECK(canonical.AddFile("/a/x", Bytes("payload")).ok());
  ROS_CHECK(canonical.AddFile("/b", Bytes("bee")).ok());
  const std::vector<std::uint8_t> want = Serializer::Serialize(canonical);
  // The same tree, spelled three non-canonical ways: a file before its
  // parent's record, a repeated directory record, and a missing one.
  const std::vector<std::vector<RawNode>> spellings = {
      {{NodeType::kFile, "/a/x", "payload"},
       {NodeType::kDirectory, "/a", ""},
       {NodeType::kFile, "/b", "bee"}},
      {{NodeType::kDirectory, "/a", ""},
       {NodeType::kDirectory, "/a", ""},
       {NodeType::kFile, "/a/x", "payload"},
       {NodeType::kFile, "/b", "bee"}},
      {{NodeType::kFile, "/a/x", "payload"}, {NodeType::kFile, "/b", "bee"}},
      {{NodeType::kFile, "/b", "bee"},
       {NodeType::kDirectory, "/a", ""},
       {NodeType::kFile, "/a/x", "payload"}},
  };
  for (std::size_t i = 0; i < spellings.size(); ++i) {
    const std::vector<std::uint8_t> raw = EncodeRaw(spellings[i]);
    ASSERT_NE(raw, want);
    const std::uint64_t before = Serializer::tree_encodes();
    auto parsed = Serializer::Parse(raw);
    ASSERT_TRUE(parsed.ok()) << i << ": " << parsed.status().ToString();
    EXPECT_EQ(Serializer::tree_encodes(), before + 1) << i;
    EXPECT_EQ(*parsed->stream(), want) << i;
    auto data = parsed->ReadFile("/a/x", 0, 7);
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(*data, Bytes("payload"));
  }
}

// Property sweep: random trees round-trip byte-identically.
class SerializerFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SerializerFuzz, RandomTreeRoundTrip) {
  Rng rng(GetParam());
  Image image("fuzz-" + std::to_string(GetParam()), kGB);
  const char* dirs[] = {"/a", "/a/b", "/c", "/c/d/e", "/f"};
  for (int i = 0; i < 40; ++i) {
    std::string dir = dirs[rng.Below(5)];
    std::string path = dir + "/file" + std::to_string(i);
    std::vector<std::uint8_t> data(rng.Below(5000));
    for (auto& b : data) {
      b = static_cast<std::uint8_t>(rng.Next());
    }
    const std::uint64_t logical = data.size() + rng.Below(3) * 1000;
    ROS_CHECK(image.AddFile(path, data, logical).ok());
  }
  image.Close();

  auto bytes = Serializer::Serialize(image);
  auto parsed = Serializer::Parse(bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(Serializer::Serialize(*parsed), bytes);
  EXPECT_EQ(parsed->file_count(), image.file_count());
  EXPECT_EQ(parsed->used_bytes(), image.used_bytes());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializerFuzz, ::testing::Range(1, 9));

}  // namespace
}  // namespace ros::udf
