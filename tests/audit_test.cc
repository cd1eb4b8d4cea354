// Audit manifest codec + Merkle math (DESIGN.md §5j). The unit tests prove
// the hash tree behaves and that the binary parser fails *cleanly* on
// arbitrary damage — the same contract the fuzz harness
// (FuzzAuditManifest) hammers continuously. The physical (sampled-read)
// verification path lives in preservation_test.cc; the full-stack tests
// here cover only the format versions: a v1 manifest already in the MV
// must keep verifying under its own leaf hash.
#include "src/olfs/audit.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/olfs/olfs.h"

namespace ros::olfs {
namespace {

std::vector<std::uint8_t> RandomBytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  return out;
}

AuditManifest SampleManifest(std::uint32_t version = kAuditCurrentVersion) {
  AuditManifest manifest;
  manifest.version = version;
  manifest.tray_index = 7;
  manifest.leaf_bytes = 1024;
  for (int m = 0; m < 3; ++m) {
    AuditMember member;
    member.image_id = "img-" + std::to_string(m);
    const auto stream = RandomBytes(3000 + m * 500, 40 + m);
    member.stream_bytes = stream.size();
    member.leaves = AuditLeafHashes(
        std::span<const std::uint8_t>(stream.data(), stream.size()),
        manifest.leaf_bytes, version);
    member.root = AuditMerkleRoot(member.leaves);
    manifest.members.push_back(std::move(member));
  }
  // An empty member (zero-byte image) must still chain.
  AuditMember empty;
  empty.image_id = "img-empty";
  empty.root = AuditMerkleRoot(empty.leaves);
  manifest.members.push_back(std::move(empty));
  manifest.array_root = AuditArrayRoot(manifest);
  return manifest;
}

TEST(AuditMerkle, LeafHashingCoversEveryChunkBoundary) {
  const auto stream = RandomBytes(2500, 1);
  const std::span<const std::uint8_t> view(stream.data(), stream.size());
  // 1024-byte leaves over 2500 bytes: 1024 + 1024 + 452.
  auto leaves = AuditLeafHashes(view, 1024);
  ASSERT_EQ(leaves.size(), 3u);
  EXPECT_EQ(leaves[0], AuditHashLeaf(view.subspan(0, 1024)));
  EXPECT_EQ(leaves[1], AuditHashLeaf(view.subspan(1024, 1024)));
  EXPECT_EQ(leaves[2], AuditHashLeaf(view.subspan(2048, 452)));
  // Exact multiple: no ragged tail leaf.
  EXPECT_EQ(AuditLeafHashes(view.subspan(0, 2048), 1024).size(), 2u);
  // leaf_bytes=0 is the disabled configuration: no leaves at all.
  EXPECT_TRUE(AuditLeafHashes(view, 0).empty());
}

TEST(AuditMerkle, LeafHashFollowsTheVersion) {
  const auto chunk = RandomBytes(5000, 2);
  const std::span<const std::uint8_t> view(chunk.data(), chunk.size());
  EXPECT_EQ(AuditHashLeaf(view, kAuditV1), Fnv1a64(view));
  EXPECT_EQ(AuditHashLeaf(view, kAuditV2), Xxh64(view));
  EXPECT_EQ(AuditHashLeaf(view), AuditHashLeaf(view, kAuditV2));
  EXPECT_EQ(AuditLeafHashes(view, 1024, kAuditV1)[4],
            Fnv1a64(view.subspan(4096)));
  EXPECT_EQ(AuditLeafHashes(view, 1024)[4], Xxh64(view.subspan(4096)));
  EXPECT_EQ(AuditManifest{}.version, kAuditV2);
}

TEST(AuditMerkle, RootPropertiesHoldForAllShapes) {
  // Empty tree: fixed sentinel.
  EXPECT_EQ(AuditMerkleRoot({}), 0xCBF29CE484222325ull);
  // Single leaf is its own root.
  EXPECT_EQ(AuditMerkleRoot({42}), 42u);
  // Order matters: swapping leaves changes the root.
  EXPECT_NE(AuditMerkleRoot({1, 2}), AuditMerkleRoot({2, 1}));
  // Any single-leaf change propagates to the root, including the odd
  // promoted node.
  const std::vector<std::uint64_t> base = {10, 20, 30, 40, 50};
  const std::uint64_t root = AuditMerkleRoot(base);
  for (std::size_t i = 0; i < base.size(); ++i) {
    std::vector<std::uint64_t> flipped = base;
    flipped[i] ^= 1;
    EXPECT_NE(AuditMerkleRoot(flipped), root) << "leaf " << i;
  }
  // Deterministic.
  EXPECT_EQ(AuditMerkleRoot(base), root);
}

TEST(AuditCodec, RoundTripPreservesEveryField) {
  const AuditManifest manifest = SampleManifest();
  const std::vector<std::uint8_t> blob = SerializeAuditManifest(manifest);
  auto parsed = ParseAuditManifest(
      std::span<const std::uint8_t>(blob.data(), blob.size()));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->tray_index, manifest.tray_index);
  EXPECT_EQ(parsed->leaf_bytes, manifest.leaf_bytes);
  EXPECT_EQ(parsed->array_root, manifest.array_root);
  ASSERT_EQ(parsed->members.size(), manifest.members.size());
  for (std::size_t m = 0; m < manifest.members.size(); ++m) {
    EXPECT_EQ(parsed->members[m].image_id, manifest.members[m].image_id);
    EXPECT_EQ(parsed->members[m].stream_bytes,
              manifest.members[m].stream_bytes);
    EXPECT_EQ(parsed->members[m].leaves, manifest.members[m].leaves);
    EXPECT_EQ(parsed->members[m].root, manifest.members[m].root);
  }
  // Serialize(Parse(x)) == x: the codec is canonical.
  EXPECT_EQ(SerializeAuditManifest(*parsed), blob);
}

TEST(AuditCodec, RoundTripKeepsTheVersion) {
  for (std::uint32_t version : {kAuditV1, kAuditV2}) {
    const AuditManifest manifest = SampleManifest(version);
    const std::vector<std::uint8_t> blob = SerializeAuditManifest(manifest);
    auto parsed = ParseAuditManifest(
        std::span<const std::uint8_t>(blob.data(), blob.size()));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->version, version);
    EXPECT_EQ(parsed->members[0].leaves, manifest.members[0].leaves);
    EXPECT_EQ(SerializeAuditManifest(*parsed), blob);
  }
  // The two versions differ in the leaves they carry, not in size.
  EXPECT_NE(SampleManifest(kAuditV1).members[0].leaves,
            SampleManifest(kAuditV2).members[0].leaves);
  EXPECT_EQ(SerializeAuditManifest(SampleManifest(kAuditV1)).size(),
            SerializeAuditManifest(SampleManifest(kAuditV2)).size());
}

// A well-formed manifest (valid CRC and roots) under an unknown version
// names a leaf hash the reader does not have: a structural rejection.
TEST(AuditCodec, UnknownVersionsAreInvalidArgument) {
  for (std::uint32_t version : {0u, 3u}) {
    AuditManifest manifest = SampleManifest();
    manifest.version = version;
    const std::vector<std::uint8_t> blob = SerializeAuditManifest(manifest);
    auto parsed = ParseAuditManifest(
        std::span<const std::uint8_t>(blob.data(), blob.size()));
    ASSERT_FALSE(parsed.ok()) << "version " << version;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
        << "version " << version << ": " << parsed.status().ToString();
  }
}

TEST(AuditCodec, EveryTruncationFailsCleanly) {
  const std::vector<std::uint8_t> blob =
      SerializeAuditManifest(SampleManifest());
  for (std::size_t n = 0; n < blob.size(); ++n) {
    auto parsed = ParseAuditManifest(
        std::span<const std::uint8_t>(blob.data(), n));
    ASSERT_FALSE(parsed.ok()) << "prefix " << n;
    const StatusCode code = parsed.status().code();
    EXPECT_TRUE(code == StatusCode::kInvalidArgument ||
                code == StatusCode::kDataLoss)
        << "prefix " << n << ": " << parsed.status().ToString();
  }
}

TEST(AuditCodec, EveryBitflipIsDetected) {
  const std::vector<std::uint8_t> blob =
      SerializeAuditManifest(SampleManifest());
  for (std::size_t at = 0; at < blob.size(); ++at) {
    std::vector<std::uint8_t> bad = blob;
    bad[at] ^= 0x01;
    auto parsed = ParseAuditManifest(
        std::span<const std::uint8_t>(bad.data(), bad.size()));
    ASSERT_FALSE(parsed.ok()) << "flip at " << at;
    const StatusCode code = parsed.status().code();
    EXPECT_TRUE(code == StatusCode::kInvalidArgument ||
                code == StatusCode::kDataLoss)
        << "flip at " << at << ": " << parsed.status().ToString();
  }
}

// A manifest whose stored hashes do not recompute proves nothing, even
// when its CRC is intact: the parser must reject it as data loss.
TEST(AuditCodec, InternallyInconsistentRootsAreDataLoss) {
  AuditManifest lying = SampleManifest();
  lying.members[0].root ^= 1;  // no longer matches its own leaves
  lying.array_root = AuditArrayRoot(lying);  // keep the outer chain valid
  const std::vector<std::uint8_t> blob = SerializeAuditManifest(lying);
  auto parsed = ParseAuditManifest(
      std::span<const std::uint8_t>(blob.data(), blob.size()));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss);

  AuditManifest wrong_array = SampleManifest();
  wrong_array.array_root ^= 1;
  const std::vector<std::uint8_t> blob2 =
      SerializeAuditManifest(wrong_array);
  auto parsed2 = ParseAuditManifest(
      std::span<const std::uint8_t>(blob2.data(), blob2.size()));
  ASSERT_FALSE(parsed2.ok());
  EXPECT_EQ(parsed2.status().code(), StatusCode::kDataLoss);
}

// ------------------------------------------------------------------
// Full stack: manifests of both versions in the MV, verified by RunAudit.
// ------------------------------------------------------------------

std::string HexEncode(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

class AuditVersionTest : public ::testing::Test {
 protected:
  AuditVersionTest() {
    OlfsParams params;
    params.disc_type = drive::DiscType::kBdr25;
    params.disc_capacity_override = 16 * kMiB;
    params.read_cache_bytes = 0;  // force optical reads
    params.audit_leaf_bytes = 4 * kKiB;
    system_ = std::make_unique<RosSystem>(sim_, TestSystemConfig());
    olfs_ = std::make_unique<Olfs>(sim_, system_.get(), params);
    olfs_->burns().burn_start_interval = sim::Seconds(1);
  }
  ~AuditVersionTest() override { sim_.Shutdown(); }

  // Writes one file and burns it, so it gets an array (and manifest) of
  // its own.
  void BurnFile(const std::string& path, std::uint64_t seed) {
    const auto data = RandomBytes(48 * kKiB, seed);
    ASSERT_TRUE(
        sim_.RunUntilComplete(olfs_->Create(path, data, data.size())).ok());
    ASSERT_TRUE(sim_.RunUntilComplete(olfs_->FlushAndDrain()).ok());
  }

  std::vector<AuditManifest> Manifests() {
    auto manifests = sim_.RunUntilComplete(olfs_->audit().LoadManifests());
    ROS_CHECK(manifests.ok());
    return *manifests;
  }

  drive::Disc* DiscOf(const std::string& image_id) {
    auto record = olfs_->images().Lookup(image_id);
    ROS_CHECK(record.ok() && (*record)->disc.has_value());
    return olfs_->mech().DiscAt(*(*record)->disc);
  }

  // Rebuilds `manifest` from the burned media under `version`, the way
  // a build of that version would have hashed the same streams.
  AuditManifest Rehash(AuditManifest manifest, std::uint32_t version) {
    manifest.version = version;
    for (AuditMember& member : manifest.members) {
      auto stream = DiscOf(member.image_id)
                        ->ReadSession(member.image_id, 0, member.stream_bytes);
      ROS_CHECK(stream.ok());
      member.leaves = AuditLeafHashes(*stream, manifest.leaf_bytes, version);
      member.root = AuditMerkleRoot(member.leaves);
    }
    manifest.array_root = AuditArrayRoot(manifest);
    return manifest;
  }

  // Persists `manifest` over the registry's copy for its tray and points
  // the directory at its root, as an MV written by an older build holds.
  void Store(const AuditManifest& manifest) {
    const std::string tray = "t" + std::to_string(manifest.tray_index);
    const std::vector<std::uint8_t> blob = SerializeAuditManifest(manifest);
    ASSERT_TRUE(sim_.RunUntilComplete(olfs_->mv().PutState(
                                          "audit/" + tray,
                                          json::Value(HexEncode(blob))))
                    .ok());
    auto dir = sim_.RunUntilComplete(olfs_->mv().GetState("audit/dir"));
    ASSERT_TRUE(dir.ok());
    std::uint8_t root[8];
    for (int b = 0; b < 8; ++b) {
      root[b] = static_cast<std::uint8_t>(manifest.array_root >> (8 * b));
    }
    dir->as_object()[tray] = json::Value(HexEncode(root));
    ASSERT_TRUE(
        sim_.RunUntilComplete(olfs_->mv().PutState("audit/dir", *dir)).ok());
  }

  AuditReport Audit() {
    auto report = sim_.RunUntilComplete(olfs_->scrub().RunAudit(1.0, 5));
    ROS_CHECK(report.ok());
    return *report;
  }

  sim::Simulator sim_;
  std::unique_ptr<RosSystem> system_;
  std::unique_ptr<Olfs> olfs_;
};

TEST_F(AuditVersionTest, V1ManifestInTheMvAuditsClean) {
  BurnFile("/v1/a", 1);
  std::vector<AuditManifest> built = Manifests();
  ASSERT_EQ(built.size(), 1u);
  EXPECT_EQ(built[0].version, kAuditV2);  // new burns write v2 only

  Store(Rehash(built[0], kAuditV1));
  const std::vector<AuditManifest> stored = Manifests();
  ASSERT_EQ(stored.size(), 1u);
  EXPECT_EQ(stored[0].version, kAuditV1);
  EXPECT_NE(stored[0].array_root, built[0].array_root);

  const AuditReport report = Audit();
  EXPECT_EQ(report.manifests, 1);
  EXPECT_GT(report.leaves_sampled, 0u);
  EXPECT_EQ(report.mismatches, 0u);
  EXPECT_TRUE(report.damaged.empty());
}

TEST_F(AuditVersionTest, TamperedLeafUnderV1ManifestIsCaught) {
  BurnFile("/v1/b", 2);
  const AuditManifest v1 = Rehash(Manifests()[0], kAuditV1);
  Store(v1);
  const std::string victim = v1.members[0].image_id;
  ASSERT_TRUE(DiscOf(victim)->TamperSessionData(victim, 100, 0x40).ok());

  const AuditReport report = Audit();
  EXPECT_EQ(report.mismatches, 1u);
  ASSERT_EQ(report.damaged.size(), 1u);
  EXPECT_EQ(report.damaged[0], victim);
}

TEST_F(AuditVersionTest, MixedVersionsVerifyEachUnderItsOwnHash) {
  BurnFile("/mix/a", 3);
  BurnFile("/mix/b", 4);
  const std::vector<AuditManifest> built = Manifests();
  ASSERT_EQ(built.size(), 2u);
  Store(Rehash(built[0], kAuditV1));
  ASSERT_EQ(Manifests()[0].version, kAuditV1);
  ASSERT_EQ(Manifests()[1].version, kAuditV2);

  const AuditReport clean = Audit();
  EXPECT_EQ(clean.manifests, 2);
  EXPECT_EQ(clean.mismatches, 0u);

  // Relabel the v2 manifest as v1 without rehashing: its XXH64 leaves no
  // longer match the FNV-1a the audit now applies, so every member of that
  // array fails while the genuine v1 array still verifies.
  AuditManifest mislabeled = built[1];
  mislabeled.version = kAuditV1;
  Store(mislabeled);
  const AuditReport caught = Audit();
  EXPECT_EQ(caught.damaged.size(), built[1].members.size());
  for (const std::string& id : caught.damaged) {
    EXPECT_TRUE(std::any_of(
        built[1].members.begin(), built[1].members.end(),
        [&id](const AuditMember& member) { return member.image_id == id; }))
        << id;
  }
}

}  // namespace
}  // namespace ros::olfs
