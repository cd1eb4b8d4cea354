// Regenerates the checked-in seed corpus under fuzz/corpus/.
//
// Usage: ros_make_seed_corpus <corpus-dir>
//
// The seeds are *valid* artifacts produced by the real encoders (plus a few
// hand-written edge cases), so mutation starts from deep inside the accept
// language of each parser. Regression inputs for specific fixed bugs are
// crafted by tests / past fuzz runs and live next to these seeds; this tool
// never deletes files, it only (re)writes the generated ones.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/olfs/audit.h"
#include "src/olfs/index_file.h"
#include "src/olfs/mv_log.h"
#include "src/olfs/mv_segment.h"
#include "src/olfs/placement.h"
#include "src/udf/serializer.h"

namespace fs = std::filesystem;

namespace {

void WriteBytes(const fs::path& path, const std::vector<std::uint8_t>& data) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

void WriteText(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-dir>\n", argv[0]);
    return 2;
  }
  const fs::path root = argv[1];
  fs::create_directories(root / "json");
  fs::create_directories(root / "index");
  fs::create_directories(root / "udf");
  fs::create_directories(root / "mvlog");
  fs::create_directories(root / "audit");
  fs::create_directories(root / "routes");

  // --- json seeds ---
  WriteText(root / "json" / "seed_scalars.json",
            R"({"i":42,"neg":-7,"d":3.25,"b":true,"n":null,"s":"hi"})");
  WriteText(root / "json" / "seed_nested.json",
            R"({"a":[1,[2,[3,[4]]]],"o":{"k":{"k":{"k":[]}}}})");
  WriteText(root / "json" / "seed_escapes.json",
            "{\"e\":\"line\\nquote\\\"u\\u0041tab\\t\",\"u\":\"\\u00e9\\u4e2d\"}");
  WriteText(root / "json" / "seed_numbers.json",
            R"([0,-1,9223372036854775807,-9223372036854775808,1e10,1.5e-3,0.0])");

  // --- index-file seeds (emitted by the real encoder) ---
  {
    ros::olfs::IndexFile simple("/docs/report.pdf",
                                ros::olfs::EntryType::kFile);
    ros::olfs::VersionEntry v;
    v.location = ros::olfs::LocationKind::kBucket;
    v.total_size = 1234;
    v.parts.push_back({"img-0001", 1234});
    simple.AddVersion(v, /*max_entries=*/15);
    WriteText(root / "index" / "seed_simple.json", simple.ToJson());
  }
  {
    // Wrapped 15-entry ring with tier promotions, split parts, a tombstone
    // and a forepart — every field the decoder knows about.
    ros::olfs::IndexFile rich("/photos/2016/trip.raw",
                              ros::olfs::EntryType::kFile);
    for (int i = 0; i < 18; ++i) {
      ros::olfs::VersionEntry v;
      v.location = i % 3 == 0 ? ros::olfs::LocationKind::kDisc
                  : i % 3 == 1 ? ros::olfs::LocationKind::kImage
                               : ros::olfs::LocationKind::kBucket;
      v.total_size = 1000 + static_cast<std::uint64_t>(i) * 77;
      v.parts.push_back({"img-" + std::to_string(i), 500});
      v.parts.push_back({"img-" + std::to_string(i) + "b",
                         500 + static_cast<std::uint64_t>(i) * 77});
      v.tombstone = i == 16;
      rich.AddVersion(v, /*max_entries=*/15);
    }
    rich.set_forepart({0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01});
    WriteText(root / "index" / "seed_ring_wrapped.json", rich.ToJson());
  }
  {
    ros::olfs::IndexFile dir("/docs", ros::olfs::EntryType::kDirectory);
    WriteText(root / "index" / "seed_directory.json", dir.ToJson());
  }

  // --- udf image seeds (emitted by the real serializer) ---
  {
    ros::udf::Image img("img-seed-small", 1 << 20);
    (void)img.AddFile("/a.txt", {'h', 'i'});
    (void)img.MakeDirs("/docs/sub");
    img.Close();
    WriteBytes(root / "udf" / "seed_small.bin",
               ros::udf::Serializer::Serialize(img));
  }
  {
    ros::udf::Image img("img-seed-tree", 8 << 20);
    (void)img.MakeDirs("/photos/2016");
    (void)img.AddFile("/photos/2016/a.jpg",
                      std::vector<std::uint8_t>(300, 0xAB));
    // Sparse payload: logical size beyond the stored bytes.
    (void)img.AddFile("/photos/2016/b.jpg",
                      std::vector<std::uint8_t>(10, 0xCD), 5000);
    (void)img.AddLink("/photos/2016/c.jpg#link", "img-elsewhere");
    (void)img.AddFile("/readme", {});
    img.Close();
    WriteBytes(root / "udf" / "seed_tree.bin",
               ros::udf::Serializer::Serialize(img));
  }
  {
    // MV snapshot-shaped image (§4.2): index files burned under /.mv.
    ros::udf::Image img("img-seed-mv", 4 << 20);
    ros::olfs::IndexFile idx("/docs/x", ros::olfs::EntryType::kFile);
    ros::olfs::VersionEntry v;
    v.total_size = 9;
    v.parts.push_back({"img-seed-mv", 9});
    idx.AddVersion(v, 15);
    const std::string idx_json = idx.ToJson();
    (void)img.AddFile("/.mv/docs/x#idx",
                      std::vector<std::uint8_t>(idx_json.begin(),
                                                idx_json.end()));
    img.Close();
    WriteBytes(root / "udf" / "seed_mv_snapshot.bin",
               ros::udf::Serializer::Serialize(img));
  }

  // --- log-structured MV seeds (WAL streams + segment images) ---
  {
    // A WAL stream as the group-commit writer lands it: puts, a state
    // write, a tombstone. Keys carry the store's real domain prefixes.
    ros::olfs::IndexFile idx("/docs/a", ros::olfs::EntryType::kFile);
    ros::olfs::VersionEntry v;
    v.total_size = 42;
    v.parts.push_back({"img-0007", 42});
    idx.AddVersion(v, 15);
    std::vector<std::uint8_t> wal;
    ros::olfs::mvlog::AppendRecord(
        {ros::olfs::mvlog::RecordType::kPut, "i/docs/a", idx.ToJson()},
        &wal);
    ros::olfs::mvlog::AppendRecord(
        {ros::olfs::mvlog::RecordType::kPutState, "s/burn/cursor",
         "{\"at\":7}"},
        &wal);
    ros::olfs::mvlog::AppendRecord(
        {ros::olfs::mvlog::RecordType::kRemove, "i/docs/a", ""}, &wal);
    WriteBytes(root / "mvlog" / "seed_wal_stream.bin", wal);

    // The same stream torn mid-record: the shape crash replay must handle.
    std::vector<std::uint8_t> torn(wal.begin(), wal.end() - 9);
    WriteBytes(root / "mvlog" / "seed_wal_torn.bin", torn);
  }
  {
    // A segment image as the memtable flusher writes it: sorted records,
    // real header/footer/CRCs.
    ros::olfs::mvseg::SegmentBuilder builder(/*rank=*/3, /*id=*/12);
    builder.Add({ros::olfs::mvlog::RecordType::kPut, "i/docs/a", "{}"});
    builder.Add({ros::olfs::mvlog::RecordType::kPut, "i/docs/b",
                 "{\"entries\":[]}"});
    builder.Add({ros::olfs::mvlog::RecordType::kRemove, "i/docs/c", ""});
    builder.Add({ros::olfs::mvlog::RecordType::kPutState, "s/gc", "1"});
    const std::vector<std::uint8_t> seg = std::move(builder).Finish();
    WriteBytes(root / "mvlog" / "seed_segment.bin", seg);

    // Truncated footer: written-to-completion proof missing.
    std::vector<std::uint8_t> cut(seg.begin(), seg.end() - 5);
    WriteBytes(root / "mvlog" / "seed_segment_truncated.bin", cut);

    // One flipped payload bit: per-record CRC must catch it.
    std::vector<std::uint8_t> flipped = seg;
    flipped[flipped.size() / 2] ^= 0x10;
    WriteBytes(root / "mvlog" / "seed_segment_bitflip.bin", flipped);
  }
  {
    // Empty segment (header + footer only) — a legal degenerate image.
    ros::olfs::mvseg::SegmentBuilder builder(/*rank=*/1, /*id=*/1);
    WriteBytes(root / "mvlog" / "seed_segment_empty.bin",
               std::move(builder).Finish());
  }

  // --- audit-manifest seeds (emitted by the real codec) ---
  // One set per format version: v1 (FNV-1a leaves) manifests are still
  // read back from older MVs, v2 (XXH64 leaves) is what burns write now.
  for (const std::uint32_t version :
       {ros::olfs::kAuditV1, ros::olfs::kAuditV2}) {
    const fs::path dir = root / "audit";
    const std::string prefix = "seed_v" + std::to_string(version) + "_";
    // A RAID-6-shaped array: two data members, P and Q, with real leaf
    // hashes over distinct synthetic streams.
    ros::olfs::AuditManifest manifest;
    manifest.version = version;
    manifest.tray_index = 3;
    manifest.leaf_bytes = 64;
    const char* ids[] = {"img-0001", "img-0002", "img-0001-P", "img-0001-Q"};
    for (int m = 0; m < 4; ++m) {
      std::vector<std::uint8_t> stream(150 + m * 37);
      for (std::size_t i = 0; i < stream.size(); ++i) {
        stream[i] = static_cast<std::uint8_t>(i * 7 + m * 13);
      }
      ros::olfs::AuditMember member;
      member.image_id = ids[m];
      member.stream_bytes = stream.size();
      member.leaves =
          ros::olfs::AuditLeafHashes(stream, manifest.leaf_bytes, version);
      member.root = ros::olfs::AuditMerkleRoot(member.leaves);
      manifest.members.push_back(std::move(member));
    }
    manifest.array_root = ros::olfs::AuditArrayRoot(manifest);
    const std::vector<std::uint8_t> blob =
        ros::olfs::SerializeAuditManifest(manifest);
    WriteBytes(dir / (prefix + "array.bin"), blob);

    // Truncated mid-leaf-table: the parser must reject it cleanly.
    std::vector<std::uint8_t> cut(blob.begin(), blob.end() - 11);
    WriteBytes(dir / (prefix + "truncated.bin"), cut);

    // One flipped leaf-hash bit: CRC (or a root recompute) must catch it.
    std::vector<std::uint8_t> flipped = blob;
    flipped[flipped.size() / 2] ^= 0x04;
    WriteBytes(dir / (prefix + "bitflip.bin"), flipped);

    // Degenerate but legal shapes: an empty array and an empty member.
    ros::olfs::AuditManifest empty_array;
    empty_array.version = version;
    empty_array.tray_index = 0;
    empty_array.leaf_bytes = 4096;
    empty_array.array_root = ros::olfs::AuditArrayRoot(empty_array);
    WriteBytes(dir / (prefix + "empty_array.bin"),
               ros::olfs::SerializeAuditManifest(empty_array));

    ros::olfs::AuditMember empty;
    empty.image_id = "img-empty";
    empty.root = ros::olfs::AuditMerkleRoot(empty.leaves);
    empty_array.members.push_back(std::move(empty));
    empty_array.array_root = ros::olfs::AuditArrayRoot(empty_array);
    WriteBytes(dir / (prefix + "empty_member.bin"),
               ros::olfs::SerializeAuditManifest(empty_array));
  }

  // --- routing-shard seeds (emitted by RoutingTable::ShardToJson) ---
  // A 4-rack table of standard and replicated buckets; every shard that
  // holds a route is one seed, plus one empty shard.
  {
    ros::olfs::RoutingTable table;
    for (int i = 0; i < 12; ++i) {
      ros::olfs::BucketRoute route;
      route.primary = i % 4;
      if (i % 3 == 0) {
        route.mirror = (i + 1) % 4;
        route.cls = ros::olfs::BucketClass::kReplicated;
      }
      route.bytes = static_cast<std::uint64_t>(i) * 65536;
      route.ops = static_cast<std::uint64_t>(i) * 7;
      table.Insert("bucket" + std::to_string(i), route);
    }
    bool wrote_empty = false;
    for (int shard = 0; shard < ros::olfs::RoutingTable::kShards; ++shard) {
      const ros::json::Value doc = table.ShardToJson(shard);
      if (doc.as_object().empty()) {
        if (!wrote_empty) {
          WriteText(root / "routes" / "seed_empty_shard.json", doc.Dump());
          wrote_empty = true;
        }
        continue;
      }
      WriteText(root / "routes" /
                    ("seed_shard_" + std::to_string(shard) + ".json"),
                doc.Dump());
    }
  }

  std::printf("seed corpus written under %s\n", root.string().c_str());
  return 0;
}
