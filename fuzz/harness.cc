#include "fuzz/harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <span>
#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/olfs/audit.h"
#include "src/olfs/cluster.h"
#include "src/olfs/index_file.h"
#include "src/olfs/maintenance.h"
#include "src/olfs/mv_log.h"
#include "src/olfs/mv_segment.h"
#include "src/olfs/placement.h"
#include "src/udf/serializer.h"

namespace ros::fuzz {

namespace {

[[noreturn]] void Die(const char* what) {
  std::fprintf(stderr, "fuzz harness invariant failed: %s\n", what);
  std::abort();
}

void Require(bool cond, const char* what) {
  if (!cond) {
    Die(what);
  }
}

// Parsers must fail with a *parse-shaped* status. Anything else (say,
// kInternal) means an invariant broke while digesting corrupt input.
bool IsCleanParseFailure(const Status& status) {
  return status.code() == StatusCode::kInvalidArgument ||
         status.code() == StatusCode::kDataLoss;
}

}  // namespace

void FuzzJson(const std::uint8_t* data, std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  StatusOr<json::Value> parsed = json::Parse(text);
  if (!parsed.ok()) {
    Require(IsCleanParseFailure(parsed.status()),
            "json::Parse failed with a non-parse status");
    return;
  }
  // Serialization idempotence: Dump -> Parse -> Dump is a fixed point.
  // (Dump itself is not inverse to Parse: "1.0" re-parses as the integer 1.)
  const std::string dump1 = parsed->Dump();
  StatusOr<json::Value> reparsed = json::Parse(dump1);
  Require(reparsed.ok(), "Dump() of a parsed value does not re-parse");
  Require(reparsed->Dump() == dump1, "json Dump/Parse is not idempotent");
}

void FuzzIndexFile(const std::uint8_t* data, std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  StatusOr<olfs::IndexFile> parsed = olfs::IndexFile::FromJson(text);
  if (!parsed.ok()) {
    Require(IsCleanParseFailure(parsed.status()),
            "IndexFile::FromJson failed with a non-parse status");
    return;
  }
  // Probe the accessors a namespace rebuild would hit.
  (void)parsed->Latest();
  (void)parsed->Version(parsed->latest_version());
  (void)parsed->has_versions();
  (void)parsed->ApproximateSize();

  // Round trip: an accepted index file re-encodes to a stable fixed point.
  const std::string json1 = parsed->ToJson();
  StatusOr<olfs::IndexFile> reparsed = olfs::IndexFile::FromJson(json1);
  Require(reparsed.ok(), "ToJson() of an accepted index does not re-parse");
  Require(reparsed->ToJson() == json1,
          "IndexFile ToJson/FromJson is not idempotent");
}

void FuzzUdfImage(const std::uint8_t* data, std::size_t size) {
  const std::span<const std::uint8_t> bytes(data, size);
  StatusOr<udf::Image> parsed = udf::Serializer::Parse(bytes);
  if (!parsed.ok()) {
    Require(IsCleanParseFailure(parsed.status()),
            "Serializer::Parse failed with a non-parse status");
    return;
  }
  // Probe the read paths a disc scan uses: a whole-file read is the stored
  // payload followed by the sparse tail's zeros. The read stops a little
  // past the stored bytes so a hostile logical size cannot exhaust memory.
  // The same walk rebuilds the tree through the public API.
  constexpr std::uint64_t kTailProbe = 64 * 1024;
  udf::Image rebuilt(parsed->id(), parsed->capacity());
  std::uint64_t walked = 0;
  parsed->Walk([&](const std::string& path, const udf::Node& node) {
    ++walked;
    switch (node.type) {
      case udf::NodeType::kFile: {
        const std::span<const std::uint8_t> stored = parsed->FileBytes(node);
        Require(stored.size() <= node.logical_size,
                "stored payload exceeds logical size");
        StatusOr<std::vector<std::uint8_t>> read = parsed->ReadFile(
            path, 0,
            std::min<std::uint64_t>(node.logical_size,
                                    stored.size() + kTailProbe));
        Require(read.ok(), "ReadFile of a parsed file failed");
        Require(std::equal(stored.begin(), stored.end(), read->begin()),
                "ReadFile prefix differs from FileBytes");
        Require(std::all_of(read->begin() + static_cast<std::ptrdiff_t>(
                                                stored.size()),
                            read->end(), [](std::uint8_t b) { return b == 0; }),
                "sparse tail does not read as zeros");
        Require(rebuilt
                    .AddFile(path,
                             std::vector<std::uint8_t>(stored.begin(),
                                                       stored.end()),
                             node.logical_size)
                    .ok(),
                "parsed file does not rebuild");
        break;
      }
      case udf::NodeType::kLink:
        Require(rebuilt.AddLink(path, node.link_target_image).ok(),
                "parsed link does not rebuild");
        break;
      case udf::NodeType::kDirectory:
        Require(rebuilt.MakeDirs(path).ok(), "parsed directory does not rebuild");
        break;
    }
  });
  Require(walked >= parsed->file_count(), "Walk lost file nodes");

  // Parse keeps the input's bytes as the stream only when they are the
  // canonical encoding of the tree it read.
  const std::vector<std::uint8_t> ser1 = udf::Serializer::Serialize(*parsed);
  Require(udf::Serializer::Serialize(rebuilt) == ser1,
          "parsed image stream is not the canonical encoding of its tree");

  // Round trip: Serialize(Parse(x)) is a fixed point of Parse∘Serialize.
  StatusOr<udf::Image> reparsed = udf::Serializer::Parse(ser1);
  Require(reparsed.ok(), "re-serialized image does not parse");
  Require(udf::Serializer::Serialize(*reparsed) == ser1,
          "UDF Serialize/Parse is not idempotent");
}

void FuzzMvLog(const std::uint8_t* data, std::size_t size) {
  const std::span<const std::uint8_t> bytes(data, size);

  // Lenient WAL replay scan: arbitrary bytes are a legitimate "crashed
  // log". The scan must terminate and report a consistent clean prefix.
  std::vector<olfs::mvlog::Record> scanned;
  const olfs::mvlog::ScanStats stats = olfs::mvlog::ScanRecords(
      bytes, [&scanned](olfs::mvlog::Record record) {
        scanned.push_back(std::move(record));
      });
  Require(stats.records == scanned.size(), "WAL scan miscounted records");
  Require(stats.valid_bytes <= size, "WAL clean prefix past the buffer");
  Require(stats.torn == (stats.valid_bytes < size),
          "WAL torn flag inconsistent with the clean prefix");

  // The clean prefix is exactly the replayable part: re-scanning it sees
  // the same records and no tear.
  std::vector<olfs::mvlog::Record> rescanned;
  const olfs::mvlog::ScanStats again = olfs::mvlog::ScanRecords(
      bytes.first(stats.valid_bytes),
      [&rescanned](olfs::mvlog::Record record) {
        rescanned.push_back(std::move(record));
      });
  Require(!again.torn, "WAL clean prefix re-scan saw a tear");
  Require(rescanned == scanned, "WAL clean prefix re-scan diverged");

  // Every recovered record survives an encode/decode round trip. (Byte
  // identity is not required: the reserved flags byte re-encodes as zero.)
  std::vector<std::uint8_t> reencoded;
  for (const olfs::mvlog::Record& record : scanned) {
    olfs::mvlog::AppendRecord(record, &reencoded);
  }
  std::vector<olfs::mvlog::Record> decoded;
  const olfs::mvlog::ScanStats round = olfs::mvlog::ScanRecords(
      reencoded, [&decoded](olfs::mvlog::Record record) {
        decoded.push_back(std::move(record));
      });
  Require(!round.torn, "re-encoded WAL records do not decode");
  Require(decoded == scanned, "WAL record round trip is not lossless");

  // Strict segment parse over the same bytes: either a clean parse error
  // or a fully verified segment.
  olfs::mvseg::SegmentHeader header;
  std::vector<olfs::mvlog::Record> seg_records;
  Status parsed = olfs::mvseg::ParseSegment(
      bytes, &header,
      [&seg_records](olfs::mvlog::Record record, std::uint64_t,
                     std::uint32_t) {
        seg_records.push_back(std::move(record));
      });
  if (!parsed.ok()) {
    Require(IsCleanParseFailure(parsed),
            "ParseSegment failed with a non-parse status");
    return;
  }
  Require(header.count == seg_records.size(),
          "segment header count disagrees with parsed records");
  for (std::size_t i = 0; i + 1 < seg_records.size(); ++i) {
    Require(seg_records[i].key < seg_records[i + 1].key,
            "accepted segment records are not strictly increasing");
  }

  // An accepted segment rebuilds (same rank/id) into an image that parses
  // back to the same records.
  olfs::mvseg::SegmentBuilder builder(header.rank, header.id);
  for (const olfs::mvlog::Record& record : seg_records) {
    builder.Add(record);
  }
  const std::vector<std::uint8_t> image = std::move(builder).Finish();
  olfs::mvseg::SegmentHeader header2;
  std::vector<olfs::mvlog::Record> rebuilt;
  Status reparsed = olfs::mvseg::ParseSegment(
      image, &header2,
      [&rebuilt](olfs::mvlog::Record record, std::uint64_t, std::uint32_t) {
        rebuilt.push_back(std::move(record));
      });
  Require(reparsed.ok(), "rebuilt segment does not parse");
  Require(header2.rank == header.rank && header2.id == header.id,
          "rebuilt segment header diverged");
  Require(rebuilt == seg_records, "segment rebuild is not lossless");
}

void FuzzAuditManifest(const std::uint8_t* data, std::size_t size) {
  const std::span<const std::uint8_t> bytes(data, size);
  StatusOr<olfs::AuditManifest> parsed = olfs::ParseAuditManifest(bytes);
  if (!parsed.ok()) {
    Require(IsCleanParseFailure(parsed.status()),
            "ParseAuditManifest failed with a non-parse status");
    return;
  }
  Require(parsed->version == olfs::kAuditV1 ||
              parsed->version == olfs::kAuditV2,
          "accepted audit manifest has an unknown version");
  // Accepted manifests are internally verified: stored member roots and
  // the array root must recompute from the stored leaves.
  for (const olfs::AuditMember& member : parsed->members) {
    Require(olfs::AuditMerkleRoot(member.leaves) == member.root,
            "accepted audit member root does not recompute");
  }
  Require(olfs::AuditArrayRoot(*parsed) == parsed->array_root,
          "accepted audit array root does not recompute");

  // The codec is canonical: Serialize(Parse(x)) == x byte for byte.
  const std::vector<std::uint8_t> ser1 =
      olfs::SerializeAuditManifest(*parsed);
  Require(ser1.size() == size, "audit manifest re-serialized size differs");
  Require(std::equal(ser1.begin(), ser1.end(), bytes.begin()),
          "audit manifest codec is not canonical");
  StatusOr<olfs::AuditManifest> reparsed = olfs::ParseAuditManifest(ser1);
  Require(reparsed.ok(), "re-serialized audit manifest does not parse");
  Require(reparsed->version == parsed->version,
          "re-serialized audit manifest changed its version");
}

void FuzzRouteShard(const std::uint8_t* data, std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  StatusOr<json::Value> doc = json::Parse(text);
  if (!doc.ok()) {
    return;
  }
  constexpr int kRacks = 4;
  for (int shard = 0; shard < olfs::RoutingTable::kShards; ++shard) {
    // One existing route in the shard, which a rejected load must keep.
    olfs::RoutingTable table;
    for (int i = 0;; ++i) {
      const std::string bucket = "existing" + std::to_string(i);
      if (olfs::RoutingTable::ShardOf(bucket) == shard) {
        olfs::BucketRoute route;
        route.primary = 1;
        route.bytes = 5;
        table.Insert(bucket, route);
        break;
      }
    }
    const json::Value before = table.ShardToJson(shard);
    Status loaded = table.LoadShard(shard, *doc, kRacks);
    if (!loaded.ok()) {
      Require(loaded.code() == StatusCode::kInvalidArgument,
              "LoadShard failed with a non-parse status");
      Require(table.ShardToJson(shard) == before,
              "rejected routing shard changed the table");
      continue;
    }
    olfs::PlacementPolicy policy(kRacks, /*affinity_headroom_bytes=*/0);
    std::size_t routes = 0;
    table.ForEach([&](const std::string& bucket,
                      const olfs::BucketRoute& route) {
      ++routes;
      Require(table.Find(bucket) == &route,
              "accepted route is not reachable through Find");
      Require(route.primary >= 0 && route.primary < kRacks,
              "accepted route has a primary outside the racks");
      Require(route.mirror >= -1 && route.mirror < kRacks,
              "accepted route has a mirror outside the racks");
      // ReloadRouting's ledger rebuild.
      policy.NoteRouted(route.primary, route.bytes);
      if (route.mirror >= 0) {
        policy.NoteRouted(route.mirror, route.bytes);
      }
    });
    Require(routes == doc->as_object().size(),
            "accepted routing shard lost or gained routes");
    const json::Value saved = table.ShardToJson(shard);
    olfs::RoutingTable reloaded;
    Require(reloaded.LoadShard(shard, saved, kRacks).ok(),
            "saved routing shard does not load");
    Require(reloaded.ShardToJson(shard) == saved,
            "routing shard does not round-trip");
  }
}

void FuzzTrayManifest(const std::uint8_t* data, std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  StatusOr<json::Value> doc = json::Parse(text);
  if (!doc.ok()) {
    return;
  }
  for (int rollers : {1, 2}) {
    auto trays = olfs::DecodeTrayManifest(*doc, rollers);
    if (!trays.ok()) {
      Require(trays.status().code() == StatusCode::kDataLoss,
              "DecodeTrayManifest failed with a non-data-loss status");
      continue;
    }
    Require(trays->size() == doc->as_array().size(),
            "decoded tray manifest lost or gained trays");
    std::set<int> indices;
    for (const mech::TrayAddress& tray : *trays) {
      Require(tray.IsValid(rollers), "decoded tray is outside the rack");
      indices.insert(tray.ToIndex());
    }
    const json::Value saved = olfs::EncodeTrayManifest(indices);
    auto reloaded = olfs::DecodeTrayManifest(saved, rollers);
    Require(reloaded.ok(), "encoded tray manifest does not decode");
    std::set<int> reloaded_indices;
    for (const mech::TrayAddress& tray : *reloaded) {
      reloaded_indices.insert(tray.ToIndex());
    }
    Require(reloaded_indices == indices, "tray manifest does not round-trip");
  }
}

void FuzzControllerCheckpoint(const std::uint8_t* data, std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  StatusOr<json::Value> doc = json::Parse(text);
  if (!doc.ok()) {
    return;
  }
  // A rack's two RAID-5 buffer volumes (§3.3).
  constexpr int kVolumes = 2;
  for (int rollers : {1, 2}) {
    auto decoded = olfs::DecodeCheckpoint(*doc, rollers, kVolumes);
    if (!decoded.ok()) {
      Require(decoded.status().code() == StatusCode::kDataLoss,
              "DecodeCheckpoint failed with a non-data-loss status");
      continue;
    }
    Require(decoded->da_used.size() == (*doc)["da_used"].as_array().size() &&
                decoded->da_failed.size() ==
                    (*doc)["da_failed"].as_array().size() &&
                decoded->images.size() == (*doc)["images"].as_array().size(),
            "decoded checkpoint lost or gained trays or images");
    for (const auto* trays : {&decoded->da_used, &decoded->da_failed}) {
      for (const mech::TrayAddress& tray : *trays) {
        Require(tray.IsValid(rollers), "decoded tray is outside the rack");
      }
    }
    Require(decoded->bucket_counter >= 0, "decoded a negative counter");
    for (const olfs::ImageRecord& record : decoded->images) {
      Require(record.volume_index >= 0 && record.volume_index < kVolumes,
              "decoded image names a missing buffer volume");
      Require(!record.disc.has_value() || record.disc->IsValid(rollers),
              "decoded image disc is outside the rack");
      Require(record.tier != olfs::ImageTier::kOpenBucket,
              "decoded an open bucket");
    }
    const json::Value saved = olfs::EncodeCheckpoint(*decoded);
    auto reloaded = olfs::DecodeCheckpoint(saved, rollers, kVolumes);
    Require(reloaded.ok(), "encoded checkpoint does not decode");
    Require(olfs::EncodeCheckpoint(*reloaded) == saved,
            "controller checkpoint does not round-trip");
  }
}

}  // namespace ros::fuzz
