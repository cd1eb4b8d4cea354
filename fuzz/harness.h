// Shared fuzz-harness bodies for the durable-state deserializers.
//
// ROS's durability story (§4.4) rests on rebuilding the namespace from
// whatever bytes survive on media, so the MV JSON parser, the index-file
// decoder, and the UDF image deserializer must map *arbitrary* input to
// either a parsed value or a clean kDataLoss / kInvalidArgument status —
// never a crash, throw, or undefined behavior.
//
// Each harness returns normally on every input; any abort, uncaught
// exception, or sanitizer report is a bug. The same functions back three
// consumers:
//   - the libFuzzer entry points (fuzz/*_fuzzer.cc) when the compiler
//     provides -fsanitize=fuzzer;
//   - the standalone mutational driver (fuzz/standalone_driver.cc) used
//     with toolchains that lack libFuzzer (e.g. GCC);
//   - the tier-1 corpus replay test (tests/corpus_replay_test.cc), which
//     re-runs every checked-in corpus file on every ctest run.
#ifndef ROS_FUZZ_HARNESS_H_
#define ROS_FUZZ_HARNESS_H_

#include <cstddef>
#include <cstdint>

namespace ros::fuzz {

// ros::json::Parse + serialization idempotence.
void FuzzJson(const std::uint8_t* data, std::size_t size);

// olfs::IndexFile::FromJson + ToJson round trip + accessor probing.
void FuzzIndexFile(const std::uint8_t* data, std::size_t size);

// udf::Serializer::Parse + re-serialization idempotence.
void FuzzUdfImage(const std::uint8_t* data, std::size_t size);

// Log-structured MV parsers (mvlog::ScanRecords crash-replay scan +
// mvseg::ParseSegment strict parse): arbitrary bytes must terminate with a
// consistent clean prefix / a clean parse status, and everything accepted
// must round-trip through the encoders.
void FuzzMvLog(const std::uint8_t* data, std::size_t size);

// olfs::ParseAuditManifest (DESIGN.md §5j): arbitrary bytes parse to a
// fully root-verified manifest or fail with kInvalidArgument/kDataLoss,
// and every accepted manifest (version 1 or 2) re-serializes to the
// identical blob and re-parses under the same version.
void FuzzAuditManifest(const std::uint8_t* data, std::size_t size);

// olfs::RoutingTable::LoadShard (DESIGN.md §5k), the cluster's persisted
// bucket routes: any JSON shard document, loaded into each of the 16
// shards of a 4-rack table, fails with kInvalidArgument and leaves the
// shard as it was, or loads routes that Find reaches, that name racks of
// the table, that feed PlacementPolicy's ledger as ReloadRouting does,
// and that round-trip through ShardToJson.
void FuzzRouteShard(const std::uint8_t* data, std::size_t size);

// olfs::DecodeTrayManifest, the burned-tray manifest Cluster::RecoverRack
// rebuilds a rack from: any JSON document, decoded for a rack of 1 and of
// 2 rollers, fails with kDataLoss, or decodes to exactly one tray per
// entry, each inside the rack, and round-trips through
// EncodeTrayManifest.
void FuzzTrayManifest(const std::uint8_t* data, std::size_t size);

// olfs::DecodeCheckpoint, the controller checkpoint
// Maintenance::RestoreFromCheckpoint applies: any JSON document, decoded
// for a rack of 1 and of 2 rollers with two buffer volumes, fails with
// kDataLoss, or decodes every tray, image and member of its arrays, each
// inside the rack, and round-trips through EncodeCheckpoint.
void FuzzControllerCheckpoint(const std::uint8_t* data, std::size_t size);

}  // namespace ros::fuzz

#endif  // ROS_FUZZ_HARNESS_H_
