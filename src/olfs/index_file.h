// MV index files (§4.2, §4.6).
//
// Every entry in the global namespace (file or directory) has an index file
// with the same name in the Metadata Volume. Index files carry no file
// data, only locations: a ring of up to 15 version entries, each recording
// whether the payload currently lives in an open Bucket ("B"), a disc
// Image in the disk buffer ("I"), or on a Disc ("D"), plus the ordered
// parts of a file that was split across buckets (§4.5). Index files are
// JSON for platform independence and interchangeability.
#ifndef ROS_SRC_OLFS_INDEX_FILE_H_
#define ROS_SRC_OLFS_INDEX_FILE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/common/status.h"

namespace ros::olfs {

// Where a version's payload lives. The transition B -> I -> D happens as
// buckets close into images and images burn onto discs; the index file is
// only rewritten on version changes, so readers resolve the current tier
// through the image id (see DiscImageStore).
enum class LocationKind { kBucket, kImage, kDisc };

// Version entries an index file keeps: a 1 KiB index block stores up to 15
// (§4.6).
inline constexpr int kMaxVersionEntries = 15;

char LocationCode(LocationKind kind);
StatusOr<LocationKind> LocationFromCode(char code);

// One contiguous piece of a (possibly split) file.
struct FilePart {
  std::string image_id;  // bucket/image/disc all share the image id
  std::uint64_t size = 0;

  friend bool operator==(const FilePart&, const FilePart&) = default;
};

struct VersionEntry {
  int version = 1;
  LocationKind location = LocationKind::kBucket;
  std::uint64_t total_size = 0;
  std::vector<FilePart> parts;
  bool tombstone = false;  // version marks a logical delete

  friend bool operator==(const VersionEntry&, const VersionEntry&) = default;
};

enum class EntryType { kFile, kDirectory };

class IndexFile {
 public:
  IndexFile() = default;
  IndexFile(std::string path, EntryType type)
      : path_(std::move(path)), type_(type) {}

  const std::string& path() const { return path_; }
  EntryType type() const { return type_; }

  const std::vector<VersionEntry>& entries() const { return entries_; }
  bool has_versions() const { return !entries_.empty(); }

  // The highest version number ever assigned (may exceed entries_.size()
  // once the 15-entry ring has wrapped, §4.6).
  int latest_version() const { return next_version_ - 1; }

  // Latest entry; error if the file has no versions or is deleted.
  StatusOr<const VersionEntry*> Latest() const;

  // Looks up a historic version still present in the ring.
  StatusOr<const VersionEntry*> Version(int version) const;

  // Appends a version; overwrites the oldest entry once `max_entries` are
  // recorded (the burned MV history still holds the old ones, §4.6).
  void AddVersion(VersionEntry entry, int max_entries);

  // Rewrites the entry numbered entry.version in place (a version grown
  // by appends); kNotFound once that version has left the ring.
  Status UpdateVersion(const VersionEntry& entry);

  // Forepart payload (§4.8), stored alongside the locations.
  void set_forepart(std::vector<std::uint8_t> data) {
    forepart_ = std::move(data);
  }
  const std::vector<std::uint8_t>& forepart() const { return forepart_; }

  // JSON round trip (the on-MV representation). ToJson is a hand-rolled
  // writer into one reserved buffer, byte-identical to dumping the
  // equivalent json::Value tree (deterministic key order — index bytes
  // feed parity, so stability matters).
  std::string ToJson() const;
  // Decodes `text`. Canonical documents (the exact shape ToJson emits) take
  // a scanner fast path that never builds a json::Value tree; everything
  // else — reordered keys, escapes, corruption — falls back to FromJsonTree,
  // so error behaviour and accepted inputs are identical to the tree
  // decoder on every input.
  static StatusOr<IndexFile> FromJson(std::string_view text);
  // The reference tree-based decoder (exposed for the differential tests
  // in index_file_test).
  static StatusOr<IndexFile> FromJsonTree(std::string_view text);

  // Approximate on-MV footprint in bytes (the paper quotes ~388 bytes
  // typical with one entry).
  std::uint64_t ApproximateSize() const { return ToJson().size(); }

 private:
  // Scanner-based decoder for canonical documents; nullopt means "shape
  // not recognized, use the tree decoder".
  static std::optional<IndexFile> FastParse(std::string_view text);

  std::string path_;
  EntryType type_ = EntryType::kFile;
  std::vector<VersionEntry> entries_;
  int next_version_ = 1;
  std::vector<std::uint8_t> forepart_;
};

}  // namespace ros::olfs

#endif  // ROS_SRC_OLFS_INDEX_FILE_H_
