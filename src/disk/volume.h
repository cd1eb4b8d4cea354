// A simple extent-based file volume — the library's stand-in for ext4.
//
// OLFS keeps its Metadata Volume (MV) on an ext4-formatted SSD RAID-1 with
// 1 KiB blocks and 128-byte inodes (§4.2), and its buckets/disc images on
// HDD RAID-5 volumes. Volume provides the pieces OLFS relies on: named
// files with extent allocation, block-granular space accounting, a
// journaling write-amplification model, and crash-consistent metadata via
// a superblock flush.
//
// The file table lives in memory for lookup speed (ext4's dentry/inode
// caches, §4.2); every data or metadata mutation still charges device I/O.
#ifndef ROS_SRC_DISK_VOLUME_H_
#define ROS_SRC_DISK_VOLUME_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/disk/block_device.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace ros::disk {

struct VolumeParams {
  std::uint64_t block_size = 4 * kKiB;
  std::uint64_t inode_size = 256;
  // Journaled metadata writes are doubled (journal + in-place), the default
  // ordered-mode behaviour.
  bool journal_metadata = true;
};

// Parameters the paper chooses for the MV (§4.2): 1 KiB blocks to keep
// ~15 version entries per index-file block, 128-byte inodes. ext4's
// journal commits batch asynchronously (the default 5 s commit interval),
// so individual metadata updates do not pay a second synchronous write.
inline VolumeParams MetadataVolumeParams() {
  return {.block_size = 1 * kKiB, .inode_size = 128,
          .journal_metadata = false};
}

class Volume {
 public:
  Volume(sim::Simulator& sim, BlockDevice* device, VolumeParams params = {});

  std::uint64_t block_size() const { return params_.block_size; }
  std::uint64_t used_blocks() const { return used_blocks_; }
  std::uint64_t free_bytes() const {
    return (total_blocks_ - used_blocks_) * params_.block_size;
  }
  std::uint64_t file_count() const { return files_.size(); }

  bool Exists(const std::string& name) const {
    return FindMeta(name) != nullptr;
  }
  StatusOr<std::uint64_t> FileSize(const std::string& name) const;

  // Names with `prefix`, in lexicographic order. Range-bounded: seeks to
  // the first matching name and stops at the first non-match instead of
  // scanning the whole file table.
  std::vector<std::string> List(const std::string& prefix = "") const;

  // Number of names with `prefix`, without materializing them.
  std::uint64_t CountPrefix(const std::string& prefix) const;

  // True when at least one name has `prefix` (O(log n)).
  bool AnyWithPrefix(const std::string& prefix) const;

  // Calls fn(name, size) for every file whose name starts with `prefix`,
  // in lexicographic order, without building a vector of names. `fn` must
  // not mutate the volume.
  template <typename Fn>
  void ForEachPrefix(const std::string& prefix, Fn&& fn) const {
    for (auto it = files_.lower_bound(prefix);
         it != files_.end() && NameHasPrefix(it->first, prefix); ++it) {
      fn(it->first, it->second.size);
    }
  }

  // Distinct next path segments after `prefix` (S3-style delimiter
  // listing), in lexicographic order. A name `prefix + "x"` with no
  // delimiter in "x" yields "x"; names under `prefix + "x" + delimiter`
  // are skipped as a whole subtree with one seek rather than being
  // visited and filtered one by one.
  std::vector<std::string> ListChildren(const std::string& prefix,
                                        char delimiter = '/') const;

  // Creates an empty file (one inode + a journaled metadata write).
  sim::Task<Status> Create(std::string name);

  // Writes at `offset` (extending the file as needed; holes read as zero).
  // A failed write does not grow the file: its size goes back to what it
  // was, unless another write has grown it since.
  sim::Task<Status> Write(std::string name, std::uint64_t offset,
                          std::vector<std::uint8_t> data);

  // One mutation: contiguous device requests and one metadata update (a
  // group commit of N WAL records lands as one append).
  sim::Task<Status> Append(std::string name,
                           std::vector<std::uint8_t> data);

  // Shrinks the file to `new_size` bytes, releasing whole blocks past the
  // boundary (crash recovery uses this to discard a torn log tail).
  // Growing is not supported: kOutOfRange.
  sim::Task<Status> Truncate(std::string name, std::uint64_t new_size);

  // Appends `data` followed by a zero tail up to `logical_len` total bytes.
  // The tail charges full write time but is not stored (sparse payloads of
  // PB-scale experiments; the tail reads back as zeros). As with Write, a
  // failed append does not grow the file.
  sim::Task<Status> AppendSparse(std::string name,
                                 std::vector<std::uint8_t> data,
                                 std::uint64_t logical_len);

  sim::Task<StatusOr<std::vector<std::uint8_t>>> Read(
      std::string name, std::uint64_t offset,
      std::uint64_t length) const;

  // Charges the read time of [offset, offset+length) without materializing
  // a buffer (streaming a sparse file for parity or burning).
  sim::Task<Status> ReadDiscard(std::string name, std::uint64_t offset,
                                std::uint64_t length) const;

  // Reads the whole file.
  sim::Task<StatusOr<std::vector<std::uint8_t>>> ReadAll(
      std::string name) const;

  // Overwrites the file with exactly `data` (truncating).
  sim::Task<Status> WriteAll(std::string name,
                             std::vector<std::uint8_t> data);

  sim::Task<Status> Delete(std::string name);

  // Drops every file (mkfs). Instant bookkeeping; devices keep stale bytes.
  void FormatQuick();

 private:
  struct Extent {
    std::uint64_t start_block;
    std::uint64_t blocks;
  };
  struct FileMeta {
    std::uint64_t size = 0;
    std::vector<Extent> extents;
  };

  static bool NameHasPrefix(const std::string& name,
                            const std::string& prefix) {
    return name.compare(0, prefix.size(), prefix) == 0;
  }

  // O(1) point lookup via the hash side-index (the ordered map would pay an
  // O(log n) walk with long-common-prefix string compares on every stat of
  // a big namespace). Pointers stay valid until the file is deleted:
  // std::map nodes never move.
  FileMeta* FindMeta(const std::string& name) {
    auto it = by_name_.find(name);
    return it == by_name_.end() ? nullptr : it->second;
  }
  const FileMeta* FindMeta(const std::string& name) const {
    auto it = by_name_.find(name);
    return it == by_name_.end() ? nullptr : it->second;
  }

  // Allocates `blocks` blocks, first-fit. Appends extents to `out`.
  Status Allocate(std::uint64_t blocks, std::vector<Extent>* out);
  void Free(const std::vector<Extent>& extents);

  // Charges a journaled inode/metadata update.
  sim::Task<Status> WriteMetadata();

  // Maps a byte range of a file onto device segments.
  Status MapRange(const FileMeta& meta, std::uint64_t offset,
                  std::uint64_t length,
                  std::vector<std::pair<std::uint64_t, std::uint64_t>>* segs)
      const;

  // The one write path: allocate, grow the size, write each device run,
  // charge one metadata update. An empty `data` charges the range without
  // storing it. A failed write does not grow the file.
  sim::Task<Status> WriteRange(std::string name, std::uint64_t offset,
                               std::uint64_t length,
                               std::vector<std::uint8_t> data);
  // Puts the size of a file that still ends at `end` back to `old_size`.
  void ShrinkBack(const std::string& name, std::uint64_t end,
                  std::uint64_t old_size);

  // The one read path: lookup, bounds check, extent mapping and a device
  // read per run. Fills `out`, or only charges the time when it is null.
  sim::Task<Status> ReadRange(std::string name, std::uint64_t offset,
                              std::uint64_t length,
                              std::vector<std::uint8_t>* out) const;

  sim::Simulator& sim_;
  BlockDevice* device_;
  VolumeParams params_;
  std::uint64_t total_blocks_;
  std::uint64_t used_blocks_ = 0;
  // Ordered by name for the range-bounded scans; the side-index below maps
  // each node's key (a stable string_view into the map node) to its meta
  // for O(1) point lookups. Both are maintained on Create/Delete/Format.
  std::map<std::string, FileMeta> files_;
  // ros_analyze: allow(unordered-member): point lookups by name only;
  // enumeration always walks the ordered files_ map.
  std::unordered_map<std::string_view, FileMeta*> by_name_;
  std::map<std::uint64_t, std::uint64_t> free_extents_;  // start -> length
};

}  // namespace ros::disk

#endif  // ROS_SRC_DISK_VOLUME_H_
