// Immutable sorted segment files of the log-structured MV (DESIGN.md §5i).
//
// A segment is one memtable generation (or a compaction of several)
// serialized as: a fixed header [magic "MVSG", version, rank, id, count],
// `count` WAL-framed records in strictly increasing key order, and a
// footer [magic "GSVM", records_bytes, crc] whose presence proves the file
// was written to completion. Records reuse the mvlog frame, so each
// carries its own CRC and point reads self-verify.
//
// Ordering is durable in the file NAME — "/mvseg.<rank>.<id>" — so
// recovery replays segments in lexicographic listing order with no
// manifest: flush segments get fresh ranks (newer rank = newer data);
// a compaction output inherits its oldest input's rank with a fresh id,
// which slots it exactly where its inputs were. Strict parsing contract:
// arbitrary bytes in, clean kInvalidArgument/kDataLoss out.
#ifndef ROS_SRC_OLFS_MV_SEGMENT_H_
#define ROS_SRC_OLFS_MV_SEGMENT_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/olfs/mv_log.h"

namespace ros::olfs::mvseg {

inline constexpr std::string_view kFilePrefix = "/mvseg.";
inline constexpr std::size_t kHeaderBytes = 32;
inline constexpr std::size_t kFooterBytes = 16;
inline constexpr std::uint32_t kFormatVersion = 1;

struct SegmentHeader {
  std::uint64_t rank = 0;
  std::uint64_t id = 0;
  std::uint64_t count = 0;
};

std::string SegmentFileName(std::uint64_t rank, std::uint64_t id);
// Parses "/mvseg.<rank>.<id>"; nullopt if malformed.
std::optional<SegmentHeader> ParseSegmentFileName(const std::string& name);

// Serializes sorted records into a segment image. Add() must be called in
// strictly increasing key order (checked).
class SegmentBuilder {
 public:
  SegmentBuilder(std::uint64_t rank, std::uint64_t id);

  // Frames the record and remembers its (offset, length) within the file
  // so the caller can point the key directory at it.
  void Add(const mvlog::Record& record);

  std::uint64_t count() const { return count_; }
  std::uint64_t bytes() const { return bytes_.size() + kFooterBytes; }
  // (offset, length) of each added record, in Add() order.
  const std::vector<std::pair<std::uint64_t, std::uint32_t>>& refs() const {
    return refs_;
  }

  // Completes the image (backpatches the count, appends the footer) and
  // returns the bytes. The builder is spent afterwards.
  std::vector<std::uint8_t> Finish() &&;

 private:
  std::vector<std::uint8_t> bytes_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> refs_;
  std::uint64_t count_ = 0;
  std::string last_key_;
};

// Strict whole-segment parse: verifies header, footer, per-record frames
// and CRCs, record count, and strictly-increasing key order, calling
// `fn(record, offset, length)` for each record. Any violation is a clean
// error and `fn` sees only the cleanly decoded prefix.
Status ParseSegment(
    std::span<const std::uint8_t> data, SegmentHeader* header,
    const std::function<void(mvlog::Record, std::uint64_t, std::uint32_t)>&
        fn);

// Where a merged record came from: its run and its position in that run.
struct MergeSource {
  std::size_t run = 0;
  std::size_t index = 0;

  friend bool operator==(const MergeSource&, const MergeSource&) = default;
};

// Merges sorted runs ordered oldest to newest, emitting the newest record
// for each key in increasing key order, with its source. With
// `drop_tombstones` (legal only when the inputs are the oldest segments in
// the store — nothing below them left to shadow), surviving kRemove
// records are dropped instead of emitted.
void MergeSortedRuns(
    std::vector<std::vector<mvlog::Record>> runs, bool drop_tombstones,
    const std::function<void(mvlog::Record, MergeSource)>& fn);

}  // namespace ros::olfs::mvseg

#endif  // ROS_SRC_OLFS_MV_SEGMENT_H_
