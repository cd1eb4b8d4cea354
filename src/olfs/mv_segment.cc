#include "src/olfs/mv_segment.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/common/hash.h"

namespace ros::olfs::mvseg {

namespace {

constexpr std::uint8_t kMagic[4] = {'M', 'V', 'S', 'G'};
constexpr std::uint8_t kFooterMagic[4] = {'G', 'S', 'V', 'M'};

void PutU32(std::uint32_t v, std::uint8_t* out) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

void PutU64(std::uint64_t v, std::uint8_t* out) {
  PutU32(static_cast<std::uint32_t>(v), out);
  PutU32(static_cast<std::uint32_t>(v >> 32), out + 4);
}

std::uint32_t GetU32(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) |
         static_cast<std::uint32_t>(in[1]) << 8 |
         static_cast<std::uint32_t>(in[2]) << 16 |
         static_cast<std::uint32_t>(in[3]) << 24;
}

std::uint64_t GetU64(const std::uint8_t* in) {
  return static_cast<std::uint64_t>(GetU32(in)) |
         static_cast<std::uint64_t>(GetU32(in + 4)) << 32;
}

std::string PadDecimal(std::uint64_t v) {
  std::string digits = std::to_string(v);
  std::string out;
  out.append(digits.size() < 9 ? 9 - digits.size() : 0, '0');
  out += digits;
  return out;
}

}  // namespace

std::string SegmentFileName(std::uint64_t rank, std::uint64_t id) {
  return std::string(kFilePrefix) + PadDecimal(rank) + "." + PadDecimal(id);
}

std::optional<SegmentHeader> ParseSegmentFileName(const std::string& name) {
  if (name.size() <= kFilePrefix.size() ||
      name.compare(0, kFilePrefix.size(), kFilePrefix) != 0) {
    return std::nullopt;
  }
  const std::string rest = name.substr(kFilePrefix.size());
  const std::size_t dot = rest.find('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 >= rest.size()) {
    return std::nullopt;
  }
  SegmentHeader header;
  for (std::size_t i = 0; i < rest.size(); ++i) {
    if (i == dot) {
      continue;
    }
    if (rest[i] < '0' || rest[i] > '9') {
      return std::nullopt;
    }
    std::uint64_t& field = i < dot ? header.rank : header.id;
    field = field * 10 + static_cast<std::uint64_t>(rest[i] - '0');
  }
  return header;
}

SegmentBuilder::SegmentBuilder(std::uint64_t rank, std::uint64_t id) {
  bytes_.resize(kHeaderBytes, 0);
  std::memcpy(bytes_.data(), kMagic, 4);
  PutU32(kFormatVersion, bytes_.data() + 4);
  PutU64(rank, bytes_.data() + 8);
  PutU64(id, bytes_.data() + 16);
  // count at offset 24 is backpatched by Finish().
}

void SegmentBuilder::Add(const mvlog::Record& record) {
  ROS_CHECK(count_ == 0 || record.key > last_key_);
  last_key_ = record.key;
  const std::uint64_t offset = bytes_.size();
  mvlog::AppendRecord(record, &bytes_);
  refs_.emplace_back(offset,
                     static_cast<std::uint32_t>(bytes_.size() - offset));
  ++count_;
}

std::vector<std::uint8_t> SegmentBuilder::Finish() && {
  PutU64(count_, bytes_.data() + 24);
  const std::uint64_t records_bytes = bytes_.size() - kHeaderBytes;
  std::uint8_t footer[kFooterBytes] = {};
  std::memcpy(footer, kFooterMagic, 4);
  PutU64(records_bytes, footer + 4);
  // The footer CRC seals the header + record-region length; record bodies
  // carry their own CRCs.
  const std::uint32_t crc =
      Crc32({footer, 12}, Crc32({bytes_.data(), kHeaderBytes}));
  PutU32(crc, footer + 12);
  bytes_.insert(bytes_.end(), footer, footer + kFooterBytes);
  return std::move(bytes_);
}

Status ParseSegment(
    std::span<const std::uint8_t> data, SegmentHeader* header,
    const std::function<void(mvlog::Record, std::uint64_t, std::uint32_t)>&
        fn) {
  if (data.size() < kHeaderBytes + kFooterBytes) {
    return InvalidArgumentError("mvseg: short segment");
  }
  if (std::memcmp(data.data(), kMagic, 4) != 0) {
    return InvalidArgumentError("mvseg: bad magic");
  }
  if (GetU32(data.data() + 4) != kFormatVersion) {
    return InvalidArgumentError("mvseg: unsupported version");
  }
  SegmentHeader parsed;
  parsed.rank = GetU64(data.data() + 8);
  parsed.id = GetU64(data.data() + 16);
  parsed.count = GetU64(data.data() + 24);
  const std::uint8_t* footer = data.data() + data.size() - kFooterBytes;
  if (std::memcmp(footer, kFooterMagic, 4) != 0) {
    return DataLossError("mvseg: bad or missing footer (torn segment)");
  }
  const std::uint64_t records_bytes =
      data.size() - kHeaderBytes - kFooterBytes;
  if (GetU64(footer + 4) != records_bytes) {
    return DataLossError("mvseg: footer length mismatch");
  }
  const std::uint32_t want = GetU32(footer + 12);
  if (Crc32({footer, 12}, Crc32({data.data(), kHeaderBytes})) != want) {
    return DataLossError("mvseg: footer checksum mismatch");
  }
  std::size_t offset = kHeaderBytes;
  const std::size_t records_end = kHeaderBytes + records_bytes;
  std::string last_key;
  for (std::uint64_t i = 0; i < parsed.count; ++i) {
    const std::size_t at = offset;
    auto record =
        mvlog::DecodeRecord(data.first(records_end), &offset);
    if (!record.ok()) {
      return DataLossError("mvseg: corrupt record " + std::to_string(i) +
                           ": " + std::string(record.status().message()));
    }
    if (i > 0 && record->key <= last_key) {
      return DataLossError("mvseg: keys out of order");
    }
    last_key = record->key;
    fn(std::move(*record), at, static_cast<std::uint32_t>(offset - at));
  }
  if (offset != records_end) {
    return DataLossError("mvseg: trailing bytes after last record");
  }
  if (header != nullptr) {
    *header = parsed;
  }
  return OkStatus();
}

void MergeSortedRuns(
    std::vector<std::vector<mvlog::Record>> runs, bool drop_tombstones,
    const std::function<void(mvlog::Record, MergeSource)>& fn) {
  std::vector<std::size_t> cursors(runs.size(), 0);
  while (true) {
    // Smallest current key; among equals the NEWEST run (highest index)
    // wins and the older duplicates are skipped.
    const std::string* min_key = nullptr;
    for (std::size_t r = 0; r < runs.size(); ++r) {
      if (cursors[r] >= runs[r].size()) {
        continue;
      }
      const std::string& key = runs[r][cursors[r]].key;
      if (min_key == nullptr || key < *min_key) {
        min_key = &key;
      }
    }
    if (min_key == nullptr) {
      return;
    }
    const std::string& key = *min_key;
    std::optional<MergeSource> winner;
    for (std::size_t r = 0; r < runs.size(); ++r) {
      if (cursors[r] < runs[r].size() && runs[r][cursors[r]].key == key) {
        winner = MergeSource{r, cursors[r]};
        ++cursors[r];
      }
    }
    ROS_CHECK(winner.has_value());
    mvlog::Record& record = runs[winner->run][winner->index];
    if (drop_tombstones && record.type == mvlog::RecordType::kRemove) {
      continue;
    }
    fn(std::move(record), *winner);
  }
}

}  // namespace ros::olfs::mvseg
