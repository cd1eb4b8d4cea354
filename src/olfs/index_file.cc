#include "src/olfs/index_file.h"

#include <algorithm>
#include <limits>

namespace ros::olfs {

char LocationCode(LocationKind kind) {
  switch (kind) {
    case LocationKind::kBucket: return 'B';
    case LocationKind::kImage: return 'I';
    case LocationKind::kDisc: return 'D';
  }
  return '?';
}

StatusOr<LocationKind> LocationFromCode(char code) {
  switch (code) {
    case 'B': return LocationKind::kBucket;
    case 'I': return LocationKind::kImage;
    case 'D': return LocationKind::kDisc;
    default:
      return InvalidArgumentError(std::string("bad location code: ") + code);
  }
}

StatusOr<const VersionEntry*> IndexFile::Latest() const {
  if (entries_.empty()) {
    return NotFoundError("no versions for " + path_);
  }
  const VersionEntry* latest = &entries_[0];
  for (const VersionEntry& entry : entries_) {
    if (entry.version > latest->version) {
      latest = &entry;
    }
  }
  if (latest->tombstone) {
    return NotFoundError(path_ + " is deleted");
  }
  return latest;
}

StatusOr<const VersionEntry*> IndexFile::Version(int version) const {
  for (const VersionEntry& entry : entries_) {
    if (entry.version == version) {
      return &entry;
    }
  }
  return NotFoundError("version " + std::to_string(version) + " of " +
                       path_ + " not in the current index ring");
}

void IndexFile::AddVersion(VersionEntry entry, int max_entries) {
  entry.version = next_version_++;
  if (static_cast<int>(entries_.size()) < max_entries) {
    entries_.push_back(std::move(entry));
    return;
  }
  // Ring full: overwrite the oldest entry (§4.6).
  auto oldest = std::min_element(
      entries_.begin(), entries_.end(),
      [](const VersionEntry& a, const VersionEntry& b) {
        return a.version < b.version;
      });
  *oldest = std::move(entry);
}

Status IndexFile::UpdateVersion(const VersionEntry& entry) {
  for (VersionEntry& candidate : entries_) {
    if (candidate.version == entry.version) {
      candidate = entry;
      return OkStatus();
    }
  }
  return Version(entry.version).status();
}

std::string IndexFile::ToJson() const {
  // Hand-rolled writer into one reserved buffer. json::Object is a
  // std::map, so the tree dump this replaces emitted keys alphabetically;
  // the literals below reproduce that order exactly (root: entries,
  // forepart, next_ver, path, type; entry: del, loc, parts, size, ver;
  // part: img, size) and index_file_test asserts byte equality against the
  // tree dump.
  std::string out;
  out.reserve(96 + path_.size() + entries_.size() * 80 +
              forepart_.size() * 2);
  out += "{\"entries\":[";
  bool first_entry = true;
  for (const VersionEntry& entry : entries_) {
    if (!first_entry) {
      out.push_back(',');
    }
    first_entry = false;
    out += "{\"del\":";
    out += entry.tombstone ? "true" : "false";
    out += ",\"loc\":\"";
    out.push_back(LocationCode(entry.location));
    out += "\",\"parts\":[";
    bool first_part = true;
    for (const FilePart& part : entry.parts) {
      if (!first_part) {
        out.push_back(',');
      }
      first_part = false;
      out += "{\"img\":";
      json::AppendQuoted(out, part.image_id);
      out += ",\"size\":";
      json::AppendInt(out, static_cast<std::int64_t>(part.size));
      out.push_back('}');
    }
    out += "],\"size\":";
    json::AppendInt(out, static_cast<std::int64_t>(entry.total_size));
    out += ",\"ver\":";
    json::AppendInt(out, entry.version);
    out.push_back('}');
  }
  out.push_back(']');
  if (!forepart_.empty()) {
    // Hex-encoded forepart: JSON-safe and platform independent.
    out += ",\"forepart\":\"";
    constexpr char kDigits[] = "0123456789abcdef";
    for (std::uint8_t byte : forepart_) {
      out.push_back(kDigits[byte >> 4]);
      out.push_back(kDigits[byte & 0xF]);
    }
    out.push_back('"');
  }
  out += ",\"next_ver\":";
  json::AppendInt(out, next_version_);
  out += ",\"path\":";
  json::AppendQuoted(out, path_);
  out += ",\"type\":\"";
  out += type_ == EntryType::kFile ? "file" : "dir";
  out += "\"}";
  return out;
}

namespace {

// Typed field extraction for untrusted index-file JSON. Every accessor
// validates the variant alternative before reading it: `as_string()` &
// friends throw std::bad_variant_access on a type mismatch, and a namespace
// rebuild must survive arbitrarily corrupted index files (§4.4).
StatusOr<std::string> GetString(const json::Value& obj, std::string_view key) {
  const json::Value& v = obj[key];
  if (!v.is_string()) {
    return InvalidArgumentError("index field '" + std::string(key) +
                                "' missing or not a string");
  }
  return v.as_string();
}

StatusOr<std::int64_t> GetInt(const json::Value& obj, std::string_view key) {
  const json::Value& v = obj[key];
  if (!v.is_int()) {
    return InvalidArgumentError("index field '" + std::string(key) +
                                "' missing or not an integer");
  }
  return v.as_int();
}

// Sizes ride in signed JSON integers; negative values only appear in
// corrupted files and would wrap to absurd uint64 sizes.
StatusOr<std::uint64_t> GetSize(const json::Value& obj, std::string_view key) {
  ROS_ASSIGN_OR_RETURN(std::int64_t n, GetInt(obj, key));
  if (n < 0) {
    return InvalidArgumentError("index field '" + std::string(key) +
                                "' is negative");
  }
  return static_cast<std::uint64_t>(n);
}

}  // namespace

std::optional<IndexFile> IndexFile::FastParse(std::string_view text) {
  json::Scanner s(text);
  IndexFile out;
  if (!s.Consume('{') || !s.ConsumeKey("entries") || !s.Consume('[')) {
    return std::nullopt;
  }
  if (!s.Peek(']')) {
    do {
      VersionEntry entry;
      std::string loc;
      std::int64_t size = 0;
      std::int64_t ver = 0;
      if (!s.Consume('{') || !s.ConsumeKey("del") ||
          !s.ReadBool(&entry.tombstone) || !s.Consume(',') ||
          !s.ConsumeKey("loc") || !s.ReadString(&loc) || loc.size() != 1) {
        return std::nullopt;
      }
      auto kind = LocationFromCode(loc[0]);
      if (!kind.ok()) {
        return std::nullopt;
      }
      entry.location = *kind;
      if (!s.Consume(',') || !s.ConsumeKey("parts") || !s.Consume('[')) {
        return std::nullopt;
      }
      if (!s.Peek(']')) {
        do {
          FilePart part;
          std::int64_t part_size = 0;
          if (!s.Consume('{') || !s.ConsumeKey("img") ||
              !s.ReadString(&part.image_id) || !s.Consume(',') ||
              !s.ConsumeKey("size") || !s.ReadInt(&part_size) ||
              part_size < 0 || !s.Consume('}')) {
            return std::nullopt;
          }
          part.size = static_cast<std::uint64_t>(part_size);
          entry.parts.push_back(std::move(part));
        } while (s.Consume(','));
      }
      if (!s.Consume(']') || !s.Consume(',') || !s.ConsumeKey("size") ||
          !s.ReadInt(&size) || size < 0 || !s.Consume(',') ||
          !s.ConsumeKey("ver") || !s.ReadInt(&ver) || ver < 1 ||
          ver > std::numeric_limits<int>::max() || !s.Consume('}')) {
        return std::nullopt;
      }
      entry.total_size = static_cast<std::uint64_t>(size);
      entry.version = static_cast<int>(ver);
      out.entries_.push_back(std::move(entry));
    } while (s.Consume(','));
  }
  if (!s.Consume(']')) {
    return std::nullopt;
  }
  if (!s.Consume(',')) {
    return std::nullopt;
  }
  if (s.ConsumeKey("forepart")) {
    std::string hex;
    if (!s.ReadString(&hex) || hex.size() % 2 != 0 || !s.Consume(',')) {
      return std::nullopt;
    }
    auto nibble = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'a' && c <= 'f') return c - 'a' + 10;
      return -1;
    };
    out.forepart_.reserve(hex.size() / 2);
    for (std::size_t i = 0; i < hex.size(); i += 2) {
      const int hi = nibble(hex[i]);
      const int lo = nibble(hex[i + 1]);
      if (hi < 0 || lo < 0) {
        return std::nullopt;
      }
      out.forepart_.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
    }
  }
  std::int64_t next_ver = 0;
  std::string type;
  if (!s.ConsumeKey("next_ver") || !s.ReadInt(&next_ver) || next_ver < 1 ||
      next_ver > std::numeric_limits<int>::max() || !s.Consume(',') ||
      !s.ConsumeKey("path") || !s.ReadString(&out.path_) ||
      !s.Consume(',') || !s.ConsumeKey("type") || !s.ReadString(&type) ||
      !s.Consume('}') || !s.AtEnd()) {
    return std::nullopt;
  }
  if (type == "file") {
    out.type_ = EntryType::kFile;
  } else if (type == "dir") {
    out.type_ = EntryType::kDirectory;
  } else {
    return std::nullopt;
  }
  out.next_version_ = static_cast<int>(next_ver);
  // The tree decoder rejects entry versions outside [1, next_ver); bail so
  // it produces its error.
  for (const VersionEntry& entry : out.entries_) {
    if (entry.version >= out.next_version_) {
      return std::nullopt;
    }
  }
  return out;
}

StatusOr<IndexFile> IndexFile::FromJson(std::string_view text) {
  if (std::optional<IndexFile> fast = FastParse(text)) {
    return std::move(*fast);
  }
  return FromJsonTree(text);
}

StatusOr<IndexFile> IndexFile::FromJsonTree(std::string_view text) {
  ROS_ASSIGN_OR_RETURN(json::Value root, json::Parse(text));
  if (!root.is_object()) {
    return InvalidArgumentError("index file is not a JSON object");
  }
  IndexFile index;
  ROS_ASSIGN_OR_RETURN(index.path_, GetString(root, "path"));
  ROS_ASSIGN_OR_RETURN(std::string type, GetString(root, "type"));
  if (type != "file" && type != "dir") {
    return InvalidArgumentError("bad index entry type: " + type);
  }
  index.type_ = type == "dir" ? EntryType::kDirectory : EntryType::kFile;
  ROS_ASSIGN_OR_RETURN(std::int64_t next_ver, GetInt(root, "next_ver"));
  if (next_ver < 1 || next_ver > std::numeric_limits<int>::max()) {
    return InvalidArgumentError("next_ver out of range");
  }
  index.next_version_ = static_cast<int>(next_ver);
  if (!root["entries"].is_array()) {
    return InvalidArgumentError("index field 'entries' missing or not an array");
  }
  for (const json::Value& e : root["entries"].as_array()) {
    if (!e.is_object()) {
      return InvalidArgumentError("index entry is not an object");
    }
    VersionEntry entry;
    ROS_ASSIGN_OR_RETURN(std::int64_t ver, GetInt(e, "ver"));
    if (ver < 1 || ver >= next_ver) {
      return InvalidArgumentError("entry version out of range");
    }
    entry.version = static_cast<int>(ver);
    ROS_ASSIGN_OR_RETURN(std::string loc, GetString(e, "loc"));
    if (loc.size() != 1) {
      return InvalidArgumentError("bad loc field");
    }
    ROS_ASSIGN_OR_RETURN(entry.location, LocationFromCode(loc[0]));
    ROS_ASSIGN_OR_RETURN(entry.total_size, GetSize(e, "size"));
    entry.tombstone = e["del"].is_bool() && e["del"].as_bool();
    if (!e["parts"].is_array()) {
      return InvalidArgumentError("entry field 'parts' missing or not an array");
    }
    for (const json::Value& p : e["parts"].as_array()) {
      if (!p.is_object()) {
        return InvalidArgumentError("file part is not an object");
      }
      FilePart part;
      ROS_ASSIGN_OR_RETURN(part.image_id, GetString(p, "img"));
      ROS_ASSIGN_OR_RETURN(part.size, GetSize(p, "size"));
      entry.parts.push_back(std::move(part));
    }
    index.entries_.push_back(std::move(entry));
  }
  if (root.contains("forepart")) {
    ROS_ASSIGN_OR_RETURN(std::string hex, GetString(root, "forepart"));
    if (hex.size() % 2 != 0) {
      return InvalidArgumentError("bad forepart encoding");
    }
    auto nibble = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'a' && c <= 'f') return c - 'a' + 10;
      return -1;
    };
    index.forepart_.reserve(hex.size() / 2);
    for (std::size_t i = 0; i < hex.size(); i += 2) {
      const int hi = nibble(hex[i]);
      const int lo = nibble(hex[i + 1]);
      if (hi < 0 || lo < 0) {
        return InvalidArgumentError("bad forepart hex digit");
      }
      index.forepart_.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
    }
  }
  return index;
}

}  // namespace ros::olfs
