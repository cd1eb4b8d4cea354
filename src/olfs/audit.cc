#include "src/olfs/audit.h"

#include <algorithm>
#include <utility>

#include "src/common/hash.h"
#include "src/common/json.h"
#include "src/common/logging.h"

namespace ros::olfs {
namespace {

constexpr char kMagic[8] = {'R', 'O', 'S', 'A', 'U', 'D', 'T', '1'};
constexpr char kDirectoryKey[] = "audit/dir";
// Fuzz-input sanity caps; real arrays have 12 members and the member id
// is a short image id.
constexpr std::uint32_t kMaxMembers = 4096;
constexpr std::uint32_t kMaxIdBytes = 4096;

void PutU32(std::uint32_t v, std::vector<std::uint8_t>* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void PutU64(std::uint64_t v, std::vector<std::uint8_t>* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

// Bounds-checked little-endian reader over the raw manifest bytes.
struct Reader {
  std::span<const std::uint8_t> data;
  std::size_t pos = 0;

  std::size_t remaining() const { return data.size() - pos; }
  bool ReadU32(std::uint32_t* v) {
    if (remaining() < 4) {
      return false;
    }
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<std::uint32_t>(data[pos + static_cast<std::size_t>(i)])
            << (8 * i);
    }
    pos += 4;
    return true;
  }
  bool ReadU64(std::uint64_t* v) {
    if (remaining() < 8) {
      return false;
    }
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<std::uint64_t>(data[pos + static_cast<std::size_t>(i)])
            << (8 * i);
    }
    pos += 8;
    return true;
  }
  bool ReadBytes(std::size_t n, std::string* out) {
    if (remaining() < n) {
      return false;
    }
    out->assign(reinterpret_cast<const char*>(data.data() + pos), n);
    pos += n;
    return true;
  }
};

std::string HexEncode(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

StatusOr<std::vector<std::uint8_t>> HexDecode(const std::string& hex) {
  if (hex.size() % 2 != 0) {
    return InvalidArgumentError("odd-length hex manifest blob");
  }
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  std::vector<std::uint8_t> out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return InvalidArgumentError("non-hex byte in manifest blob");
    }
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

}  // namespace

std::uint64_t AuditHashLeaf(std::span<const std::uint8_t> chunk,
                            std::uint32_t version) {
  ROS_CHECK(version == kAuditV1 || version == kAuditV2);
  return version == kAuditV1 ? Fnv1a64(chunk) : Xxh64(chunk);
}

std::vector<std::uint64_t> AuditLeafHashes(
    std::span<const std::uint8_t> stream, std::uint64_t leaf_bytes,
    std::uint32_t version) {
  std::vector<std::uint64_t> leaves;
  if (leaf_bytes == 0) {
    return leaves;
  }
  for (std::size_t at = 0; at < stream.size();
       at += static_cast<std::size_t>(leaf_bytes)) {
    const std::size_t n = std::min<std::size_t>(
        static_cast<std::size_t>(leaf_bytes), stream.size() - at);
    leaves.push_back(AuditHashLeaf(stream.subspan(at, n), version));
  }
  return leaves;
}

std::uint64_t AuditMerkleRoot(const std::vector<std::uint64_t>& leaves) {
  if (leaves.empty()) {
    // Root of nothing: FNV-1a offset basis, so empty members still chain
    // into the array root deterministically.
    return 0xCBF29CE484222325ull;
  }
  std::vector<std::uint64_t> level = leaves;
  while (level.size() > 1) {
    std::vector<std::uint64_t> next;
    next.reserve((level.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      std::uint8_t pair[16];
      for (int b = 0; b < 8; ++b) {
        pair[b] = static_cast<std::uint8_t>(level[i] >> (8 * b));
        pair[8 + b] = static_cast<std::uint8_t>(level[i + 1] >> (8 * b));
      }
      next.push_back(Fnv1a64(pair));
    }
    if (level.size() % 2 == 1) {
      next.push_back(level.back());  // odd node promoted unchanged
    }
    level = std::move(next);
  }
  return level.front();
}

std::uint64_t AuditArrayRoot(const AuditManifest& manifest) {
  std::vector<std::uint64_t> roots;
  roots.reserve(manifest.members.size());
  for (const AuditMember& member : manifest.members) {
    roots.push_back(member.root);
  }
  return AuditMerkleRoot(roots);
}

std::vector<std::uint8_t> SerializeAuditManifest(
    const AuditManifest& manifest) {
  std::vector<std::uint8_t> out;
  out.insert(out.end(), kMagic, kMagic + sizeof(kMagic));
  PutU32(manifest.version, &out);
  PutU64(static_cast<std::uint64_t>(manifest.tray_index), &out);
  PutU64(manifest.leaf_bytes, &out);
  PutU32(static_cast<std::uint32_t>(manifest.members.size()), &out);
  for (const AuditMember& member : manifest.members) {
    PutU32(static_cast<std::uint32_t>(member.image_id.size()), &out);
    out.insert(out.end(), member.image_id.begin(), member.image_id.end());
    PutU64(member.stream_bytes, &out);
    PutU32(static_cast<std::uint32_t>(member.leaves.size()), &out);
    for (std::uint64_t leaf : member.leaves) {
      PutU64(leaf, &out);
    }
    PutU64(member.root, &out);
  }
  PutU64(manifest.array_root, &out);
  PutU32(Crc32(out), &out);
  return out;
}

StatusOr<AuditManifest> ParseAuditManifest(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < sizeof(kMagic) + 4 + 8 + 8 + 4 + 8 + 4) {
    return InvalidArgumentError("audit manifest too short");
  }
  // CRC first: everything after it is parsed from verified bytes.
  std::uint32_t stored_crc = 0;
  for (int i = 0; i < 4; ++i) {
    stored_crc |= static_cast<std::uint32_t>(
                      bytes[bytes.size() - 4 + static_cast<std::size_t>(i)])
                  << (8 * i);
  }
  if (Crc32(bytes.subspan(0, bytes.size() - 4)) != stored_crc) {
    return DataLossError("audit manifest checksum mismatch");
  }
  Reader in{bytes.subspan(0, bytes.size() - 4)};
  std::string magic;
  if (!in.ReadBytes(sizeof(kMagic), &magic) ||
      magic != std::string(kMagic, sizeof(kMagic))) {
    return InvalidArgumentError("bad audit manifest magic");
  }
  AuditManifest manifest;
  if (!in.ReadU32(&manifest.version) ||
      (manifest.version != kAuditV1 && manifest.version != kAuditV2)) {
    return InvalidArgumentError("unsupported audit manifest version");
  }
  std::uint64_t tray = 0;
  std::uint32_t member_count = 0;
  if (!in.ReadU64(&tray) || !in.ReadU64(&manifest.leaf_bytes) ||
      !in.ReadU32(&member_count)) {
    return InvalidArgumentError("truncated audit manifest header");
  }
  manifest.tray_index = static_cast<std::int64_t>(tray);
  if (member_count > kMaxMembers) {
    return InvalidArgumentError("audit manifest member count implausible");
  }
  for (std::uint32_t m = 0; m < member_count; ++m) {
    AuditMember member;
    std::uint32_t id_len = 0;
    if (!in.ReadU32(&id_len) || id_len > kMaxIdBytes ||
        !in.ReadBytes(id_len, &member.image_id)) {
      return InvalidArgumentError("truncated audit member id");
    }
    std::uint32_t leaf_count = 0;
    if (!in.ReadU64(&member.stream_bytes) || !in.ReadU32(&leaf_count)) {
      return InvalidArgumentError("truncated audit member header");
    }
    if (static_cast<std::size_t>(leaf_count) * 8 > in.remaining()) {
      return InvalidArgumentError("audit member leaf count exceeds input");
    }
    member.leaves.reserve(leaf_count);
    for (std::uint32_t l = 0; l < leaf_count; ++l) {
      std::uint64_t leaf = 0;
      if (!in.ReadU64(&leaf)) {
        return InvalidArgumentError("truncated audit member leaves");
      }
      member.leaves.push_back(leaf);
    }
    if (!in.ReadU64(&member.root)) {
      return InvalidArgumentError("truncated audit member root");
    }
    // Leaf count must be consistent with the stream it claims to cover.
    const std::uint64_t expect_leaves =
        manifest.leaf_bytes == 0
            ? 0
            : (member.stream_bytes + manifest.leaf_bytes - 1) /
                  manifest.leaf_bytes;
    if (expect_leaves != member.leaves.size()) {
      return InvalidArgumentError("audit member leaf count inconsistent");
    }
    // The stored chain must recompute: a manifest whose root does not
    // match its own leaves proves nothing.
    if (AuditMerkleRoot(member.leaves) != member.root) {
      return DataLossError("audit member root mismatch");
    }
    manifest.members.push_back(std::move(member));
  }
  if (!in.ReadU64(&manifest.array_root)) {
    return InvalidArgumentError("truncated audit array root");
  }
  if (in.remaining() != 0) {
    return InvalidArgumentError("trailing bytes after audit manifest");
  }
  if (AuditArrayRoot(manifest) != manifest.array_root) {
    return DataLossError("audit array root mismatch");
  }
  return manifest;
}

std::string AuditRegistry::ManifestKey(int tray_index) {
  return "audit/t" + std::to_string(tray_index);
}

sim::Task<Status> AuditRegistry::OnArrayBurned(
    mech::TrayAddress tray, std::vector<std::string> member_ids) {
  AuditManifest manifest;
  manifest.tray_index = tray.ToIndex();
  manifest.leaf_bytes = params_.audit_leaf_bytes;
  for (const std::string& id : member_ids) {
    ROS_CO_ASSIGN_OR_RETURN(const ImageRecord* record, images_->Lookup(id));
    // Recover the exact burned stream from controller memory — the same
    // bytes BurnOneDisc just wrote to the media.
    std::span<const std::uint8_t> stream;
    if (record->parity) {
      ROS_CO_ASSIGN_OR_RETURN(const ParityImage* parity, parity_->Get(id));
      stream = parity->bytes;
    } else {
      if (record->image == nullptr || !record->image->closed()) {
        co_return FailedPreconditionError(
            "image " + id + " evicted or still open; cannot hash for audit");
      }
      stream = *record->image->stream();
    }
    AuditMember member;
    member.image_id = id;
    member.stream_bytes = stream.size();
    member.leaves =
        AuditLeafHashes(stream, manifest.leaf_bytes, manifest.version);
    member.root = AuditMerkleRoot(member.leaves);
    manifest.members.push_back(std::move(member));
  }
  manifest.array_root = AuditArrayRoot(manifest);

  const std::vector<std::uint8_t> blob = SerializeAuditManifest(manifest);
  ROS_CO_RETURN_IF_ERROR(co_await mv_->PutState(
      ManifestKey(static_cast<int>(manifest.tray_index)),
      json::Value(HexEncode(blob))));
  const bool replacing =
      roots_.count(static_cast<int>(manifest.tray_index)) > 0;
  roots_[static_cast<int>(manifest.tray_index)] = manifest.array_root;
  ++roots_built_;
  if (!replacing) {
    ++manifests_live_;
  }
  ROS_CO_RETURN_IF_ERROR(co_await PersistDirectory());
  ROS_LOG(kDebug) << "audit manifest built for tray "
                  << manifest.tray_index;
  co_return OkStatus();
}

sim::Task<Status> AuditRegistry::RetireTray(mech::TrayAddress tray) {
  const int tray_index = tray.ToIndex();
  if (roots_.erase(tray_index) == 0) {
    co_return OkStatus();  // never audited (manifests disabled mid-life)
  }
  --manifests_live_;
  // The manifest entry itself is left in the MV (WORM-friendly history);
  // the directory rewrite is what removes it from the auditor's root set.
  co_return co_await PersistDirectory();
}

sim::Task<Status> AuditRegistry::PersistDirectory() {
  json::Object dir;
  for (const auto& [tray_index, root] : roots_) {
    std::uint8_t bytes[8];
    for (int b = 0; b < 8; ++b) {
      bytes[b] = static_cast<std::uint8_t>(root >> (8 * b));
    }
    dir["t" + std::to_string(tray_index)] = json::Value(HexEncode(bytes));
  }
  co_return co_await mv_->PutState(kDirectoryKey,
                                   json::Value(std::move(dir)));
}

sim::Task<StatusOr<std::vector<AuditManifest>>>
AuditRegistry::LoadManifests() {
  std::vector<AuditManifest> manifests;
  auto dir = co_await mv_->GetState(kDirectoryKey);
  if (!dir.ok()) {
    co_return manifests;  // nothing audited yet
  }
  if (!dir->is_object()) {
    co_return DataLossError("audit directory is not an object");
  }
  for (const auto& [key, root_hex] : dir->as_object()) {
    if (key.size() < 2 || key[0] != 't') {
      co_return DataLossError("bad audit directory key: " + key);
    }
    const int tray_index = std::atoi(key.c_str() + 1);
    ROS_CO_ASSIGN_OR_RETURN(json::Value blob_value,
                            co_await mv_->GetState(ManifestKey(tray_index)));
    if (!blob_value.is_string()) {
      co_return DataLossError("audit manifest blob is not a string");
    }
    ROS_CO_ASSIGN_OR_RETURN(std::vector<std::uint8_t> blob,
                            HexDecode(blob_value.as_string()));
    ROS_CO_ASSIGN_OR_RETURN(AuditManifest manifest,
                            ParseAuditManifest(blob));
    // The directory root must match the manifest: the root set is the
    // auditor's trust anchor.
    if (!root_hex.is_string()) {
      co_return DataLossError("audit directory root is not a string");
    }
    ROS_CO_ASSIGN_OR_RETURN(std::vector<std::uint8_t> root_bytes,
                            HexDecode(root_hex.as_string()));
    std::uint64_t expect_root = 0;
    if (root_bytes.size() != 8) {
      co_return DataLossError("audit directory root malformed");
    }
    for (int b = 0; b < 8; ++b) {
      expect_root |= static_cast<std::uint64_t>(
                         root_bytes[static_cast<std::size_t>(b)])
                     << (8 * b);
    }
    if (expect_root != manifest.array_root) {
      co_return DataLossError("audit manifest root disagrees with directory");
    }
    manifests.push_back(std::move(manifest));
  }
  co_return manifests;
}

}  // namespace ros::olfs
