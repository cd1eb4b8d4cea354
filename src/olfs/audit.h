// Merkle-style audit manifests (DESIGN.md §5j).
//
// Long-term preservation needs integrity *proof*, not just repair: an
// auditor must be able to certify "the archive still holds what was
// acked" without reading petabytes back at optical speed. Every burned
// disc array therefore gets a manifest, built inline with the burn while
// the members' serialized streams are still in controller memory (zero
// extra optical I/O): each member stream is cut into fixed-size leaves,
// every leaf hashed, the leaf hashes folded pairwise into a per-member
// Merkle root, and the member roots folded into one array root. The
// manifest is persisted in the MV's state domain and replaced when a
// refresh burn retires the array, so verification reads only the manifest
// plus a sampled subset of leaves off the media — and any deliberate or
// latent corruption of a sampled leaf is provably detected, because the
// stored chain from leaf hash to array root must recompute exactly.
//
// Two format versions differ only in the leaf hash. Version 1 hashes each
// leaf with bytewise FNV-1a 64; version 2, the only one built today, with
// XXH64 (seed 0), which reads whole 64-bit words and runs about eight
// times faster. Manifests already persisted as v1 still parse and verify
// under FNV-1a. The Merkle fold above the leaves is FNV-1a in both
// versions: it hashes 16 bytes per node, so it costs nothing measurable,
// and keeping it fixed means the root checks in Parse do not fork.
//
// The binary manifest format is a durable-state parser like the index
// file, the UDF image and the MV log, and is hardened the same way:
// arbitrary input parses to a fully verified manifest or fails cleanly
// with kInvalidArgument (structure) / kDataLoss (checksum or root
// mismatch). See fuzz/harness.cc (FuzzAuditManifest).
#ifndef ROS_SRC_OLFS_AUDIT_H_
#define ROS_SRC_OLFS_AUDIT_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/mech/geometry.h"
#include "src/olfs/disc_image_store.h"
#include "src/olfs/metadata_volume.h"
#include "src/olfs/params.h"
#include "src/olfs/parity.h"
#include "src/sim/task.h"

namespace ros::olfs {

inline constexpr std::uint32_t kAuditV1 = 1;  // FNV-1a 64 leaves
inline constexpr std::uint32_t kAuditV2 = 2;  // XXH64 leaves
inline constexpr std::uint32_t kAuditCurrentVersion = kAuditV2;

// One burned member's hash tree.
struct AuditMember {
  std::string image_id;
  std::uint64_t stream_bytes = 0;          // burned payload length
  std::vector<std::uint64_t> leaves;       // per leaf chunk, version's hash
  std::uint64_t root = 0;                  // Merkle fold of `leaves`
};

struct AuditManifest {
  std::uint32_t version = kAuditCurrentVersion;  // selects the leaf hash
  std::int64_t tray_index = 0;
  std::uint64_t leaf_bytes = 0;
  std::vector<AuditMember> members;
  std::uint64_t array_root = 0;            // Merkle fold of member roots
};

// --- hash-tree math (shared by builder, verifier and fuzz harness) ---

// Leaf hash of manifest `version` (kAuditV1 or kAuditV2).
std::uint64_t AuditHashLeaf(std::span<const std::uint8_t> chunk,
                            std::uint32_t version = kAuditCurrentVersion);
std::vector<std::uint64_t> AuditLeafHashes(
    std::span<const std::uint8_t> stream, std::uint64_t leaf_bytes,
    std::uint32_t version = kAuditCurrentVersion);
// Binary Merkle fold; an odd trailing node is promoted unchanged. The
// root of zero leaves is a fixed sentinel, so empty members still chain.
std::uint64_t AuditMerkleRoot(const std::vector<std::uint64_t>& leaves);
std::uint64_t AuditArrayRoot(const AuditManifest& manifest);

// --- binary codec ---
// Layout: magic "ROSAUDT1" | version u32 | tray i64 | leaf_bytes u64 |
// member_count u32 | per member (id_len u32, id, stream_bytes u64,
// leaf_count u32, leaves u64[n], root u64) | array_root u64 | crc32 u32.
// All integers little-endian. Versions 1 and 2 share this layout; the
// version field alone says which hash produced `leaves`.

std::vector<std::uint8_t> SerializeAuditManifest(
    const AuditManifest& manifest);
// Strict parse: bounds-checked, CRC-verified (mismatch = kDataLoss),
// version 1 or 2 (any other = kInvalidArgument),
// stored member roots and array root recomputed from the leaves and
// required to match (mismatch = kDataLoss); any structural problem is
// kInvalidArgument. Never trusts a length field beyond the input size.
StatusOr<AuditManifest> ParseAuditManifest(
    std::span<const std::uint8_t> bytes);

// Owns manifest build + persistence. Physical (sampled-read) verification
// lives in ScrubManager, which can fetch discs; this class only touches
// controller memory and the MV.
class AuditRegistry {
 public:
  AuditRegistry(const OlfsParams& params, MetadataVolume* mv,
                DiscImageStore* images, ParityBuilder* parity)
      : params_(params), mv_(mv), images_(images), parity_(parity) {}

  // Builds and persists the manifest for a just-burned array. Member
  // streams are recovered from controller memory (cached data images are
  // re-serialized, parity bytes come from the builder's cache) — the same
  // bytes the burn just wrote, at zero optical cost. Called by
  // BurnManager::FinishJob; failures there are advisory (logged, never
  // failing the burn).
  sim::Task<Status> OnArrayBurned(mech::TrayAddress tray,
                                  std::vector<std::string> member_ids);

  // Drops the manifest covering `tray` (a refresh burn retired it).
  sim::Task<Status> RetireTray(mech::TrayAddress tray);

  // Loads every persisted manifest, in tray order, via the directory.
  sim::Task<StatusOr<std::vector<AuditManifest>>> LoadManifests();

  std::uint64_t roots_built() const { return roots_built_; }
  std::uint64_t manifests_live() const { return manifests_live_; }

 private:
  static std::string ManifestKey(int tray_index);
  // Rewrites the directory state entry from `roots_`.
  sim::Task<Status> PersistDirectory();

  OlfsParams params_;
  MetadataVolume* mv_;
  DiscImageStore* images_;
  ParityBuilder* parity_;
  // tray index -> array root (the auditor's root set, mirrored in MV).
  std::map<int, std::uint64_t> roots_;
  std::uint64_t roots_built_ = 0;
  std::uint64_t manifests_live_ = 0;
};

}  // namespace ros::olfs

#endif  // ROS_SRC_OLFS_AUDIT_H_
