// Bucket placement for the multi-rack cluster (DESIGN.md §5k).
//
// The cluster's namespace service routes whole buckets to racks. Routes
// live in a sharded table (16 shards, FNV-1a of the bucket name) so the
// table persists to the cluster MV incrementally — a route flip rewrites
// one shard document, not the whole map. Placement is capacity-aware
// (least routed bytes wins) and affinity-aware: a tagged stream prefers
// the rack already holding most of its buckets, so co-accessed buckets
// land behind one FetchScheduler and share tray locality (PR 6's
// AccessHint affinity, lifted one level up). Everything iterates ordered
// containers — same inputs, same placement, every run.
#ifndef ROS_SRC_OLFS_PLACEMENT_H_
#define ROS_SRC_OLFS_PLACEMENT_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/common/status.h"

namespace ros::olfs {

// Durability class of a bucket. kReplicated buckets write synchronously
// to a primary and a mirror on a different rack (a rack is the failure
// domain); kStandard buckets live on one rack only.
enum class BucketClass { kStandard, kReplicated };

struct BucketRoute {
  int primary = -1;
  int mirror = -1;  // -1 unless the bucket is kReplicated
  BucketClass cls = BucketClass::kStandard;
  std::uint64_t bytes = 0;  // payload bytes routed into this bucket
  std::uint64_t ops = 0;    // puts + gets through this route (heat)
};

// The cluster's bucket -> rack routing table. Sharded by bucket-name
// hash; each shard serializes to one JSON document for persistence in
// the cluster MV ("cluster/routes/<shard>").
class RoutingTable {
 public:
  static constexpr int kShards = 16;

  static int ShardOf(const std::string& bucket);

  const BucketRoute* Find(const std::string& bucket) const;
  BucketRoute* FindMutable(const std::string& bucket);
  void Insert(const std::string& bucket, BucketRoute route);
  void Erase(const std::string& bucket);
  std::size_t size() const;

  // Deterministic full scan: shard 0..15, lexicographic within a shard.
  void ForEach(
      const std::function<void(const std::string&, const BucketRoute&)>& fn)
      const;

  json::Value ShardToJson(int shard) const;
  // Replaces `shard` with the routes in `doc` (ShardToJson's format).
  // kInvalidArgument, with the table unchanged, unless every route hashes
  // to `shard`, names a primary in [0, racks) and a mirror of -1 or in
  // [0, racks), and carries non-negative counters.
  Status LoadShard(int shard, const json::Value& doc, int racks);

 private:
  std::array<std::map<std::string, BucketRoute>, kShards> shards_;
};

struct PlacementQuery {
  std::uint64_t stream = 0;  // affinity hint; 0 = none
  BucketClass cls = BucketClass::kStandard;
};

struct PlacementDecision {
  int primary = -1;
  int mirror = -1;
};

// Capacity- and affinity-aware rack chooser. Tracks per-rack routed
// bytes, per-stream bucket placement history and rack liveness; Place()
// is a pure function of that state.
class PlacementPolicy {
 public:
  PlacementPolicy(int racks, std::uint64_t affinity_headroom_bytes);

  void SetAlive(int rack, bool alive);
  bool alive(int rack) const { return alive_.at(rack); }
  int racks() const { return static_cast<int>(alive_.size()); }
  int alive_racks() const;

  // Capacity ledger: bytes routed onto / migrated off a rack.
  void NoteRouted(int rack, std::uint64_t bytes);
  void NoteUnrouted(int rack, std::uint64_t bytes);
  // Zeroes the ledger (namespace-head restart; rebuilt from the
  // recovered routing table).
  void ResetBytes();
  std::uint64_t rack_bytes(int rack) const { return bytes_.at(rack); }

  // Affinity ledger: `stream` touched a bucket homed on `rack`.
  void NoteStreamRack(std::uint64_t stream, int rack);

  // Primary: the alive rack with the fewest routed bytes (ties: lowest
  // index), unless the query's stream has history and its favourite
  // alive rack is within `affinity_headroom_bytes` of that minimum —
  // then affinity wins. Mirror (kReplicated only): the next-best alive
  // rack, never the primary; an error when no second rack is alive.
  StatusOr<PlacementDecision> Place(const PlacementQuery& query) const;

 private:
  std::uint64_t headroom_;
  std::vector<bool> alive_;
  std::vector<std::uint64_t> bytes_;
  // stream -> (rack -> touches); ordered for deterministic argmax.
  std::map<std::uint64_t, std::map<int, std::uint64_t>> stream_racks_;
};

}  // namespace ros::olfs

#endif  // ROS_SRC_OLFS_PLACEMENT_H_
