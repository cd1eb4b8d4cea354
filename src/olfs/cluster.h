// Multi-rack cluster: namespace/placement service over N ROS racks
// (DESIGN.md §5k, ROADMAP item 1).
//
// One rack's aggregate throughput is capped by its 24 drives and one
// FetchScheduler no matter how many clients arrive. Cluster is the thin
// routing layer that breaks that wall — the shape CERN EOS uses (an MGM
// namespace head over self-contained FST stores) and the one long-lived
// archives converge on: each rack stays a complete, independently
// recoverable ROS system; the cluster owns only the bucket -> rack
// routing table and the placement policy.
//
//   - Writes route by capacity- and affinity-aware placement (placement.h);
//     reads fan out across racks, so independent clients stop serializing
//     on one mechanical queue.
//   - A replicated bucket class writes synchronously to a primary and a
//     mirror on a different rack: the rack is the failure domain, and
//     every acked replicated write survives a whole-rack loss.
//   - The routing table persists in the cluster's own mirrored MV; after
//     a namespace-head restart ReloadRouting() recovers it, and a killed
//     rack rebuilds its namespace from its discs (RebuildNamespace) using
//     the burned-tray manifest the cluster persisted for it.
//   - A background rebalancer migrates the coldest bucket off the hottest
//     rack when the op-rate spread crosses a threshold.
//
// Every inter-node message crosses a deterministic sim-time channel that
// folds (op, rack, seq) into the sim::EventHasher, so the divergence
// oracle covers cluster scheduling exactly like PLC actuations.
#ifndef ROS_SRC_OLFS_CLUSTER_H_
#define ROS_SRC_OLFS_CLUSTER_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/status.h"
#include "src/disk/block_device.h"
#include "src/disk/raid.h"
#include "src/disk/volume.h"
#include "src/olfs/hints.h"
#include "src/olfs/olfs.h"
#include "src/olfs/params.h"
#include "src/olfs/placement.h"
#include "src/olfs/system.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace ros::olfs {

struct ClusterParams {
  int racks = 2;
  // Template for every rack; rack_name is overridden per rack ("rack<i>")
  // so physical ids stay cluster-unique.
  SystemConfig rack_config = TestSystemConfig();
  OlfsParams rack_params;
  // The namespace head's own mirrored-SSD metadata volume (routes,
  // burned-tray manifests).
  std::uint64_t mv_ssd_capacity = 64 * kMiB;
  // One inter-node message hop (MGM <-> FST, intra-datacenter).
  sim::Duration hop_latency = sim::Micros(50);
  // A stream's favourite rack wins placement while within this many bytes
  // of the least-loaded rack.
  std::uint64_t affinity_headroom_bytes = 256 * kMiB;
  // Rebalancer (0 disables): every interval, if the hottest alive rack
  // saw at least `rebalance_min_ops` more ops than the coldest in the
  // window, its coldest bucket migrates to the least-loaded rack.
  sim::Duration rebalance_interval = 0;
  std::uint64_t rebalance_min_ops = 64;
};

struct ClusterStats {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t replicated_puts = 0;
  std::uint64_t mirror_reads = 0;  // primary dead, served by the mirror
  std::uint64_t messages = 0;      // channel hops
  std::uint64_t buckets_migrated = 0;
  std::uint64_t objects_migrated = 0;
  std::uint64_t bytes_migrated = 0;
  std::uint64_t routes_recovered = 0;  // loaded by ReloadRouting
  std::uint64_t rack_kills = 0;
  std::uint64_t rack_recoveries = 0;
};

// The burned-tray manifest SyncRackState persists per rack, and
// RecoverRack feeds to RebuildNamespace: a JSON array of tray indices.
json::Value EncodeTrayManifest(const std::set<int>& trays);
// Decodes a manifest for a rack with `rollers` rollers. A value that is
// not an array, an entry that is not an integer and a tray outside the
// rack are kDataLoss.
StatusOr<std::vector<mech::TrayAddress>> DecodeTrayManifest(
    const json::Value& manifest, int rollers);

class Cluster {
 public:
  Cluster(sim::Simulator& sim, ClusterParams params);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int racks() const { return static_cast<int>(nodes_.size()); }
  // Null while the rack is killed.
  Olfs* rack(int i) { return nodes_.at(i)->olfs.get(); }
  RosSystem* rack_system(int i) { return nodes_.at(i)->system.get(); }
  bool rack_alive(int i) const { return nodes_.at(i)->alive; }

  // ------------------------------------------------------------------
  // Namespace operations (bucket/key). Keys may contain '/' (nested
  // directories on the rack).
  // ------------------------------------------------------------------

  sim::Task<Status> CreateBucket(std::string bucket,
                                 BucketClass cls = BucketClass::kStandard,
                                 std::uint64_t stream = 0);
  sim::Task<Status> Put(std::string bucket, std::string key,
                        std::vector<std::uint8_t> data, AccessHint hint = {});
  sim::Task<StatusOr<std::vector<std::uint8_t>>> Get(std::string bucket,
                                                     std::string key,
                                                     AccessHint hint = {});
  sim::Task<StatusOr<FileInfo>> Stat(std::string bucket, std::string key);
  sim::Task<StatusOr<std::vector<std::string>>> List(std::string bucket);
  sim::Task<Status> Delete(std::string bucket, std::string key);

  // ------------------------------------------------------------------
  // Control plane (fan-out across alive racks)
  // ------------------------------------------------------------------

  // Flushes and drains every alive rack's burn pipeline in parallel.
  sim::Task<Status> FlushAndDrain();

  // Starts each alive rack's background policies, plus the cluster's own
  // rebalancer when rebalance_interval > 0.
  void StartBackgroundPolicies(sim::Duration mv_snapshot_interval,
                               sim::Duration auto_flush_interval,
                               sim::Duration scrub_interval = 0);

  // Persists cluster state into the cluster MV: every routing shard and,
  // per alive rack, the manifest of burned tray indices (what
  // RecoverRack feeds to RebuildNamespace).
  sim::Task<Status> SyncRackState();

  // ------------------------------------------------------------------
  // Failure domains
  // ------------------------------------------------------------------

  // Kills rack `i`'s controller: stops routing to it, waits out in-flight
  // calls (a migration off or onto the rack among them), quiesces and
  // destroys the Olfs facade. The RosSystem — media,
  // burned bytes — survives, as does anything acked to a replicated
  // bucket (served by the mirror while the rack is down). Unburned
  // buffered data on the rack is lost, exactly like a real controller
  // loss.
  sim::Task<Status> KillRack(int i);

  // Rebuilds rack `i`: a fresh Olfs over the surviving hardware, then
  // RebuildNamespace from the burned-tray manifest persisted by
  // SyncRackState. The rack rejoins placement afterwards. A rack with no
  // manifest never synced and rebuilds from nothing; a manifest that
  // cannot be read or decoded fails the call and the rack stays down.
  sim::Task<StatusOr<RecoveryReport>> RecoverRack(int i);

  // Namespace-head restart: drops the in-memory routing table and the
  // head's store object, re-opens the store from its volume, and reloads
  // the table from it. Requires a quiescent head (no cluster operation in
  // flight). A shard that was never persisted is skipped; any other store
  // error is returned. Counts recovered routes in stats().
  sim::Task<Status> ReloadRouting();

  // One rebalance pass (also what the background loop runs): migrate the
  // coldest bucket off the hottest rack when the spread crosses
  // rebalance_min_ops. Returns true if a bucket moved.
  sim::Task<StatusOr<bool>> RebalanceOnce();

  // ------------------------------------------------------------------
  // Introspection
  // ------------------------------------------------------------------

  const RoutingTable& routes() const { return routes_; }
  PlacementPolicy& placement() { return placement_; }
  const ClusterStats& stats() const { return stats_; }
  MetadataVolume& cluster_mv() { return *mv_; }
  const ClusterParams& params() const { return params_; }

  // Rack path of one object ("/b/<bucket>/<key>").
  static std::string RackPath(const std::string& bucket,
                              const std::string& key);

 private:
  struct RackNode {
    std::unique_ptr<RosSystem> system;
    std::unique_ptr<Olfs> olfs;
    bool alive = true;
    int inflight = 0;          // OnRack calls currently on this rack
    std::uint64_t window_ops = 0;  // ops since the last rebalance window
  };

  // One op's hold on a bucket, taken by EnterBucket. Destroying it
  // releases the hold (LeaveBucket), so no return path can leak one.
  struct BucketExit {
    std::string bucket;
    void operator()(Cluster* cluster) const { cluster->LeaveBucket(bucket); }
  };
  using BucketGate = std::unique_ptr<Cluster, BucketExit>;

  // One deterministic message hop to rack `rack`; folds (op, rack, seq)
  // into the sim's EventHasher and charges the channel latency.
  sim::Task<void> Hop(int rack, const char* op);

  // The one way into a rack's Olfs: refuses a dead rack with
  // kUnavailable; otherwise counts the call in the rack's in-flight ops,
  // charges one Hop and runs `call(olfs)`, then leaves the rack. KillRack
  // waits until no call is in flight, so the Olfs outlives every call.
  template <typename Call>
  std::invoke_result_t<Call&, Olfs&> OnRack(int rack, const char* op,
                                            Call call);

  // Runs `leg` on every replica of `route` (the primary, plus the mirror
  // of a replicated bucket) in parallel. Every replica must be alive
  // before any leg runs, so a write that has to fail changes nothing.
  template <typename Leg>
  sim::Task<Status> OnReplicas(BucketRoute route, const char* op, Leg leg);

  // The replica that serves a read of `bucket`: its primary, else the
  // live mirror of a replicated bucket. kNotFound for an unrouted
  // bucket, kUnavailable when no replica is alive.
  StatusOr<int> ReadRack(const std::string& bucket) const;

  // Places a new route for `bucket`, records it and persists its shard.
  sim::Task<StatusOr<BucketRoute>> AddRoute(std::string bucket,
                                            BucketClass cls,
                                            std::uint64_t stream);

  // Per-bucket gate: ops hold the bucket open; migration freezes it and
  // waits for in-flight ops to drain so the route flip is atomic.
  sim::Task<BucketGate> EnterBucket(std::string bucket);
  void LeaveBucket(const std::string& bucket);

  // Persists one routing shard to the cluster MV.
  sim::Task<Status> PersistShard(int shard);

  // Moves one bucket's objects from its current primary to `target` and
  // flips the route.
  sim::Task<Status> MigrateBucket(std::string bucket, int target);
  // MigrateBucket's copy and route flip, run while it is in flight on
  // both racks.
  sim::Task<Status> CopyBucket(std::string bucket, int source, int target,
                               Olfs* src, Olfs* dst);

  sim::Task<void> RebalanceLoop(sim::Duration interval,
                                std::shared_ptr<const bool> alive);

  sim::Simulator& sim_;
  ClusterParams params_;

  // The namespace head's own metadata store: two SSDs in RAID-1 under a
  // volume, same shape as a rack MV.
  std::vector<std::unique_ptr<disk::StorageDevice>> mv_ssds_;
  std::unique_ptr<disk::RaidVolume> mv_raid_;
  std::unique_ptr<disk::Volume> mv_volume_;
  std::unique_ptr<MetadataVolume> mv_;

  std::vector<std::unique_ptr<RackNode>> nodes_;
  RoutingTable routes_;
  PlacementPolicy placement_;
  ClusterStats stats_;

  // Bucket gate state (ordered: deterministic; point lookups only).
  std::map<std::string, int> bucket_inflight_;
  std::set<std::string> frozen_buckets_;
  sim::ConditionVariable bucket_cv_;
  sim::ConditionVariable rack_drained_;

  std::shared_ptr<bool> bg_alive_ = std::make_shared<bool>(true);
};

}  // namespace ros::olfs

#endif  // ROS_SRC_OLFS_CLUSTER_H_
