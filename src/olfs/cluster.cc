#include "src/olfs/cluster.h"

#include <algorithm>
#include <deque>
#include <utility>

#include "src/common/logging.h"
#include "src/sim/event_hasher.h"
#include "src/sim/join.h"

namespace ros::olfs {

Cluster::Cluster(sim::Simulator& sim, ClusterParams params)
    : sim_(sim), params_(std::move(params)),
      placement_(params_.racks, params_.affinity_headroom_bytes),
      bucket_cv_(sim),
      rack_drained_(sim) {
  ROS_CHECK(params_.racks > 0);
  // The namespace head's metadata store: same mirrored-SSD shape as a
  // rack MV, scaled down (routes + tray manifests are small).
  for (int i = 0; i < 2; ++i) {
    mv_ssds_.push_back(std::make_unique<disk::StorageDevice>(
        sim, "cluster_mv_ssd" + std::to_string(i), params_.mv_ssd_capacity,
        disk::SsdPerf()));
  }
  mv_raid_ = std::make_unique<disk::RaidVolume>(
      sim, disk::RaidLevel::kRaid1,
      std::vector<disk::StorageDevice*>{mv_ssds_[0].get(),
                                        mv_ssds_[1].get()});
  mv_volume_ = std::make_unique<disk::Volume>(
      sim, mv_raid_.get(), disk::MetadataVolumeParams());
  mv_ = std::make_unique<MetadataVolume>(sim, mv_volume_.get(),
                                         MetadataVolume::Options{});

  for (int i = 0; i < params_.racks; ++i) {
    auto node = std::make_unique<RackNode>();
    SystemConfig config = params_.rack_config;
    config.rack_name = "rack" + std::to_string(i);
    node->system = std::make_unique<RosSystem>(sim, config);
    node->olfs = std::make_unique<Olfs>(sim, node->system.get(),
                                        params_.rack_params);
    nodes_.push_back(std::move(node));
  }
}

Cluster::~Cluster() { *bg_alive_ = false; }

std::string Cluster::RackPath(const std::string& bucket,
                              const std::string& key) {
  return "/b/" + bucket + "/" + key;
}

sim::Task<void> Cluster::Hop(int rack, const char* op) {
  ++stats_.messages;
  // Fold the message into the divergence oracle before the latency
  // charge: two runs must exchange the identical message sequence.
  if (sim_.event_hasher() != nullptr) {
    sim_.event_hasher()->Fold("cluster", op,
                              static_cast<std::uint64_t>(rack),
                              stats_.messages);
  }
  co_await sim_.Delay(params_.hop_latency);
}

// --- rack calls -----------------------------------------------------------
//
// Callers hand OnRack and OnReplicas their lambda as a named local moved
// in: GCC 12 miscompiles a capturing lambda temporary passed straight
// into an awaited coroutine call (the captured string is freed from the
// caller's frame, "free(): invalid size").

template <typename Call>
std::invoke_result_t<Call&, Olfs&> Cluster::OnRack(int rack, const char* op,
                                                   Call call) {
  RackNode& node = *nodes_.at(static_cast<std::size_t>(rack));
  if (!node.alive) {
    co_return UnavailableError("rack " + std::to_string(rack) + " is down");
  }
  ++node.inflight;
  co_await Hop(rack, op);
  auto result = co_await call(*node.olfs);
  if (--node.inflight == 0) {
    rack_drained_.NotifyAll();
  }
  co_return result;
}

template <typename Leg>
sim::Task<Status> Cluster::OnReplicas(BucketRoute route, const char* op,
                                      Leg leg) {
  if (route.mirror < 0) {
    co_return co_await OnRack(route.primary, op, std::move(leg));
  }
  for (int rack : {route.primary, route.mirror}) {
    if (!rack_alive(rack)) {
      co_return UnavailableError("rack " + std::to_string(rack) +
                                 " is down");
    }
  }
  std::vector<sim::Task<Status>> legs;
  legs.push_back(OnRack(route.primary, op, leg));
  legs.push_back(OnRack(route.mirror, op, std::move(leg)));
  co_return co_await sim::AllOk(sim_, std::move(legs));
}

StatusOr<int> Cluster::ReadRack(const std::string& bucket) const {
  const BucketRoute* route = routes_.Find(bucket);
  if (route == nullptr) {
    return NotFoundError("no bucket " + bucket);
  }
  if (rack_alive(route->primary)) {
    return route->primary;
  }
  if (route->mirror >= 0 && rack_alive(route->mirror)) {
    return route->mirror;
  }
  return UnavailableError("bucket " + bucket + " has no alive replica");
}

// --- per-bucket gate ----------------------------------------------------

sim::Task<Cluster::BucketGate> Cluster::EnterBucket(std::string bucket) {
  while (frozen_buckets_.count(bucket) > 0) {
    co_await bucket_cv_.Wait();
  }
  ++bucket_inflight_[bucket];
  BucketGate gate(this, BucketExit{std::move(bucket)});
  co_return gate;
}

void Cluster::LeaveBucket(const std::string& bucket) {
  auto it = bucket_inflight_.find(bucket);
  ROS_CHECK(it != bucket_inflight_.end());
  if (--it->second <= 0) {
    bucket_inflight_.erase(it);
  }
  bucket_cv_.NotifyAll();
}

// --- routing ------------------------------------------------------------

sim::Task<Status> Cluster::PersistShard(int shard) {
  co_return co_await mv_->PutState("cluster/routes/" + std::to_string(shard),
                                   routes_.ShardToJson(shard));
}

sim::Task<StatusOr<BucketRoute>> Cluster::AddRoute(std::string bucket,
                                                   BucketClass cls,
                                                   std::uint64_t stream) {
  PlacementQuery query;
  query.stream = stream;
  query.cls = cls;
  auto placed = placement_.Place(query);
  if (!placed.ok()) {
    co_return placed.status();
  }
  BucketRoute route;
  route.primary = placed->primary;
  route.mirror = placed->mirror;
  route.cls = cls;
  routes_.Insert(bucket, route);
  ROS_CO_RETURN_IF_ERROR(
      co_await PersistShard(RoutingTable::ShardOf(bucket)));
  co_return route;
}

sim::Task<Status> Cluster::ReloadRouting() {
  // The restarted head re-opens its store from the mirrored SSDs (the
  // first read replays the WAL) and rebuilds the table from it.
  mv_.reset();
  mv_ = std::make_unique<MetadataVolume>(sim_, mv_volume_.get(),
                                         MetadataVolume::Options{});
  // A damaged or invalid shard must not leave the table half rebuilt.
  RoutingTable loaded;
  for (int shard = 0; shard < RoutingTable::kShards; ++shard) {
    auto doc = co_await mv_->GetState("cluster/routes/" +
                                      std::to_string(shard));
    if (doc.status().code() == StatusCode::kNotFound) {
      continue;  // shard never persisted (empty table is legitimate)
    }
    if (!doc.ok()) {
      co_return doc.status();
    }
    ROS_CO_RETURN_IF_ERROR(loaded.LoadShard(shard, *doc, racks()));
  }
  routes_ = std::move(loaded);
  // The in-memory capacity ledger restarted with the namespace head;
  // rebuild it from the recovered routes.
  placement_.ResetBytes();
  routes_.ForEach([this](const std::string&, const BucketRoute& route) {
    placement_.NoteRouted(route.primary, route.bytes);
    if (route.mirror >= 0) {
      placement_.NoteRouted(route.mirror, route.bytes);
    }
  });
  stats_.routes_recovered += routes_.size();
  co_return OkStatus();
}

// --- namespace operations ----------------------------------------------

sim::Task<Status> Cluster::CreateBucket(std::string bucket, BucketClass cls,
                                        std::uint64_t stream) {
  if (bucket.empty() || bucket.find('/') != std::string::npos) {
    co_return InvalidArgumentError("bad bucket name: " + bucket);
  }
  BucketGate gate = co_await EnterBucket(bucket);
  if (routes_.Find(bucket) != nullptr) {
    co_return AlreadyExistsError("bucket " + bucket + " exists");
  }
  ROS_CO_ASSIGN_OR_RETURN(const BucketRoute route,
                          co_await AddRoute(bucket, cls, stream));
  auto mkdir = [dir = "/b/" + bucket](Olfs& olfs) -> sim::Task<Status> {
    Status made = co_await olfs.Mkdir(dir);
    co_return made.code() == StatusCode::kAlreadyExists ? OkStatus() : made;
  };
  Status status = co_await OnRack(route.primary, "mkdir", mkdir);
  if (status.ok() && route.mirror >= 0) {
    status = co_await OnRack(route.mirror, "mkdir", mkdir);
  }
  co_return status;
}

sim::Task<Status> Cluster::Put(std::string bucket, std::string key,
                               std::vector<std::uint8_t> data,
                               AccessHint hint) {
  BucketGate gate = co_await EnterBucket(bucket);
  if (routes_.Find(bucket) == nullptr) {
    // The first Put to an unknown bucket places a standard-class route.
    auto added =
        co_await AddRoute(bucket, BucketClass::kStandard, hint.stream);
    ROS_CO_RETURN_IF_ERROR(added.status());
  }
  const BucketRoute route = *routes_.Find(bucket);
  ++stats_.puts;
  if (route.mirror >= 0) {
    // Synchronous replication: the put acks only when both copies are
    // durable in their rack's write path — a whole-rack loss afterwards
    // cannot lose it.
    ++stats_.replicated_puts;
  }
  const std::uint64_t size = data.size();
  auto put = [path = RackPath(bucket, key), data = std::move(data),
              hint](Olfs& olfs) mutable {
    const std::uint64_t n = data.size();
    return olfs.Write(std::move(path), std::move(data), n, hint);
  };
  ROS_CO_RETURN_IF_ERROR(co_await OnReplicas(route, "put", std::move(put)));
  if (BucketRoute* r = routes_.FindMutable(bucket)) {
    r->bytes += size;
    ++r->ops;
  }
  placement_.NoteRouted(route.primary, size);
  if (route.mirror >= 0) {
    placement_.NoteRouted(route.mirror, size);
  }
  placement_.NoteStreamRack(hint.stream, route.primary);
  ++nodes_.at(static_cast<std::size_t>(route.primary))->window_ops;
  // Re-persist the shard so the routed-bytes ledger (which placement
  // and ReloadRouting rebuild from) survives a namespace-head restart.
  // The object itself is already durable on the racks; a failed shard
  // write degrades recovery accounting, not data, so it only warns.
  Status persisted = co_await PersistShard(RoutingTable::ShardOf(bucket));
  if (!persisted.ok()) {
    ROS_LOG(kWarning) << "routing shard persist after put failed: "
                      << persisted.ToString();
  }
  co_return OkStatus();
}

sim::Task<StatusOr<std::vector<std::uint8_t>>> Cluster::Get(
    std::string bucket, std::string key, AccessHint hint) {
  BucketGate gate = co_await EnterBucket(bucket);
  auto rack = ReadRack(bucket);
  if (rack.status().code() != StatusCode::kNotFound) {
    ++stats_.gets;
  }
  if (!rack.ok()) {
    co_return rack.status();
  }
  if (*rack != routes_.Find(bucket)->primary) {
    ++stats_.mirror_reads;
  }
  auto read = [path = RackPath(bucket, key), hint](Olfs& olfs)
      -> sim::Task<StatusOr<std::vector<std::uint8_t>>> {
    auto info = co_await olfs.Stat(path);
    if (!info.ok()) {
      co_return info.status();
    }
    co_return co_await olfs.Read(path, 0, info->size, hint);
  };
  auto data = co_await OnRack(*rack, "get", std::move(read));
  if (BucketRoute* r = routes_.FindMutable(bucket)) {
    ++r->ops;
  }
  ++nodes_.at(static_cast<std::size_t>(*rack))->window_ops;
  placement_.NoteStreamRack(hint.stream, *rack);
  co_return data;
}

sim::Task<StatusOr<FileInfo>> Cluster::Stat(std::string bucket,
                                            std::string key) {
  BucketGate gate = co_await EnterBucket(bucket);
  ROS_CO_ASSIGN_OR_RETURN(const int rack, ReadRack(bucket));
  auto stat = [path = RackPath(bucket, key)](Olfs& olfs) {
    return olfs.Stat(path);
  };
  co_return co_await OnRack(rack, "stat", std::move(stat));
}

sim::Task<StatusOr<std::vector<std::string>>> Cluster::List(
    std::string bucket) {
  BucketGate gate = co_await EnterBucket(bucket);
  ROS_CO_ASSIGN_OR_RETURN(const int rack, ReadRack(bucket));
  auto list = [dir = "/b/" + bucket](Olfs& olfs) {
    return olfs.ReadDir(dir);
  };
  co_return co_await OnRack(rack, "list", std::move(list));
}

sim::Task<Status> Cluster::Delete(std::string bucket, std::string key) {
  BucketGate gate = co_await EnterBucket(bucket);
  const BucketRoute* route = routes_.Find(bucket);
  if (route == nullptr) {
    co_return NotFoundError("no bucket " + bucket);
  }
  auto unlink = [path = RackPath(bucket, key)](Olfs& olfs) {
    return olfs.Unlink(path);
  };
  co_return co_await OnReplicas(*route, "delete", std::move(unlink));
}

// --- control plane ------------------------------------------------------

sim::Task<Status> Cluster::FlushAndDrain() {
  std::vector<sim::Task<Status>> flushes;
  for (int i = 0; i < racks(); ++i) {
    if (rack_alive(i)) {  // nothing to flush on a dead rack
      flushes.push_back(OnRack(
          i, "flush", [](Olfs& olfs) { return olfs.FlushAndDrain(); }));
    }
  }
  co_return co_await sim::AllOk(sim_, std::move(flushes));
}

void Cluster::StartBackgroundPolicies(sim::Duration mv_snapshot_interval,
                                      sim::Duration auto_flush_interval,
                                      sim::Duration scrub_interval) {
  for (auto& node : nodes_) {
    if (node->alive && node->olfs != nullptr) {
      node->olfs->StartBackgroundPolicies(mv_snapshot_interval,
                                          auto_flush_interval,
                                          scrub_interval);
    }
  }
  if (params_.rebalance_interval > 0) {
    sim_.Spawn(RebalanceLoop(params_.rebalance_interval, bg_alive_));
  }
}

sim::Task<Status> Cluster::SyncRackState() {
  for (int shard = 0; shard < RoutingTable::kShards; ++shard) {
    ROS_CO_RETURN_IF_ERROR(co_await PersistShard(shard));
  }
  for (int i = 0; i < racks(); ++i) {
    RackNode& node = *nodes_.at(static_cast<std::size_t>(i));
    if (!node.alive || node.olfs == nullptr) {
      continue;  // keep the dead rack's last-known manifest
    }
    // Burned-tray manifest: the exact tray list RebuildNamespace needs
    // after this rack's controller is replaced.
    std::set<int> trays;
    for (const std::string& id : node.olfs->images().BurnedImages()) {
      auto record = node.olfs->images().Lookup(id);
      if (record.ok() && (*record)->disc.has_value()) {
        trays.insert((*record)->disc->tray.ToIndex());
      }
    }
    json::Array manifest;
    for (int tray : trays) {
      manifest.emplace_back(tray);
    }
    ROS_CO_RETURN_IF_ERROR(co_await mv_->PutState(
        "cluster/rack" + std::to_string(i) + "/trays",
        json::Value(std::move(manifest))));
  }
  co_return OkStatus();
}

// --- failure domains ----------------------------------------------------

sim::Task<Status> Cluster::KillRack(int i) {
  RackNode& node = *nodes_.at(static_cast<std::size_t>(i));
  if (!node.alive || node.olfs == nullptr) {
    co_return FailedPreconditionError("rack " + std::to_string(i) +
                                      " is already down");
  }
  // Stop routing to the rack first; in-flight ops finish, then the
  // controller is quiesced and destroyed. Media (and burned bytes)
  // survive in the RosSystem; unburned buffered data dies with the
  // controller — that is the loss model replication exists for.
  node.alive = false;
  placement_.SetAlive(i, false);
  while (node.inflight > 0) {
    co_await rack_drained_.Wait();
  }
  co_await node.olfs->Quiesce();
  node.olfs.reset();
  ++stats_.rack_kills;
  co_return OkStatus();
}

sim::Task<StatusOr<RecoveryReport>> Cluster::RecoverRack(int i) {
  RackNode& node = *nodes_.at(static_cast<std::size_t>(i));
  if (node.alive || node.olfs != nullptr) {
    co_return FailedPreconditionError("rack " + std::to_string(i) +
                                      " is not down");
  }
  node.olfs = std::make_unique<Olfs>(sim_, node.system.get(),
                                     params_.rack_params);
  co_await Hop(i, "recover");
  // Tray manifest persisted by the last SyncRackState: which disc arrays
  // the dead controller had burned. A rack that never synced rebuilds
  // from nothing (correct: nothing burned was recorded as durable).
  std::vector<mech::TrayAddress> trays;
  auto manifest = co_await mv_->GetState("cluster/rack" + std::to_string(i) +
                                         "/trays");
  if (manifest.ok() && manifest->is_array()) {
    for (const json::Value& entry : manifest->as_array()) {
      if (entry.is_int()) {
        trays.push_back(
            mech::TrayAddress::FromIndex(static_cast<int>(entry.as_int())));
      }
    }
  }
  auto report = co_await node.olfs->RebuildNamespace(trays);
  if (!report.ok()) {
    node.olfs.reset();
    co_return report.status();
  }
  node.alive = true;
  placement_.SetAlive(i, true);
  ++stats_.rack_recoveries;
  co_return report;
}

// --- rebalancer ---------------------------------------------------------

sim::Task<Status> Cluster::MigrateBucket(std::string bucket, int target) {
  // Freeze the bucket: new ops wait at EnterBucket, and the flip happens
  // only after every in-flight op has drained — route changes are atomic
  // from the client's point of view.
  frozen_buckets_.insert(bucket);
  while (bucket_inflight_.count(bucket) > 0) {
    co_await bucket_cv_.Wait();
  }
  Status status = FailedPreconditionError(
      "bucket " + bucket + " is not migratable to rack " +
      std::to_string(target));
  const BucketRoute* route = routes_.Find(bucket);
  if (route != nullptr && route->primary != target) {
    // The copy is in flight on both racks for its whole run, so a
    // KillRack of either waits for it to stop.
    const int source = route->primary;
    auto copy = [this, bucket, source, target](Olfs& src) {
      auto copy_into = [this, bucket, source, target,
                        from = &src](Olfs& dst) {
        return CopyBucket(bucket, source, target, from, &dst);
      };
      return OnRack(target, "migrate-in", std::move(copy_into));
    };
    status = co_await OnRack(source, "migrate-out", std::move(copy));
  }
  frozen_buckets_.erase(bucket);
  bucket_cv_.NotifyAll();
  co_return status;
}

sim::Task<Status> Cluster::CopyBucket(std::string bucket, int source,
                                      int target, Olfs* src, Olfs* dst) {
  std::uint64_t moved_bytes = 0;
  std::uint64_t moved_objects = 0;
  // A rack kill stops the copy at the next object and keeps the route on
  // the source; KillRack is waiting for this call to leave both racks.
  const auto lost_rack = [this, source, target] {
    return !rack_alive(source) || !rack_alive(target);
  };
  // The bucket's whole subtree, breadth-first: a nested key ("dir/k")
  // lives under a directory per prefix.
  std::deque<std::string> dirs{"/b/" + bucket};
  while (!dirs.empty() && !lost_rack()) {
    const std::string dir = std::move(dirs.front());
    dirs.pop_front();
    ROS_CO_ASSIGN_OR_RETURN(const std::vector<std::string> names,
                            co_await src->ReadDir(dir));
    for (const std::string& name : names) {
      if (lost_rack()) {
        break;
      }
      const std::string path = dir + "/" + name;
      auto info = co_await src->Stat(path);
      if (!info.ok()) {
        continue;  // tombstoned: latest objects only
      }
      if (info->is_directory) {
        dirs.push_back(path);
        continue;
      }
      ROS_CO_ASSIGN_OR_RETURN(std::vector<std::uint8_t> data,
                              co_await src->Read(path, 0, info->size));
      const std::uint64_t size = data.size();
      ROS_CO_RETURN_IF_ERROR(
          co_await dst->Write(path, std::move(data), size));
      moved_bytes += size;
      ++moved_objects;
    }
  }
  if (lost_rack()) {
    co_return UnavailableError("migration of bucket " + bucket +
                               " lost a rack");
  }
  // Flip the route and persist it. The source keeps its copies: WORM
  // media has no eager erase, and its namespace entries stay as they
  // were, unreachable through the cluster once the route names the
  // target.
  if (BucketRoute* r = routes_.FindMutable(bucket)) {
    r->primary = target;
    r->ops = 0;  // heat resets with the new home
  }
  placement_.NoteUnrouted(source, moved_bytes);
  placement_.NoteRouted(target, moved_bytes);
  ++stats_.buckets_migrated;
  stats_.objects_migrated += moved_objects;
  stats_.bytes_migrated += moved_bytes;
  co_return co_await PersistShard(RoutingTable::ShardOf(bucket));
}

sim::Task<StatusOr<bool>> Cluster::RebalanceOnce() {
  // Hottest and coldest alive racks by ops in the current window.
  int hottest = -1;
  int coldest = -1;
  for (int i = 0; i < racks(); ++i) {
    const RackNode& node = *nodes_.at(static_cast<std::size_t>(i));
    if (!node.alive) {
      continue;
    }
    if (hottest < 0 ||
        node.window_ops >
            nodes_.at(static_cast<std::size_t>(hottest))->window_ops) {
      hottest = i;
    }
    if (coldest < 0 ||
        node.window_ops <
            nodes_.at(static_cast<std::size_t>(coldest))->window_ops) {
      coldest = i;
    }
  }
  if (hottest < 0 || coldest < 0 || hottest == coldest) {
    co_return false;
  }
  const std::uint64_t hot_ops =
      nodes_.at(static_cast<std::size_t>(hottest))->window_ops;
  const std::uint64_t cold_ops =
      nodes_.at(static_cast<std::size_t>(coldest))->window_ops;
  if (hot_ops < cold_ops + params_.rebalance_min_ops) {
    co_return false;
  }
  // Coldest standard-class bucket homed on the hottest rack (replicated
  // buckets already spread across two racks; leave them pinned).
  std::string victim;
  std::uint64_t victim_ops = 0;
  routes_.ForEach([&victim, &victim_ops, hottest](const std::string& bucket,
                                                  const BucketRoute& route) {
    if (route.primary != hottest || route.cls != BucketClass::kStandard) {
      return;
    }
    if (victim.empty() || route.ops < victim_ops) {
      victim = bucket;
      victim_ops = route.ops;
    }
  });
  if (victim.empty()) {
    co_return false;
  }
  ROS_CO_RETURN_IF_ERROR(co_await MigrateBucket(victim, coldest));
  co_return true;
}

sim::Task<void> Cluster::RebalanceLoop(sim::Duration interval,
                                       std::shared_ptr<const bool> alive) {
  while (true) {
    co_await sim_.Delay(interval);
    if (!*alive) {
      co_return;  // the cluster is gone; touch nothing
    }
    auto moved = co_await RebalanceOnce();
    if (!moved.ok()) {
      ROS_LOG(kWarning) << "rebalance pass failed: "
                        << moved.status().ToString();
    }
    if (!*alive) {
      co_return;
    }
    // Window reset: heat is per-interval, not cumulative.
    for (auto& node : nodes_) {
      node->window_ops = 0;
    }
  }
}

}  // namespace ros::olfs
