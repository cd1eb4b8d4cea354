#include "src/olfs/cluster.h"

#include <algorithm>
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

// --- per-bucket gate ----------------------------------------------------

sim::Task<void> Cluster::EnterBucket(std::string bucket) {
  while (frozen_buckets_.count(bucket) > 0) {
    co_await bucket_cv_.Wait();
  }
  ++bucket_inflight_[bucket];
}

void Cluster::LeaveRack(RackNode& node) {
  if (--node.inflight == 0) {
    rack_drained_.NotifyAll();
  }
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

sim::Task<StatusOr<BucketRoute>> Cluster::ResolveRoute(
    std::string bucket, std::uint64_t stream, bool create_if_missing) {
  if (const BucketRoute* route = routes_.Find(bucket)) {
    co_return *route;
  }
  if (!create_if_missing) {
    co_return NotFoundError("no bucket " + bucket);
  }
  PlacementQuery query;
  query.stream = stream;
  query.cls = BucketClass::kStandard;
  auto placed = placement_.Place(query);
  if (!placed.ok()) {
    co_return placed.status();
  }
  BucketRoute route;
  route.primary = placed->primary;
  route.cls = BucketClass::kStandard;
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
  routes_.Clear();
  for (int shard = 0; shard < RoutingTable::kShards; ++shard) {
    auto doc = co_await mv_->GetState("cluster/routes/" +
                                      std::to_string(shard));
    if (doc.status().code() == StatusCode::kNotFound) {
      continue;  // shard never persisted (empty table is legitimate)
    }
    if (!doc.ok()) {
      co_return doc.status();  // a damaged store must not empty the table
    }
    ROS_CO_RETURN_IF_ERROR(routes_.LoadShard(shard, *doc));
  }
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
  co_await EnterBucket(bucket);
  if (routes_.Find(bucket) != nullptr) {
    LeaveBucket(bucket);
    co_return AlreadyExistsError("bucket " + bucket + " exists");
  }
  PlacementQuery query;
  query.stream = stream;
  query.cls = cls;
  auto placed = placement_.Place(query);
  if (!placed.ok()) {
    LeaveBucket(bucket);
    co_return placed.status();
  }
  BucketRoute route;
  route.primary = placed->primary;
  route.mirror = placed->mirror;
  route.cls = cls;
  routes_.Insert(bucket, route);
  Status status = co_await PersistShard(RoutingTable::ShardOf(bucket));
  if (status.ok()) {
    status = co_await MkdirOnRack(placed->primary, bucket);
  }
  if (status.ok() && placed->mirror >= 0) {
    status = co_await MkdirOnRack(placed->mirror, bucket);
  }
  LeaveBucket(bucket);
  co_return status;
}

sim::Task<Status> Cluster::MkdirOnRack(int rack, std::string bucket) {
  RackNode& node = *nodes_.at(static_cast<std::size_t>(rack));
  if (!node.alive || node.olfs == nullptr) {
    co_return UnavailableError("rack " + std::to_string(rack) + " is down");
  }
  ++node.inflight;
  co_await Hop(rack, "mkdir");
  Status status = co_await node.olfs->Mkdir("/b/" + bucket);
  LeaveRack(node);
  if (status.code() == StatusCode::kAlreadyExists) {
    status = OkStatus();
  }
  co_return status;
}

sim::Task<Status> Cluster::PutOnRack(int rack, std::string path,
                                     std::vector<std::uint8_t> data,
                                     AccessHint hint) {
  RackNode& node = *nodes_.at(static_cast<std::size_t>(rack));
  if (!node.alive || node.olfs == nullptr) {
    co_return UnavailableError("rack " + std::to_string(rack) + " is down");
  }
  ++node.inflight;
  co_await Hop(rack, "put");
  const std::uint64_t size = data.size();
  Status status;
  if (node.olfs->mv().Exists(path)) {
    status = co_await node.olfs->Update(path, std::move(data), size);
  } else {
    status = co_await node.olfs->Create(path, std::move(data), size, hint);
  }
  LeaveRack(node);
  co_return status;
}

sim::Task<Status> Cluster::Put(std::string bucket, std::string key,
                               std::vector<std::uint8_t> data,
                               AccessHint hint) {
  co_await EnterBucket(bucket);
  auto route = co_await ResolveRoute(bucket, hint.stream,
                                     /*create_if_missing=*/true);
  if (!route.ok()) {
    LeaveBucket(bucket);
    co_return route.status();
  }
  ++stats_.puts;
  const std::uint64_t size = data.size();
  const std::string path = RackPath(bucket, key);
  Status status;
  if (route->cls == BucketClass::kReplicated && route->mirror >= 0) {
    // Synchronous replication: the put acks only when both copies are
    // durable in their rack's write path — a whole-rack loss afterwards
    // cannot lose it.
    ++stats_.replicated_puts;
    std::vector<std::uint8_t> mirror_copy = data;
    std::vector<sim::Task<Status>> writes;
    writes.push_back(PutOnRack(route->primary, path, std::move(data), hint));
    writes.push_back(
        PutOnRack(route->mirror, path, std::move(mirror_copy), hint));
    status = co_await sim::AllOk(sim_, std::move(writes));
  } else {
    status = co_await PutOnRack(route->primary, path, std::move(data), hint);
  }
  if (status.ok()) {
    if (BucketRoute* r = routes_.FindMutable(bucket)) {
      r->bytes += size;
      ++r->ops;
    }
    placement_.NoteRouted(route->primary, size);
    if (route->mirror >= 0) {
      placement_.NoteRouted(route->mirror, size);
    }
    placement_.NoteStreamRack(hint.stream, route->primary);
    ++nodes_.at(static_cast<std::size_t>(route->primary))->window_ops;
    // Re-persist the shard so the routed-bytes ledger (which placement
    // and ReloadRouting rebuild from) survives a namespace-head restart.
    // The object itself is already durable on the racks; a failed shard
    // write degrades recovery accounting, not data, so it only warns.
    Status persisted =
        co_await PersistShard(RoutingTable::ShardOf(bucket));
    if (!persisted.ok()) {
      ROS_LOG(kWarning) << "routing shard persist after put failed: "
                        << persisted.ToString();
    }
  }
  LeaveBucket(bucket);
  co_return status;
}

sim::Task<StatusOr<std::vector<std::uint8_t>>> Cluster::Get(
    std::string bucket, std::string key, AccessHint hint) {
  co_await EnterBucket(bucket);
  auto route = co_await ResolveRoute(bucket, hint.stream,
                                     /*create_if_missing=*/false);
  if (!route.ok()) {
    LeaveBucket(bucket);
    co_return route.status();
  }
  ++stats_.gets;
  int rack = route->primary;
  if (!rack_alive(rack)) {
    if (route->cls == BucketClass::kReplicated && route->mirror >= 0 &&
        rack_alive(route->mirror)) {
      rack = route->mirror;
      ++stats_.mirror_reads;
    } else {
      LeaveBucket(bucket);
      co_return UnavailableError("bucket " + bucket +
                                 " has no alive replica");
    }
  }
  RackNode& node = *nodes_.at(static_cast<std::size_t>(rack));
  ++node.inflight;
  co_await Hop(rack, "get");
  const std::string path = RackPath(bucket, key);
  StatusOr<std::vector<std::uint8_t>> data =
      UnavailableError("unresolved read");
  auto info = co_await node.olfs->Stat(path);
  if (!info.ok()) {
    data = info.status();
  } else {
    data = co_await node.olfs->Read(path, 0, info->size, hint);
  }
  LeaveRack(node);
  if (BucketRoute* r = routes_.FindMutable(bucket)) {
    ++r->ops;
  }
  ++node.window_ops;
  placement_.NoteStreamRack(hint.stream, rack);
  LeaveBucket(bucket);
  co_return data;
}

sim::Task<StatusOr<FileInfo>> Cluster::Stat(std::string bucket,
                                            std::string key) {
  co_await EnterBucket(bucket);
  auto route = co_await ResolveRoute(bucket, 0, /*create_if_missing=*/false);
  if (!route.ok()) {
    LeaveBucket(bucket);
    co_return route.status();
  }
  int rack = route->primary;
  if (!rack_alive(rack)) {
    if (route->cls == BucketClass::kReplicated && route->mirror >= 0 &&
        rack_alive(route->mirror)) {
      rack = route->mirror;
    } else {
      LeaveBucket(bucket);
      co_return UnavailableError("bucket " + bucket +
                                 " has no alive replica");
    }
  }
  RackNode& node = *nodes_.at(static_cast<std::size_t>(rack));
  ++node.inflight;
  co_await Hop(rack, "stat");
  auto info = co_await node.olfs->Stat(RackPath(bucket, key));
  LeaveRack(node);
  LeaveBucket(bucket);
  co_return info;
}

sim::Task<StatusOr<std::vector<std::string>>> Cluster::List(
    std::string bucket) {
  co_await EnterBucket(bucket);
  auto route = co_await ResolveRoute(bucket, 0, /*create_if_missing=*/false);
  if (!route.ok()) {
    LeaveBucket(bucket);
    co_return route.status();
  }
  int rack = route->primary;
  if (!rack_alive(rack)) {
    if (route->cls == BucketClass::kReplicated && route->mirror >= 0 &&
        rack_alive(route->mirror)) {
      rack = route->mirror;
    } else {
      LeaveBucket(bucket);
      co_return UnavailableError("bucket " + bucket +
                                 " has no alive replica");
    }
  }
  RackNode& node = *nodes_.at(static_cast<std::size_t>(rack));
  ++node.inflight;
  co_await Hop(rack, "list");
  auto names = co_await node.olfs->ReadDir("/b/" + bucket);
  LeaveRack(node);
  LeaveBucket(bucket);
  co_return names;
}

sim::Task<Status> Cluster::Delete(std::string bucket, std::string key) {
  co_await EnterBucket(bucket);
  auto route = co_await ResolveRoute(bucket, 0, /*create_if_missing=*/false);
  if (!route.ok()) {
    LeaveBucket(bucket);
    co_return route.status();
  }
  const std::string path = RackPath(bucket, key);
  Status status;
  if (route->cls == BucketClass::kReplicated && route->mirror >= 0) {
    std::vector<sim::Task<Status>> removals;
    removals.push_back(UnlinkOnRack(route->primary, path));
    removals.push_back(UnlinkOnRack(route->mirror, path));
    status = co_await sim::AllOk(sim_, std::move(removals));
  } else {
    status = co_await UnlinkOnRack(route->primary, path);
  }
  LeaveBucket(bucket);
  co_return status;
}

sim::Task<Status> Cluster::UnlinkOnRack(int rack, std::string path) {
  RackNode& node = *nodes_.at(static_cast<std::size_t>(rack));
  if (!node.alive || node.olfs == nullptr) {
    co_return UnavailableError("rack " + std::to_string(rack) + " is down");
  }
  ++node.inflight;
  co_await Hop(rack, "delete");
  Status status = co_await node.olfs->Unlink(path);
  LeaveRack(node);
  co_return status;
}

// --- control plane ------------------------------------------------------

sim::Task<Status> Cluster::FlushRack(int rack) {
  RackNode& node = *nodes_.at(static_cast<std::size_t>(rack));
  if (!node.alive || node.olfs == nullptr) {
    co_return OkStatus();  // nothing to flush on a dead rack
  }
  ++node.inflight;
  co_await Hop(rack, "flush");
  Status status = co_await node.olfs->FlushAndDrain();
  LeaveRack(node);
  co_return status;
}

sim::Task<Status> Cluster::FlushAndDrain() {
  std::vector<sim::Task<Status>> flushes;
  for (int i = 0; i < racks(); ++i) {
    flushes.push_back(FlushRack(i));
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
  Status status = OkStatus();
  const BucketRoute* route = routes_.Find(bucket);
  if (route == nullptr || route->primary == target ||
      !rack_alive(route->primary) || !rack_alive(target)) {
    status = FailedPreconditionError("bucket " + bucket +
                                     " is not migratable to rack " +
                                     std::to_string(target));
  } else {
    const int source = route->primary;
    RackNode& src = *nodes_.at(static_cast<std::size_t>(source));
    RackNode& dst = *nodes_.at(static_cast<std::size_t>(target));
    co_await Hop(source, "migrate-out");
    co_await Hop(target, "migrate-in");
    std::uint64_t moved_bytes = 0;
    std::uint64_t moved_objects = 0;
    auto names = co_await src.olfs->ReadDir("/b/" + bucket);
    if (!names.ok()) {
      status = names.status();
    } else {
      for (const std::string& name : *names) {
        const std::string path = "/b/" + bucket + "/" + name;
        auto info = co_await src.olfs->Stat(path);
        if (!info.ok() || info->is_directory) {
          continue;  // tombstoned or nested prefix: latest objects only
        }
        auto data = co_await src.olfs->Read(path, 0, info->size);
        if (!data.ok()) {
          status = data.status();
          break;
        }
        const std::uint64_t size = data->size();
        // if/else, not a ternary: co_await inside a conditional
        // expression miscompiles the temporary's lifetime under GCC 12
        // (the awaited Status is destroyed against a frame-interior
        // pointer on resume).
        Status put;
        if (dst.olfs->mv().Exists(path)) {
          put = co_await dst.olfs->Update(path, std::move(*data), size);
        } else {
          put = co_await dst.olfs->Create(path, std::move(*data), size);
        }
        if (!put.ok()) {
          status = put;
          break;
        }
        moved_bytes += size;
        ++moved_objects;
      }
    }
    if (status.ok()) {
      // Flip the route and persist it. The source's copies stay on its
      // WORM media as garbage (no eager erase exists on write-once
      // discs); its namespace entries are tombstoned so a stale read
      // cannot resolve there.
      if (BucketRoute* r = routes_.FindMutable(bucket)) {
        r->primary = target;
        r->ops = 0;  // heat resets with the new home
      }
      placement_.NoteUnrouted(source, moved_bytes);
      placement_.NoteRouted(target, moved_bytes);
      status = co_await PersistShard(RoutingTable::ShardOf(bucket));
      ++stats_.buckets_migrated;
      stats_.objects_migrated += moved_objects;
      stats_.bytes_migrated += moved_bytes;
    }
  }
  frozen_buckets_.erase(bucket);
  bucket_cv_.NotifyAll();
  co_return status;
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
