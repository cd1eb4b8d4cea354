// Multi-rack cluster tests (DESIGN.md §5k): placement determinism,
// routing persistence, rack-failure domains with the replicated bucket
// class, the cold-bucket rebalancer, and a double-run divergence check
// over the cluster message channel.
#include "src/olfs/cluster.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/olfs/metadata_volume.h"
#include "src/olfs/mv_log.h"
#include "src/olfs/placement.h"
#include "src/sim/event_hasher.h"
#include "src/sim/simulator.h"

namespace ros::olfs {
namespace {

std::vector<std::uint8_t> Payload(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  return out;
}

ClusterParams SmallCluster(int racks) {
  ClusterParams params;
  params.racks = racks;
  params.rack_params.disc_capacity_override = 16 * kMiB;
  return params;
}

// --- placement unit tests ----------------------------------------------

TEST(RoutingTable, ShardingIsStableAndRoundTrips) {
  RoutingTable table;
  BucketRoute route;
  route.primary = 1;
  route.bytes = 42;
  table.Insert("alpha", route);
  route.primary = 0;
  route.mirror = 1;
  route.cls = BucketClass::kReplicated;
  table.Insert("beta", route);

  ASSERT_NE(table.Find("alpha"), nullptr);
  EXPECT_EQ(table.Find("alpha")->primary, 1);
  EXPECT_EQ(table.size(), 2u);

  // Round-trip every shard through JSON into a second table.
  RoutingTable loaded;
  for (int shard = 0; shard < RoutingTable::kShards; ++shard) {
    ASSERT_TRUE(loaded.LoadShard(shard, table.ShardToJson(shard),
                                 /*racks=*/2).ok());
  }
  ASSERT_NE(loaded.Find("beta"), nullptr);
  EXPECT_EQ(loaded.Find("beta")->mirror, 1);
  EXPECT_EQ(loaded.Find("beta")->cls, BucketClass::kReplicated);
  EXPECT_EQ(loaded.Find("alpha")->bytes, 42u);
  EXPECT_EQ(loaded.size(), 2u);
}

// A shard document must name racks the cluster has: ReloadRouting feeds
// every loaded route to PlacementPolicy::NoteRouted, which indexes by rack.
TEST(RoutingTable, LoadShardRejectsRoutesOutsideTheRacks) {
  constexpr int kRacks = 4;
  const std::string bucket = "alpha";
  const int shard = RoutingTable::ShardOf(bucket);
  auto doc = [&bucket](json::Object route) {
    json::Object d;
    d[bucket] = json::Value(std::move(route));
    return json::Value(std::move(d));
  };
  RoutingTable table;
  BucketRoute kept;
  kept.primary = 2;
  kept.bytes = 7;
  table.Insert(bucket, kept);

  json::Object primary99;
  primary99["primary"] = 99;
  json::Object truncates;  // 2^32 + 1 would truncate to rack 1
  truncates["primary"] = std::int64_t{4294967297};
  json::Object bad_mirror;
  bad_mirror["primary"] = 0;
  bad_mirror["mirror"] = kRacks;
  json::Object negative_bytes;
  negative_bytes["primary"] = 0;
  negative_bytes["bytes"] = -1;
  for (json::Object route :
       {primary99, truncates, bad_mirror, negative_bytes}) {
    const std::string text = json::Value(route).Dump();
    Status loaded = table.LoadShard(shard, doc(std::move(route)), kRacks);
    EXPECT_EQ(loaded.code(), StatusCode::kInvalidArgument) << text;
    // A rejected document changes nothing.
    ASSERT_NE(table.Find(bucket), nullptr) << text;
    EXPECT_EQ(table.Find(bucket)->primary, 2) << text;
    EXPECT_EQ(table.Find(bucket)->bytes, 7u) << text;
  }

  // A route filed under another shard would be unreachable by Find.
  json::Object valid;
  valid["primary"] = 1;
  EXPECT_EQ(table.LoadShard((shard + 1) % RoutingTable::kShards,
                            doc(valid), kRacks)
                .code(),
            StatusCode::kInvalidArgument);
  valid["mirror"] = 3;
  ASSERT_TRUE(table.LoadShard(shard, doc(valid), kRacks).ok());
  EXPECT_EQ(table.Find(bucket)->primary, 1);
  EXPECT_EQ(table.Find(bucket)->mirror, 3);
}

TEST(PlacementPolicy, LeastBytesWinsAndAffinityOverrides) {
  PlacementPolicy policy(/*racks=*/3, /*affinity_headroom_bytes=*/100);
  // Ledger: rack0 = 50, rack1 = 0, rack2 = 200.
  policy.NoteRouted(0, 50);
  policy.NoteRouted(2, 200);

  auto base = policy.Place({/*stream=*/0, BucketClass::kStandard});
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base->primary, 1);  // least bytes
  EXPECT_EQ(base->mirror, -1);

  // Stream 7's history lives on rack0, which is within headroom of the
  // minimum (50 <= 0 + 100): affinity wins.
  policy.NoteStreamRack(7, 0);
  policy.NoteStreamRack(7, 0);
  policy.NoteStreamRack(7, 2);
  auto affine = policy.Place({/*stream=*/7, BucketClass::kStandard});
  ASSERT_TRUE(affine.ok());
  EXPECT_EQ(affine->primary, 0);

  // rack0 drifts past the headroom: capacity wins again.
  policy.NoteRouted(0, 100);
  auto capped = policy.Place({/*stream=*/7, BucketClass::kStandard});
  ASSERT_TRUE(capped.ok());
  EXPECT_EQ(capped->primary, 1);
}

TEST(PlacementPolicy, MirrorNeedsASecondAliveRack) {
  PlacementPolicy policy(/*racks=*/2, /*affinity_headroom_bytes=*/0);
  auto both = policy.Place({0, BucketClass::kReplicated});
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(both->primary, 0);
  EXPECT_EQ(both->mirror, 1);

  policy.SetAlive(1, false);
  EXPECT_EQ(policy.Place({0, BucketClass::kReplicated}).status().code(),
            StatusCode::kUnavailable);
  policy.SetAlive(0, false);
  EXPECT_EQ(policy.Place({0, BucketClass::kStandard}).status().code(),
            StatusCode::kUnavailable);
}

// --- cluster integration ------------------------------------------------

TEST(Cluster, PutGetRoundTripSpreadsBuckets) {
  sim::Simulator sim;
  Cluster cluster(sim, SmallCluster(2));

  // Interleave creates with puts so the capacity ledger spreads buckets.
  for (int b = 0; b < 4; ++b) {
    const std::string bucket = "b" + std::to_string(b);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(sim.RunUntilComplete(cluster.Put(
                          bucket, "k" + std::to_string(i),
                          Payload(32 * kKiB, 100 * b + i)))
                      .ok());
    }
  }
  // Both racks home at least one bucket.
  std::vector<int> homed(2, 0);
  cluster.routes().ForEach(
      [&homed](const std::string&, const BucketRoute& route) {
        ++homed.at(static_cast<std::size_t>(route.primary));
      });
  EXPECT_GT(homed[0], 0);
  EXPECT_GT(homed[1], 0);

  // Read-back through the cluster matches what was written.
  auto data = sim.RunUntilComplete(cluster.Get("b2", "k1"));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, Payload(32 * kKiB, 201));
  EXPECT_GT(cluster.stats().messages, 0u);

  auto listed = sim.RunUntilComplete(cluster.List("b0"));
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed->size(), 3u);
  sim.Shutdown();
}

TEST(Cluster, RoutingSurvivesNamespaceHeadRestart) {
  sim::Simulator sim;
  Cluster cluster(sim, SmallCluster(2));
  ASSERT_TRUE(sim.RunUntilComplete(cluster.CreateBucket("persist")).ok());
  ASSERT_TRUE(sim.RunUntilComplete(
                      cluster.Put("persist", "k", Payload(8 * kKiB, 1)))
                  .ok());
  const int primary = cluster.routes().Find("persist")->primary;

  // Drop the in-memory table (head restart) and recover it from the MV.
  ASSERT_TRUE(sim.RunUntilComplete(cluster.ReloadRouting()).ok());
  ASSERT_NE(cluster.routes().Find("persist"), nullptr);
  EXPECT_EQ(cluster.routes().Find("persist")->primary, primary);
  EXPECT_GT(cluster.stats().routes_recovered, 0u);
  // The capacity ledger was rebuilt from the recovered routes.
  EXPECT_GT(cluster.placement().rack_bytes(primary), 0u);

  auto data = sim.RunUntilComplete(cluster.Get("persist", "k"));
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, Payload(8 * kKiB, 1));
  sim.Shutdown();
}

TEST(Cluster, ReloadRoutingFailsOnDamagedHeadStore) {
  sim::Simulator sim;
  Cluster cluster(sim, SmallCluster(2));
  ASSERT_TRUE(sim.RunUntilComplete(cluster.CreateBucket("persist")).ok());
  ASSERT_TRUE(sim.RunUntilComplete(
                      cluster.Put("persist", "k", Payload(8 * kKiB, 1)))
                  .ok());

  // The newest logged version of the bucket's routing shard rotted before
  // it reached the SSDs: a well-framed WAL record whose payload is not
  // JSON. The restarted head must report it, not drop the shard's routes
  // as if it had never been persisted.
  disk::Volume* volume = cluster.cluster_mv().volume();
  const std::vector<std::string> wal =
      volume->List(std::string(MvLog::kFilePrefix));
  ASSERT_FALSE(wal.empty());
  std::vector<std::uint8_t> frame;
  mvlog::AppendRecord(
      mvlog::Record{mvlog::RecordType::kPutState,
                    MetadataVolume::StateKey(
                        "cluster/routes/" +
                        std::to_string(RoutingTable::ShardOf("persist"))),
                    "{\"routes\":"},
      &frame);
  ASSERT_TRUE(
      sim.RunUntilComplete(volume->Append(wal.back(), std::move(frame)))
          .ok());

  Status reloaded = sim.RunUntilComplete(cluster.ReloadRouting());
  EXPECT_EQ(reloaded.code(), StatusCode::kInvalidArgument)
      << reloaded.ToString();
  sim.Shutdown();
}

// A shard that fails to load leaves the whole routing table as it was:
// no route of a shard loaded before it or after it is lost.
TEST(Cluster, ReloadRoutingKeepsTheTableWhenAShardFails) {
  sim::Simulator sim;
  Cluster cluster(sim, SmallCluster(2));
  constexpr int kBuckets = 38;
  for (int i = 0; i < kBuckets; ++i) {
    ASSERT_TRUE(
        sim.RunUntilComplete(cluster.CreateBucket("b" + std::to_string(i)))
            .ok());
  }
  ASSERT_EQ(cluster.routes().size(), static_cast<std::size_t>(kBuckets));
  std::vector<int> primaries;
  for (int i = 0; i < kBuckets; ++i) {
    primaries.push_back(
        cluster.routes().Find("b" + std::to_string(i))->primary);
  }

  // The last shard holds a route naming a rack the cluster lacks.
  json::Value bad = cluster.routes().ShardToJson(RoutingTable::kShards - 1);
  ASSERT_FALSE(bad.as_object().empty());
  bad.as_object().begin()->second.as_object()["primary"] = json::Value(99);
  ASSERT_TRUE(sim.RunUntilComplete(
                      cluster.cluster_mv().PutState(
                          "cluster/routes/" +
                              std::to_string(RoutingTable::kShards - 1),
                          bad))
                  .ok());

  Status reloaded = sim.RunUntilComplete(cluster.ReloadRouting());
  EXPECT_EQ(reloaded.code(), StatusCode::kInvalidArgument)
      << reloaded.ToString();
  ASSERT_EQ(cluster.routes().size(), static_cast<std::size_t>(kBuckets));
  for (int i = 0; i < kBuckets; ++i) {
    const BucketRoute* route = cluster.routes().Find("b" + std::to_string(i));
    ASSERT_NE(route, nullptr) << "b" << i;
    EXPECT_EQ(route->primary, primaries[static_cast<std::size_t>(i)]);
  }
  sim.Shutdown();
}

TEST(Cluster, ReplicatedBucketSurvivesRackKill) {
  sim::Simulator sim;
  Cluster cluster(sim, SmallCluster(2));
  ASSERT_TRUE(sim.RunUntilComplete(
                      cluster.CreateBucket("safe", BucketClass::kReplicated))
                  .ok());
  const BucketRoute* route = cluster.routes().Find("safe");
  ASSERT_NE(route, nullptr);
  ASSERT_GE(route->mirror, 0);
  const int primary = route->primary;

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(sim.RunUntilComplete(cluster.Put(
                        "safe", "k" + std::to_string(i),
                        Payload(16 * kKiB, 10 + i)))
                    .ok());
  }
  EXPECT_EQ(cluster.stats().replicated_puts, 4u);

  // Kill the primary: every acked write must still be readable (served
  // by the mirror), including data never burned to disc.
  ASSERT_TRUE(sim.RunUntilComplete(cluster.KillRack(primary)).ok());
  EXPECT_FALSE(cluster.rack_alive(primary));
  for (int i = 0; i < 4; ++i) {
    auto data =
        sim.RunUntilComplete(cluster.Get("safe", "k" + std::to_string(i)));
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    EXPECT_EQ(*data, Payload(16 * kKiB, 10 + i));
  }
  EXPECT_EQ(cluster.stats().mirror_reads, 4u);

  // Stat and List fail over by the same replica rule; only Gets count as
  // mirror reads.
  auto info = sim.RunUntilComplete(cluster.Stat("safe", "k2"));
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->size, 16 * kKiB);
  auto listed = sim.RunUntilComplete(cluster.List("safe"));
  ASSERT_TRUE(listed.ok()) << listed.status().ToString();
  EXPECT_EQ(*listed, (std::vector<std::string>{"k0", "k1", "k2", "k3"}));
  EXPECT_EQ(cluster.stats().mirror_reads, 4u);

  // Writes keep failing over nothing: a standard bucket placed now lands
  // on the surviving rack.
  ASSERT_TRUE(sim.RunUntilComplete(
                      cluster.Put("fresh", "k", Payload(4 * kKiB, 99)))
                  .ok());
  EXPECT_NE(cluster.routes().Find("fresh")->primary, primary);
  sim.Shutdown();
}

// A replicated write must reach both replicas or neither: with the
// primary down, Put and Delete fail before the mirror leg runs.
TEST(Cluster, ReplicatedWriteWithAReplicaDownChangesNothing) {
  sim::Simulator sim;
  Cluster cluster(sim, SmallCluster(2));
  ASSERT_TRUE(sim.RunUntilComplete(
                      cluster.CreateBucket("safe", BucketClass::kReplicated))
                  .ok());
  ASSERT_TRUE(
      sim.RunUntilComplete(cluster.Put("safe", "k", Payload(8 * kKiB, 1)))
          .ok());
  const int primary = cluster.routes().Find("safe")->primary;
  ASSERT_TRUE(sim.RunUntilComplete(cluster.KillRack(primary)).ok());

  EXPECT_EQ(sim.RunUntilComplete(
                   cluster.Put("safe", "k", Payload(8 * kKiB, 2)))
                .code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(sim.RunUntilComplete(
                   cluster.Put("safe", "new", Payload(8 * kKiB, 3)))
                .code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(sim.RunUntilComplete(cluster.Delete("safe", "k")).code(),
            StatusCode::kUnavailable);

  auto data = sim.RunUntilComplete(cluster.Get("safe", "k"));
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(*data, Payload(8 * kKiB, 1));
  EXPECT_EQ(sim.RunUntilComplete(cluster.Get("safe", "new")).status().code(),
            StatusCode::kNotFound);
  sim.Shutdown();
}

// KillRack drains the rack's in-flight ops on a condition wait: it
// returns at the sim instant the last one ends, not on a polling grid.
TEST(Cluster, KillRackReturnsWhenItsLastInflightOpEnds) {
  sim::Simulator sim;
  Cluster cluster(sim, SmallCluster(2));
  ASSERT_TRUE(
      sim.RunUntilComplete(cluster.Put("b", "k", Payload(16 * kKiB, 5)))
          .ok());
  const int primary = cluster.routes().Find("b")->primary;

  // The read is in flight on the primary from its first step on.
  sim::TimePoint read_done = -1;
  sim.Spawn([](Cluster* c, sim::Simulator* s,
               sim::TimePoint* done) -> sim::Task<void> {
    auto data = co_await c->Get("b", "k");
    ROS_CHECK(data.ok());
    *done = s->now();
  }(&cluster, &sim, &read_done));
  const sim::TimePoint kill_start = sim.now();
  ASSERT_TRUE(sim.RunUntilComplete(cluster.KillRack(primary)).ok());
  EXPECT_GT(read_done, kill_start);
  EXPECT_EQ(sim.now(), read_done);
  sim.Shutdown();
}

TEST(Cluster, KilledRackRebuildsFromBurnedTrays) {
  sim::Simulator sim;
  Cluster cluster(sim, SmallCluster(2));
  // Everything lands on rack0 (no interleaved growth on rack1 yet).
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(sim.RunUntilComplete(cluster.Put(
                        "archive", "k" + std::to_string(i),
                        Payload(24 * kKiB, 40 + i)))
                    .ok());
  }
  const int primary = cluster.routes().Find("archive")->primary;

  // Burn everything, persist cluster state (routing + tray manifests),
  // then lose the rack's controller and metadata.
  ASSERT_TRUE(sim.RunUntilComplete(cluster.FlushAndDrain()).ok());
  ASSERT_TRUE(sim.RunUntilComplete(cluster.SyncRackState()).ok());
  ASSERT_TRUE(sim.RunUntilComplete(cluster.KillRack(primary)).ok());
  EXPECT_EQ(cluster.rack(primary), nullptr);

  auto report = sim.RunUntilComplete(cluster.RecoverRack(primary));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->files_recovered, 0);
  EXPECT_TRUE(cluster.rack_alive(primary));

  for (int i = 0; i < 3; ++i) {
    auto data = sim.RunUntilComplete(
        cluster.Get("archive", "k" + std::to_string(i)));
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    EXPECT_EQ(*data, Payload(24 * kKiB, 40 + i));
  }
  EXPECT_EQ(cluster.stats().rack_kills, 1u);
  EXPECT_EQ(cluster.stats().rack_recoveries, 1u);
  sim.Shutdown();
}

TEST(Cluster, RebalancerMigratesColdBucketOffHotRack) {
  sim::Simulator sim;
  ClusterParams params = SmallCluster(2);
  params.rebalance_min_ops = 4;
  Cluster cluster(sim, params);

  // Create both buckets before any bytes accrue: the ledger is all
  // zeros both times, and ties resolve to the lowest index, so both
  // land on rack0 — the skewed layout the rebalancer must fix.
  ASSERT_TRUE(sim.RunUntilComplete(cluster.CreateBucket("cold")).ok());
  ASSERT_TRUE(sim.RunUntilComplete(cluster.CreateBucket("hot")).ok());
  ASSERT_TRUE(sim.RunUntilComplete(
                      cluster.Put("cold", "k", Payload(4 * kKiB, 1)))
                  .ok());
  const int source = cluster.routes().Find("cold")->primary;
  ASSERT_EQ(cluster.routes().Find("hot")->primary, source);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(sim.RunUntilComplete(cluster.Put(
                        "hot", "k" + std::to_string(i),
                        Payload(4 * kKiB, 2 + i)))
                    .ok());
  }
  ASSERT_EQ(cluster.routes().Find("hot")->primary, source);

  auto moved = sim.RunUntilComplete(cluster.RebalanceOnce());
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_TRUE(*moved);
  EXPECT_EQ(cluster.stats().buckets_migrated, 1u);
  EXPECT_NE(cluster.routes().Find("cold")->primary, source);
  EXPECT_EQ(cluster.routes().Find("hot")->primary, source);

  // The migrated bucket reads from its new home.
  auto data = sim.RunUntilComplete(cluster.Get("cold", "k"));
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(*data, Payload(4 * kKiB, 1));
  sim.Shutdown();
}

// A key with a '/' lives under a directory on the rack; the migration
// copies the bucket's whole subtree, and its counts include nested keys.
TEST(Cluster, RebalanceMovesNestedKeys) {
  sim::Simulator sim;
  ClusterParams params = SmallCluster(2);
  params.rebalance_min_ops = 4;
  Cluster cluster(sim, params);
  ASSERT_TRUE(sim.RunUntilComplete(cluster.CreateBucket("cold")).ok());
  ASSERT_TRUE(sim.RunUntilComplete(cluster.CreateBucket("hot")).ok());
  ASSERT_TRUE(sim.RunUntilComplete(
                      cluster.Put("cold", "k", Payload(4 * kKiB, 1)))
                  .ok());
  ASSERT_TRUE(sim.RunUntilComplete(cluster.Put("cold", "dir/nested",
                                               Payload(4 * kKiB, 2)))
                  .ok());
  ASSERT_TRUE(sim.RunUntilComplete(cluster.Put("cold", "dir/sub/deeper",
                                               Payload(2 * kKiB, 3)))
                  .ok());
  const int source = cluster.routes().Find("cold")->primary;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(sim.RunUntilComplete(cluster.Put(
                        "hot", "k" + std::to_string(i),
                        Payload(4 * kKiB, 10 + i)))
                    .ok());
  }

  auto moved = sim.RunUntilComplete(cluster.RebalanceOnce());
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  ASSERT_TRUE(*moved);
  ASSERT_NE(cluster.routes().Find("cold")->primary, source);
  EXPECT_EQ(cluster.stats().objects_migrated, 3u);
  EXPECT_EQ(cluster.stats().bytes_migrated, 10 * kKiB);

  auto nested = sim.RunUntilComplete(cluster.Get("cold", "dir/nested"));
  ASSERT_TRUE(nested.ok()) << nested.status().ToString();
  EXPECT_EQ(*nested, Payload(4 * kKiB, 2));
  auto deeper = sim.RunUntilComplete(cluster.Get("cold", "dir/sub/deeper"));
  ASSERT_TRUE(deeper.ok()) << deeper.status().ToString();
  EXPECT_EQ(*deeper, Payload(2 * kKiB, 3));
  auto flat = sim.RunUntilComplete(cluster.Get("cold", "k"));
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  EXPECT_EQ(*flat, Payload(4 * kKiB, 1));
  sim.Shutdown();
}

// --- rack kills during a migration ----------------------------------------

constexpr int kColdObjects = 8;

// Homes "cold" (kColdObjects objects) and "hot" on one rack and makes
// "hot" the busier bucket, so RebalanceOnce migrates "cold" off that
// rack. Returns the source rack.
int SkewTowardOneRack(sim::Simulator& sim, Cluster& cluster) {
  EXPECT_TRUE(sim.RunUntilComplete(cluster.CreateBucket("cold")).ok());
  EXPECT_TRUE(sim.RunUntilComplete(cluster.CreateBucket("hot")).ok());
  for (int i = 0; i < kColdObjects; ++i) {
    EXPECT_TRUE(sim.RunUntilComplete(
                        cluster.Put("cold", "k" + std::to_string(i),
                                    Payload(64 * kKiB, 300 + i)))
                    .ok());
  }
  for (int i = 0; i < 2 * kColdObjects; ++i) {
    EXPECT_TRUE(sim.RunUntilComplete(
                        cluster.Put("hot", "k" + std::to_string(i),
                                    Payload(4 * kKiB, 400 + i)))
                    .ok());
  }
  return cluster.routes().Find("cold")->primary;
}

sim::Task<void> RebalanceInBackground(Cluster* cluster, sim::Simulator* sim,
                                      Status* status,
                                      sim::TimePoint* end) {
  auto moved = co_await cluster->RebalanceOnce();
  *status = moved.status();
  *end = sim->now();
}

ClusterParams RebalancingCluster() {
  ClusterParams params = SmallCluster(2);
  params.rebalance_min_ops = 4;
  return params;
}

// A migration counts as in flight on its source: KillRack waits for it to
// stop instead of destroying the Olfs it is copying from.
TEST(Cluster, KillRackWaitsOutAMigrationOffIt) {
  sim::Simulator sim;
  Cluster cluster(sim, RebalancingCluster());
  const int source = SkewTowardOneRack(sim, cluster);

  Status migrated = OkStatus();
  sim::TimePoint migration_end = -1;
  sim.Spawn(RebalanceInBackground(&cluster, &sim, &migrated, &migration_end));
  sim.RunFor(sim::Millis(40));
  ASSERT_LT(migration_end, 0) << "the migration should still be copying";

  ASSERT_TRUE(sim.RunUntilComplete(cluster.KillRack(source)).ok());
  ASSERT_GE(migration_end, 0) << "KillRack returned mid-migration";
  EXPECT_GE(sim.now(), migration_end);
  EXPECT_EQ(migrated.code(), StatusCode::kUnavailable)
      << migrated.ToString();
  EXPECT_EQ(cluster.routes().Find("cold")->primary, source);
  EXPECT_EQ(cluster.stats().buckets_migrated, 0u);
  // The bucket is not left frozen: an op on it gets past the gate and
  // finds its only replica down.
  EXPECT_EQ(sim.RunUntilComplete(cluster.Stat("cold", "k0")).status().code(),
            StatusCode::kUnavailable);
  sim.Shutdown();
}

// A migration counts as in flight on its target too; once the target is
// killed, the bucket stays on its source with every object intact.
TEST(Cluster, KillRackOfTheTargetLeavesTheBucketOnItsSource) {
  sim::Simulator sim;
  Cluster cluster(sim, RebalancingCluster());
  const int source = SkewTowardOneRack(sim, cluster);
  const int target = 1 - source;

  Status migrated = OkStatus();
  sim::TimePoint migration_end = -1;
  sim.Spawn(RebalanceInBackground(&cluster, &sim, &migrated, &migration_end));
  sim.RunFor(sim::Millis(40));
  ASSERT_LT(migration_end, 0) << "the migration should still be copying";

  ASSERT_TRUE(sim.RunUntilComplete(cluster.KillRack(target)).ok());
  ASSERT_GE(migration_end, 0) << "KillRack returned mid-migration";
  EXPECT_EQ(migrated.code(), StatusCode::kUnavailable)
      << migrated.ToString();
  EXPECT_EQ(cluster.routes().Find("cold")->primary, source);
  for (int i = 0; i < kColdObjects; ++i) {
    auto data =
        sim.RunUntilComplete(cluster.Get("cold", "k" + std::to_string(i)));
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    EXPECT_EQ(*data, Payload(64 * kKiB, 300 + i));
  }
  sim.Shutdown();
}

// --- determinism over the message channel -------------------------------

sim::TimePoint RunClusterWorkload(sim::EventHasher* hasher) {
  sim::Simulator sim;
  sim.set_event_hasher(hasher);
  Cluster cluster(sim, SmallCluster(2));
  EXPECT_TRUE(sim.RunUntilComplete(
                      cluster.CreateBucket("rep", BucketClass::kReplicated))
                  .ok());
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(sim.RunUntilComplete(cluster.Put(
                        "rep", "k" + std::to_string(i),
                        Payload(8 * kKiB, i)))
                    .ok());
    EXPECT_TRUE(sim.RunUntilComplete(cluster.Put(
                        "solo", "k" + std::to_string(i),
                        Payload(8 * kKiB, 50 + i)))
                    .ok());
  }
  EXPECT_TRUE(sim.RunUntilComplete(cluster.FlushAndDrain()).ok());
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(
        sim.RunUntilComplete(cluster.Get("solo", "k" + std::to_string(i)))
            .ok());
  }
  const sim::TimePoint end = sim.now();
  sim.Shutdown();
  return end;
}

TEST(Cluster, DoubleRunProducesIdenticalEventStream) {
  sim::EventHasher record;
  const sim::TimePoint t1 = RunClusterWorkload(&record);
  ASSERT_GT(record.event_count(), 0u);

  sim::EventHasher check(record.trail());
  const sim::TimePoint t2 = RunClusterWorkload(&check);
  check.Finish();
  EXPECT_FALSE(check.diverged())
      << "first divergence at index "
      << (check.diverged() ? check.divergence()->index : 0);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(record.digest(), check.digest());
}

}  // namespace
}  // namespace ros::olfs
