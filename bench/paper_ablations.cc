// Ablations: overlapped roller/arm scheduling (§3.2), the file cache with
// sibling prefetch (§4.1 future work), I/O stream interference on one vs
// two RAID volumes (§4.7) and FUSE big_writes (§4.8).
#include <algorithm>
#include <vector>

#include "bench/paper.h"
#include "src/frontend/stack.h"
#include "src/mech/library.h"
#include "src/olfs/olfs.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"
#include "src/workload/filebench.h"

namespace ros::bench {
namespace {

using olfs::Olfs;
using olfs::OlfsParams;
using olfs::RosSystem;
using olfs::SystemConfig;

// Runs an ingest that triggers a full array burn (parity generation +
// staging reads) while a foreground stream keeps writing. Returns the
// foreground stream's achieved throughput in MB/s.
double ForegroundWriteDuringBurn(int data_volumes) {
  sim::Simulator sim;
  SystemConfig config;
  config.rollers = 1;
  config.drive_sets = 1;
  config.data_volumes = data_volumes;
  config.hdds_per_volume = 7;
  config.hdd_capacity = 32 * kGiB;
  RosSystem system(sim, config);
  OlfsParams params;
  params.disc_capacity_override = 512 * kMiB;
  params.stream_op_cost = 0;  // isolate the storage interference
  Olfs olfs(sim, &system, params);
  olfs.burns().burn_start_interval = sim::Seconds(1);

  // Fill 11 buckets so a burn (parity + staging) kicks off in background.
  for (int i = 0; i < 11; ++i) {
    ROS_CHECK(sim.RunUntilComplete(
                  olfs.Create("/bulk/f" + std::to_string(i),
                              std::vector<std::uint8_t>(4096, 1),
                              500 * kMiB))
                  .ok());
  }
  frontend::FrontendStack stack(sim, frontend::StackConfig::kExt4Olfs,
                                nullptr, &olfs);
  auto result = sim.RunUntilComplete(workload::SinglestreamWrite(
      sim, stack, "/fg/stream", 2 * kGB));
  ROS_CHECK(result.ok());
  ROS_CHECK(sim.RunUntilComplete(olfs.burns().DrainAll()).ok());
  return result->bytes_per_sec() / 1e6;
}

double TimedLoad(sim::Simulator& sim, mech::Library& lib,
                 mech::TrayAddress tray, int bay) {
  sim::TimePoint start = sim.now();
  ROS_CHECK(sim.RunUntilComplete(lib.LoadArray(tray, bay)).ok());
  return sim::ToSeconds(sim.now() - start);
}

struct ScanResult {
  double first_scan_s;
  double second_scan_s;
  std::uint64_t fetches;
};

// An analytics job scans a cold directory twice, with unrelated burn
// traffic evicting the drives in between: image-granular caching cannot
// help there, file caching can.
ScanResult ScanTwice(std::uint64_t file_cache_bytes, int prefetch) {
  sim::Simulator sim;
  RosSystem system(sim, olfs::TestSystemConfig());
  OlfsParams params;
  params.disc_capacity_override = 16 * kMiB;
  params.read_cache_bytes = 0;
  params.file_cache_bytes = file_cache_bytes;
  params.prefetch_siblings = prefetch;
  Olfs olfs(sim, &system, params);
  olfs.burns().burn_start_interval = sim::Seconds(1);

  constexpr int kFiles = 16;
  for (int i = 0; i < kFiles; ++i) {
    ROS_CHECK(sim.RunUntilComplete(
                  olfs.Create("/scan/rec" + std::to_string(i),
                              std::vector<std::uint8_t>(16 * kKiB, 0x44)))
                  .ok());
  }
  ROS_CHECK(sim.RunUntilComplete(olfs.FlushAndDrain()).ok());

  auto scan = [&] {
    sim::TimePoint t0 = sim.now();
    for (int i = 0; i < kFiles; ++i) {
      auto data = sim.RunUntilComplete(
          olfs.Read("/scan/rec" + std::to_string(i), 0, 16 * kKiB));
      ROS_CHECK(data.ok());
    }
    sim.Run();  // drain background prefetches
    return sim::ToSeconds(sim.now() - t0);
  };
  ScanResult result{};
  result.first_scan_s = scan();

  // Unrelated work evicts the scanned array from the drives.
  // ros-lint: allow(acquire-bay): the ablation claims a bay the way a
  // burn does to force an eviction between the two scans.
  const int bay =
      sim.RunUntilComplete(olfs.fetch_scheduler()->AcquireForBurn());
  if (olfs.mech().bay_tray(bay).has_value()) {
    ROS_CHECK(sim.RunUntilComplete(olfs.mech().UnloadArray(bay)).ok());
  }
  olfs.fetch_scheduler()->ReleaseBay(bay);

  result.second_scan_s = scan();
  result.fetches = olfs.fetches().fetches();
  return result;
}

}  // namespace

Rows AblationFuseBigwrites() {
  // By default FUSE flushes 4 KB per kernel round trip; OLFS mounts with
  // big_writes so 128 KB moves per trip.
  sim::Simulator sim;
  SystemConfig config = olfs::TestSystemConfig();
  config.hdds_per_volume = 7;
  config.hdd_capacity = 8 * kGiB;
  RosSystem system(sim, config);
  OlfsParams params;
  params.disc_capacity_override = 2 * kGiB;
  Olfs olfs(sim, &system, params);

  auto measure = [&](bool big_writes, const std::string& path) {
    frontend::FrontendStack stack(sim, frontend::StackConfig::kExt4Olfs,
                                  nullptr, &olfs);
    stack.big_writes = big_writes;
    auto result = sim.RunUntilComplete(workload::SinglestreamWrite(
        sim, stack, path, 512 * kMB));
    ROS_CHECK(result.ok());
    return result->bytes_per_sec() / 1e6;
  };
  const double big = measure(true, "/fuse/big");
  const double plain = measure(false, "/fuse/plain");
  Rows rows;
  rows.Add("ext4+OLFS write, big_writes (128 KB/flush)", "MB/s", big);
  rows.Add("ext4+OLFS write, default (4 KB/flush)", "MB/s", plain);
  rows.Add("big_writes speedup", "x", big / plain);
  return rows;
}

Rows AblationIoStreams() {
  // User writes, parity reads, parity writes and burn staging reads
  // interfere on one RAID volume; two independent volumes avoid it.
  const double one = ForegroundWriteDuringBurn(1);
  const double two = ForegroundWriteDuringBurn(2);
  Rows rows;
  rows.Add("foreground write during burn cycle, 1 volume", "MB/s", one);
  rows.Add("foreground write during burn cycle, 2 volumes", "MB/s", two);
  rows.Add("improvement from independent volumes", "x", two / one);
  return rows;
}

Rows AblationMechParallel() {
  // Preparing a load (pre-rotating the roller, fanning the tray out,
  // pre-positioning the arm) while the drives are busy shortens the next
  // load: "up to almost 10 seconds".
  Rows rows;
  double max_saving = 0;
  for (int layer : {0, 42, 84}) {
    for (int slot : {1, 3}) {
      // Serial: the load pays rotation + descent + fan-out inline.
      sim::Simulator sim_a;
      mech::Library lib_a(sim_a, mech::LibraryConfig{});
      const double serial = TimedLoad(sim_a, lib_a, {0, layer, slot}, 0);

      // Prepared: the conveyance steps ran while the drives were busy.
      sim::Simulator sim_b;
      mech::Library lib_b(sim_b, mech::LibraryConfig{});
      ROS_CHECK(
          sim_b.RunUntilComplete(lib_b.PrepareLoad({0, layer, slot})).ok());
      const double prepared = TimedLoad(sim_b, lib_b, {0, layer, slot}, 0);

      const double saved = serial - prepared;
      max_saving = std::max(max_saving, saved);
      const std::string tray =
          "layer " + std::to_string(layer) + ", slot " +
          std::to_string(slot) + " (rot " +
          std::to_string(mech::SlotDistance(0, slot)) + ")";
      rows.Add(tray + " serial", "s", serial);
      rows.Add(tray + " prepared", "s", prepared);
      rows.Add(tray + " saved", "s", saved);
    }
  }
  rows.Paper("max conveyance saving", "s", 10.0, max_saving, {0.8, 1.0});
  return rows;
}

Rows AblationPrefetch() {
  // After the drives are reclaimed, only the file cache avoids a second
  // ~70 s mechanical fetch; prefetch also warms the whole directory.
  struct Config {
    const char* name;
    std::uint64_t file_cache_bytes;
    int prefetch;
  };
  const Config configs[] = {{"image cache only (baseline)", 0, 0},
                            {"+ file-granular cache", 64 * kMiB, 0},
                            {"+ sibling prefetch", 64 * kMiB, 16}};
  Rows rows;
  for (const Config& config : configs) {
    const ScanResult result =
        ScanTwice(config.file_cache_bytes, config.prefetch);
    const std::string name = config.name;
    rows.Add(name + ": scan 1", "s", result.first_scan_s);
    rows.Add(name + ": scan 2", "s", result.second_scan_s);
    rows.Add(name + ": fetches", "count",
             static_cast<double>(result.fetches));
  }
  return rows;
}

}  // namespace ros::bench
