// Ablation for §4.1's future-work cache refinements: disc-image-granular
// caching only (baseline) vs the file-granular cache with sibling
// prefetch. Workload: an analytics job scans a cold directory twice, with
// unrelated burn traffic evicting the drives in between — the situation
// where image-granularity caching cannot help but file caching can.
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/olfs/olfs.h"
#include "src/sim/time.h"

using namespace ros;
using namespace ros::olfs;

namespace {

struct Result {
  double first_scan_s;
  double second_scan_s;
  std::uint64_t fetches;
};

Result Run(std::uint64_t file_cache_bytes, int prefetch) {
  sim::Simulator sim;
  RosSystem system(sim, TestSystemConfig());
  OlfsParams params;
  params.disc_capacity_override = 16 * kMiB;
  params.read_cache_bytes = 0;
  params.file_cache_bytes = file_cache_bytes;
  params.prefetch_siblings = prefetch;
  Olfs olfs(sim, &system, params);
  olfs.burns().burn_start_interval = sim::Seconds(1);

  constexpr int kFiles = 16;
  Rng rng(3);
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
  Result result{};
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

int main() {
  bench::PrintHeader(
      "Ablation (§4.1): image-granular cache vs file cache + prefetch");
  Result baseline = Run(0, 0);
  Result file_cache = Run(64 * kMiB, 0);
  Result prefetch = Run(64 * kMiB, 16);

  std::printf("  %-34s %12s %12s %8s\n", "configuration", "scan 1 (s)",
              "scan 2 (s)", "fetches");
  std::printf("  %-34s %12.1f %12.1f %8llu\n", "image cache only (baseline)",
              baseline.first_scan_s, baseline.second_scan_s,
              static_cast<unsigned long long>(baseline.fetches));
  std::printf("  %-34s %12.1f %12.1f %8llu\n", "+ file-granular cache",
              file_cache.first_scan_s, file_cache.second_scan_s,
              static_cast<unsigned long long>(file_cache.fetches));
  std::printf("  %-34s %12.1f %12.1f %8llu\n", "+ sibling prefetch",
              prefetch.first_scan_s, prefetch.second_scan_s,
              static_cast<unsigned long long>(prefetch.fetches));
  bench::PrintNote(
      "after the drives are reclaimed, only the file cache avoids a second "
      "~70 s mechanical fetch; prefetch also warms the whole directory");
  return 0;
}
