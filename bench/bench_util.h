// Host-cost figures shared by the bench binaries' JSON documents.
#ifndef ROS_BENCH_BENCH_UTIL_H_
#define ROS_BENCH_BENCH_UTIL_H_

#include <sys/resource.h>

#include <chrono>

#include "src/common/json.h"

namespace ros::bench {

// ros_analyze: allow(wallclock): host cost of the bench process itself
// (wall clock since start-up, peak RSS); never feeds simulator state.
using HostClock = std::chrono::steady_clock;
inline const HostClock::time_point kProcessStart = HostClock::now();

// Adds the two host-cost figures every bench JSON document reports:
// host_wall_s (wall seconds since the process started) and peak_rss_mb.
// They vary with the machine; simulated results do not depend on them.
inline void AddHostFigures(json::Object* doc) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  (*doc)["host_wall_s"] = json::Value(
      std::chrono::duration<double>(HostClock::now() - kProcessStart)
          .count());
  (*doc)["peak_rss_mb"] =
      json::Value(static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6);
}

}  // namespace ros::bench

#endif  // ROS_BENCH_BENCH_UTIL_H_
