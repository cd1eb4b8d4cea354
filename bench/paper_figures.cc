// Figures 6–10: software-stack throughput and the internal-op breakdown
// (§5.3), and the single-drive and 12-drive burn curves (§5.4).
#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "bench/paper.h"
#include "src/common/units.h"
#include "src/drive/optical_drive.h"
#include "src/frontend/stack.h"
#include "src/olfs/olfs.h"
#include "src/sim/join.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"
#include "src/workload/filebench.h"

namespace ros::bench {
namespace {

using frontend::FrontendStack;
using frontend::StackConfig;
using olfs::Olfs;
using olfs::OlfsParams;
using olfs::RosSystem;
using olfs::SystemConfig;

// Burns one image of `bytes` onto a fresh disc in one drive and returns
// the burn time in seconds. Each change of burn speed adds a row pair:
// where it happened and the new speed.
double BurnOneDisc(drive::DiscType type, const std::string& disc_id,
                   std::uint64_t bytes, Rows& rows) {
  sim::Simulator sim;
  drive::OpticalDrive drive(sim, nullptr, 0);
  auto disc = std::make_unique<drive::Disc>(disc_id, type);
  ROS_CHECK(drive.InsertDisc(disc.get()).ok());
  drive.burn_observer = [&rows, last = -1.0, n = 0](double progress,
                                                    double speed_x) mutable {
    if (speed_x != last) {
      const std::string change = "speed change " + std::to_string(n++);
      rows.Add(change + " at progress", "%", progress * 100.0);
      rows.Add(change + " to speed", "X", speed_x);
      last = speed_x;
    }
  };
  ROS_CHECK(sim.RunUntilComplete(drive.EnsureAwake()).ok());
  const sim::TimePoint burn_start = sim.now();
  auto result = sim.RunUntilComplete(drive.BurnImage("img", bytes, {}));
  ROS_CHECK(result.ok() && result->completed);
  return sim::ToSeconds(sim.now() - burn_start);
}

}  // namespace

Rows Fig6StackThroughput() {
  // Layer costs compose additively per byte (src/frontend/stack.h); the
  // tallest stacks land ~10% below the paper.
  constexpr Band kComposed{0.85, 1.15};
  struct Stack {
    StackConfig config;
    std::optional<double> paper_read_norm;  // null: only drawn as a bar
    std::optional<double> paper_write_norm;
  };
  const Stack stacks[] = {
      {StackConfig::kExt4, 1.000, 1.000},
      {StackConfig::kExt4Fuse, 0.759, 0.482},
      {StackConfig::kExt4Olfs, 0.540, 0.433},
      {StackConfig::kSamba, 0.311, 0.320},
      {StackConfig::kSambaFuse, std::nullopt, std::nullopt},
      {StackConfig::kSambaOlfs, 0.269, 0.236},
  };
  sim::Simulator sim;
  SystemConfig config;
  config.rollers = 1;
  config.drive_sets = 1;
  config.data_volumes = 2;
  config.hdds_per_volume = 7;  // the paper's RAID-5 volume
  config.hdd_capacity = 16 * kGiB;
  RosSystem system(sim, config);
  OlfsParams params;
  params.disc_capacity_override = 4 * kGiB;
  Olfs olfs(sim, &system, params);
  // Bytes/s of one 1 GB filebench singlestream `run` through a stack.
  auto stream = [&](auto run, StackConfig stack_config,
                    const std::string& path) {
    FrontendStack stack(sim, stack_config, system.data_volumes()[0], &olfs);
    auto result =
        sim.RunUntilComplete(run(sim, stack, path, 1 * kGB, 1 * kMB, {}));
    ROS_CHECK(result.ok());
    return result->bytes_per_sec();
  };

  Rows rows;
  double base_write = 0;
  double base_read = 0;
  for (const Stack& stack : stacks) {
    const std::string name(frontend::StackConfigName(stack.config));
    const std::string path = "/fig6/w-" + name;
    const double write =
        stream(workload::SinglestreamWrite, stack.config, path);
    const double read = stream(workload::SinglestreamRead, stack.config, path);
    if (stack.config == StackConfig::kExt4) {
      base_write = write;
      base_read = read;
      rows.Paper("ext4 read (absolute)", "MB/s", 1200, read / 1e6, kClose);
      rows.Paper("ext4 write (absolute)", "MB/s", 1000, write / 1e6, kClose);
    }
    if (stack.paper_read_norm.has_value()) {
      rows.Paper(name + " read (normalized)", "", *stack.paper_read_norm,
                 read / base_read, kComposed);
      rows.Paper(name + " write (normalized)", "", *stack.paper_write_norm,
                 write / base_write, kComposed);
    } else {
      rows.Add(name + " read (normalized)", "", read / base_read);
      rows.Add(name + " write (normalized)", "", write / base_write);
    }
  }
  // §5.3's prose swaps samba+OLFS read/write; the abstract's R323/W236 is
  // the consistent reading.
  rows.Paper("samba+OLFS read (absolute)", "MB/s", 323.6,
             stream(workload::SinglestreamRead, StackConfig::kSambaOlfs,
                    "/fig6/w-samba+OLFS") / 1e6,
             kComposed);
  rows.Paper("samba+OLFS write (absolute)", "MB/s", 236.1,
             stream(workload::SinglestreamWrite, StackConfig::kSambaOlfs,
                    "/fig6/abs") / 1e6,
             kComposed);
  return rows;
}

Rows Fig7OpBreakdown() {
  // 1 KB files, direct I/O, 50 repetitions, the paper's way. Each
  // internal op averages ~2.5 ms incl. direct I/O, plus kernel-user mode
  // switches between ops. The op sequences themselves are pinned by
  // olfs_test.
  sim::Simulator sim;
  SystemConfig config = olfs::TestSystemConfig();
  config.hdds_per_volume = 7;
  config.hdd_capacity = 8 * kGiB;
  RosSystem system(sim, config);
  OlfsParams params;
  params.disc_capacity_override = 1 * kGiB;
  Olfs olfs(sim, &system, params);
  constexpr int kReps = 50;

  struct Totals {
    double write_ms = 0;
    double read_ms = 0;
    std::size_t write_ops = 0;
    std::size_t read_ops = 0;
  };
  auto measure = [&](StackConfig stack_config, const std::string& prefix) {
    FrontendStack stack(sim, stack_config, nullptr, &olfs);
    Totals sum;
    for (int i = 0; i < kReps; ++i) {
      const std::string path = prefix + std::to_string(i);
      auto w = sim.RunUntilComplete(stack.TimedCreate(path, 1 * kKiB));
      ROS_CHECK(w.ok());
      sum.write_ms += sim::ToMillis(*w);
      sum.write_ops = stack.last_op_trace().size();
      auto r = sim.RunUntilComplete(stack.TimedRead(path, 1 * kKiB));
      ROS_CHECK(r.ok());
      sum.read_ms += sim::ToMillis(*r);
      sum.read_ops = stack.last_op_trace().size();
    }
    return sum;
  };
  const Totals plain = measure(StackConfig::kExt4Olfs, "/fig7/plain");
  const Totals samba = measure(StackConfig::kSambaOlfs, "/fig7/samba");

  Rows rows;
  // write = stat mknod stat write close; read = stat read close; samba
  // puts 7 more stat round trips in front of the write.
  rows.Paper("OLFS write internal ops", "ops", 5,
             static_cast<double>(plain.write_ops), kClose);
  rows.Paper("OLFS read internal ops", "ops", 3,
             static_cast<double>(plain.read_ops), kClose);
  rows.Paper("samba+OLFS write internal ops", "ops", 12,
             static_cast<double>(samba.write_ops), kClose);
  rows.Paper("OLFS file write (ext4+OLFS)", "ms", 16.0,
             plain.write_ms / kReps, kClose);
  rows.Paper("OLFS file read (ext4+OLFS)", "ms", 9.0, plain.read_ms / kReps,
             kClose);
  rows.Paper("samba+OLFS file write", "ms", 53.0, samba.write_ms / kReps,
             kClose);
  rows.Paper("samba+OLFS file read", "ms", 15.0, samba.read_ms / kReps,
             kClose);
  return rows;
}

Rows Fig8Burn25gbSingle() {
  // A zoned ramp from 1.6X on the inner tracks to 12X on the outer ones.
  Rows rows;
  const double burn_seconds =
      BurnOneDisc(drive::DiscType::kBdr25, "d", 25 * kGB, rows);
  auto profile = drive::BurnSpeedProfile::For(drive::DiscType::kBdr25);
  rows.Paper("total recording time", "s", 675.0, burn_seconds, kClose);
  rows.Paper("average recording speed", "X", 8.2, profile.AverageSpeedX(),
             kClose);
  rows.Paper("inner-track (start) speed", "X", 1.6, profile.SpeedAt(0.0),
             kClose);
  rows.Paper("outer-track (end) speed", "X", 12.0, profile.SpeedAt(0.99),
             kClose);
  return rows;
}

Rows Fig9Burn25gbArray() {
  // Burn starts stagger while the controller stages each image, the
  // aggregate ramps to the shared burn-path cap and the tail steps down.
  sim::Simulator sim;
  drive::DriveSet set(sim, 0);
  std::vector<std::unique_ptr<drive::Disc>> discs;
  for (int i = 0; i < set.size(); ++i) {
    discs.push_back(std::make_unique<drive::Disc>("d" + std::to_string(i),
                                                  drive::DiscType::kBdr25));
    ROS_CHECK(set.drive(i).InsertDisc(discs.back().get()).ok());
  }

  // The controller paces burn initiation while staging each 25 GB image
  // from the disk buffer (BurnManager::burn_start_interval).
  const sim::Duration kStagger = sim::Seconds(36);

  // Sample the aggregate burn rate once per 10 simulated seconds.
  std::vector<double> samples;
  std::function<void()> sampler = [&] {
    int burning = 0;
    for (int i = 0; i < set.size(); ++i) {
      if (set.drive(i).state() == drive::DriveState::kBurning) {
        ++burning;
      }
    }
    const double desired = set.total_desired_burn_rate();
    const double cap = drive::DriveSet::kBurnBandwidthCap;
    samples.push_back(std::min(desired, cap) / 1e6);
    if (burning > 0 || samples.size() < 5) {
      sim.ScheduleAfter(sim::Seconds(10), sampler);
    }
  };
  sim.ScheduleAfter(sim::Seconds(10), sampler);

  sim::TimePoint t0 = sim.now();
  std::vector<sim::Task<Status>> burns;
  for (int i = 0; i < set.size(); ++i) {
    burns.push_back([](sim::Simulator& s, drive::OpticalDrive* d,
                       sim::Duration delay) -> sim::Task<Status> {
      co_await s.Delay(delay);
      auto result = co_await d->BurnImage("img", 25 * kGB, {});
      if (!result.ok()) {
        co_return result.status();
      }
      co_return OkStatus();
    }(sim, &set.drive(i), i * kStagger));
  }
  Status status = sim.RunUntilComplete(sim::AllOk(sim, std::move(burns)));
  ROS_CHECK(status.ok());
  const double total_seconds = sim::ToSeconds(sim.now() - t0);
  sim.Run();  // drain the sampler

  Rows rows;
  for (std::size_t i = 0; i < samples.size(); i += 6) {  // one per minute
    rows.Add("rate at " + std::to_string((i + 1) * 10) + " s", "MB/s",
             samples[i]);
  }
  rows.Paper("total recording time (array)", "s", 1146.0, total_seconds,
             kWithin10);
  rows.Paper("peak aggregate rate", "MB/s", 380.0,
             *std::max_element(samples.begin(), samples.end()), kWithin10);
  rows.Paper("average aggregate rate", "MB/s", 268.0,
             12.0 * BytesToMB(25 * kGB) / total_seconds, kWithin10);
  return rows;
}

Rows Fig10Burn100gb() {
  // A constant 6X with seed-deterministic fail-safe servo dips to 4X.
  Rows rows;
  const double burn_seconds =
      BurnOneDisc(drive::DiscType::kBdr100, "bdxl-7", 100 * kGB, rows);

  std::vector<double> speeds;
  for (const Row& row : rows.rows()) {
    if (row.unit == "X") {
      speeds.push_back(row.measured);
    }
  }
  const double nominal = *std::max_element(speeds.begin(), speeds.end());
  const double fail_safe = *std::min_element(speeds.begin(), speeds.end());
  rows.Add("fail-safe dips observed", "count",
           static_cast<double>(std::count(speeds.begin(), speeds.end(),
                                          fail_safe)));
  rows.Paper("total recording time", "s", 3757.0, burn_seconds, kClose);
  rows.Paper("average recording speed", "X", 5.9,
             static_cast<double>(100 * kGB) / burn_seconds /
                 drive::kBluRay1xBytesPerSec,
             kClose);
  rows.Paper("nominal speed", "X", 6.0, nominal, kClose);
  rows.Paper("fail-safe speed during dips", "X", 4.0, fail_safe, kClose);
  return rows;
}

}  // namespace ros::bench
