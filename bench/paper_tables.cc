// Tables 1–3: read latency by file location (§5.2), optical drive read
// speeds (§5.4) and mechanical load/unload latency (§5.5).
#include <memory>
#include <utility>
#include <vector>

#include "bench/paper.h"
#include "src/common/units.h"
#include "src/drive/optical_drive.h"
#include "src/mech/library.h"
#include "src/olfs/olfs.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace ros::bench {
namespace {

using olfs::Olfs;
using olfs::OlfsParams;
using olfs::RosSystem;
using olfs::SystemConfig;

struct DriveReadSpeeds {
  double single_mb;
  double aggregate_mb;
};

DriveReadSpeeds MeasureDriveRead(drive::DiscType type) {
  const std::uint64_t bytes = 64 * kMB;
  DriveReadSpeeds result{};
  {
    sim::Simulator sim;
    drive::OpticalDrive single(sim, nullptr, 0);
    auto disc = std::make_unique<drive::Disc>("d", type);
    ROS_CHECK(disc->AppendSession("img", bytes, {}, true).ok());
    ROS_CHECK(single.InsertDisc(disc.get()).ok());
    ROS_CHECK(sim.RunUntilComplete(single.MountVfs()).ok());
    sim::TimePoint t0 = sim.now();
    ROS_CHECK(sim.RunUntilComplete(single.Read("img", 0, bytes)).ok());
    result.single_mb = BytesToMB(bytes) / sim::ToSeconds(sim.now() - t0);
  }
  {
    // 12 drives in one set, reading concurrently.
    sim::Simulator sim;
    drive::DriveSet set(sim, 0);
    std::vector<std::unique_ptr<drive::Disc>> discs;
    for (int i = 0; i < set.size(); ++i) {
      discs.push_back(
          std::make_unique<drive::Disc>("d" + std::to_string(i), type));
      ROS_CHECK(discs.back()->AppendSession("img", bytes, {}, true).ok());
      ROS_CHECK(set.drive(i).InsertDisc(discs.back().get()).ok());
      ROS_CHECK(sim.RunUntilComplete(set.drive(i).MountVfs()).ok());
    }
    sim::TimePoint t0 = sim.now();
    for (int i = 0; i < set.size(); ++i) {
      sim.Spawn([](drive::OpticalDrive* d,
                   std::uint64_t n) -> sim::Task<void> {
        auto r = co_await d->Read("img", 0, n);
        ROS_CHECK(r.ok());
      }(&set.drive(i), bytes));
    }
    sim.Run();
    result.aggregate_mb =
        12.0 * BytesToMB(bytes) / sim::ToSeconds(sim.now() - t0);
  }
  return result;
}

// Load and then unload time, in seconds, of the array in tray
// {0, layer, 1} on a fresh library.
std::pair<double, double> LoadUnloadAt(int layer) {
  sim::Simulator sim;
  mech::Library lib(sim, mech::LibraryConfig{});
  const sim::TimePoint start = sim.now();
  ROS_CHECK(sim.RunUntilComplete(lib.LoadArray({0, layer, 1}, 0)).ok());
  const sim::TimePoint loaded = sim.now();
  ROS_CHECK(sim.RunUntilComplete(lib.UnloadArray(0)).ok());
  return {sim::ToSeconds(loaded - start), sim::ToSeconds(sim.now() - loaded)};
}

}  // namespace

Rows Table1ReadLatency() {
  // The two sub-millisecond rows answer from the RAID controller cache
  // model (~0.3 ms); "minutes" for all-drives-busy is read as 2 min.
  constexpr Band kSubMillisecond{0.1, 1.0};
  constexpr Band kMinutes{0.5, 5.0};
  sim::Simulator sim;
  SystemConfig config;
  config.rollers = 1;
  config.drive_sets = 1;
  config.data_volumes = 2;
  config.hdds_per_volume = 7;
  config.hdd_capacity = 8 * kGiB;
  config.ssd_capacity = 512 * kMiB;
  RosSystem system(sim, config);
  // The internal-op (FUSE) overhead is zeroed: Table 1 reports the
  // data-path latency of each location, which the paper's §5.3 numbers
  // (9/16 ms software overhead) sit on top of.
  OlfsParams params;
  params.disc_capacity_override = 64 * kMiB;
  params.read_cache_bytes = 0;  // evict after burning: reads go to discs
  params.internal_op_cost = 0;
  params.mode_switch_cost = 0;
  params.stream_op_cost = 0;
  Olfs olfs(sim, &system, params);
  olfs.burns().burn_start_interval = sim::Seconds(2);
  auto create = [&](const std::string& path) {
    const std::vector<std::uint8_t> payload(32 * kKiB, 0x3C);
    ROS_CHECK(sim.RunUntilComplete(olfs.Create(path, payload)).ok());
  };
  auto timed_read = [&](const std::string& path) {
    sim::TimePoint t0 = sim.now();
    auto data = sim.RunUntilComplete(olfs.Read(path, 0, 1 * kKiB));
    ROS_CHECK(data.ok());
    return sim::ToSeconds(sim.now() - t0);
  };
  Rows rows;

  // Row 1: file in an open disk bucket.
  create("/t1/bucket.bin");
  rows.Paper("disk bucket", "s", 0.001, timed_read("/t1/bucket.bin"),
             kSubMillisecond);

  // Row 2: file in a closed disc image still in the disk buffer.
  create("/t1/image.bin");
  ROS_CHECK(sim.RunUntilComplete(olfs.buckets().CloseCurrentBucket()).ok());
  rows.Paper("disc image (buffered)", "s", 0.002,
             timed_read("/t1/image.bin"), kSubMillisecond);

  // Burn everything; with a zero-byte cache the images leave the buffer.
  ROS_CHECK(sim.RunUntilComplete(olfs.FlushAndDrain()).ok());

  // Row 4: disc array in the roller, free drives (cold fetch). The burn
  // parked nothing: bays are empty after burning.
  create("/t1/cold.bin");
  ROS_CHECK(sim.RunUntilComplete(olfs.FlushAndDrain()).ok());
  const double cold = timed_read("/t1/cold.bin");

  // Row 3: disc already in a drive (array parked by the previous fetch);
  // the administrator unmounted the UDF volume, so the read pays the VFS
  // mount again (the paper's 0.223 s case).
  {
    auto index = sim.RunUntilComplete(olfs.mv().Get("/t1/cold.bin"));
    ROS_CHECK(index.ok());
    const std::string image_id = (*index->Latest())->parts[0].image_id;
    auto record = olfs.images().Lookup(image_id);
    ROS_CHECK(record.ok());
    drive::OpticalDrive* drive = olfs.mech().DriveHolding(*(*record)->disc);
    ROS_CHECK(drive != nullptr);
    drive->InvalidateVfs();
    rows.Paper("disc in optical drive", "s", 0.223,
               timed_read("/t1/cold.bin"), kClose);
  }
  rows.Paper("disc array in roller, free drives", "s", 70.553, cold, kClose);

  // Row 5: every bay holds an idle (parked) array of the wrong discs: the
  // fetch must unload it first. The flush-burn left the bay empty again;
  // park the first array by touching it, then read a file whose disc
  // lives in another array.
  create("/t1/other.bin");
  ROS_CHECK(sim.RunUntilComplete(olfs.FlushAndDrain()).ok());
  (void)timed_read("/t1/cold.bin");
  rows.Paper("disc array in roller, drives not working", "s", 155.037,
             timed_read("/t1/other.bin"), kClose);

  // Row 6: all drives busy burning -> the read waits for the residual
  // burn (BusyDrivePolicy::kWaitForBurn).
  create("/t1/late.bin");
  ROS_CHECK(sim.RunUntilComplete(olfs.buckets().CloseCurrentBucket()).ok());
  ROS_CHECK(sim.RunUntilComplete(olfs.burns().FlushPartialArray()).ok());
  const double busy = timed_read("/t1/cold.bin");
  rows.Paper("disc array in roller, all drives busy", "min", 2.0,
             busy / 60.0, kMinutes);
  ROS_CHECK(sim.RunUntilComplete(olfs.burns().DrainAll()).ok());
  return rows;
}

Rows Table2DriveRead() {
  // The aggregate lands slightly below 12x single through the shared-HBA
  // contention model (DriveSet::kReadContentionPerDrive).
  Rows rows;
  const DriveReadSpeeds r25 = MeasureDriveRead(drive::DiscType::kBdr25);
  rows.Paper("25 GB disc, single drive", "MB/s", 24.1, r25.single_mb, kClose);
  rows.Paper("25 GB disc, 12-drive aggregate", "MB/s", 282.5,
             r25.aggregate_mb, kClose);
  const DriveReadSpeeds r100 = MeasureDriveRead(drive::DiscType::kBdr100);
  rows.Paper("100 GB disc, single drive", "MB/s", 18.0, r100.single_mb,
             kClose);
  rows.Paper("100 GB disc, 12-drive aggregate", "MB/s", 210.2,
             r100.aggregate_mb, kClose);
  return rows;
}

Rows Table3Mechanical() {
  Rows rows;
  const auto [load_top, unload_top] = LoadUnloadAt(0);
  const auto [load_bottom, unload_bottom] = LoadUnloadAt(84);
  rows.Paper("load, uppermost layer", "s", 68.7, load_top, kClose);
  rows.Paper("load, lowest layer", "s", 73.2, load_bottom, kClose);
  rows.Paper("unload, uppermost layer", "s", 81.7, unload_top, kClose);
  rows.Paper("unload, lowest layer", "s", 86.5, unload_bottom, kClose);

  // Component breakdown the paper quotes in prose.
  mech::MechTimingModel timing;
  rows.Paper("roller rotation, worst case (3 slots)", "s", 2.0,
             sim::ToSeconds(timing.RotateTime(0, 3)), kClose);
  rows.Paper("arm travel top<->bottom (empty)", "s", 4.5,
             sim::ToSeconds(timing.ArmTravelTime(0, 84, false)), kClose);
  rows.Paper("separate 12 discs into drives", "s", 61.0,
             sim::ToSeconds(timing.SeparateArrayTime()), kClose);
  rows.Paper("collect 12 discs from drives", "s", 74.0,
             sim::ToSeconds(timing.CollectArrayTime()), kClose);
  return rows;
}

}  // namespace ros::bench
