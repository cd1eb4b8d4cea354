// Fetching Task Management (FTM), §4.1, §4.8.
//
// When a read misses the disk buffer, FTM brings the disc holding the
// requested image into a drive. The latency depends on where things stand
// (Table 1): the disc may already sit in a drive (parked array), a free
// bay may exist (one load), every bay may hold idle arrays (unload +
// load), or every bay may be burning — in which case the configured
// BusyDrivePolicy either waits for the burn or interrupts it.
//
// After a fetch the array stays parked in its bay so subsequent reads of
// neighbouring discs hit the "disc in drive" case.
#ifndef ROS_SRC_OLFS_FETCH_MANAGER_H_
#define ROS_SRC_OLFS_FETCH_MANAGER_H_

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/olfs/burn_manager.h"
#include "src/olfs/disc_image_store.h"
#include "src/olfs/fetch_scheduler.h"
#include "src/olfs/mech_controller.h"
#include "src/olfs/params.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace ros::olfs {

// Exclusive use of a drive (and its bay) for the duration of a read.
// Release() returns the bay through the FetchScheduler, which hands it
// straight to the next same-tray waiter or parks the array. It is
// idempotent, and the destructor releases any still-held bay, so an error
// return mid-read can never leak a bay.
class FetchLease {
 public:
  FetchLease() = default;
  FetchLease(FetchScheduler* scheduler, int bay, drive::OpticalDrive* drive)
      : scheduler_(scheduler), bay_(bay), drive_(drive) {}
  ~FetchLease() { Release(); }

  FetchLease(FetchLease&& other) noexcept
      : scheduler_(other.scheduler_), bay_(other.bay_), drive_(other.drive_) {
    other.scheduler_ = nullptr;
    other.drive_ = nullptr;
  }
  FetchLease& operator=(FetchLease&& other) noexcept {
    if (this != &other) {
      Release();
      scheduler_ = other.scheduler_;
      bay_ = other.bay_;
      drive_ = other.drive_;
      other.scheduler_ = nullptr;
      other.drive_ = nullptr;
    }
    return *this;
  }
  FetchLease(const FetchLease&) = delete;
  FetchLease& operator=(const FetchLease&) = delete;

  drive::OpticalDrive* drive() { return drive_; }
  int bay() const { return bay_; }
  bool valid() const { return drive_ != nullptr; }

  void Release() {
    if (scheduler_ != nullptr) {
      scheduler_->ReleaseBay(bay_);
      scheduler_ = nullptr;
      drive_ = nullptr;
    }
  }

 private:
  FetchScheduler* scheduler_ = nullptr;
  int bay_ = -1;
  drive::OpticalDrive* drive_ = nullptr;
};

// Which scheduler class a fetch claims its bay through.
enum class FetchClass {
  // A client read: FetchScheduler::AcquireForRead.
  kDemand,
  // Scrub, audit and refresh sweeps (DESIGN.md §5j):
  // FetchScheduler::AcquireForBackground, admitted only while no demand is
  // queued or loading and none arrived within one array-load time, so
  // sweeps never starve readers.
  kBackground,
  // Tray readahead staging (DESIGN.md §5g): FetchScheduler::AcquireIfParked,
  // which never waits.
  kReadahead,
};

// Every bay claim on behalf of a read goes through the FetchScheduler,
// which batches concurrent readers of one tray onto a single mechanical
// fetch (the MC "optimizes the usage of mechanical resources", §4.1).
class FetchManager {
 public:
  FetchManager(sim::Simulator& sim, const OlfsParams& params,
               DiscImageStore* images, MechController* mech,
               BurnManager* burns, FetchScheduler* scheduler)
      : sim_(sim), params_(params), images_(images), mech_(mech),
        burns_(burns), scheduler_(scheduler) {}

  // Ensures the disc holding `image_id` sits in a drive; returns the lease.
  // Transient mechanical faults (kUnavailable) are retried under
  // params.mech_retry; each retry re-enters the scheduler queue, so a bay
  // whose mechanics misbehaved naturally falls back to another bay.
  sim::Task<StatusOr<FetchLease>> FetchDisc(
      std::string image_id, FetchClass fetch_class = FetchClass::kDemand);

  // Mechanical load cycles performed on behalf of reads.
  std::uint64_t fetches() const { return scheduler_->stats().loads; }
  std::uint64_t retries() const { return retries_; }

 private:
  // One fetch attempt, no retry.
  sim::Task<StatusOr<FetchLease>> FetchDiscOnce(std::string image_id,
                                                FetchClass fetch_class);

  sim::Simulator& sim_;
  OlfsParams params_;
  DiscImageStore* images_;
  MechController* mech_;
  BurnManager* burns_;
  FetchScheduler* scheduler_;
  std::uint64_t retries_ = 0;
};

}  // namespace ros::olfs

#endif  // ROS_SRC_OLFS_FETCH_MANAGER_H_
