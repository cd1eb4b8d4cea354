// Burning Task Management (BTM), §4.1, §4.3, §4.7, §4.8.
//
// A burn task is created when a full disc array's worth of data images
// (11 under the RAID-5 schema) is ready. The task generates the parity
// image(s) (delayed parity generation), allocates an empty disc array and
// a free drive bay, loads the array, burns all 12 images concurrently
// (starts staggered while each drive's image is staged from the disk
// buffer), records the DILindex locations, and unloads the array.
//
// Burns run entirely off the foreground I/O path. A fetch task may
// interrupt an in-flight burn (BusyDrivePolicy::kInterruptAndSwap): the
// drives stop at the next chunk boundary, the half-burned array returns to
// its tray, and a follow-up task reloads and resumes it in append-burn
// mode once a bay frees up.
#ifndef ROS_SRC_OLFS_BURN_MANAGER_H_
#define ROS_SRC_OLFS_BURN_MANAGER_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/olfs/affinity.h"
#include "src/olfs/bucket_manager.h"
#include "src/olfs/da_index.h"
#include "src/olfs/disc_image_store.h"
#include "src/olfs/fetch_scheduler.h"
#include "src/olfs/mech_controller.h"
#include "src/olfs/parity.h"
#include "src/olfs/read_cache.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace ros::olfs {

class AuditRegistry;

class BurnManager {
 public:
  BurnManager(sim::Simulator& sim, const OlfsParams& params,
              BucketManager* buckets, DiscImageStore* images,
              ParityBuilder* parity, MechController* mech,
              FetchScheduler* scheduler, DaIndex* da, ReadCache* cache);

  // Interval between successive burn starts within one array (the
  // controller paces burn initiation while staging images; Fig 9).
  sim::Duration burn_start_interval = sim::Seconds(40);

  // Hook for BucketManager::on_image_closed. Spawns a burn task once a
  // full array's worth of closed images is pending.
  void NotifyImageClosed(const std::string& image_id);

  // Burns any remaining closed images as a partial array (parity over the
  // available members). No-op when nothing is pending.
  sim::Task<Status> FlushPartialArray();

  // Requests an interrupt of the burn running in `bay` (§4.8). Returns
  // immediately; the burn task handles suspension.
  Status InterruptBay(int bay);

  // Waits until every queued, active and suspended burn has completed.
  sim::Task<Status> DrainAll();

  // Cross-layer hints: when set (and affinity placement is enabled), burn
  // batches are ordered by the tracker's greedy co-access clustering so
  // images one stream touches land on the same tray.
  void set_affinity_tracker(const AffinityTracker* tracker) {
    affinity_ = tracker;
  }

  // When set, every finished array burn builds its Merkle audit manifest
  // inline (DESIGN.md §5j) while the member streams are still in memory.
  // Manifest failures are advisory: the burn itself never fails on them.
  void set_audit(AuditRegistry* audit) { audit_ = audit; }

  // Enforces the read-cache capacity: drops kBurnedCached images the SLRU
  // nominates until the cache fits. Also run by the whole-tray readahead
  // path after staging siblings into the probationary segment.
  sim::Task<Status> EvictCacheOverflow();

  int arrays_burned() const { return arrays_burned_; }
  int active_burns() const { return active_burns_; }
  int interrupts_taken() const { return interrupts_taken_; }
  // Transient burn-path failures retried in place (same disc array), and
  // arrays abandoned for spare media after a permanent failure.
  int burn_retries() const { return burn_retries_; }
  int arrays_reallocated() const { return arrays_reallocated_; }
  // Most recent error observed, including transient ones that a retry
  // recovered from (telemetry).
  Status last_error() const { return last_error_; }
  // Error of a burn job that ultimately failed (what DrainAll reports).
  Status fatal_error() const { return fatal_error_; }

 private:
  struct BurnJob {
    std::vector<std::string> image_ids;  // data images then parity images
    mech::TrayAddress tray;
    // Per image: bytes already burned (for append-burn resume).
    std::map<std::string, std::uint64_t> burned_bytes;
    bool resumed = false;
  };

  // Launches BurnArrayTask for the oldest pending full array.
  void MaybeStartBurn();
  // True when the affinity tracker has edges to cluster batches by.
  bool AffinityActive() const;
  // Closed, unburned images no running burn task has claimed.
  std::vector<std::string> UnclaimedClosed() const;
  // One full array out of `available`: clustered by affinity when
  // active, else the close-order prefix.
  std::vector<std::string> PlanBatch(
      const std::vector<std::string>& available) const;
  // Claims `batch` and spawns its BurnArrayTask (or resumes `resume`).
  void StartBurn(std::vector<std::string> batch,
                 std::optional<BurnJob> resume = std::nullopt);
  sim::Task<void> BurnArrayTask(std::vector<std::string> data_ids,
                                std::optional<BurnJob> resume);
  sim::Task<Status> BurnArrayInBay(BurnJob& job, int bay);
  sim::Task<Status> BurnOneDisc(BurnJob& job, int bay, int disc_index,
                                std::string image_id,
                                sim::Duration start_delay);
  sim::Task<Status> FinishJob(BurnJob& job);

  sim::Simulator& sim_;
  OlfsParams params_;
  BucketManager* buckets_;
  DiscImageStore* images_;
  ParityBuilder* parity_;
  MechController* mech_;
  FetchScheduler* scheduler_;  // the bay arbiter
  DaIndex* da_;
  ReadCache* cache_;
  const AffinityTracker* affinity_ = nullptr;
  AuditRegistry* audit_ = nullptr;

  int active_burns_ = 0;
  int arrays_burned_ = 0;
  int interrupts_taken_ = 0;
  int burn_retries_ = 0;
  int arrays_reallocated_ = 0;
  std::vector<std::string> claimed_;  // images owned by running burn tasks
  std::vector<bool> interrupt_requested_;
  sim::ConditionVariable burns_changed_;
  Status last_error_;
  Status fatal_error_;
};

}  // namespace ros::olfs

#endif  // ROS_SRC_OLFS_BURN_MANAGER_H_
