// Fetch Scheduler: batched, geometry-aware dispatch of queued fetches, and
// the rack's one bay arbiter.
//
// The MC "optimizes the usage of mechanical resources" (§4.1); with 70-155 s
// load/unload cycles the mechanical queue is the dominant tail-latency term,
// so the order in which queued fetches are serviced matters more than any
// other read-path decision. Burns, reads and namespace-rebuild scans share
// the same bays, so every bay claim and every unload-victim choice is made
// here (MechController only executes them). Reads go through a real
// request queue:
//
//   - Pending fetches are grouped by tray: one load/unload cycle drains
//     every waiter of that tray, and a bay whose reader finishes is handed
//     directly to the next same-tray waiter (no unload, no re-load).
//   - Unload-victim selection is utility-aware: only parked arrays with no
//     queued demand are evicted, LRU first. An array that readers are
//     waiting for is never unloaded out from under them.
//   - Dispatch order minimizes roller rotation + robotic-arm travel from
//     the PLC's current position (mech::geometry distances), bounded by an
//     aging rule: a request older than OlfsParams::fetch_aging_bound is
//     dispatched strict-FIFO, so starvation under hostile locality is
//     impossible and tail latency is provably bounded.
//
// Everything is driven by simulated time and iterates ordered containers,
// so a given workload + seed always produces the same dispatch order.
#ifndef ROS_SRC_OLFS_FETCH_SCHEDULER_H_
#define ROS_SRC_OLFS_FETCH_SCHEDULER_H_

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/mech/geometry.h"
#include "src/olfs/mech_controller.h"
#include "src/olfs/params.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace ros::olfs {

struct FetchSchedulerStats {
  // Queueing-delay histogram bucket upper bounds, in seconds (the last
  // bucket is unbounded).
  static constexpr int kDelayBuckets = 7;
  static constexpr double kDelayBucketUpperS[kDelayBuckets] = {
      1.0, 10.0, 30.0, 60.0, 120.0, 300.0, 0.0};

  std::uint64_t requests = 0;
  std::uint64_t completed = 0;        // includes failed dispatches
  std::uint64_t loads = 0;            // LoadArray cycles performed
  std::uint64_t unloads = 0;          // victim arrays evicted first
  std::uint64_t parked_hits = 0;      // served by an already-parked array
  std::uint64_t handoffs = 0;         // bay passed to the next same-tray waiter
  std::uint64_t aged_dispatches = 0;  // strict-FIFO promotions (aging bound)
  std::uint64_t failed_batches = 0;   // load failures fanned out to waiters
  // Background (speculative) class — predictive tray prefetch.
  std::uint64_t speculative_enqueued = 0;  // accepted into the pending queue
  std::uint64_t speculative_loads = 0;     // speculative load cycles started
  std::uint64_t speculative_canceled = 0;  // pending entries dropped by demand
  std::uint64_t speculative_useful = 0;    // demand hit a speculative load
  std::uint64_t speculative_wasted = 0;    // evicted before any demand came
  // Self-check: a speculative dispatch picked a victim bay whose tray has
  // queued demand. Tests and the chaos harness assert this stays zero.
  std::uint64_t speculative_demand_evictions = 0;
  // Background claim class (scrub / audit sweeps).
  std::uint64_t background_acquires = 0;   // claims admitted
  std::uint64_t background_yields = 0;     // idle-waits taken before admit
  std::uint64_t max_queue_depth = 0;
  std::uint64_t max_batch = 0;        // most waiters drained by one load
  sim::Duration total_queue_delay = 0;
  sim::Duration max_queue_delay = 0;
  // Estimated positioning cost (roller rotation + arm travel) of the
  // dispatched loads, from mech::geometry distances at decision time.
  sim::Duration est_positioning = 0;
  std::array<std::uint64_t, kDelayBuckets> delay_hist{};

  // Requests served without a mechanical load/unload cycle of their own.
  std::uint64_t loads_avoided() const { return parked_hits + handoffs; }
  sim::Duration mean_queue_delay() const {
    return completed == 0
               ? 0
               : total_queue_delay / static_cast<sim::Duration>(completed);
  }
};

class FetchScheduler {
 public:
  FetchScheduler(sim::Simulator& sim, const OlfsParams& params,
                 MechController* mech);

  // Claims the bay holding `address.tray` (state kBusy on return), loading
  // the array first when necessary. Concurrent requests for one tray share
  // a single load cycle; each gets its own completion. The claimed bay
  // must be returned through ReleaseBay (FetchLease does this).
  sim::Task<StatusOr<int>> AcquireForRead(mech::DiscAddress address);

  // Claims a bay for a burn, waiting on bay_changed() while every bay is
  // busy. Order: an empty bay, else the LRU parked bay with no queued
  // demand, else the LRU parked bay. A burn does not queue behind reads
  // and is not subject to the aging bound. The caller unloads the
  // returned bay's array (if any) before loading its own; a speculatively
  // loaded victim is booked as wasted here.
  sim::Task<int> AcquireForBurn();

  // Returns a bay claimed through any Acquire* call. If more requests are
  // queued for the tray it holds, ownership passes directly to the next
  // waiter (the bay never leaves kBusy); otherwise the bay is parked (or
  // left empty) and becomes the most recently used.
  void ReleaseBay(int bay);

  // Background claim class (scrub / audit sweeps, DESIGN.md §5j): like
  // AcquireForRead, but the claim only joins the demand machinery while it
  // is idle — the caller parks (sim-time polling) whenever demand is
  // queued or a load cycle is in flight, so background traffic adds no
  // queueing delay ahead of a foreground fetch. Once admitted it holds a
  // bay like any single reader, and the aging bound caps foreground waits
  // as usual. Release through ReleaseBay (FetchLease does this).
  sim::Task<StatusOr<int>> AcquireForBackground(mech::DiscAddress address);

  // Background priority class: asks for `tray` to be made resident while
  // the mechanics would otherwise idle (predictive prefetch, whole-tray
  // readahead). Speculative loads dispatch only when every queued demand
  // request is already resident or in flight, never evict a tray with
  // queued demand, and pending entries are canceled the moment new demand
  // queues. Dropped when the tray is already resident, loading or
  // queued.
  void EnqueueSpeculative(mech::TrayAddress tray);

  int queue_depth() const;
  const FetchSchedulerStats& stats() const { return stats_; }

  // True when no demand is queued, no load cycle is in flight, and no
  // speculative work is pending — the quiescence probe Olfs::Quiesce
  // polls before a controller teardown (rack kill, DESIGN.md §5k).
  bool Idle() const {
    return queues_.empty() && loading_.empty() && spec_pending_.empty();
  }

  // (tray index, bay) pairs in load-dispatch order — the determinism probe
  // used by tests: same workload + seed must reproduce this exactly.
  const std::vector<std::pair<int, int>>& dispatch_log() const {
    return dispatch_log_;
  }

 private:
  struct Request {
    Request(sim::Simulator& sim, std::uint64_t s, sim::TimePoint t)
        : seq(s), enqueued(t), done(sim),
          bay(UnavailableError("fetch request still queued")) {}
    std::uint64_t seq;
    sim::TimePoint enqueued;
    sim::Event done;
    StatusOr<int> bay;
  };

  // True if any queued or in-dispatch request wants `tray`; the victim
  // pass keeps such arrays resident.
  bool HasDemand(mech::TrayAddress tray) const;
  void EnsureDispatcher();
  sim::Task<void> DispatchLoop();
  // One synchronous scheduling pass; true if anything was dispatched.
  bool TryDispatch();
  // Tray of the globally oldest queued request if it has waited past the
  // aging bound, else -1. While a tray is aged the scheduler serves
  // strict FIFO: handoffs and parked-bay claims for younger trays pause
  // and the victim rule may be relaxed, so the starved request is served
  // within one unload/load cycle of crossing the bound.
  int AgedTray() const;
  // Tray (dense index) to load next, or -1; *aged reports whether the
  // aging bound forced a strict-FIFO choice over the geometry-optimal one.
  int PickTrayToLoad(bool* aged);
  // Empty bay, else the LRU parked bay with no queued demand, or -1.
  // `allow_demanded` (aged dispatch and burns) falls back to the LRU
  // parked bay even if its tray has queued demand.
  int PickLoadBay(bool allow_demanded) const;
  int BayHolding(int tray_index) const;
  sim::Duration PositioningCost(mech::TrayAddress tray);
  sim::Task<void> LoadTask(mech::TrayAddress tray, int bay,
                           bool speculative = false);
  void Complete(std::shared_ptr<Request> request, StatusOr<int> result);
  void CompleteFront(int tray_index, int bay);
  // Speculative dispatch pass (after the demand passes found nothing more
  // to do); true if a background load was started.
  bool TryDispatchSpeculative();
  // Demand claimed a parked tray / a resident tray left its bay: settle
  // the useful-vs-wasted ledger for speculatively loaded arrays.
  void NoteDemand(int tray_index);
  void NoteUnload(int tray_index);

  sim::Simulator& sim_;
  OlfsParams params_;
  MechController* mech_;

  // tray index -> FIFO of waiting requests (std::map: deterministic scan).
  std::map<int, std::deque<std::shared_ptr<Request>>> queues_;
  std::set<int> loading_;  // trays with a load cycle in flight
  // Background class: speculative trays pending dispatch (FIFO), and
  // speculatively loaded trays still parked without having seen demand.
  std::deque<int> spec_pending_;
  std::set<int> spec_resident_;
  std::uint64_t next_seq_ = 0;
  // Per-bay logical-clock stamp of the last release through ReleaseBay:
  // the rack's one LRU clock (victim ordering that does not depend on
  // wall or sim time).
  std::vector<std::uint64_t> last_used_;
  std::uint64_t use_clock_ = 0;
  bool dispatcher_running_ = false;

  FetchSchedulerStats stats_;
  std::vector<std::pair<int, int>> dispatch_log_;
};

}  // namespace ros::olfs

#endif  // ROS_SRC_OLFS_FETCH_SCHEDULER_H_
