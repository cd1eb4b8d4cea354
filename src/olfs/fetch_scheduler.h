// Fetch Scheduler: the rack's one bay arbiter and its one claim queue.
//
// The MC "optimizes the usage of mechanical resources" (§4.1); with 70-155 s
// load/unload cycles the mechanical queue is the dominant tail-latency term,
// so the order in which claims are serviced matters more than any other
// read-path decision. Burns (BTM) and fetches (FTM) share the same bays
// (§4.8), so every bay claim waits in one queue and one dispatcher grants
// every bay and picks every unload victim (MechController only executes
// them). Each claim has a class; each class's rule is one predicate or
// comparator in TryDispatch, applied in class order:
//
//   - kBurn: granted first, FIFO, into PickLoadBay(allow_demanded=true). A
//     burn does not queue behind reads (except one resumed after an
//     interrupt-and-swap, which waits for the reads queued before it) and
//     is not subject to the aging bound.
//   - kDemand (client reads, the namespace rebuild): queued per tray. One
//     load/unload cycle drains every waiter of the tray, and a bay whose
//     reader finishes is handed directly to the next same-tray waiter (no
//     unload, no re-load). Loads are ordered by positioning cost (roller
//     rotation + robotic-arm travel from the PLC's current position,
//     mech::geometry), bounded by an aging rule: a request older than
//     OlfsParams::fetch_aging_bound is dispatched strict-FIFO, so
//     starvation under hostile locality is impossible and tail latency is
//     provably bounded.
//   - kBackground (scrub, audit and refresh sweeps): admitted FIFO into its
//     tray's demand queue only while no demand is queued or loading and no
//     demand has arrived within one array-load time; from then on it is
//     served like any reader.
//   - kSpeculative (predictive prefetch, whole-tray readahead): a tray with
//     no waiter, loaded FIFO only while every queued demand is resident or
//     in flight, never into a bay whose tray has demand, and canceled the
//     moment demand queues.
//
// Unload victims are utility-aware: only parked arrays with no queued
// demand are evicted, LRU first, so an array that readers are waiting for
// is never unloaded out from under them. Every claim waits on its own
// completion event; the dispatcher wakes on bay changes, new claims and at
// most one background hold timer, so nothing polls sim time. Everything is
// driven by simulated time and iterates ordered containers, so a given
// workload + seed always produces the same dispatch order.
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
  // Speculative class — predictive tray prefetch and readahead.
  std::uint64_t speculative_enqueued = 0;  // accepted into the queue
  std::uint64_t speculative_loads = 0;     // speculative load cycles started
  std::uint64_t speculative_canceled = 0;  // queued claims dropped by demand
  std::uint64_t speculative_useful = 0;    // demand hit a speculative load
  std::uint64_t speculative_wasted = 0;    // evicted before any demand came
  // Self-check: a speculative dispatch picked a victim bay whose tray has
  // queued demand. Tests and the chaos harness assert this stays zero.
  std::uint64_t speculative_demand_evictions = 0;
  // Background claim class (scrub / audit / refresh sweeps): claims
  // admitted, and deferred admissions (claims that had to wait for demand
  // to clear before they were admitted).
  std::uint64_t background_acquires = 0;
  std::uint64_t background_yields = 0;
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
  FetchScheduler(const FetchScheduler&) = delete;
  FetchScheduler& operator=(const FetchScheduler&) = delete;
  ~FetchScheduler() { *alive_ = false; }

  // Demand claim of the bay holding `address.tray` (state kBusy on return),
  // loading the array first when necessary. A parked array nobody is
  // queued for is claimed at once (Table 1's "disc in drive" case);
  // concurrent requests for one tray share a single load cycle, each with
  // its own completion. Release through ReleaseBay (FetchLease does this).
  sim::Task<StatusOr<int>> AcquireForRead(mech::DiscAddress address);

  // Burn claim of any bay: an empty bay, else the LRU parked bay with no
  // queued demand, else the LRU parked bay. Claimed at once when a bay is
  // free and no burn is queued; otherwise queued, and granted ahead of
  // every read when a bay frees. A `resumed` burn (interrupt-and-swap,
  // §4.8) instead waits until no read queued before it needs a bay, so the
  // read that interrupted it is served first. The caller unloads the
  // returned bay's array (if any) before loading its own; a speculatively
  // loaded victim is booked as wasted here.
  sim::Task<int> AcquireForBurn(bool resumed = false);

  // Returns a bay claimed through any Acquire* call. If more requests are
  // queued for the tray it holds, ownership passes directly to the next
  // waiter (the bay never leaves kBusy); otherwise the bay is parked (or
  // left empty) and becomes the most recently used.
  void ReleaseBay(int bay);

  // Background claim (scrub / audit / refresh sweeps, DESIGN.md §5j): like
  // AcquireForRead, but the claim joins the tray's demand queue only once
  // no demand is queued or loading and no demand has arrived for one
  // array-load time, so background traffic adds no queueing delay ahead
  // of a foreground fetch. Once admitted it holds a bay like any single
  // reader, and the aging bound caps foreground waits as usual.
  sim::Task<StatusOr<int>> AcquireForBackground(mech::DiscAddress address);

  // Readahead claim (DESIGN.md §5g): a demand claim granted at once when
  // `address.tray`'s array sits parked with no demand queued or loading;
  // otherwise kFailedPrecondition, and nothing is queued.
  StatusOr<int> AcquireIfParked(mech::DiscAddress address);

  // Speculative claim: asks for `tray` to be made resident while the
  // mechanics would otherwise idle (predictive prefetch, whole-tray
  // readahead). Nobody waits on it. Dropped when the tray is already
  // resident, loading or queued speculatively.
  void EnqueueSpeculative(mech::TrayAddress tray);

  // Demand (and admitted background) requests queued.
  int queue_depth() const;
  const FetchSchedulerStats& stats() const { return stats_; }

  // True when no claim of any class is queued and no load cycle is in
  // flight: the scheduler half of Olfs::Quiesce's teardown condition
  // (rack kill, DESIGN.md §5k).
  bool Idle() const { return queues_.empty() && loading_.empty(); }

  // (tray index, bay) pairs in load-dispatch order — the determinism probe
  // used by tests: same workload + seed must reproduce this exactly.
  const std::vector<std::pair<int, int>>& dispatch_log() const {
    return dispatch_log_;
  }

 private:
  // Claim classes, in the order TryDispatch grants them.
  enum class ClaimClass { kBurn, kDemand, kBackground, kSpeculative };
  struct Request {
    explicit Request(sim::Simulator& sim)
        : done(sim), bay(UnavailableError("bay claim still queued")) {}
    std::uint64_t seq = 0;  // arrival order across every class
    sim::TimePoint enqueued = 0;
    sim::Event done;
    StatusOr<int> bay;
    bool after_demand = false;  // a resumed burn: yields to older reads
  };
  // (class, tray index); burns claim any bay and key on kAnyTray.
  using Key = std::pair<ClaimClass, int>;
  using Queues = std::map<Key, std::deque<std::shared_ptr<Request>>>;
  static constexpr int kAnyTray = -1;

  // Stamps `request` with the next arrival seq and queues it under `key`.
  void Push(Key key, std::shared_ptr<Request> request);
  // Queues a new claim under `key` (a demand claim through AdmitToTray),
  // wakes the dispatcher, and waits for the bay.
  sim::Task<StatusOr<int>> Claim(Key key, bool after_demand = false);
  // Pops the front request of a queue, erasing the queue once empty.
  std::shared_ptr<Request> PopFront(Queues::iterator it);
  // The `cls` queue whose front request arrived first, or queues_.end().
  Queues::iterator Oldest(ClaimClass cls);
  // No demand queued and no load cycle in flight.
  bool DemandIdle() const;
  // Grants `tray`'s parked bay to `request` at once if no request is
  // queued or loading for the tray; else queues it on the tray's demand
  // FIFO. True if granted.
  bool AdmitToTray(std::shared_ptr<Request> request, int tray);
  // Claims PickLoadBay(true) for a burn, or -1 if every bay is busy.
  int ClaimForBurn();

  // True if any queued or in-dispatch demand request wants `tray`; the
  // victim pass keeps such arrays resident.
  bool HasDemand(mech::TrayAddress tray) const;
  // True if a demand tray queued before `before_seq` is neither resident
  // nor loading.
  bool DemandNeedsBay(std::uint64_t before_seq);
  void EnsureDispatcher();
  // Runs TryDispatch on every wakeup. `alive` is alive_: a teardown in the
  // instant of a bay change leaves the loop's wakeup queued, and the loop
  // must then touch nothing.
  sim::Task<void> DispatchLoop(std::shared_ptr<const bool> alive);
  // One synchronous scheduling pass; true if anything was dispatched.
  bool TryDispatch();
  // Wakes the dispatcher when the background hold ends (one timer at a
  // time).
  void ArmHoldTimer();
  // Tray of the globally oldest queued request if it has waited past the
  // aging bound, else -1. While a tray is aged the scheduler serves
  // strict FIFO: handoffs and parked-bay claims for younger trays pause
  // and the victim rule may be relaxed, so the starved request is served
  // within one unload/load cycle of crossing the bound.
  int AgedTray();
  // Tray (dense index) to load next, or -1; *aged reports whether the
  // aging bound forced a strict-FIFO choice over the geometry-optimal one.
  int PickTrayToLoad(bool* aged);
  // Empty bay, else the LRU parked bay with no queued demand, or -1.
  // `allow_demanded` (aged dispatch and burns) falls back to the LRU
  // parked bay even if its tray has queued demand.
  int PickLoadBay(bool allow_demanded) const;
  int BayHolding(int tray_index) const;
  sim::Duration PositioningCost(mech::TrayAddress tray);
  // Starts the load cycle of `tray` into the claimed `bay`.
  void StartLoad(int tray, int bay, bool speculative);
  sim::Task<void> LoadTask(mech::TrayAddress tray, int bay, bool speculative);
  // Hands `result` to a demand request and books its queueing delay.
  void Complete(std::shared_ptr<Request> request, StatusOr<int> result);
  void CompleteFront(int tray_index, int bay);
  // Demand claimed a parked tray / a resident tray left its bay: settle
  // the useful-vs-wasted ledger for speculatively loaded arrays.
  void NoteDemand(int tray_index);
  void NoteUnload(int tray_index);

  sim::Simulator& sim_;
  OlfsParams params_;
  MechController* mech_;

  // Every queued claim, by (class, tray): std::map, so each class is one
  // contiguous, deterministically ordered range. No queue is ever empty.
  Queues queues_;
  std::set<int> loading_;  // trays with a load cycle in flight
  // Speculatively loaded trays still parked without having seen demand.
  std::set<int> spec_resident_;
  std::uint64_t next_seq_ = 0;
  // Background hold: one array-load time after each demand arrival.
  sim::Duration background_hold_;
  sim::TimePoint background_ready_at_ = 0;
  bool hold_timer_armed_ = false;
  // Cleared on destruction; the dispatcher and the hold timer touch
  // nothing once it is.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
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
