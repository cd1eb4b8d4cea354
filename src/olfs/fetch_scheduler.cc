#include "src/olfs/fetch_scheduler.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/mech/plc.h"
#include "src/mech/timing.h"

namespace ros::olfs {

namespace {

int DelayBucket(sim::Duration delay) {
  for (int i = 0; i + 1 < FetchSchedulerStats::kDelayBuckets; ++i) {
    if (delay < sim::Seconds(FetchSchedulerStats::kDelayBucketUpperS[i])) {
      return i;
    }
  }
  return FetchSchedulerStats::kDelayBuckets - 1;
}

}  // namespace

FetchScheduler::FetchScheduler(sim::Simulator& sim, const OlfsParams& params,
                               MechController* mech)
    : sim_(sim), params_(params), mech_(mech) {
  ROS_CHECK(mech_ != nullptr);
  last_used_.assign(static_cast<std::size_t>(mech_->num_bays()), 0);
}

int FetchScheduler::queue_depth() const {
  int depth = 0;
  for (const auto& [tray, queue] : queues_) {
    depth += static_cast<int>(queue.size());
  }
  return depth;
}

bool FetchScheduler::HasDemand(mech::TrayAddress tray) const {
  const int index = tray.ToIndex();
  auto it = queues_.find(index);
  if (it != queues_.end() && !it->second.empty()) {
    return true;
  }
  return loading_.count(index) > 0;
}

int FetchScheduler::BayHolding(int tray_index) const {
  for (int bay = 0; bay < mech_->num_bays(); ++bay) {
    auto tray = mech_->bay_tray(bay);
    if (tray.has_value() && tray->ToIndex() == tray_index) {
      return bay;
    }
  }
  return -1;
}

sim::Duration FetchScheduler::PositioningCost(mech::TrayAddress tray) {
  const mech::Plc& plc = mech_->library().plc();
  const mech::MechTimingModel& timing = plc.timing();
  return timing.RotateTime(plc.roller_state(tray.roller).facing_slot,
                           tray.slot) +
         timing.ArmTravelTime(plc.arm_state(tray.roller).layer, tray.layer,
                              /*carrying=*/false);
}

sim::Task<StatusOr<int>> FetchScheduler::AcquireForRead(
    mech::DiscAddress address) {
  EnsureDispatcher();
  const int tray = address.tray.ToIndex();
  ++stats_.requests;

  // Fast path: the array is already parked in a bay and nobody is queued
  // ahead of us for it — claim the bay without queueing (Table 1's
  // "disc in drive" case, zero queueing delay).
  auto pending = queues_.find(tray);
  if ((pending == queues_.end() || pending->second.empty()) &&
      loading_.count(tray) == 0) {
    const int bay = BayHolding(tray);
    if (bay >= 0 && mech_->bay_state(bay) == BayState::kParked &&
        mech_->TryClaimBay(bay)) {
      ++stats_.parked_hits;
      ++stats_.completed;
      ++stats_.delay_hist[0];
      NoteDemand(tray);
      co_return bay;
    }
  }

  auto request =
      std::make_shared<Request>(sim_, next_seq_++, sim_.now());
  queues_[tray].push_back(request);
  if (!spec_pending_.empty()) {
    // Demand queued: cancel pending speculative work so the background
    // class can never delay the dispatcher's next demand pass.
    stats_.speculative_canceled +=
        static_cast<std::uint64_t>(spec_pending_.size());
    spec_pending_.clear();
  }
  stats_.max_queue_depth = std::max(
      stats_.max_queue_depth, static_cast<std::uint64_t>(queue_depth()));
  // Wake the dispatcher (and any AcquireForBurn waiters; they re-scan and
  // go back to sleep, which keeps wakeup order deterministic).
  mech_->bay_changed().NotifyAll();
  co_await request->done.Wait();
  co_return request->bay;
}

sim::Task<StatusOr<int>> FetchScheduler::AcquireForBackground(
    mech::DiscAddress address) {
  // Park (deterministic sim-time poll) until the demand machinery is
  // idle: no queued foreground requests and no load cycle in flight. A
  // fresh demand arriving after admission simply queues behind this claim
  // like behind any single reader, and the aging bound still applies.
  while (queue_depth() > 0 || !loading_.empty()) {
    ++stats_.background_yields;
    co_await sim_.Delay(sim::Seconds(1));
  }
  ++stats_.background_acquires;
  co_return co_await AcquireForRead(address);
}

sim::Task<int> FetchScheduler::AcquireForBurn() {
  while (true) {
    const int bay = PickLoadBay(/*allow_demanded=*/true);
    if (bay >= 0 && mech_->TryClaimBay(bay)) {
      auto victim = mech_->bay_tray(bay);
      if (victim.has_value()) {
        NoteUnload(victim->ToIndex());
      }
      co_return bay;
    }
    co_await mech_->bay_changed().Wait();
  }
}

void FetchScheduler::ReleaseBay(int bay) {
  last_used_.at(bay) = ++use_clock_;
  auto tray = mech_->bay_tray(bay);
  if (tray.has_value()) {
    const int index = tray->ToIndex();
    auto it = queues_.find(index);
    const int aged = AgedTray();
    if (it != queues_.end() && !it->second.empty() &&
        (aged < 0 || aged == index)) {
      // Hand the bay straight to the next waiter of this tray: the array
      // stays in the drives and the bay never leaves kBusy. Suppressed
      // while another tray's request is past the aging bound — endless
      // same-tray handoffs must not starve it of this bay.
      ++stats_.handoffs;
      CompleteFront(index, bay);
      return;
    }
  }
  mech_->ReleaseBay(bay);  // parks the array; bay_changed wakes the loop
}

void FetchScheduler::EnsureDispatcher() {
  if (!dispatcher_running_) {
    dispatcher_running_ = true;
    sim_.Spawn(DispatchLoop());
  }
}

sim::Task<void> FetchScheduler::DispatchLoop() {
  while (true) {
    if (!TryDispatch()) {
      co_await mech_->bay_changed().Wait();
    }
  }
}

void FetchScheduler::EnqueueSpeculative(mech::TrayAddress tray) {
  const int index = tray.ToIndex();
  if (loading_.count(index) > 0 || BayHolding(index) >= 0) {
    return;
  }
  if (std::find(spec_pending_.begin(), spec_pending_.end(), index) !=
      spec_pending_.end()) {
    return;
  }
  ++stats_.speculative_enqueued;
  spec_pending_.push_back(index);
  EnsureDispatcher();
  mech_->bay_changed().NotifyAll();
}

void FetchScheduler::NoteDemand(int tray_index) {
  if (spec_resident_.erase(tray_index) > 0) {
    ++stats_.speculative_useful;
  }
}

void FetchScheduler::NoteUnload(int tray_index) {
  if (spec_resident_.erase(tray_index) > 0) {
    ++stats_.speculative_wasted;
  }
}

bool FetchScheduler::TryDispatch() {
  bool progressed = false;
  const int starved = AgedTray();

  // Pass 1: waiters whose array already sits parked in a bay — claim it,
  // no mechanics. (A busy bay holding the tray hands off on release.)
  // Paused while a non-resident request is past the aging bound: claiming
  // parked bays for younger trays would keep them un-evictable.
  for (auto it = queues_.begin(); it != queues_.end();) {
    const int tray = it->first;
    const bool empty = it->second.empty();
    ++it;  // CompleteFront may erase this map entry
    if (empty || loading_.count(tray) > 0 ||
        (starved >= 0 && tray != starved)) {
      continue;
    }
    const int bay = BayHolding(tray);
    if (bay >= 0 && mech_->bay_state(bay) == BayState::kParked &&
        mech_->TryClaimBay(bay)) {
      ++stats_.parked_hits;
      NoteDemand(tray);
      CompleteFront(tray, bay);
      progressed = true;
    }
  }

  // Pass 2: start load cycles while both work and bays remain.
  while (true) {
    bool aged = false;
    const int tray = PickTrayToLoad(&aged);
    if (tray < 0) {
      break;
    }
    const int bay = PickLoadBay(/*allow_demanded=*/aged);
    if (bay < 0 || !mech_->TryClaimBay(bay)) {
      break;
    }
    loading_.insert(tray);
    if (aged) {
      ++stats_.aged_dispatches;
    }
    const mech::TrayAddress address = mech::TrayAddress::FromIndex(tray);
    stats_.est_positioning += PositioningCost(address);
    dispatch_log_.emplace_back(tray, bay);
    sim_.Spawn(LoadTask(address, bay));
    progressed = true;
  }

  // Pass 3 (background class): speculative loads, only once demand needs
  // nothing more from the bays.
  if (TryDispatchSpeculative()) {
    progressed = true;
  }
  return progressed;
}

bool FetchScheduler::TryDispatchSpeculative() {
  bool progressed = false;
  while (!spec_pending_.empty()) {
    // Demand has absolute priority: dispatch speculative loads only while
    // every queued demand request is already resident or in flight (pass
    // 1, a release handoff, or the in-flight load serves those without a
    // new bay).
    bool demand_idle = true;
    for (const auto& [tray, queue] : queues_) {
      if (!queue.empty() && loading_.count(tray) == 0 &&
          BayHolding(tray) < 0) {
        demand_idle = false;
        break;
      }
    }
    if (!demand_idle) {
      break;
    }
    const int tray = spec_pending_.front();
    if (loading_.count(tray) > 0 || BayHolding(tray) >= 0) {
      spec_pending_.pop_front();  // already resident or being loaded
      continue;
    }
    const int bay = PickLoadBay(/*allow_demanded=*/false);
    if (bay < 0) {
      break;  // no undemanded bay free; stays pending for the next wakeup
    }
    auto victim = mech_->bay_tray(bay);
    if (victim.has_value() && HasDemand(*victim)) {
      // PickLoadBay(false) never returns a demanded victim; this counter
      // is a run-time self-check asserted zero by tests and chaos runs.
      ++stats_.speculative_demand_evictions;
      break;
    }
    if (!mech_->TryClaimBay(bay)) {
      break;
    }
    spec_pending_.pop_front();
    loading_.insert(tray);
    ++stats_.speculative_loads;
    const mech::TrayAddress address = mech::TrayAddress::FromIndex(tray);
    stats_.est_positioning += PositioningCost(address);
    dispatch_log_.emplace_back(tray, bay);
    sim_.Spawn(LoadTask(address, bay, /*speculative=*/true));
    progressed = true;
  }
  return progressed;
}

int FetchScheduler::AgedTray() const {
  // Negative disables aging entirely; a bound of zero means every queued
  // request is immediately "aged", i.e. strict-FIFO dispatch.
  if (params_.fetch_aging_bound < 0) {
    return -1;
  }
  // Sequence numbers are assigned in arrival order, so the smallest front
  // seq across all queues is the globally oldest queued request.
  int oldest = -1;
  std::uint64_t oldest_seq = 0;
  sim::TimePoint oldest_enqueued = 0;
  for (const auto& [tray, queue] : queues_) {
    if (queue.empty()) {
      continue;
    }
    const Request& front = *queue.front();
    if (oldest < 0 || front.seq < oldest_seq) {
      oldest = tray;
      oldest_seq = front.seq;
      oldest_enqueued = front.enqueued;
    }
  }
  if (oldest < 0 ||
      sim_.now() - oldest_enqueued < params_.fetch_aging_bound) {
    return -1;
  }
  // No intervention needed while its array is resident or already being
  // loaded: pass 1, a release handoff, or the in-flight load serves it.
  if (loading_.count(oldest) > 0 || BayHolding(oldest) >= 0) {
    return -1;
  }
  return oldest;
}

int FetchScheduler::PickTrayToLoad(bool* aged) {
  *aged = false;
  const int starved = AgedTray();
  if (starved >= 0) {
    *aged = true;
    return starved;
  }
  int best = -1;
  sim::Duration best_cost = 0;
  std::uint64_t best_seq = 0;
  for (const auto& [tray, queue] : queues_) {
    if (queue.empty() || loading_.count(tray) > 0 ||
        BayHolding(tray) >= 0) {
      // A resident tray is served by pass 1 (parked) or by a release
      // handoff (busy); loading it into a second bay would fork the media.
      continue;
    }
    const sim::Duration cost =
        PositioningCost(mech::TrayAddress::FromIndex(tray));
    if (best < 0 || cost < best_cost ||
        (cost == best_cost && queue.front()->seq < best_seq)) {
      best = tray;
      best_cost = cost;
      best_seq = queue.front()->seq;
    }
  }
  return best;
}

int FetchScheduler::PickLoadBay(bool allow_demanded) const {
  // Empty bays first: nothing to unload.
  for (int bay = 0; bay < mech_->num_bays(); ++bay) {
    if (mech_->bay_state(bay) == BayState::kEmpty) {
      return bay;
    }
  }
  // Victim pass: never a tray with queued demand (those waiters would
  // immediately need it re-loaded); LRU among the no-demand parked bays.
  // For an aged dispatch the LRU parked bay is the fallback even if its
  // tray is demanded: strict FIFO outranks keeping a hot array resident.
  int victim = -1;
  std::uint64_t victim_stamp = 0;
  int fallback = -1;
  std::uint64_t fallback_stamp = 0;
  for (int bay = 0; bay < mech_->num_bays(); ++bay) {
    if (mech_->bay_state(bay) != BayState::kParked) {
      continue;
    }
    const std::uint64_t stamp = last_used_.at(bay);
    if (fallback < 0 || stamp < fallback_stamp) {
      fallback = bay;
      fallback_stamp = stamp;
    }
    auto tray = mech_->bay_tray(bay);
    if (tray.has_value() && HasDemand(*tray)) {
      continue;
    }
    if (victim < 0 || stamp < victim_stamp) {
      victim = bay;
      victim_stamp = stamp;
    }
  }
  if (victim < 0 && allow_demanded) {
    return fallback;
  }
  return victim;
}

sim::Task<void> FetchScheduler::LoadTask(mech::TrayAddress tray, int bay,
                                         bool speculative) {
  Status status = OkStatus();
  auto victim = mech_->bay_tray(bay);
  if (victim.has_value()) {
    NoteUnload(victim->ToIndex());
    ++stats_.unloads;
    status = co_await mech_->UnloadArray(bay);
  }
  if (status.ok()) {
    ++stats_.loads;
    status = co_await mech_->LoadArray(tray, bay);
  }
  const int index = tray.ToIndex();
  loading_.erase(index);
  if (!status.ok()) {
    // Fail the whole batch: every waiter re-enters the queue through its
    // caller's retry policy, with fresh backoff and bay selection.
    ++stats_.failed_batches;
    auto it = queues_.find(index);
    if (it != queues_.end()) {
      std::deque<std::shared_ptr<Request>> waiters = std::move(it->second);
      queues_.erase(it);
      for (std::shared_ptr<Request>& request : waiters) {
        Complete(std::move(request), status);
      }
    }
    ROS_LOG(kWarning) << "scheduled load of " << tray.ToString()
                      << " failed: " << status.ToString();
    mech_->ReleaseBay(bay);
    co_return;
  }
  auto it = queues_.find(index);
  if (it == queues_.end() || it->second.empty()) {
    if (speculative) {
      spec_resident_.insert(index);  // parked until demand (or eviction)
    }
    mech_->ReleaseBay(bay);  // waiters raced away; park the array
    co_return;
  }
  if (speculative) {
    // Demand arrived mid-cycle: the speculative load absorbs it exactly
    // like a demand load would have, one whole cycle earlier.
    ++stats_.speculative_useful;
  }
  stats_.max_batch = std::max(stats_.max_batch,
                              static_cast<std::uint64_t>(it->second.size()));
  CompleteFront(index, bay);
}

void FetchScheduler::CompleteFront(int tray_index, int bay) {
  auto it = queues_.find(tray_index);
  ROS_CHECK(it != queues_.end() && !it->second.empty());
  std::shared_ptr<Request> request = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) {
    queues_.erase(it);
  }
  Complete(std::move(request), bay);
}

void FetchScheduler::Complete(std::shared_ptr<Request> request,
                              StatusOr<int> result) {
  const sim::Duration delay = sim_.now() - request->enqueued;
  ++stats_.completed;
  stats_.total_queue_delay += delay;
  stats_.max_queue_delay = std::max(stats_.max_queue_delay, delay);
  ++stats_.delay_hist[static_cast<std::size_t>(DelayBucket(delay))];
  request->bay = std::move(result);
  request->done.Set();
}

}  // namespace ros::olfs
