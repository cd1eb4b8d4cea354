#include "src/olfs/fetch_scheduler.h"

#include <algorithm>
#include <iterator>

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
  background_hold_ = mech_->library().plc().timing().LoadArrayTime();
  last_used_.assign(static_cast<std::size_t>(mech_->num_bays()), 0);
}

int FetchScheduler::queue_depth() const {
  int depth = 0;
  for (auto it = queues_.lower_bound({ClaimClass::kDemand, kAnyTray});
       it != queues_.end() && it->first.first == ClaimClass::kDemand; ++it) {
    depth += static_cast<int>(it->second.size());
  }
  return depth;
}

bool FetchScheduler::HasDemand(mech::TrayAddress tray) const {
  const int index = tray.ToIndex();
  return queues_.count({ClaimClass::kDemand, index}) > 0 ||
         loading_.count(index) > 0;
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

void FetchScheduler::Push(Key key, std::shared_ptr<Request> request) {
  request->seq = next_seq_++;
  request->enqueued = sim_.now();
  queues_[key].push_back(std::move(request));
}

sim::Task<StatusOr<int>> FetchScheduler::Claim(Key key, bool after_demand) {
  EnsureDispatcher();
  auto request = std::make_shared<Request>(sim_);
  request->after_demand = after_demand;
  if (key.first != ClaimClass::kDemand) {
    Push(key, request);
    mech_->bay_changed().NotifyAll();  // wake the dispatcher
  } else if (!AdmitToTray(request, key.second)) {
    mech_->bay_changed().NotifyAll();
  }
  co_await request->done.Wait();
  co_return request->bay;
}

std::shared_ptr<FetchScheduler::Request> FetchScheduler::PopFront(
    Queues::iterator it) {
  std::shared_ptr<Request> request = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) {
    queues_.erase(it);
  }
  return request;
}

FetchScheduler::Queues::iterator FetchScheduler::Oldest(ClaimClass cls) {
  auto oldest = queues_.end();
  for (auto it = queues_.lower_bound({cls, kAnyTray});
       it != queues_.end() && it->first.first == cls; ++it) {
    if (oldest == queues_.end() ||
        it->second.front()->seq < oldest->second.front()->seq) {
      oldest = it;
    }
  }
  return oldest;
}

bool FetchScheduler::AdmitToTray(std::shared_ptr<Request> request, int tray) {
  ++stats_.requests;
  if (queues_.count({ClaimClass::kDemand, tray}) == 0 &&
      loading_.count(tray) == 0) {
    const int bay = BayHolding(tray);
    if (bay >= 0 && mech_->bay_state(bay) == BayState::kParked &&
        mech_->TryClaimBay(bay)) {
      ++stats_.parked_hits;
      NoteDemand(tray);
      request->enqueued = sim_.now();
      Complete(std::move(request), bay);
      return true;
    }
  }
  Push({ClaimClass::kDemand, tray}, std::move(request));
  // Demand queued: cancel every speculative claim (the last class, so the
  // tail of the map) so speculation never delays the next demand pass.
  auto spec = queues_.lower_bound({ClaimClass::kSpeculative, kAnyTray});
  stats_.speculative_canceled +=
      static_cast<std::uint64_t>(std::distance(spec, queues_.end()));
  queues_.erase(spec, queues_.end());
  stats_.max_queue_depth = std::max(
      stats_.max_queue_depth, static_cast<std::uint64_t>(queue_depth()));
  return false;
}

sim::Task<StatusOr<int>> FetchScheduler::AcquireForRead(
    mech::DiscAddress address) {
  background_ready_at_ = sim_.now() + background_hold_;
  co_return co_await Claim({ClaimClass::kDemand, address.tray.ToIndex()});
}

StatusOr<int> FetchScheduler::AcquireIfParked(mech::DiscAddress address) {
  const int bay = BayHolding(address.tray.ToIndex());
  if (bay < 0 || mech_->bay_state(bay) != BayState::kParked ||
      HasDemand(address.tray)) {
    return FailedPreconditionError("array of " + address.tray.ToString() +
                                   " is not parked idle in a bay");
  }
  background_ready_at_ = sim_.now() + background_hold_;
  auto request = std::make_shared<Request>(sim_);
  const bool granted = AdmitToTray(request, address.tray.ToIndex());
  ROS_CHECK(granted);
  return request->bay;
}

bool FetchScheduler::DemandIdle() const {
  return queue_depth() == 0 && loading_.empty();
}

sim::Task<StatusOr<int>> FetchScheduler::AcquireForBackground(
    mech::DiscAddress address) {
  const int tray = address.tray.ToIndex();
  if (DemandIdle() && sim_.now() >= background_ready_at_ &&
      Oldest(ClaimClass::kBackground) == queues_.end()) {
    ++stats_.background_acquires;  // admitted on arrival
    co_return co_await Claim({ClaimClass::kDemand, tray});
  }
  co_return co_await Claim({ClaimClass::kBackground, tray});
}

int FetchScheduler::ClaimForBurn() {
  const int bay = PickLoadBay(/*allow_demanded=*/true);
  if (bay < 0 || !mech_->TryClaimBay(bay)) {
    return -1;
  }
  auto victim = mech_->bay_tray(bay);
  if (victim.has_value()) {
    NoteUnload(victim->ToIndex());
  }
  return bay;
}

sim::Task<int> FetchScheduler::AcquireForBurn(bool resumed) {
  if (queues_.count({ClaimClass::kBurn, kAnyTray}) == 0 &&
      !(resumed && DemandNeedsBay(next_seq_))) {
    const int bay = ClaimForBurn();
    if (bay >= 0) {
      co_return bay;
    }
  }
  StatusOr<int> bay =
      co_await Claim({ClaimClass::kBurn, kAnyTray}, /*after_demand=*/resumed);
  co_return *bay;
}

void FetchScheduler::ReleaseBay(int bay) {
  last_used_.at(bay) = ++use_clock_;
  auto tray = mech_->bay_tray(bay);
  if (tray.has_value()) {
    const int index = tray->ToIndex();
    const int aged = AgedTray();
    if (queues_.count({ClaimClass::kDemand, index}) > 0 &&
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
    sim_.Spawn(DispatchLoop(alive_));
  }
}

sim::Task<void> FetchScheduler::DispatchLoop(
    std::shared_ptr<const bool> alive) {
  while (true) {
    if (!TryDispatch()) {
      co_await mech_->bay_changed().Wait();
      if (!*alive) {
        co_return;  // woken in the instant the scheduler was destroyed
      }
    }
  }
}

void FetchScheduler::EnqueueSpeculative(mech::TrayAddress tray) {
  const int index = tray.ToIndex();
  if (loading_.count(index) > 0 || BayHolding(index) >= 0 ||
      queues_.count({ClaimClass::kSpeculative, index}) > 0) {
    return;
  }
  ++stats_.speculative_enqueued;
  EnsureDispatcher();
  Push({ClaimClass::kSpeculative, index}, std::make_shared<Request>(sim_));
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

bool FetchScheduler::DemandNeedsBay(std::uint64_t before_seq) {
  for (auto it = queues_.lower_bound({ClaimClass::kDemand, kAnyTray});
       it != queues_.end() && it->first.first == ClaimClass::kDemand; ++it) {
    const int tray = it->first.second;
    if (it->second.front()->seq < before_seq && loading_.count(tray) == 0 &&
        BayHolding(tray) < 0) {
      return true;
    }
  }
  return false;
}

void FetchScheduler::ArmHoldTimer() {
  if (hold_timer_armed_) {
    return;  // the armed timer re-checks and re-arms for the remainder
  }
  hold_timer_armed_ = true;
  sim_.ScheduleAt(background_ready_at_, [this, alive = alive_] {
    if (*alive) {
      hold_timer_armed_ = false;
      mech_->bay_changed().NotifyAll();
    }
  });
}

bool FetchScheduler::TryDispatch() {
  bool progressed = false;

  // Burns: FIFO, ahead of every other class, into PickLoadBay(true). A
  // burn resumed after an interrupt-and-swap (§4.8) waits while a read
  // queued before it still needs a bay: that read interrupted it.
  for (auto it = queues_.find({ClaimClass::kBurn, kAnyTray});
       it != queues_.end();
       it = queues_.find({ClaimClass::kBurn, kAnyTray})) {
    const Request& front = *it->second.front();
    if (front.after_demand && DemandNeedsBay(front.seq)) {
      break;
    }
    const int bay = ClaimForBurn();
    if (bay < 0) {
      break;
    }
    std::shared_ptr<Request> burn = PopFront(it);
    burn->bay = bay;
    burn->done.Set();
    progressed = true;
  }

  // Demand pass 1: waiters whose array already sits parked in a bay claim
  // it, no mechanics. (A busy bay holding the tray hands off on release.)
  // Paused while a non-resident request is past the aging bound: claiming
  // parked bays for younger trays would keep them un-evictable.
  const int starved = AgedTray();
  for (auto it = queues_.lower_bound({ClaimClass::kDemand, kAnyTray});
       it != queues_.end() && it->first.first == ClaimClass::kDemand;) {
    const int tray = it->first.second;
    ++it;  // CompleteFront may erase this map entry
    if (loading_.count(tray) > 0 || (starved >= 0 && tray != starved)) {
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

  // Demand pass 2: start load cycles while both work and bays remain, in
  // PickTrayToLoad's positioning-cost order under the aging bound.
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
    if (aged) {
      ++stats_.aged_dispatches;
    }
    StartLoad(tray, bay, /*speculative=*/false);
    progressed = true;
  }

  // Background: FIFO, admitted into its tray's demand queue only while no
  // demand is queued or loading and the hold after the last demand
  // arrival has passed. The next pass serves what was queued.
  for (auto it = Oldest(ClaimClass::kBackground); it != queues_.end();
       it = Oldest(ClaimClass::kBackground)) {
    if (!DemandIdle()) {
      break;  // a bay release or load completion wakes the next pass
    }
    if (sim_.now() < background_ready_at_) {
      ArmHoldTimer();
      break;
    }
    const int tray = it->first.second;
    std::shared_ptr<Request> request = PopFront(it);
    ++stats_.background_acquires;
    if (request->enqueued < sim_.now()) {
      ++stats_.background_yields;
    }
    AdmitToTray(std::move(request), tray);
    progressed = true;
  }

  // Speculative: FIFO, only once every queued demand tray is resident or
  // in flight (pass 1, a release handoff or the in-flight load serves
  // those without a new bay), and never into a bay whose tray has demand.
  for (auto it = Oldest(ClaimClass::kSpeculative);
       it != queues_.end() && !DemandNeedsBay(next_seq_);
       it = Oldest(ClaimClass::kSpeculative)) {
    const int tray = it->first.second;
    if (loading_.count(tray) > 0 || BayHolding(tray) >= 0) {
      PopFront(it);  // already resident or being loaded
      continue;
    }
    const int bay = PickLoadBay(/*allow_demanded=*/false);
    if (bay < 0) {
      break;  // no undemanded bay free; stays queued for the next wakeup
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
    PopFront(it);
    ++stats_.speculative_loads;
    StartLoad(tray, bay, /*speculative=*/true);
    progressed = true;
  }
  return progressed;
}

void FetchScheduler::StartLoad(int tray, int bay, bool speculative) {
  loading_.insert(tray);
  const mech::TrayAddress address = mech::TrayAddress::FromIndex(tray);
  stats_.est_positioning += PositioningCost(address);
  dispatch_log_.emplace_back(tray, bay);
  sim_.Spawn(LoadTask(address, bay, speculative));
}

int FetchScheduler::AgedTray() {
  // Negative disables aging entirely; a bound of zero means every queued
  // request is immediately "aged", i.e. strict-FIFO dispatch.
  if (params_.fetch_aging_bound < 0) {
    return -1;
  }
  auto oldest = Oldest(ClaimClass::kDemand);
  if (oldest == queues_.end() ||
      sim_.now() - oldest->second.front()->enqueued <
          params_.fetch_aging_bound) {
    return -1;
  }
  // No intervention needed while its array is resident or already being
  // loaded: pass 1, a release handoff, or the in-flight load serves it.
  const int tray = oldest->first.second;
  if (loading_.count(tray) > 0 || BayHolding(tray) >= 0) {
    return -1;
  }
  return tray;
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
  for (auto it = queues_.lower_bound({ClaimClass::kDemand, kAnyTray});
       it != queues_.end() && it->first.first == ClaimClass::kDemand; ++it) {
    const int tray = it->first.second;
    if (loading_.count(tray) > 0 || BayHolding(tray) >= 0) {
      // A resident tray is served by pass 1 (parked) or by a release
      // handoff (busy); loading it into a second bay would fork the media.
      continue;
    }
    const sim::Duration cost =
        PositioningCost(mech::TrayAddress::FromIndex(tray));
    const std::uint64_t seq = it->second.front()->seq;
    if (best < 0 || cost < best_cost || (cost == best_cost && seq < best_seq)) {
      best = tray;
      best_cost = cost;
      best_seq = seq;
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
    auto it = queues_.find({ClaimClass::kDemand, index});
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
  auto it = queues_.find({ClaimClass::kDemand, index});
  if (it == queues_.end()) {
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
  auto it = queues_.find({ClaimClass::kDemand, tray_index});
  ROS_CHECK(it != queues_.end());
  Complete(PopFront(it), bay);
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
