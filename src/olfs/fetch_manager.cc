#include "src/olfs/fetch_manager.h"

#include <utility>

#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/sim/retry.h"

namespace ros::olfs {

sim::Task<StatusOr<FetchLease>> FetchManager::FetchDisc(
    std::string image_id, FetchClass fetch_class) {
  const bool background = fetch_class == FetchClass::kBackground;
  std::uint64_t seed =
      Fnv1a64({reinterpret_cast<const std::uint8_t*>(image_id.data()),
               image_id.size()});
  if (background) {
    seed ^= 0xBA5EBA11u;  // background backoff jitter differs from demand's
  }
  sim::Retrier retrier(sim_, params_.mech_retry, seed);
  while (true) {
    StatusOr<FetchLease> lease = co_await FetchDiscOnce(image_id, fetch_class);
    if (lease.ok()) {
      co_return std::move(lease);
    }
    if (!co_await retrier.AwaitRetry(lease.status())) {
      co_return lease.status();
    }
    ++retries_;
    ROS_LOG(kWarning) << "retrying " << (background ? "background " : "")
                      << "fetch of " << image_id << " (attempt "
                      << retrier.attempts() + 1
                      << "): " << lease.status().ToString();
  }
}

sim::Task<StatusOr<FetchLease>> FetchManager::FetchDiscOnce(
    std::string image_id, FetchClass fetch_class) {
  ROS_CO_ASSIGN_OR_RETURN(const ImageRecord* record,
                          images_->Lookup(image_id));
  if (!record->disc.has_value()) {
    co_return FailedPreconditionError("image " + image_id +
                                      " is not on any disc");
  }
  const mech::DiscAddress address = *record->disc;

  // Each class awaits its own call: GCC 12 miscompiles a co_await on a
  // conditional expression of two sim::Task temporaries (a
  // heap-use-after-free; ros-lint rule coro-conditional-await).
  if (fetch_class == FetchClass::kBackground) {
    ROS_CO_ASSIGN_OR_RETURN(
        int bay, co_await scheduler_->AcquireForBackground(address));
    co_return FetchLease(scheduler_, bay,
                         &mech_->drive_set(bay).drive(address.index));
  }
  if (fetch_class == FetchClass::kReadahead) {
    ROS_CO_ASSIGN_OR_RETURN(int bay, scheduler_->AcquireIfParked(address));
    co_return FetchLease(scheduler_, bay,
                         &mech_->drive_set(bay).drive(address.index));
  }

  // Under the interrupt-and-swap policy, nudge a burn before queueing when
  // every bay is busy: the burn in bay 0 is interrupted, unloads at its
  // next chunk boundary, and the scheduler dispatches into the freed bay.
  // Background sweeps and readahead never interrupt a burn.
  if (params_.busy_drive_policy == BusyDrivePolicy::kInterruptAndSwap) {
    bool all_busy = true;
    for (int bay = 0; bay < mech_->num_bays(); ++bay) {
      if (mech_->bay_state(bay) != BayState::kBusy) {
        all_busy = false;
        break;
      }
    }
    if (all_busy) {
      (void)burns_->InterruptBay(0);
    }
  }

  ROS_CO_ASSIGN_OR_RETURN(int bay,
                          co_await scheduler_->AcquireForRead(address));
  co_return FetchLease(scheduler_, bay,
                       &mech_->drive_set(bay).drive(address.index));
}

}  // namespace ros::olfs
