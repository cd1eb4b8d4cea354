#include "src/olfs/burn_manager.h"

#include <algorithm>
#include <optional>

#include "src/common/logging.h"
#include "src/olfs/audit.h"
#include "src/sim/join.h"
#include "src/sim/retry.h"

namespace ros::olfs {

BurnManager::BurnManager(sim::Simulator& sim, const OlfsParams& params,
                         BucketManager* buckets, DiscImageStore* images,
                         ParityBuilder* parity, MechController* mech,
                         FetchScheduler* scheduler, DaIndex* da,
                         ReadCache* cache)
    : sim_(sim), params_(params), buckets_(buckets), images_(images),
      parity_(parity), mech_(mech), scheduler_(scheduler), da_(da),
      cache_(cache), burns_changed_(sim) {
  interrupt_requested_.assign(
      static_cast<std::size_t>(mech_->num_bays()), false);
}

void BurnManager::NotifyImageClosed(const std::string&) {
  MaybeStartBurn();
}

void BurnManager::MaybeStartBurn() {
  // Affinity placement: cluster co-accessed images onto this array. The
  // batch forms over a wider window of closed images so the clusterer has
  // genuine choice of membership (forming at exactly `quota` could only
  // reorder the same prefix). With no tracker or no recorded edges, this
  // is exactly the close-order prefix — and the original fire-at-quota
  // timing — of the pre-hint planner.
  std::vector<std::string> available = UnclaimedClosed();
  const int form_at = params_.data_images_per_array() +
                      (AffinityActive() ? params_.affinity_window() : 0);
  if (static_cast<int>(available.size()) >= form_at) {
    StartBurn(PlanBatch(available));
  }
}

sim::Task<Status> BurnManager::FlushPartialArray() {
  // A flush drains everything now: the affinity window no longer applies,
  // but full arrays still go through the clusterer so a pool the window
  // accumulated burns well-placed. (Without affinity the pool can never
  // exceed the quota here — MaybeStartBurn drains it — so this loop
  // degenerates to at most the original single partial array.)
  std::vector<std::string> available = UnclaimedClosed();
  while (static_cast<int>(available.size()) >=
         params_.data_images_per_array()) {
    std::vector<std::string> batch = PlanBatch(available);
    for (const std::string& id : batch) {
      available.erase(std::find(available.begin(), available.end(), id));
    }
    StartBurn(std::move(batch));
  }
  if (!available.empty()) {
    StartBurn(std::move(available));
  }
  co_return OkStatus();
}

bool BurnManager::AffinityActive() const {
  return affinity_ != nullptr && affinity_->edges() > 0;
}

std::vector<std::string> BurnManager::UnclaimedClosed() const {
  // Images claimed by running burn tasks leave UnburnedClosed only at
  // completion.
  std::vector<std::string> available;
  for (const std::string& id : images_->UnburnedClosed()) {
    if (std::find(claimed_.begin(), claimed_.end(), id) == claimed_.end()) {
      available.push_back(id);
    }
  }
  return available;
}

std::vector<std::string> BurnManager::PlanBatch(
    const std::vector<std::string>& available) const {
  const int quota = params_.data_images_per_array();
  if (AffinityActive()) {
    return affinity_->PlanBatch(available, quota);
  }
  return std::vector<std::string>(available.begin(),
                                  available.begin() + quota);
}

void BurnManager::StartBurn(std::vector<std::string> batch,
                            std::optional<BurnJob> resume) {
  claimed_.insert(claimed_.end(), batch.begin(), batch.end());
  ++active_burns_;
  sim_.Spawn(BurnArrayTask(std::move(batch), std::move(resume)));
}

Status BurnManager::InterruptBay(int bay) {
  if (bay < 0 || bay >= mech_->num_bays()) {
    return InvalidArgumentError("bad bay");
  }
  interrupt_requested_[static_cast<std::size_t>(bay)] = true;
  drive::DriveSet& set = mech_->drive_set(bay);
  for (int i = 0; i < set.size(); ++i) {
    if (set.drive(i).state() == drive::DriveState::kBurning) {
      set.drive(i).RequestInterrupt();
    }
  }
  return OkStatus();
}

sim::Task<void> BurnManager::BurnArrayTask(
    std::vector<std::string> data_ids, std::optional<BurnJob> resume) {
  BurnJob job;
  if (resume.has_value()) {
    job = std::move(*resume);
    job.resumed = true;
  } else {
    job.image_ids = data_ids;
    // Delayed parity generation (§4.7): only now that the array's data
    // images are all ready. Parity lands on the "other" volume to keep
    // the four I/O streams apart.
    const int parity_volume =
        buckets_->num_volumes() > 1 ? 1 : 0;
    std::vector<disk::Volume*> volumes;
    for (int i = 0; i < buckets_->num_volumes(); ++i) {
      volumes.push_back(buckets_->volume(i));
    }
    auto parities =
        co_await parity_->Build(data_ids, volumes, parity_volume);
    if (!parities.ok()) {
      last_error_ = parities.status();
      fatal_error_ = parities.status();
      --active_burns_;
      burns_changed_.NotifyAll();
      co_return;
    }
    for (const ParityImage& parity : *parities) {
      job.image_ids.push_back(parity.id);
    }
    auto tray = da_->AllocateEmpty();
    if (!tray.ok()) {
      last_error_ = tray.status();
      fatal_error_ = tray.status();
      --active_burns_;
      burns_changed_.NotifyAll();
      co_return;
    }
    job.tray = *tray;
    da_->set_state(job.tray, ArrayState::kUsed);
  }

  // Burn with two-tier retry. Transient failures (a mechanical fault, a
  // momentarily busy drive) leave the media sound: the same array retries
  // in place under kBurnRetry's backoff, and when that budget runs out the
  // job backs off and starts a fresh one on the same array. Permanent
  // failures (burn errors: suspect media) mark the array kFailed in the
  // DAindex and the job moves to a fresh empty array. Both count against
  // kMaxArrayRetries.
  constexpr int kMaxArrayRetries = 2;
  constexpr sim::RetryPolicy kBurnRetry{.max_attempts = 3,
                                        .initial_backoff = sim::Seconds(5)};
  auto retry_seed = [&job] {
    return static_cast<std::uint64_t>(job.tray.ToIndex()) + 1;
  };
  std::optional<sim::Retrier> retrier;
  retrier.emplace(sim_, kBurnRetry, retry_seed());
  int array_retries = 0;
  while (true) {
    const int bay = co_await scheduler_->AcquireForBurn(job.resumed);
    Status status = co_await BurnArrayInBay(job, bay);
    scheduler_->ReleaseBay(bay);
    if (status.ok()) {
      --active_burns_;
      burns_changed_.NotifyAll();
      co_return;
    }
    last_error_ = status;
    if (sim::IsTransient(status.code())) {
      bool retry = co_await retrier->AwaitRetry(status);
      if (!retry && ++array_retries <= kMaxArrayRetries) {
        retrier.emplace(sim_, kBurnRetry, retry_seed());
        retry = co_await retrier->AwaitRetry(status);
      }
      if (!retry) {
        break;
      }
      ++burn_retries_;
      ROS_LOG(kWarning) << "transient burn failure on array "
                        << job.tray.ToString() << "; retrying in place: "
                        << status.ToString();
      continue;
    }
    da_->set_state(job.tray, ArrayState::kFailed);
    ROS_LOG(kWarning) << "burn of array " << job.tray.ToString()
                      << " failed (" << status.ToString()
                      << "); reallocating";
    if (++array_retries > kMaxArrayRetries) {
      break;
    }
    auto tray = da_->AllocateEmpty();
    if (!tray.ok()) {
      last_error_ = tray.status();
      fatal_error_ = tray.status();
      break;
    }
    job.tray = *tray;
    da_->set_state(job.tray, ArrayState::kUsed);
    ++arrays_reallocated_;
    job.burned_bytes.clear();
    job.resumed = false;
  }
  // Exhausted retries: release the claims so the images stay burnable.
  if (fatal_error_.ok()) {
    fatal_error_ = last_error_;
  }
  for (const std::string& id : job.image_ids) {
    claimed_.erase(std::remove(claimed_.begin(), claimed_.end(), id),
                   claimed_.end());
  }
  --active_burns_;
  burns_changed_.NotifyAll();
}

// ros-lint: allow(coro-ref-param): job lives in jobs_ and must be mutated
// in place; the owning map outlives every burn coroutine.
sim::Task<Status> BurnManager::BurnArrayInBay(BurnJob& job, int bay) {
  interrupt_requested_[static_cast<std::size_t>(bay)] = false;

  // The bay may hold a parked array from an earlier fetch.
  if (mech_->bay_tray(bay).has_value()) {
    ROS_CO_RETURN_IF_ERROR(co_await mech_->UnloadArray(bay));
  }
  ROS_CO_RETURN_IF_ERROR(co_await mech_->LoadArray(job.tray, bay));

  std::vector<sim::Task<Status>> burns;
  for (int i = 0; i < static_cast<int>(job.image_ids.size()); ++i) {
    burns.push_back(BurnOneDisc(job, bay, i, job.image_ids[i],
                                i * burn_start_interval));
  }
  Status status = co_await sim::AllOk(sim_, std::move(burns));

  const bool interrupted =
      interrupt_requested_[static_cast<std::size_t>(bay)];
  ROS_CO_RETURN_IF_ERROR(co_await mech_->UnloadArray(bay));

  if (interrupted) {
    // Half-burned array back in the roller; a resume task re-acquires a
    // bay (queueing behind the fetch that interrupted us) and continues
    // the remaining burns in append-burn mode.
    ++interrupts_taken_;
    StartBurn({}, job);
    ROS_LOG(kInfo) << "burn of array " << job.tray.ToString()
                   << " interrupted; resume queued";
    co_return OkStatus();
  }
  ROS_CO_RETURN_IF_ERROR(status);
  co_return co_await FinishJob(job);
}

// ros-lint: allow(coro-ref-param): job lives in jobs_ and must be mutated
// in place; the owning map outlives every burn coroutine.
sim::Task<Status> BurnManager::BurnOneDisc(BurnJob& job, int bay,
                                           int disc_index,
                                           std::string image_id,
                                           sim::Duration start_delay) {
  // Skip images that finished before an interrupt. The map value is
  // copied out here: interrupt bookkeeping mutates job.burned_bytes from
  // sibling disc burns, so no iterator may live across the suspensions
  // below.
  std::uint64_t already_burned = 0;
  bool resuming = false;
  if (auto it = job.burned_bytes.find(image_id);
      it != job.burned_bytes.end()) {
    already_burned = it->second;
    resuming = true;
  }
  ROS_CO_ASSIGN_OR_RETURN(const ImageRecord* record,
                          images_->Lookup(image_id));
  std::uint64_t logical = record->logical_bytes;
  std::vector<std::uint8_t> payload;
  if (record->parity) {
    auto parity = parity_->Get(image_id);
    if (parity.ok()) {
      payload = (*parity)->bytes;
    }
  } else {
    ROS_CHECK(record->image != nullptr && record->image->closed());
    payload = *record->image->stream();
  }
  logical = std::max<std::uint64_t>(logical, payload.size());
  if (resuming && already_burned >= logical) {
    co_return OkStatus();  // already fully burned before the interrupt
  }

  co_await sim_.Delay(start_delay);
  if (interrupt_requested_[static_cast<std::size_t>(bay)]) {
    job.burned_bytes[image_id] = already_burned;
    co_return OkStatus();
  }

  // Stage the image from the disk buffer (reads contend on the volume,
  // which staggers actual burn starts further).
  if (!record->volume_file.empty()) {
    disk::Volume* volume = buckets_->volume(record->volume_index);
    auto size = volume->FileSize(record->volume_file);
    if (size.ok() && *size > 0) {
      ROS_CO_RETURN_IF_ERROR(
          co_await volume->ReadDiscard(record->volume_file, 0, *size));
    }
  }

  drive::OpticalDrive& drive = mech_->drive_set(bay).drive(disc_index);
  // Append mode is required to resume after interrupts; the metadata zone
  // is pre-formatted only under the interrupt-and-swap policy (§4.8).
  drive::BurnOptions options;
  options.append_mode =
      params_.busy_drive_policy == BusyDrivePolicy::kInterruptAndSwap ||
      job.resumed;
  auto result = co_await drive.BurnImage(image_id, logical,
                                         std::move(payload), options);
  if (!result.ok()) {
    co_return result.status();
  }
  job.burned_bytes[image_id] = result->bytes_burned;
  co_return OkStatus();
}

// ros-lint: allow(coro-ref-param): job lives in jobs_ and must be mutated
// in place; the owning map outlives every burn coroutine.
sim::Task<Status> BurnManager::FinishJob(BurnJob& job) {
  for (int i = 0; i < static_cast<int>(job.image_ids.size()); ++i) {
    const std::string& id = job.image_ids[i];
    ROS_CO_RETURN_IF_ERROR(
        images_->MarkBurned(id, mech::DiscAddress{job.tray, i}));
    claimed_.erase(std::remove(claimed_.begin(), claimed_.end(), id),
                   claimed_.end());
    ROS_CO_ASSIGN_OR_RETURN(const ImageRecord* record, images_->Lookup(id));
    cache_->Admit(id, record->logical_bytes);
  }
  ROS_CO_RETURN_IF_ERROR(images_->SetArrayMembers(job.image_ids));
  ++arrays_burned_;
  if (audit_ != nullptr) {
    // Build the array's Merkle manifest while the member streams are still
    // in controller memory. Advisory: a manifest failure must never turn a
    // physically successful burn into an error.
    Status audited = co_await audit_->OnArrayBurned(job.tray, job.image_ids);
    if (!audited.ok()) {
      ROS_LOG(kWarning) << "audit manifest for " << job.tray.ToString()
                        << " failed: " << audited.ToString();
    }
  }
  // The manifest was the last reader of the parity payloads; the parity
  // discs hold them from here on (repair reads them back off the media).
  for (const std::string& id : job.image_ids) {
    if (ParityRowOf(id).has_value()) {
      parity_->Drop(id);
    }
  }
  ROS_CO_RETURN_IF_ERROR(co_await EvictCacheOverflow());
  ROS_LOG(kInfo) << "burned disc array " << job.tray.ToString();
  co_return OkStatus();
}

sim::Task<Status> BurnManager::EvictCacheOverflow() {
  for (const std::string& id : cache_->EvictionCandidates()) {
    auto record = images_->Lookup(id);
    if (!record.ok() || (*record)->tier != ImageTier::kBurnedCached) {
      continue;
    }
    // Drop the staged bytes from the buffer volume.
    disk::Volume* volume = buckets_->volume((*record)->volume_index);
    if (volume->Exists((*record)->volume_file)) {
      ROS_CO_RETURN_IF_ERROR(co_await volume->Delete((*record)->volume_file));
    }
    ROS_CO_RETURN_IF_ERROR(images_->DropFromBuffer(id));
    cache_->Remove(id);
    ROS_LOG(kDebug) << "evicted image " << id << " from the read cache";
  }
  co_return OkStatus();
}

sim::Task<Status> BurnManager::DrainAll() {
  while (active_burns_ > 0) {
    co_await burns_changed_.Wait();
  }
  co_return fatal_error_;
}

}  // namespace ros::olfs
