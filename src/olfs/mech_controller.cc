#include "src/olfs/mech_controller.h"

#include <utility>

#include "src/common/logging.h"

namespace ros::olfs {

MechController::MechController(sim::Simulator& sim, mech::Library* library,
                               std::vector<drive::DriveSet*> drive_sets,
                               DiscInventory* inventory,
                               const OlfsParams& params)
    : sim_(sim), library_(library), drive_sets_(std::move(drive_sets)),
      params_(params), media_type_(params.disc_type), bay_changed_(sim),
      inventory_(inventory) {
  ROS_CHECK(library_ != nullptr);
  ROS_CHECK(inventory_ != nullptr);
  ROS_CHECK(!drive_sets_.empty());
  ROS_CHECK(static_cast<int>(drive_sets_.size()) <= library_->num_bays());
  bay_states_.assign(drive_sets_.size(), BayState::kEmpty);
  bay_trays_.assign(drive_sets_.size(), std::nullopt);
  // Boot inventory: a replacement controller finds whatever arrays the
  // previous one left parked in the drives (the rack's physical state
  // outlives the software).
  for (std::size_t i = 0; i < drive_sets_.size(); ++i) {
    const auto& loaded = library_->bay(static_cast<int>(i)).loaded_from;
    if (loaded.has_value()) {
      bay_trays_[i] = *loaded;
      bay_states_[i] = BayState::kParked;
    }
  }
}

drive::Disc* MechController::GetOrCreateDisc(mech::DiscAddress address) {
  ROS_CHECK(address.IsValid(library_->num_rollers()));
  return inventory_->GetOrCreate(address, media_type_,
                                 params_.disc_capacity_override);
}

drive::Disc* MechController::DiscAt(mech::DiscAddress address) {
  return GetOrCreateDisc(address);
}

drive::OpticalDrive* MechController::DriveHolding(
    mech::DiscAddress address) {
  for (int bay = 0; bay < num_bays(); ++bay) {
    if (bay_trays_[bay].has_value() && *bay_trays_[bay] == address.tray) {
      return &drive_sets_[bay]->drive(address.index);
    }
  }
  return nullptr;
}

bool MechController::TryClaimBay(int bay) {
  if (bay_states_.at(bay) == BayState::kBusy) {
    return false;
  }
  bay_states_[bay] = BayState::kBusy;
  return true;
}

void MechController::ReleaseBay(int bay) {
  ROS_CHECK(bay_states_.at(bay) == BayState::kBusy);
  if (bay_trays_[bay].has_value()) {
    bay_states_[bay] = BayState::kParked;
  } else {
    bay_states_[bay] = BayState::kEmpty;
  }
  bay_changed_.NotifyAll();
}

sim::Task<Status> MechController::LoadArray(mech::TrayAddress tray, int bay) {
  ROS_CHECK(bay_states_.at(bay) == BayState::kBusy);
  if (bay_trays_[bay].has_value()) {
    co_return FailedPreconditionError("bay still holds an array");
  }
  ROS_CO_RETURN_IF_ERROR(co_await library_->LoadArray(tray, bay));
  // The mechanical separation placed the 12 discs into the 12 drives;
  // register the media with the drive models.
  for (int i = 0; i < mech::kDiscsPerTray; ++i) {
    drive::Disc* disc = GetOrCreateDisc({tray, i});
    Status status = drive_sets_[bay]->drive(i).InsertDisc(disc);
    if (!status.ok()) {
      co_return status;
    }
  }
  bay_trays_[bay] = tray;
  co_return OkStatus();
}

sim::Task<Status> MechController::UnloadArray(int bay) {
  ROS_CHECK(bay_states_.at(bay) == BayState::kBusy);
  if (!bay_trays_[bay].has_value()) {
    co_return FailedPreconditionError("bay is empty");
  }
  for (int i = 0; i < mech::kDiscsPerTray; ++i) {
    auto disc = drive_sets_[bay]->drive(i).EjectDisc();
    if (!disc.ok()) {
      co_return disc.status();
    }
  }
  ROS_CO_RETURN_IF_ERROR(co_await library_->UnloadArray(bay));
  bay_trays_[bay].reset();
  co_return OkStatus();
}

}  // namespace ros::olfs
