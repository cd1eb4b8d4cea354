// Mechanical Controller (MC), §4.1: the bridge between OLFS and the
// PLC-driven library, plus the physical disc inventory.
//
// MC owns the drive::Disc objects (one per rack slot, created lazily) and
// keeps the mapping between drive bays and the disc arrays currently
// loaded in them, with each bay's state. MC claims a bay only when asked;
// which bay a burn, fetch or rebuild scan gets (and which parked array
// is unloaded for it) is decided by the FetchScheduler, the one bay
// arbiter.
#ifndef ROS_SRC_OLFS_MECH_CONTROLLER_H_
#define ROS_SRC_OLFS_MECH_CONTROLLER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/drive/optical_drive.h"
#include "src/mech/library.h"
#include "src/olfs/disc_inventory.h"
#include "src/olfs/params.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace ros::olfs {

enum class BayState {
  kEmpty,    // no disc array loaded
  kParked,   // array loaded, drives idle (left by a fetch for locality)
  kBusy,     // owned by a burn or fetch task
};

class MechController {
 public:
  MechController(sim::Simulator& sim, mech::Library* library,
                 std::vector<drive::DriveSet*> drive_sets,
                 DiscInventory* inventory, const OlfsParams& params);

  int num_bays() const { return static_cast<int>(drive_sets_.size()); }
  BayState bay_state(int bay) const { return bay_states_.at(bay); }
  std::optional<mech::TrayAddress> bay_tray(int bay) const {
    return bay_trays_.at(bay);
  }
  drive::DriveSet& drive_set(int bay) { return *drive_sets_.at(bay); }
  mech::Library& library() { return *library_; }

  // Signalled whenever a bay changes state (waiters re-scan).
  sim::ConditionVariable& bay_changed() { return bay_changed_; }

  // Non-waiting claim of one specific bay: kEmpty/kParked -> kBusy. Only
  // the FetchScheduler calls it; it owns the victim/dispatch policy.
  bool TryClaimBay(int bay);

  // Releases a bay, marking it kParked (array still loaded) or kEmpty.
  void ReleaseBay(int bay);

  // Loads the disc array of `tray` into `bay` (which must be claimed and
  // empty) and inserts the 12 discs into the bay's drives.
  sim::Task<Status> LoadArray(mech::TrayAddress tray, int bay);

  // Unloads the array currently in `bay` back to its home tray.
  sim::Task<Status> UnloadArray(int bay);

  // Physical disc access for scrubbing / fault injection / recovery scans.
  drive::Disc* DiscAt(mech::DiscAddress address);
  // Drive currently holding the disc at `address`, or null.
  drive::OpticalDrive* DriveHolding(mech::DiscAddress address);

  // Media generation currently loaded into freshly allocated slots.
  // Generation migration (DESIGN.md §5j) switches this so refresh burns
  // land on higher-density media; already-created discs are unaffected.
  drive::DiscType media_type() const { return media_type_; }
  void set_media_type(drive::DiscType type) { media_type_ = type; }

 private:
  drive::Disc* GetOrCreateDisc(mech::DiscAddress address);

  sim::Simulator& sim_;
  mech::Library* library_;
  std::vector<drive::DriveSet*> drive_sets_;
  OlfsParams params_;
  drive::DiscType media_type_;
  std::vector<BayState> bay_states_;
  std::vector<std::optional<mech::TrayAddress>> bay_trays_;
  sim::ConditionVariable bay_changed_;
  DiscInventory* inventory_;  // owned by RosSystem
};

}  // namespace ros::olfs

#endif  // ROS_SRC_OLFS_MECH_CONTROLLER_H_
