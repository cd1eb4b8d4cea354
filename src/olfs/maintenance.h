// Maintenance Interface (MI), §4.1: "OLFS also offers a Maintenance
// Interface module to configure and maintain the system by an interactive
// interface for administrators."
//
// MI provides the administrator-facing operations: a structured status
// report (capacity, tiers, pipeline, mechanics, power), checkpointing the
// controller's running state into the MV (§4.2: "Once ROS crashes, OLFS
// can recover from its previous checkpoint state with all state
// information stored in MV"), restoring a replacement controller from
// that checkpoint, and triggering scrubs.
#ifndef ROS_SRC_OLFS_MAINTENANCE_H_
#define ROS_SRC_OLFS_MAINTENANCE_H_

#include <string>

#include "src/common/json.h"
#include "src/olfs/olfs.h"
#include "src/olfs/power.h"

namespace ros::olfs {

class Maintenance {
 public:
  explicit Maintenance(Olfs* olfs) : olfs_(olfs) { ROS_CHECK(olfs); }

  // A JSON status report of the whole rack (the MI console's main view).
  json::Value StatusReport() const;

  // Persists the controller's running state — DAindex, the disc image
  // registry (DILindex and buffer residency) and bucket numbering — into
  // the MV, flushing buffered images' serialized structure to the disk
  // buffer so a restart can reload them.
  sim::Task<Status> Checkpoint();

  // Rebuilds a freshly-booted controller's state from the last
  // checkpoint: much faster than a physical disc scan (§4.4), but
  // requires the MV (and disk buffer) to have survived.
  sim::Task<Status> RestoreFromCheckpoint();

  static constexpr const char* kCheckpointKey = "controller-checkpoint";

 private:
  static std::string CheckpointFileName(const std::string& image_id) {
    return "/ckpt/" + image_id;
  }

  Olfs* olfs_;
};

}  // namespace ros::olfs

#endif  // ROS_SRC_OLFS_MAINTENANCE_H_
