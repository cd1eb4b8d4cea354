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
#include <vector>

#include "src/common/json.h"
#include "src/olfs/olfs.h"
#include "src/olfs/power.h"

namespace ros::olfs {

// The controller state a checkpoint carries (§4.2): the DAindex's used
// and failed trays, the bucket counter and the image registry.
struct ControllerCheckpoint {
  std::vector<mech::TrayAddress> da_used;
  std::vector<mech::TrayAddress> da_failed;
  int bucket_counter = 0;
  // Registry records; their in-memory `image` is not encoded.
  std::vector<ImageRecord> images;
};

json::Value EncodeCheckpoint(const ControllerCheckpoint& checkpoint);
// Decodes a checkpoint for a rack of `rollers` rollers and `volumes`
// buffer volumes. A missing field, a field of the wrong type and a value
// outside its range are kDataLoss. An open bucket decodes as buffered:
// the crash closed it.
StatusOr<ControllerCheckpoint> DecodeCheckpoint(const json::Value& state,
                                                int rollers, int volumes);

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
