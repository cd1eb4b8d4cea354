// Delayed parity generation and disc-array redundancy (§4.7).
//
// Parity disc images are generated only once all data images of an array
// are ready (never synchronously with user writes). The parity maker reads
// every data image's stripes from the disk buffer, computes P (XOR) and,
// for the RAID-6 schema, Q (GF(2^8) Reed-Solomon), and writes the parity
// images back — an I/O-intensive process that is one of the four
// concurrent streams §4.7 schedules across independent RAID volumes.
//
// Parity is computed for real over the serialized image byte streams
// (padded to the longest) by the ec:: Reed-Solomon codec, so a lost disc is
// reconstructed bit-exactly by ec::Decode.
#ifndef ROS_SRC_OLFS_PARITY_H_
#define ROS_SRC_OLFS_PARITY_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/disk/volume.h"
#include "src/olfs/disc_image_store.h"
#include "src/olfs/params.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "src/udf/image.h"

namespace ros::olfs {

// Serialized parity payload carried on a parity disc.
struct ParityImage {
  std::string id;
  int index = 0;  // 0 = P, 1 = Q
  std::vector<std::uint8_t> bytes;      // real parity of serialized streams
  std::uint64_t logical_bytes = 0;      // disc footprint (max data image)
  std::vector<std::string> member_ids;  // the protected data images
};

// Parity row of a parity image id (0 = P, 1 = Q, the "-P"/"-Q" suffix
// Build() gives it), or nullopt for a data image id.
std::optional<int> ParityRowOf(const std::string& id);

class ParityBuilder {
 public:
  ParityBuilder(sim::Simulator& sim, const OlfsParams& params,
                DiscImageStore* images)
      : sim_(sim), params_(params), images_(images) {}

  // Builds the parity images for `data_ids`. Charges the disk-buffer I/O:
  // reading every data image from its volume and writing the parity images
  // to `parity_volume`. Registers the results with DIM.
  //
  // Single-pass: each member stream is serialized once and swept exactly
  // once by the fused P+Q kernel, no matter how many parity images the
  // schema asks for. The returned ParityImages carry metadata only (empty
  // `bytes`); the single retained payload copy lives in the builder and is
  // served by Get() until the parity disc is burned.
  sim::Task<StatusOr<std::vector<ParityImage>>> Build(
      std::vector<std::string> data_ids,
      std::vector<disk::Volume*> data_volumes, int parity_volume_index);

  // Retrieves the cached parity bytes for an id (kept by the builder until
  // its array is burned and audited; benches use this).
  StatusOr<const ParityImage*> Get(const std::string& id) const;

  // Drops the payload of a burned parity image: its disc is the copy now.
  void Drop(const std::string& id) { built_.erase(id); }

  // Test hook: number of member-stream kernel sweeps ec::Encode reported
  // for the most recent Build(). Stays equal to the member count even when
  // both P and Q are generated (the fused kernel feeds both in one pass).
  int last_build_stream_passes() const { return last_build_stream_passes_; }

 private:
  sim::Simulator& sim_;
  OlfsParams params_;
  DiscImageStore* images_;
  int generation_ = 0;  // uniquifies parity ids across re-burns
  int last_build_stream_passes_ = 0;
  std::map<std::string, ParityImage> built_;  // id -> payload until Drop
};

}  // namespace ros::olfs

#endif  // ROS_SRC_OLFS_PARITY_H_
