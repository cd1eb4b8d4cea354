// Writing Bucket Management (WBM) and Preliminary Bucket Writing (§4.3,
// §4.5).
//
// Incoming file data is written into updatable UDF buckets on the disk
// write buffer; the write is acknowledged as soon as the bucket holds the
// bytes. A bucket that cannot accommodate the next file (plus its
// directory) closes into an immutable disc image. Files larger than a
// bucket's free space are split: the head fills the current bucket, the
// tail continues in fresh buckets, and the continuation image carries a
// link file pointing back at the previous part's image (§4.5).
//
// Buckets are spread round-robin across the configured data volumes, which
// is also how ROS separates interfering I/O streams (§4.7).
#ifndef ROS_SRC_OLFS_BUCKET_MANAGER_H_
#define ROS_SRC_OLFS_BUCKET_MANAGER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/disk/volume.h"
#include "src/olfs/disc_image_store.h"
#include "src/olfs/index_file.h"
#include "src/olfs/params.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace ros::olfs {

class AffinityTracker;

// Internal path of a file version inside a bucket/disc image. Version 1
// uses the global path verbatim (unique file path, §4.4); regenerating
// updates are qualified so they can coexist and be recovered (§4.6).
std::string InternalPath(const std::string& path, int version);

// Name of the link file a continuation image carries for split files.
std::string SplitLinkPath(const std::string& internal_path, int part);

struct WriteReceipt {
  std::vector<FilePart> parts;  // ordered
  std::uint64_t total_size = 0;
};

class BucketManager {
 public:
  BucketManager(sim::Simulator& sim, const OlfsParams& params,
                std::vector<disk::Volume*> data_volumes,
                DiscImageStore* images);

  // Invoked (synchronously) whenever a bucket closes into a disc image.
  std::function<void(const std::string& image_id)> on_image_closed;

  // Cross-layer hints: when set, tagged writes (stream != 0) record a
  // (stream, image) co-access edge for each part they place, which the
  // burn planner later clusters onto one tray.
  void set_affinity_tracker(AffinityTracker* tracker) {
    affinity_ = tracker;
  }

  // PBW: stores one version of a file. `data` may be sparse relative to
  // `logical_size`. Returns the parts for the index entry. For streaming
  // continuations of a file whose earlier parts already closed,
  // `first_part` and `prev_image` seed the split-link chain (§4.5).
  // A nonzero `stream` tags every placed part with the writer's identity
  // for affinity placement.
  sim::Task<StatusOr<WriteReceipt>> WriteFile(
      std::string path, int version, std::vector<std::uint8_t> data,
      std::uint64_t logical_size, int first_part = 0,
      std::string prev_image = "", std::uint64_t stream = 0);

  // Appending update (§4.6) to a version that still lives in an open
  // bucket. Fails with kFailedPrecondition once the bucket has closed
  // (the caller then writes a §4.5 continuation part instead).
  sim::Task<Status> AppendToOpenFile(std::string path, int version,
                                     std::string image_id,
                                     std::vector<std::uint8_t> data,
                                     std::uint64_t logical_grow,
                                     std::uint64_t stream = 0);

  // Reads from a bucket or buffered image (any tier with bytes in the disk
  // buffer). Charges buffer-volume read time.
  sim::Task<StatusOr<std::vector<std::uint8_t>>> ReadBuffered(
      std::string image_id, std::string internal_path,
      std::uint64_t offset, std::uint64_t length);

  // Closes the current open bucket regardless of fill level (flush).
  sim::Task<Status> CloseCurrentBucket();

  // Writes a fully-formed image (e.g. an MV snapshot) into the buffer as a
  // closed image ready to burn.
  sim::Task<Status> AdmitImage(std::shared_ptr<udf::Image> image);

  int buckets_created() const { return bucket_counter_; }
  // True when the open bucket holds user data (auto-flush policy input).
  bool HasOpenBucketWithData() const {
    return current_ != nullptr && current_->payload_bytes > 0;
  }
  // Checkpoint restore: continue image-id numbering past older images.
  void RestoreCounter(int counter) {
    if (counter > bucket_counter_) {
      bucket_counter_ = counter;
    }
  }
  disk::Volume* volume(int index) { return data_volumes_.at(index); }
  int num_volumes() const { return static_cast<int>(data_volumes_.size()); }

  // Buffer file name for an image id.
  static std::string VolumeFileName(const std::string& image_id) {
    return "/images/" + image_id;
  }

 private:
  struct OpenBucket {
    std::shared_ptr<udf::Image> image;
    int volume_index = 0;
    std::uint64_t payload_bytes = 0;  // real+sparse payload appended so far
  };

  // Ensures an open bucket exists; returns it.
  sim::Task<StatusOr<OpenBucket*>> CurrentBucket();
  sim::Task<Status> CloseBucket(OpenBucket* bucket);
  std::string NextImageId();

  sim::Simulator& sim_;
  OlfsParams params_;
  std::vector<disk::Volume*> data_volumes_;
  DiscImageStore* images_;
  AffinityTracker* affinity_ = nullptr;
  sim::Mutex write_mutex_;  // serializes the FCFS bucket-filling policy
  std::unique_ptr<OpenBucket> current_;
  int bucket_counter_ = 0;
};

}  // namespace ros::olfs

#endif  // ROS_SRC_OLFS_BUCKET_MANAGER_H_
