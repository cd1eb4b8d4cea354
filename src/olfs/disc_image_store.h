// Disc Image Management (DIM) and the disc image location index
// (DILindex), §4.1.
//
// Every disc image has a universal unique id and moves through tiers:
// open bucket -> closed image in the disk buffer -> burned onto a disc
// (optionally still cached in the buffer). DIM is the single source of
// truth for where an image's bytes currently live; the read path resolves
// an index entry's image id here.
#ifndef ROS_SRC_OLFS_DISC_IMAGE_STORE_H_
#define ROS_SRC_OLFS_DISC_IMAGE_STORE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/mech/geometry.h"
#include "src/udf/image.h"

namespace ros::olfs {

enum class ImageTier {
  kOpenBucket,   // updatable, accepting writes
  kBuffered,     // closed, waiting to burn (must stay in the buffer)
  kBurnedCached, // burned and still cached in the buffer
  kBurnedOnly,   // burned; only copy is on the disc
};

struct ImageRecord {
  std::string id;
  // In-memory UDF structure; present unless kBurnedOnly.
  std::shared_ptr<udf::Image> image;
  bool parity = false;
  ImageTier tier = ImageTier::kOpenBucket;
  // DILindex entry once burned.
  std::optional<mech::DiscAddress> disc;
  // Disk-buffer placement.
  int volume_index = 0;
  std::string volume_file;
  std::uint64_t logical_bytes = 0;  // space the image occupies on disk/disc
  // All images (data then parity) burned in the same disc array; set at
  // burn completion, used by the scrubber's parity recovery (§4.7).
  std::vector<std::string> array_members;
};

class DiscImageStore {
 public:
  // Registers a fresh bucket image.
  Status RegisterBucket(std::shared_ptr<udf::Image> image, int volume_index,
                        std::string volume_file);

  // Registers a parity image (never a UDF volume, §4.7); tier kBuffered.
  Status RegisterParity(const std::string& id, int volume_index,
                        std::string volume_file, std::uint64_t bytes);

  // Bucket closed -> unburned data image.
  Status MarkClosed(const std::string& id);

  // Image burned onto `disc`; stays cached until evicted.
  Status MarkBurned(const std::string& id, mech::DiscAddress disc);

  // Read-cache eviction: drops buffered bytes of a burned image.
  Status DropFromBuffer(const std::string& id);

  // Re-admits a burned image into the buffer cache (after a fetch).
  Status RestoreToBuffer(const std::string& id,
                         std::shared_ptr<udf::Image> image,
                         int volume_index, std::string volume_file);

  // Records the disc-array membership for each image of a burned array.
  Status SetArrayMembers(const std::vector<std::string>& members);

  // Registers an image discovered by a physical disc scan (recovery).
  Status RegisterRecovered(const std::string& id, bool parity,
                           mech::DiscAddress disc, std::uint64_t bytes);

  // A scrub-recovered image re-enters the burn pipeline: buffered again,
  // its old (damaged) disc location dropped.
  Status ReopenForRepair(const std::string& id,
                         std::shared_ptr<udf::Image> image, int volume_index,
                         std::string volume_file);

  StatusOr<const ImageRecord*> Lookup(const std::string& id) const;
  StatusOr<ImageRecord*> LookupMutable(const std::string& id);

  // Closed, unburned data images (burn candidates, oldest first).
  std::vector<std::string> UnburnedClosed() const;

  // All image ids with a DILindex (on-disc) location.
  std::vector<std::string> BurnedImages() const;

  std::uint64_t buffered_bytes() const { return buffered_bytes_; }
  std::size_t image_count() const { return records_.size(); }

  // All records, for checkpointing and maintenance reports.
  std::vector<const ImageRecord*> AllRecords() const;

  // Checkpoint restore: re-registers a record wholesale.
  Status RestoreRecord(ImageRecord record);

 private:
  std::map<std::string, ImageRecord> records_;
  std::vector<std::string> close_order_;  // FIFO of closed data images
  std::uint64_t buffered_bytes_ = 0;
};

}  // namespace ros::olfs

#endif  // ROS_SRC_OLFS_DISC_IMAGE_STORE_H_
