// Read Cache (RC), §4.1: disc-image-granular segmented LRU (SLRU) over the
// disk buffer.
//
// Burned images stay cached until capacity pressure evicts them; unburned
// images are pinned (their only copy is the buffer). The cache tracks
// bytes, not image counts, because image sizes vary (partially-filled final
// buckets, parity images).
//
// Segmentation (probationary/protected) gives scan resistance: an image is
// admitted probationary and only a re-reference promotes it to the
// protected segment, so one cold sequential sweep or parity scrub churns
// through the probationary segment without evicting the hot working set.
// A ghost list remembers recently evicted ids (no bytes); re-admitting a
// ghost goes straight to the protected segment — the image proved it has
// reuse beyond what the probationary segment could see.
#ifndef ROS_SRC_OLFS_READ_CACHE_H_
#define ROS_SRC_OLFS_READ_CACHE_H_

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace ros::olfs {

class ReadCache {
 public:
  // Share of the capacity reserved for the protected segment.
  static constexpr double kProtectedFraction = 0.8;

  explicit ReadCache(std::uint64_t capacity_bytes)
      : capacity_(capacity_bytes),
        protected_capacity_(static_cast<std::uint64_t>(
            static_cast<double>(capacity_bytes) * kProtectedFraction)) {}

  // Records a (cached, burned) image as most recently used. New entries
  // enter the probationary segment unless the ghost list remembers the id,
  // in which case they are admitted directly to the protected segment.
  void Admit(const std::string& image_id, std::uint64_t bytes);

  // Marks a reference. Known ids count a hit (refreshing recency and
  // promoting probationary entries to the protected segment) and return
  // true; unknown ids count a miss and return false. Hit and miss
  // accounting both live here so the two counters can never drift apart.
  bool Touch(const std::string& image_id);

  // Removes an image (because it was evicted or re-opened); the id is
  // remembered in the ghost list.
  void Remove(const std::string& image_id);

  bool Contains(const std::string& image_id) const {
    return index_.count(image_id) > 0;
  }

  // Ids to evict until the cache fits its capacity again: probationary
  // LRU first, protected LRU only if the probationary segment alone is
  // not enough.
  std::vector<std::string> EvictionCandidates() const;

  std::uint64_t used_bytes() const { return used_; }
  std::uint64_t capacity() const { return capacity_; }
  std::size_t size() const { return index_.size(); }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  // Re-admissions: entries whose eviction the ghost list remembered and
  // that came back, earning direct admission to the protected segment.
  std::uint64_t ghost_hits() const { return ghost_hits_; }
  // Current ghost-list occupancy (bounded by kGhostEntries).
  std::size_t ghost_entries() const { return ghost_.size(); }
  std::uint64_t protected_bytes() const { return protected_used_; }
  std::uint64_t probationary_bytes() const { return used_ - protected_used_; }

  // Test/introspection hook: is the id currently in the protected segment?
  bool InProtected(const std::string& image_id) const {
    auto it = index_.find(image_id);
    return it != index_.end() && it->second->segment == Segment::kProtected;
  }

 private:
  enum class Segment { kProbationary, kProtected };

  struct Entry {
    std::string id;
    std::uint64_t bytes;
    Segment segment;
  };
  using EntryList = std::list<Entry>;

  // Demotes protected-LRU entries back to probationary MRU until the
  // protected segment fits its share of the capacity.
  void EnforceProtectedCapacity();
  void GhostRemember(const std::string& image_id);

  std::uint64_t capacity_;
  std::uint64_t protected_capacity_;
  std::uint64_t used_ = 0;
  std::uint64_t protected_used_ = 0;
  EntryList probationary_;  // front = most recent
  EntryList protected_;     // front = most recent
  // ros_analyze: allow(unordered-member): point lookups by id only;
  // segment order comes from the two entry lists.
  std::unordered_map<std::string, EntryList::iterator> index_;

  // Ghost list of recently evicted ids (front = most recent), bounded by
  // entry count so its memory footprint stays negligible.
  static constexpr std::size_t kGhostEntries = 1024;
  std::list<std::string> ghost_;
  // ros_analyze: allow(unordered-member): point lookups by id only;
  // ghost recency order comes from ghost_.
  std::unordered_map<std::string, std::list<std::string>::iterator>
      ghost_index_;

  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t ghost_hits_ = 0;
};

}  // namespace ros::olfs

#endif  // ROS_SRC_OLFS_READ_CACHE_H_
