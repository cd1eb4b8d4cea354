#include "src/olfs/read_cache.h"

namespace ros::olfs {

void ReadCache::Admit(const std::string& image_id, std::uint64_t bytes) {
  auto it = index_.find(image_id);
  if (it != index_.end()) {
    // Re-admit: replace the size and refresh recency within the entry's
    // current segment (re-admission is a write, not a proven re-read).
    EntryList& list = it->second->segment == Segment::kProtected
                          ? protected_
                          : probationary_;
    used_ -= it->second->bytes;
    if (it->second->segment == Segment::kProtected) {
      protected_used_ -= it->second->bytes;
      protected_used_ += bytes;
    }
    it->second->bytes = bytes;
    used_ += bytes;
    list.splice(list.begin(), list, it->second);
    EnforceProtectedCapacity();
    return;
  }

  Segment segment = Segment::kProbationary;
  auto ghost = ghost_index_.find(image_id);
  if (ghost != ghost_index_.end()) {
    // The id was evicted recently and is back: it has reuse the
    // probationary segment could not see. Admit straight to protected.
    ++ghost_hits_;
    ghost_.erase(ghost->second);
    ghost_index_.erase(ghost);
    segment = Segment::kProtected;
  }
  EntryList& list =
      segment == Segment::kProtected ? protected_ : probationary_;
  list.push_front({image_id, bytes, segment});
  index_[image_id] = list.begin();
  used_ += bytes;
  if (segment == Segment::kProtected) {
    protected_used_ += bytes;
    EnforceProtectedCapacity();
  }
}

bool ReadCache::Touch(const std::string& image_id) {
  auto it = index_.find(image_id);
  if (it == index_.end()) {
    ++misses_;
    return false;
  }
  ++hits_;
  if (it->second->segment == Segment::kProtected) {
    protected_.splice(protected_.begin(), protected_, it->second);
    return true;
  }
  // Probationary re-reference: promote to the protected segment's MRU end.
  it->second->segment = Segment::kProtected;
  protected_.splice(protected_.begin(), probationary_, it->second);
  protected_used_ += it->second->bytes;
  EnforceProtectedCapacity();
  return true;
}

void ReadCache::Remove(const std::string& image_id) {
  auto it = index_.find(image_id);
  if (it == index_.end()) {
    return;
  }
  used_ -= it->second->bytes;
  if (it->second->segment == Segment::kProtected) {
    protected_used_ -= it->second->bytes;
    protected_.erase(it->second);
  } else {
    probationary_.erase(it->second);
  }
  index_.erase(it);
  GhostRemember(image_id);
}

std::vector<std::string> ReadCache::EvictionCandidates() const {
  std::vector<std::string> out;
  std::uint64_t projected = used_;
  for (auto it = probationary_.rbegin();
       it != probationary_.rend() && projected > capacity_; ++it) {
    out.push_back(it->id);
    projected -= it->bytes;
  }
  for (auto it = protected_.rbegin();
       it != protected_.rend() && projected > capacity_; ++it) {
    out.push_back(it->id);
    projected -= it->bytes;
  }
  return out;
}

void ReadCache::EnforceProtectedCapacity() {
  while (protected_used_ > protected_capacity_ && !protected_.empty()) {
    auto last = std::prev(protected_.end());
    protected_used_ -= last->bytes;
    last->segment = Segment::kProbationary;
    // Demotion lands at the probationary MRU end: the entry was hot once,
    // so it gets a head start over never-referenced admissions.
    probationary_.splice(probationary_.begin(), protected_, last);
  }
}

void ReadCache::GhostRemember(const std::string& image_id) {
  auto it = ghost_index_.find(image_id);
  if (it != ghost_index_.end()) {
    ghost_.erase(it->second);
    ghost_index_.erase(it);
  }
  ghost_.push_front(image_id);
  ghost_index_[image_id] = ghost_.begin();
  while (ghost_.size() > kGhostEntries) {
    ghost_index_.erase(ghost_.back());
    ghost_.pop_back();
  }
}

}  // namespace ros::olfs
