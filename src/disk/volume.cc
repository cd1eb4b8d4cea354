#include "src/disk/volume.h"

#include <algorithm>
#include <cstring>

namespace ros::disk {

Volume::Volume(sim::Simulator& sim, BlockDevice* device, VolumeParams params)
    : sim_(sim), device_(device), params_(params) {
  ROS_CHECK(device != nullptr);
  ROS_CHECK(params_.block_size > 0);
  // Block 0 is the superblock; the rest is allocatable.
  total_blocks_ = device_->capacity() / params_.block_size;
  ROS_CHECK(total_blocks_ > 1);
  free_extents_[1] = total_blocks_ - 1;
  used_blocks_ = 1;
}

StatusOr<std::uint64_t> Volume::FileSize(const std::string& name) const {
  const FileMeta* meta = FindMeta(name);
  if (meta == nullptr) {
    return NotFoundError("no file " + name);
  }
  return meta->size;
}

std::vector<std::string> Volume::List(const std::string& prefix) const {
  std::vector<std::string> out;
  // The map is ordered, so every match sits in one contiguous run starting
  // at lower_bound(prefix); stop at the first non-match.
  for (auto it = files_.lower_bound(prefix);
       it != files_.end() && NameHasPrefix(it->first, prefix); ++it) {
    out.push_back(it->first);
  }
  return out;
}

std::uint64_t Volume::CountPrefix(const std::string& prefix) const {
  std::uint64_t count = 0;
  for (auto it = files_.lower_bound(prefix);
       it != files_.end() && NameHasPrefix(it->first, prefix); ++it) {
    ++count;
  }
  return count;
}

bool Volume::AnyWithPrefix(const std::string& prefix) const {
  auto it = files_.lower_bound(prefix);
  return it != files_.end() && NameHasPrefix(it->first, prefix);
}

std::vector<std::string> Volume::ListChildren(const std::string& prefix,
                                              char delimiter) const {
  std::vector<std::string> children;
  auto it = files_.lower_bound(prefix);
  while (it != files_.end() && NameHasPrefix(it->first, prefix)) {
    const std::string_view rest =
        std::string_view(it->first).substr(prefix.size());
    const std::size_t cut = rest.find(delimiter);
    if (cut == std::string_view::npos) {
      if (!rest.empty()) {
        children.emplace_back(rest);
      }
      ++it;
      continue;
    }
    // A descendant below `prefix + head + delimiter`: seek past the whole
    // subtree in one lower_bound instead of filtering every entry in it.
    std::string skip = prefix;
    skip.append(rest.substr(0, cut));
    skip.push_back(static_cast<char>(delimiter + 1));
    it = files_.lower_bound(skip);
  }
  return children;
}

Status Volume::Allocate(std::uint64_t blocks, std::vector<Extent>* out) {
  std::uint64_t remaining = blocks;
  // First-fit across the free list; splits large extents.
  auto it = free_extents_.begin();
  std::vector<Extent> taken;
  while (remaining > 0 && it != free_extents_.end()) {
    const std::uint64_t take = std::min(remaining, it->second);
    taken.push_back({it->first, take});
    remaining -= take;
    if (take == it->second) {
      it = free_extents_.erase(it);
    } else {
      const std::uint64_t new_start = it->first + take;
      const std::uint64_t new_len = it->second - take;
      free_extents_.erase(it);
      it = free_extents_.emplace(new_start, new_len).first;
    }
  }
  if (remaining > 0) {
    // Roll back.
    for (const Extent& extent : taken) {
      free_extents_[extent.start_block] = extent.blocks;
    }
    return ResourceExhaustedError("volume out of space");
  }
  used_blocks_ += blocks;
  for (Extent& extent : taken) {
    // Coalesce with the file's trailing extent when contiguous, so
    // sequentially grown files map to few large runs.
    if (!out->empty() &&
        out->back().start_block + out->back().blocks == extent.start_block) {
      out->back().blocks += extent.blocks;
    } else {
      out->push_back(extent);
    }
  }
  return OkStatus();
}

void Volume::Free(const std::vector<Extent>& extents) {
  for (const Extent& extent : extents) {
    used_blocks_ -= extent.blocks;
    // Insert and coalesce with neighbours.
    auto [it, inserted] =
        free_extents_.emplace(extent.start_block, extent.blocks);
    ROS_CHECK(inserted);
    if (it != free_extents_.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second == it->first) {
        prev->second += it->second;
        free_extents_.erase(it);
        it = prev;
      }
    }
    auto next = std::next(it);
    if (next != free_extents_.end() &&
        it->first + it->second == next->first) {
      it->second += next->second;
      free_extents_.erase(next);
    }
  }
}

sim::Task<Status> Volume::WriteMetadata() {
  if (!params_.journal_metadata) {
    // Delayed-allocation mode: the inode update lands in the page cache
    // and batches into a later journal commit off the critical path.
    co_await sim_.Delay(sim::Micros(5));
    co_return OkStatus();
  }
  // Synchronous journaled metadata: journal record + in-place block.
  for (int i = 0; i < 2; ++i) {
    ROS_CO_RETURN_IF_ERROR(co_await device_->Write(
        0, std::vector<std::uint8_t>(params_.block_size, 0)));
  }
  co_return OkStatus();
}

sim::Task<Status> Volume::Create(std::string name) {
  auto [it, inserted] = files_.try_emplace(name);
  if (!inserted) {
    co_return AlreadyExistsError("file exists: " + name);
  }
  // Key the side-index on the map node's own string: both live and die
  // together, so the view can never dangle.
  by_name_.emplace(it->first, &it->second);
  co_return co_await WriteMetadata();
}

Status Volume::MapRange(
    const FileMeta& meta, std::uint64_t offset, std::uint64_t length,
    std::vector<std::pair<std::uint64_t, std::uint64_t>>* segs) const {
  // Walk extents translating [offset, offset+length) to device byte ranges.
  std::uint64_t pos = 0;          // logical byte cursor at extent starts
  std::uint64_t need = length;
  std::uint64_t cur = offset;
  for (const Extent& extent : meta.extents) {
    const std::uint64_t extent_bytes = extent.blocks * params_.block_size;
    if (need == 0) {
      break;
    }
    if (cur < pos + extent_bytes) {
      const std::uint64_t within = cur - pos;
      const std::uint64_t n = std::min(need, extent_bytes - within);
      const std::uint64_t dev_offset =
          extent.start_block * params_.block_size + within;
      if (!segs->empty() &&
          segs->back().first + segs->back().second == dev_offset) {
        segs->back().second += n;  // merge contiguous runs
      } else {
        segs->emplace_back(dev_offset, n);
      }
      cur += n;
      need -= n;
    }
    pos += extent_bytes;
  }
  if (need > 0) {
    return OutOfRangeError("range beyond allocated extents");
  }
  return OkStatus();
}

sim::Task<Status> Volume::Write(std::string name, std::uint64_t offset,
                                std::vector<std::uint8_t> data) {
  const std::uint64_t length = data.size();
  co_return co_await WriteRange(std::move(name), offset, length,
                                std::move(data));
}

sim::Task<Status> Volume::WriteRange(std::string name, std::uint64_t offset,
                                     std::uint64_t length,
                                     std::vector<std::uint8_t> data) {
  FileMeta* found = FindMeta(name);
  if (found == nullptr) {
    co_return NotFoundError("no file " + name);
  }
  FileMeta& meta = *found;
  const std::uint64_t end = offset + length;

  // Grow allocation to cover the write.
  std::uint64_t have_blocks = 0;
  for (const Extent& extent : meta.extents) {
    have_blocks += extent.blocks;
  }
  const std::uint64_t need_blocks =
      (end + params_.block_size - 1) / params_.block_size;
  if (need_blocks > have_blocks) {
    ROS_CO_RETURN_IF_ERROR(
        Allocate(need_blocks - have_blocks, &meta.extents));
  }
  const std::uint64_t old_size = meta.size;
  if (end > meta.size) {
    meta.size = end;
  }

  std::vector<std::pair<std::uint64_t, std::uint64_t>> segs;
  ROS_CO_RETURN_IF_ERROR(MapRange(meta, offset, length, &segs));
  Status written = OkStatus();
  std::uint64_t pos = 0;
  for (const auto& [dev_offset, n] : segs) {
    if (data.empty()) {
      written = co_await device_->WriteDiscard(dev_offset, n);
    } else {
      // One extent run hands the buffer itself to the device; a
      // fragmented range copies each run's piece.
      std::vector<std::uint8_t> piece =
          segs.size() == 1
              ? std::move(data)
              : std::vector<std::uint8_t>(
                    data.begin() + static_cast<std::ptrdiff_t>(pos),
                    data.begin() + static_cast<std::ptrdiff_t>(pos + n));
      written = co_await device_->Write(dev_offset, std::move(piece));
    }
    if (!written.ok()) {
      break;
    }
    pos += n;
  }
  if (written.ok()) {
    written = co_await WriteMetadata();
  }
  if (!written.ok() && end > old_size) {
    ShrinkBack(name, end, old_size);
  }
  co_return written;
}

void Volume::ShrinkBack(const std::string& name, std::uint64_t end,
                        std::uint64_t old_size) {
  // Ordered mode: the size never covers data that was not written, so
  // blocks a failed write allocated (and their stale bytes) stay past EOF.
  // The extents stay with the file and the next append reuses them. A
  // write that grew the file since keeps its size.
  FileMeta* now = FindMeta(name);
  if (now != nullptr && now->size == end) {
    now->size = old_size;
  }
}

sim::Task<Status> Volume::Append(std::string name,
                                 std::vector<std::uint8_t> data) {
  const FileMeta* meta = FindMeta(name);
  if (meta == nullptr) {
    co_return NotFoundError("no file " + name);
  }
  co_return co_await Write(name, meta->size, std::move(data));
}

sim::Task<Status> Volume::Truncate(std::string name, std::uint64_t new_size) {
  FileMeta* found = FindMeta(name);
  if (found == nullptr) {
    co_return NotFoundError("no file " + name);
  }
  FileMeta& meta = *found;
  if (new_size > meta.size) {
    co_return OutOfRangeError("truncate would grow " + name);
  }
  if (new_size == meta.size) {
    co_return OkStatus();
  }
  const std::uint64_t keep_blocks =
      (new_size + params_.block_size - 1) / params_.block_size;
  std::vector<Extent> kept;
  std::vector<Extent> freed;
  std::uint64_t have = 0;
  for (const Extent& extent : meta.extents) {
    if (have >= keep_blocks) {
      freed.push_back(extent);
      continue;
    }
    const std::uint64_t take = std::min(extent.blocks, keep_blocks - have);
    kept.push_back({extent.start_block, take});
    if (take < extent.blocks) {
      freed.push_back({extent.start_block + take, extent.blocks - take});
    }
    have += take;
  }
  Free(freed);
  meta.extents = std::move(kept);
  meta.size = new_size;
  co_return co_await WriteMetadata();
}

sim::Task<Status> Volume::AppendSparse(std::string name,
                                       std::vector<std::uint8_t> data,
                                       std::uint64_t logical_len) {
  ROS_CHECK(logical_len >= data.size());
  const FileMeta* meta = FindMeta(name);
  if (meta == nullptr) {
    co_return NotFoundError("no file " + name);
  }
  const std::uint64_t old_size = meta->size;
  const std::uint64_t data_end = old_size + data.size();
  const std::uint64_t tail = logical_len - data.size();
  ROS_CO_RETURN_IF_ERROR(co_await Write(name, old_size, std::move(data)));
  if (tail == 0) {
    co_return OkStatus();
  }
  // The zero tail is charged at the file's end, as an append, without
  // storing it. If it fails, the whole append is undone.
  meta = FindMeta(name);
  ROS_CHECK(meta != nullptr);
  Status written = co_await WriteRange(name, meta->size, tail, {});
  if (!written.ok()) {
    ShrinkBack(name, data_end, old_size);
  }
  co_return written;
}

sim::Task<StatusOr<std::vector<std::uint8_t>>> Volume::Read(
    std::string name, std::uint64_t offset,
    std::uint64_t length) const {
  std::vector<std::uint8_t> out;
  ROS_CO_RETURN_IF_ERROR(
      co_await ReadRange(std::move(name), offset, length, &out));
  co_return out;
}

sim::Task<Status> Volume::ReadDiscard(std::string name,
                                      std::uint64_t offset,
                                      std::uint64_t length) const {
  co_return co_await ReadRange(std::move(name), offset, length, nullptr);
}

sim::Task<Status> Volume::ReadRange(std::string name, std::uint64_t offset,
                                    std::uint64_t length,
                                    std::vector<std::uint8_t>* out) const {
  const FileMeta* meta = FindMeta(name);
  if (meta == nullptr) {
    co_return NotFoundError("no file " + name);
  }
  if (offset + length > meta->size) {
    co_return OutOfRangeError("read beyond end of " + name);
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> segs;
  ROS_CO_RETURN_IF_ERROR(MapRange(*meta, offset, length, &segs));
  if (out != nullptr) {
    out->resize(length);
  }
  std::uint64_t pos = 0;
  for (const auto& [dev_offset, n] : segs) {
    if (out == nullptr) {
      ROS_CO_RETURN_IF_ERROR(co_await device_->ReadDiscard(dev_offset, n));
    } else {
      auto piece = co_await device_->Read(dev_offset, n);
      if (!piece.ok()) {
        co_return piece.status();
      }
      std::memcpy(out->data() + pos, piece->data(), n);
    }
    pos += n;
  }
  co_return OkStatus();
}

sim::Task<StatusOr<std::vector<std::uint8_t>>> Volume::ReadAll(
    std::string name) const {
  auto size = FileSize(name);
  if (!size.ok()) {
    co_return size.status();
  }
  co_return co_await Read(name, 0, *size);
}

sim::Task<Status> Volume::WriteAll(std::string name,
                                   std::vector<std::uint8_t> data) {
  FileMeta* meta = FindMeta(name);
  if (meta == nullptr) {
    co_return NotFoundError("no file " + name);
  }
  // Truncate: release old extents, then write fresh.
  Free(meta->extents);
  meta->extents.clear();
  meta->size = 0;
  co_return co_await Write(name, 0, std::move(data));
}

sim::Task<Status> Volume::Delete(std::string name) {
  auto it = files_.find(name);
  if (it == files_.end()) {
    co_return NotFoundError("no file " + name);
  }
  Free(it->second.extents);
  by_name_.erase(it->first);
  files_.erase(it);
  co_return co_await WriteMetadata();
}

void Volume::FormatQuick() {
  by_name_.clear();
  files_.clear();
  free_extents_.clear();
  free_extents_[1] = total_blocks_ - 1;
  used_blocks_ = 1;
}

}  // namespace ros::disk
