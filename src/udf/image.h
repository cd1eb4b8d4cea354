// UDF disc-image model (§4.1, §4.3-4.5).
//
// OLFS formats every bucket / disc image as a single-volume UDF file
// system. This is a from-scratch implementation of the properties OLFS
// depends on:
//   - 2 KiB blocks; every file/directory entry is allocated at a minimum
//     of one block (§4.5: small files can waste up to half the bucket);
//   - a full directory tree replicated from the global namespace (unique
//     file path, §4.4), so every image is self-descriptive;
//   - link files pointing at the image holding the first part of a file
//     that was split across buckets (§4.5);
//   - an updatable (open) state for buckets and a finalized (closed,
//     write-once) state for disc images;
//   - byte-level serialization (serializer.h) so a scan of survived discs
//     can rebuild the namespace (§4.4).
//
// File payloads may be sparse: the stored bytes can be shorter than
// `logical_size` (the tail reads as zeros) so PB-scale workloads stay
// laptop-sized.
//
// A closed image is write-once, so Close() serializes it exactly once:
// the stream is shared (immutable) by every consumer — parity, burn,
// audit, checkpoint — and file payloads live only inside it.
#ifndef ROS_SRC_UDF_IMAGE_H_
#define ROS_SRC_UDF_IMAGE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"

namespace ros::udf {

inline constexpr std::uint64_t kBlockSize = 2 * kKiB;  // UDF basic block
// Every entry (file or directory) costs at least one block of metadata.
inline constexpr std::uint64_t kEntryOverhead = kBlockSize;

// Upper bound on a single file's logical size (1 EiB). Far beyond any
// optical medium; exists so block math on sizes read from corrupted image
// streams can never overflow uint64.
inline constexpr std::uint64_t kMaxFileSize = 1ull << 60;

// Rounds a payload size up to whole blocks. Division form: the naive
// `(bytes + kBlockSize - 1) / kBlockSize` wraps for sizes near 2^64.
constexpr std::uint64_t BlocksFor(std::uint64_t bytes) {
  return bytes / kBlockSize + (bytes % kBlockSize != 0 ? 1 : 0);
}

enum class NodeType { kDirectory, kFile, kLink };

struct Node {
  NodeType type = NodeType::kDirectory;
  std::string name;
  // kFile payload while the image is open (the staging buffer);
  // data.size() may be < logical_size (sparse tail). Close() moves the
  // bytes into the image stream and empties this; read payloads through
  // Image::FileBytes.
  std::vector<std::uint8_t> data;
  std::uint64_t logical_size = 0;
  // kFile, closed image: the payload is stream[payload_offset,
  // payload_offset + payload_size).
  std::uint64_t payload_offset = 0;
  std::uint64_t payload_size = 0;
  // kLink: the image holding the first subfile of a split file (§4.5).
  std::string link_target_image;
  std::map<std::string, std::unique_ptr<Node>> children;
};

// Normalizes an absolute path: must start with '/', no trailing '/',
// no empty or '.'/'..' components.
StatusOr<std::vector<std::string>> SplitPath(std::string_view path);

class Image {
 public:
  Image(std::string image_id, std::uint64_t capacity);

  const std::string& id() const { return image_id_; }
  std::uint64_t capacity() const { return capacity_; }
  bool closed() const { return stream_ != nullptr; }
  // Finalizes the image: serializes it once into stream(), points every
  // file node at its payload inside that stream and releases the node's
  // staging buffer. Idempotent.
  void Close();

  // The serialized stream of a closed image (null while open), exactly
  // the bytes burned to disc. Shared and immutable: a consumer that keeps
  // it across a suspension holds this pointer, since the image itself may
  // be dropped from the buffer meanwhile.
  const std::shared_ptr<const std::vector<std::uint8_t>>& stream() const {
    return stream_;
  }

  // A file node's stored payload (may be shorter than logical_size): the
  // staging buffer while open, a view into stream() once closed.
  std::span<const std::uint8_t> FileBytes(const Node& node) const;

  // Bytes consumed: entry overhead + block-rounded payloads, including the
  // root directory.
  std::uint64_t used_bytes() const { return used_bytes_; }
  // Saturating: a deserialized image whose (corrupted) capacity field is
  // smaller than its root-directory overhead must read as full, not wrap.
  std::uint64_t free_bytes() const {
    return capacity_ > used_bytes_ ? capacity_ - used_bytes_ : 0;
  }

  // Space a new file at `path` with `size` payload bytes would consume,
  // counting the directory entries that would have to be created.
  std::uint64_t CostOf(std::string_view path, std::uint64_t size) const;
  bool WouldFit(std::string_view path, std::uint64_t size) const {
    return CostOf(path, size) <= free_bytes();
  }

  // Creates the directory chain for `path` (all ancestors).
  Status MakeDirs(std::string_view path);

  // Adds a file, creating ancestor directories (unique file path). `data`
  // may be sparse relative to logical_size. Fails on closed images, on
  // existing paths, or if it would not fit.
  Status AddFile(std::string_view path, std::vector<std::uint8_t> data,
                 std::uint64_t logical_size);

  // Convenience: logical_size == data.size().
  Status AddFile(std::string_view path, std::vector<std::uint8_t> data) {
    const std::uint64_t n = data.size();
    return AddFile(path, std::move(data), n);
  }

  // Adds a link file pointing at the image holding the first subfile.
  Status AddLink(std::string_view path, std::string target_image);

  // Appends to an existing file (buckets are updatable until closed).
  Status AppendToFile(std::string_view path, std::vector<std::uint8_t> data,
                      std::uint64_t logical_grow);

  StatusOr<const Node*> Lookup(std::string_view path) const;
  bool Exists(std::string_view path) const { return Lookup(path).ok(); }

  // Reads file payload (zero-filled past the sparse tail).
  StatusOr<std::vector<std::uint8_t>> ReadFile(std::string_view path,
                                               std::uint64_t offset,
                                               std::uint64_t length) const;

  // Lists child names of a directory.
  StatusOr<std::vector<std::string>> List(std::string_view path) const;

  // Pre-order walk over all nodes; visitor receives the absolute path.
  void Walk(const std::function<void(const std::string& path, const Node&)>&
                visitor) const;

  std::uint64_t file_count() const { return file_count_; }

  const Node& root() const { return root_; }

 private:
  friend class Serializer;

  // Walks to the parent directory of `path`, creating directories when
  // `create` is set; returns the parent node and leaf name.
  StatusOr<std::pair<Node*, std::string>> WalkToParent(std::string_view path,
                                                       bool create);

  // AddFile / AddLink / MakeDirs returning the node they created (the
  // last directory for MakeDirs; the root for "/").
  StatusOr<Node*> InsertFile(std::string_view path,
                             std::vector<std::uint8_t> data,
                             std::uint64_t logical_size);
  StatusOr<Node*> InsertLink(std::string_view path, std::string target_image);
  StatusOr<Node*> InsertDirs(std::string_view path);

  // Pre-order visit of every node below `dir`, in Walk() order.
  template <typename Visit>
  static void PreOrder(Node& dir, Visit& visit) {
    for (auto& [name, child] : dir.children) {
      visit(*child);
      if (child->type == NodeType::kDirectory) {
        PreOrder(*child, visit);
      }
    }
  }

  std::string image_id_;
  std::uint64_t capacity_;
  std::shared_ptr<const std::vector<std::uint8_t>> stream_;  // set by Close
  Node root_;
  std::uint64_t used_bytes_;
  std::uint64_t file_count_ = 0;
};

}  // namespace ros::udf

#endif  // ROS_SRC_UDF_IMAGE_H_
