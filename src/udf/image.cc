#include "src/udf/image.h"

#include <algorithm>
#include <limits>

#include "src/udf/serializer.h"

namespace ros::udf {

StatusOr<std::vector<std::string>> SplitPath(std::string_view path) {
  if (path.empty() || path[0] != '/') {
    return InvalidArgumentError("path must be absolute: " +
                                std::string(path));
  }
  std::vector<std::string> parts;
  std::size_t pos = 1;
  while (pos <= path.size()) {
    std::size_t next = path.find('/', pos);
    if (next == std::string_view::npos) {
      next = path.size();
    }
    std::string_view part = path.substr(pos, next - pos);
    if (part.empty()) {
      if (next == path.size() && parts.empty() && path == "/") {
        break;  // root itself
      }
      return InvalidArgumentError("empty path component in " +
                                  std::string(path));
    }
    if (part == "." || part == "..") {
      return InvalidArgumentError("relative components not allowed");
    }
    parts.emplace_back(part);
    pos = next + 1;
  }
  return parts;
}

Image::Image(std::string image_id, std::uint64_t capacity)
    : image_id_(std::move(image_id)), capacity_(capacity),
      used_bytes_(kEntryOverhead) {  // the root directory entry
  root_.type = NodeType::kDirectory;
}

std::uint64_t Image::CostOf(std::string_view path,
                            std::uint64_t size) const {
  if (size > kMaxFileSize) {
    return std::numeric_limits<std::uint64_t>::max();  // can never fit
  }
  std::uint64_t cost = kEntryOverhead + BlocksFor(size) * kBlockSize;
  // Count ancestor directories that do not exist yet.
  auto parts = SplitPath(path);
  if (!parts.ok()) {
    return cost;
  }
  const Node* node = &root_;
  for (std::size_t i = 0; i + 1 < parts->size(); ++i) {
    if (node != nullptr) {
      auto it = node->children.find((*parts)[i]);
      node = it == node->children.end() ? nullptr : it->second.get();
    }
    if (node == nullptr) {
      cost += kEntryOverhead;
    }
  }
  return cost;
}

StatusOr<std::pair<Node*, std::string>> Image::WalkToParent(
    std::string_view path, bool create) {
  ROS_ASSIGN_OR_RETURN(std::vector<std::string> parts, SplitPath(path));
  if (parts.empty()) {
    return InvalidArgumentError("root has no parent");
  }
  Node* node = &root_;
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    auto it = node->children.find(parts[i]);
    if (it == node->children.end()) {
      if (!create) {
        return NotFoundError("missing directory " + parts[i]);
      }
      auto dir = std::make_unique<Node>();
      dir->type = NodeType::kDirectory;
      dir->name = parts[i];
      used_bytes_ += kEntryOverhead;
      it = node->children.emplace(parts[i], std::move(dir)).first;
    } else if (it->second->type != NodeType::kDirectory) {
      return InvalidArgumentError("path component is a file: " + parts[i]);
    }
    node = it->second.get();
  }
  return std::pair<Node*, std::string>{node, parts.back()};
}

void Image::Close() {
  if (stream_ != nullptr) {
    return;
  }
  std::vector<std::uint64_t> offsets;
  auto stream = std::make_shared<const std::vector<std::uint8_t>>(
      Serializer::Encode(*this, &offsets));
  std::size_t next = 0;
  auto move_payload = [&](Node& node) {
    if (node.type == NodeType::kFile) {
      node.payload_offset = offsets[next++];
      node.payload_size = node.data.size();
      std::vector<std::uint8_t>().swap(node.data);
    }
  };
  PreOrder(root_, move_payload);
  stream_ = std::move(stream);
}

std::span<const std::uint8_t> Image::FileBytes(const Node& node) const {
  if (stream_ == nullptr) {
    return node.data;
  }
  return std::span<const std::uint8_t>(*stream_).subspan(node.payload_offset,
                                                         node.payload_size);
}

Status Image::MakeDirs(std::string_view path) {
  return InsertDirs(path).status();
}

StatusOr<Node*> Image::InsertDirs(std::string_view path) {
  if (closed()) {
    return FailedPreconditionError("image is closed");
  }
  if (path == "/") {
    return &root_;
  }
  ROS_ASSIGN_OR_RETURN(std::vector<std::string> parts, SplitPath(path));
  Node* node = &root_;
  for (const std::string& part : parts) {
    auto it = node->children.find(part);
    if (it == node->children.end()) {
      if (kEntryOverhead > free_bytes()) {
        return ResourceExhaustedError("image full");
      }
      auto dir = std::make_unique<Node>();
      dir->type = NodeType::kDirectory;
      dir->name = part;
      used_bytes_ += kEntryOverhead;
      it = node->children.emplace(part, std::move(dir)).first;
    } else if (it->second->type != NodeType::kDirectory) {
      return InvalidArgumentError("not a directory: " + part);
    }
    node = it->second.get();
  }
  return node;
}

Status Image::AddFile(std::string_view path, std::vector<std::uint8_t> data,
                      std::uint64_t logical_size) {
  return InsertFile(path, std::move(data), logical_size).status();
}

StatusOr<Node*> Image::InsertFile(std::string_view path,
                                  std::vector<std::uint8_t> data,
                                  std::uint64_t logical_size) {
  if (closed()) {
    return FailedPreconditionError("image " + image_id_ + " is closed");
  }
  if (logical_size > kMaxFileSize) {
    return InvalidArgumentError("file size exceeds kMaxFileSize");
  }
  if (data.size() > logical_size) {
    return InvalidArgumentError("payload larger than logical size");
  }
  if (!WouldFit(path, logical_size)) {
    return ResourceExhaustedError("file does not fit in image " + image_id_);
  }
  ROS_ASSIGN_OR_RETURN(auto parent_leaf, WalkToParent(path, /*create=*/true));
  auto [parent, leaf] = parent_leaf;
  if (parent->children.count(leaf) > 0) {
    return AlreadyExistsError("path exists: " + std::string(path));
  }
  auto node = std::make_unique<Node>();
  node->type = NodeType::kFile;
  node->name = leaf;
  node->logical_size = logical_size;
  node->data = std::move(data);
  used_bytes_ += kEntryOverhead + BlocksFor(logical_size) * kBlockSize;
  ++file_count_;
  return parent->children.emplace(leaf, std::move(node)).first->second.get();
}

Status Image::AddLink(std::string_view path, std::string target_image) {
  return InsertLink(path, std::move(target_image)).status();
}

StatusOr<Node*> Image::InsertLink(std::string_view path,
                                  std::string target_image) {
  if (closed()) {
    return FailedPreconditionError("image is closed");
  }
  if (!WouldFit(path, 0)) {
    return ResourceExhaustedError("link does not fit");
  }
  ROS_ASSIGN_OR_RETURN(auto parent_leaf, WalkToParent(path, /*create=*/true));
  auto [parent, leaf] = parent_leaf;
  if (parent->children.count(leaf) > 0) {
    return AlreadyExistsError("path exists: " + std::string(path));
  }
  auto node = std::make_unique<Node>();
  node->type = NodeType::kLink;
  node->name = leaf;
  node->link_target_image = std::move(target_image);
  used_bytes_ += kEntryOverhead;
  return parent->children.emplace(leaf, std::move(node)).first->second.get();
}

Status Image::AppendToFile(std::string_view path,
                           std::vector<std::uint8_t> data,
                           std::uint64_t logical_grow) {
  if (closed()) {
    return FailedPreconditionError("image is closed");
  }
  if (data.size() > logical_grow) {
    return InvalidArgumentError("payload larger than logical growth");
  }
  ROS_ASSIGN_OR_RETURN(auto parent_leaf, WalkToParent(path, /*create=*/false));
  auto [parent, leaf] = parent_leaf;
  auto it = parent->children.find(leaf);
  if (it == parent->children.end() || it->second->type != NodeType::kFile) {
    return NotFoundError("no file " + std::string(path));
  }
  Node* node = it->second.get();
  if (logical_grow > kMaxFileSize - node->logical_size) {
    return InvalidArgumentError("file size exceeds kMaxFileSize");
  }
  const std::uint64_t old_blocks = BlocksFor(node->logical_size);
  const std::uint64_t new_blocks =
      BlocksFor(node->logical_size + logical_grow);
  if ((new_blocks - old_blocks) * kBlockSize > free_bytes()) {
    return ResourceExhaustedError("append does not fit");
  }
  // Materialize the sparse tail before appending real bytes.
  if (!data.empty()) {
    node->data.resize(node->logical_size, 0);
    node->data.insert(node->data.end(), data.begin(), data.end());
  }
  node->logical_size += logical_grow;
  used_bytes_ += (new_blocks - old_blocks) * kBlockSize;
  return OkStatus();
}

StatusOr<const Node*> Image::Lookup(std::string_view path) const {
  ROS_ASSIGN_OR_RETURN(std::vector<std::string> parts, SplitPath(path));
  const Node* node = &root_;
  for (const std::string& part : parts) {
    auto it = node->children.find(part);
    if (it == node->children.end()) {
      return NotFoundError("no entry " + std::string(path) + " in image " +
                           image_id_);
    }
    node = it->second.get();
  }
  return node;
}

StatusOr<std::vector<std::uint8_t>> Image::ReadFile(
    std::string_view path, std::uint64_t offset, std::uint64_t length) const {
  ROS_ASSIGN_OR_RETURN(const Node* node, Lookup(path));
  if (node->type != NodeType::kFile) {
    return InvalidArgumentError("not a file: " + std::string(path));
  }
  // Two-step form: `offset + length` can wrap for hostile u64 arguments.
  if (offset > node->logical_size ||
      length > node->logical_size - offset) {
    return OutOfRangeError("read beyond file end");
  }
  const std::span<const std::uint8_t> stored = FileBytes(*node);
  std::vector<std::uint8_t> out(length, 0);
  if (offset < stored.size()) {
    const std::uint64_t n =
        std::min<std::uint64_t>(length, stored.size() - offset);
    std::copy_n(stored.begin() + static_cast<std::ptrdiff_t>(offset), n,
                out.begin());
  }
  return out;
}

StatusOr<std::vector<std::string>> Image::List(std::string_view path) const {
  const Node* node = &root_;
  if (path != "/") {
    ROS_ASSIGN_OR_RETURN(node, Lookup(path));
  }
  if (node->type != NodeType::kDirectory) {
    return InvalidArgumentError("not a directory: " + std::string(path));
  }
  std::vector<std::string> names;
  names.reserve(node->children.size());
  for (const auto& [name, child] : node->children) {
    names.push_back(name);
  }
  return names;
}

namespace {
void WalkNode(const std::string& prefix, const Node& node,
              const std::function<void(const std::string&, const Node&)>&
                  visitor) {
  for (const auto& [name, child] : node.children) {
    const std::string path = prefix == "/" ? "/" + name : prefix + "/" + name;
    visitor(path, *child);
    if (child->type == NodeType::kDirectory) {
      WalkNode(path, *child, visitor);
    }
  }
}
}  // namespace

void Image::Walk(const std::function<void(const std::string& path,
                                          const Node&)>& visitor) const {
  WalkNode("/", root_, visitor);
}

}  // namespace ros::udf
