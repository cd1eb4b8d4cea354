#include "src/udf/serializer.h"

#include <cstring>

#include "src/common/hash.h"

namespace ros::udf {

namespace {

constexpr char kMagic[8] = {'R', 'O', 'S', 'U', 'D', 'F', '0', '1'};
constexpr char kAnchor[8] = {'R', 'O', 'S', 'U', 'D', 'F', 'E', 'D'};
constexpr std::uint32_t kVersion = 1;

void PutU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void PutU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void PutStr(std::vector<std::uint8_t>& out, std::string_view s) {
  PutU32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  // All bounds checks are written as `n > remaining()` rather than
  // `pos_ + n > size()`: length fields come straight off (possibly
  // corrupted) media, and `pos_ + n` can wrap around for a hostile u64.
  std::size_t remaining() const { return bytes_.size() - pos_; }

  StatusOr<std::uint32_t> U32() {
    if (remaining() < 4) {
      return DataLossError("truncated image stream (u32)");
    }
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(bytes_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  StatusOr<std::uint64_t> U64() {
    if (remaining() < 8) {
      return DataLossError("truncated image stream (u64)");
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(bytes_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  StatusOr<std::uint8_t> U8() {
    if (remaining() < 1) {
      return DataLossError("truncated image stream (u8)");
    }
    return bytes_[pos_++];
  }

  StatusOr<std::string> Str() {
    ROS_ASSIGN_OR_RETURN(std::uint32_t n, U32());
    if (n > remaining()) {
      return DataLossError("truncated image stream (string)");
    }
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  // Steps over an n-byte payload; returns where it starts.
  StatusOr<std::size_t> Skip(std::uint64_t n) {
    if (n > remaining()) {
      return DataLossError("truncated image stream (payload)");
    }
    const std::size_t start = pos_;
    pos_ += n;
    return start;
  }

  Status Expect(std::span<const char> magic) {
    if (magic.size() > remaining() ||
        std::memcmp(bytes_.data() + pos_, magic.data(), magic.size()) != 0) {
      return DataLossError("bad magic in image stream");
    }
    pos_ += magic.size();
    return OkStatus();
  }

  std::size_t pos() const { return pos_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

std::uint64_t encode_count = 0;

}  // namespace

std::uint64_t Serializer::tree_encodes() { return encode_count; }

std::vector<std::uint8_t> Serializer::Encode(
    const Image& image, std::vector<std::uint64_t>* payload_offsets) {
  ++encode_count;
  // One walk collects the nodes and the exact stream size, so the stream
  // is allocated once with no growth slack.
  std::vector<std::pair<std::string, const Node*>> nodes;
  std::size_t size = sizeof(kMagic) + 4 + 4 + image.id().size() + 8 + 8;
  image.Walk([&](const std::string& path, const Node& node) {
    size += 1 + 4 + path.size();
    if (node.type == NodeType::kFile) {
      size += 8 + 8 + image.FileBytes(node).size();
    } else if (node.type == NodeType::kLink) {
      size += 4 + node.link_target_image.size();
    }
    nodes.emplace_back(path, &node);
  });
  size += 4 + sizeof(kAnchor);

  std::vector<std::uint8_t> out(kMagic, kMagic + sizeof(kMagic));
  out.reserve(size);
  PutU32(out, kVersion);
  PutStr(out, image.id());
  PutU64(out, image.capacity());
  PutU64(out, nodes.size());
  for (const auto& [path, node] : nodes) {
    out.push_back(static_cast<std::uint8_t>(node->type));
    PutStr(out, path);
    switch (node->type) {
      case NodeType::kFile: {
        const std::span<const std::uint8_t> payload = image.FileBytes(*node);
        PutU64(out, node->logical_size);
        PutU64(out, payload.size());
        if (payload_offsets != nullptr) {
          payload_offsets->push_back(out.size());
        }
        out.insert(out.end(), payload.begin(), payload.end());
        break;
      }
      case NodeType::kLink:
        PutStr(out, node->link_target_image);
        break;
      case NodeType::kDirectory:
        break;
    }
  }

  PutU32(out, Crc32(out));
  out.insert(out.end(), kAnchor, kAnchor + sizeof(kAnchor));
  return out;
}

std::vector<std::uint8_t> Serializer::Serialize(const Image& image) {
  if (image.stream() != nullptr) {
    return *image.stream();
  }
  return Encode(image, nullptr);
}

StatusOr<Image> Serializer::Parse(std::span<const std::uint8_t> bytes) {
  return Decode(bytes, nullptr);
}

StatusOr<Image> Serializer::Parse(std::vector<std::uint8_t>&& bytes) {
  return Decode(bytes, &bytes);
}

StatusOr<Image> Serializer::Decode(std::span<const std::uint8_t> bytes,
                                   std::vector<std::uint8_t>* owned) {
  Reader reader(bytes);
  ROS_RETURN_IF_ERROR(reader.Expect({kMagic, sizeof(kMagic)}));
  ROS_ASSIGN_OR_RETURN(std::uint32_t version, reader.U32());
  if (version != kVersion) {
    return DataLossError("unsupported image version");
  }
  ROS_ASSIGN_OR_RETURN(std::string id, reader.Str());
  ROS_ASSIGN_OR_RETURN(std::uint64_t capacity, reader.U64());
  ROS_ASSIGN_OR_RETURN(std::uint64_t node_count, reader.U64());

  Image image(id, capacity);
  // Rebuild errors (duplicate paths, entries that no longer fit the declared
  // capacity, non-absolute paths) all mean the stream is not something the
  // serializer ever wrote: report them uniformly as media corruption.
  auto rebuilt = [](StatusOr<Node*> node) -> StatusOr<Node*> {
    if (!node.ok()) {
      return DataLossError("corrupt image stream: " +
                           node.status().ToString());
    }
    return node;
  };
  // The node each record resolved to, in stream order. File payloads are
  // not copied here: each file node records where its bytes sit in
  // `bytes`, and they are taken only once the CRC has checked out.
  std::vector<Node*> order;
  for (std::uint64_t i = 0; i < node_count; ++i) {
    ROS_ASSIGN_OR_RETURN(std::uint8_t type_byte, reader.U8());
    if (type_byte > static_cast<std::uint8_t>(NodeType::kLink)) {
      return DataLossError("bad node type");
    }
    const NodeType type = static_cast<NodeType>(type_byte);
    ROS_ASSIGN_OR_RETURN(std::string path, reader.Str());
    switch (type) {
      case NodeType::kDirectory: {
        ROS_ASSIGN_OR_RETURN(Node* node, rebuilt(image.InsertDirs(path)));
        order.push_back(node);
        break;
      }
      case NodeType::kFile: {
        ROS_ASSIGN_OR_RETURN(std::uint64_t logical, reader.U64());
        ROS_ASSIGN_OR_RETURN(std::uint64_t data_len, reader.U64());
        ROS_ASSIGN_OR_RETURN(std::size_t offset, reader.Skip(data_len));
        if (data_len > logical) {
          return DataLossError(
              "corrupt image stream: payload larger than logical size");
        }
        ROS_ASSIGN_OR_RETURN(Node* node,
                             rebuilt(image.InsertFile(path, {}, logical)));
        node->payload_offset = offset;
        node->payload_size = data_len;
        order.push_back(node);
        break;
      }
      case NodeType::kLink: {
        ROS_ASSIGN_OR_RETURN(std::string target, reader.Str());
        ROS_ASSIGN_OR_RETURN(
            Node* node, rebuilt(image.InsertLink(path, std::move(target))));
        order.push_back(node);
        break;
      }
    }
  }

  const std::uint32_t computed = Crc32(bytes.subspan(0, reader.pos()));
  ROS_ASSIGN_OR_RETURN(std::uint32_t stored, reader.U32());
  if (computed != stored) {
    return DataLossError("image CRC mismatch");
  }
  ROS_RETURN_IF_ERROR(reader.Expect({kAnchor, sizeof(kAnchor)}));

  // Records in canonical pre-order are exactly what Encode would write for
  // this tree (SplitPath accepts one spelling per path), so the verified
  // bytes through the anchor are the stream. Any other order is
  // re-encoded, which keeps Serialize(Parse(x)) canonical.
  std::size_t next = 0;
  bool canonical = true;
  auto in_order = [&](Node& node) {
    canonical = canonical && next < order.size() && order[next] == &node;
    ++next;
  };
  Image::PreOrder(image.root_, in_order);
  if (canonical && next == order.size()) {
    if (owned != nullptr && owned->size() == reader.pos()) {
      image.stream_ =
          std::make_shared<const std::vector<std::uint8_t>>(std::move(*owned));
    } else {
      image.stream_ = std::make_shared<const std::vector<std::uint8_t>>(
          bytes.begin(),
          bytes.begin() + static_cast<std::ptrdiff_t>(reader.pos()));
    }
    return image;
  }
  for (Node* node : order) {
    if (node->type == NodeType::kFile) {
      const auto payload = bytes.subspan(node->payload_offset,
                                         node->payload_size);
      node->data.assign(payload.begin(), payload.end());
    }
  }
  image.Close();
  return image;
}

}  // namespace ros::udf
