// Byte-level serialization of UDF images.
//
// Closed disc images are burned to media as a self-describing byte stream:
// a volume descriptor, one record per node (pre-order), and an anchor with
// a CRC32 of the whole stream. A scan of survived discs parses these
// streams to rebuild the global namespace (§4.4) even with every other
// component of ROS destroyed.
//
// Format (little-endian):
//   [magic "ROSUDF01"] [u32 version] [u32 id_len] [id bytes]
//   [u64 capacity] [u64 node_count]
//   node*: [u8 type] [u32 path_len] [path] then per type:
//     file: [u64 logical_size] [u64 data_len] [data bytes]
//     link: [u32 target_len] [target]
//     dir:  (nothing)
//   [u32 crc32 of everything before the anchor] [magic "ROSUDFED"]
#ifndef ROS_SRC_UDF_SERIALIZER_H_
#define ROS_SRC_UDF_SERIALIZER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/udf/image.h"

namespace ros::udf {

class Serializer {
 public:
  // Serializes the image's directory tree and payloads. The result is the
  // byte stream burned to a disc (sparse: real payload bytes only; the
  // image's logical size is carried in the header records). A closed
  // image returns a copy of the stream Close() built; prefer
  // Image::stream() to share it without copying.
  static std::vector<std::uint8_t> Serialize(const Image& image);

  // Parses a serialized image; verifies magic and CRC. The result is
  // closed. When the stream's nodes are in canonical (Walk) order, its
  // bytes through the anchor become the image's stream as they are;
  // otherwise the image is re-serialized, so Serialize(Parse(x)) is
  // canonical for every input. Bytes after the anchor are ignored.
  static StatusOr<Image> Parse(std::span<const std::uint8_t> bytes);
  // As above; a canonical stream that ends exactly at its anchor is kept
  // without a copy.
  static StatusOr<Image> Parse(std::vector<std::uint8_t>&& bytes);

  // Test hook: full tree encodings (the work Close() does once per image)
  // performed by this process.
  static std::uint64_t tree_encodes();

 private:
  friend class Image;

  // Parse; `owned`, if set, holds `bytes` and may be moved from.
  static StatusOr<Image> Decode(std::span<const std::uint8_t> bytes,
                                std::vector<std::uint8_t>* owned);

  // Encodes the tree into an exact-size stream. `payload_offsets`, if set,
  // receives each file's payload offset in the stream, in Walk order.
  static std::vector<std::uint8_t> Encode(
      const Image& image, std::vector<std::uint64_t>* payload_offsets);
};

}  // namespace ros::udf

#endif  // ROS_SRC_UDF_SERIALIZER_H_
