#include "src/olfs/placement.h"

#include <algorithm>

#include "src/common/hash.h"
#include "src/common/logging.h"

namespace ros::olfs {

int RoutingTable::ShardOf(const std::string& bucket) {
  return static_cast<int>(
      Fnv1a64({reinterpret_cast<const std::uint8_t*>(bucket.data()),
               bucket.size()}) %
      kShards);
}

const BucketRoute* RoutingTable::Find(const std::string& bucket) const {
  const auto& shard = shards_[ShardOf(bucket)];
  auto it = shard.find(bucket);
  return it == shard.end() ? nullptr : &it->second;
}

BucketRoute* RoutingTable::FindMutable(const std::string& bucket) {
  auto& shard = shards_[ShardOf(bucket)];
  auto it = shard.find(bucket);
  return it == shard.end() ? nullptr : &it->second;
}

void RoutingTable::Insert(const std::string& bucket, BucketRoute route) {
  shards_[ShardOf(bucket)][bucket] = route;
}

void RoutingTable::Erase(const std::string& bucket) {
  shards_[ShardOf(bucket)].erase(bucket);
}

std::size_t RoutingTable::size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    n += shard.size();
  }
  return n;
}

void RoutingTable::ForEach(
    const std::function<void(const std::string&, const BucketRoute&)>& fn)
    const {
  for (const auto& shard : shards_) {
    for (const auto& [bucket, route] : shard) {
      fn(bucket, route);
    }
  }
}

json::Value RoutingTable::ShardToJson(int shard) const {
  json::Object doc;
  for (const auto& [bucket, route] : shards_.at(shard)) {
    json::Object r;
    r["primary"] = route.primary;
    r["mirror"] = route.mirror;
    r["replicated"] = route.cls == BucketClass::kReplicated;
    r["bytes"] = route.bytes;
    r["ops"] = route.ops;
    doc[bucket] = json::Value(std::move(r));
  }
  return json::Value(std::move(doc));
}

Status RoutingTable::LoadShard(int shard, const json::Value& doc,
                               int racks) {
  if (shard < 0 || shard >= kShards) {
    return InvalidArgumentError("bad routing shard index");
  }
  if (!doc.is_object()) {
    return InvalidArgumentError("routing shard document is not an object");
  }
  std::map<std::string, BucketRoute> loaded;
  for (const auto& [bucket, value] : doc.as_object()) {
    if (!value.is_object()) {
      return InvalidArgumentError("routing entry for " + bucket +
                                  " is not an object");
    }
    if (ShardOf(bucket) != shard) {
      return InvalidArgumentError("routing entry for " + bucket +
                                  " is in the wrong shard");
    }
    const json::Object& r = value.as_object();
    // An absent or non-integer field takes its default.
    auto field = [&r](const char* name,
                      std::int64_t fallback) -> std::int64_t {
      auto it = r.find(name);
      return it != r.end() && it->second.is_int() ? it->second.as_int()
                                                  : fallback;
    };
    const std::int64_t primary = field("primary", -1);
    const std::int64_t mirror = field("mirror", -1);
    const std::int64_t bytes = field("bytes", 0);
    const std::int64_t ops = field("ops", 0);
    if (primary < 0 || primary >= racks || mirror < -1 || mirror >= racks ||
        bytes < 0 || ops < 0) {
      return InvalidArgumentError("routing entry for " + bucket +
                                  " is out of range for " +
                                  std::to_string(racks) + " racks");
    }
    auto replicated = r.find("replicated");
    BucketRoute route;
    route.primary = static_cast<int>(primary);
    route.mirror = static_cast<int>(mirror);
    route.cls = replicated != r.end() && replicated->second.is_bool() &&
                        replicated->second.as_bool()
                    ? BucketClass::kReplicated
                    : BucketClass::kStandard;
    route.bytes = static_cast<std::uint64_t>(bytes);
    route.ops = static_cast<std::uint64_t>(ops);
    loaded.emplace(bucket, route);
  }
  shards_[shard] = std::move(loaded);
  return OkStatus();
}

PlacementPolicy::PlacementPolicy(int racks,
                                 std::uint64_t affinity_headroom_bytes)
    : headroom_(affinity_headroom_bytes) {
  ROS_CHECK(racks > 0);
  alive_.assign(static_cast<std::size_t>(racks), true);
  bytes_.assign(static_cast<std::size_t>(racks), 0);
}

void PlacementPolicy::SetAlive(int rack, bool alive) {
  alive_.at(static_cast<std::size_t>(rack)) = alive;
}

int PlacementPolicy::alive_racks() const {
  return static_cast<int>(std::count(alive_.begin(), alive_.end(), true));
}

void PlacementPolicy::NoteRouted(int rack, std::uint64_t bytes) {
  bytes_.at(static_cast<std::size_t>(rack)) += bytes;
}

void PlacementPolicy::NoteUnrouted(int rack, std::uint64_t bytes) {
  std::uint64_t& b = bytes_.at(static_cast<std::size_t>(rack));
  b -= std::min(b, bytes);
}

void PlacementPolicy::ResetBytes() {
  std::fill(bytes_.begin(), bytes_.end(), 0);
}

void PlacementPolicy::NoteStreamRack(std::uint64_t stream, int rack) {
  if (stream == 0) {
    return;  // untagged traffic leaves no affinity trace
  }
  ++stream_racks_[stream][rack];
}

StatusOr<PlacementDecision> PlacementPolicy::Place(
    const PlacementQuery& query) const {
  // Least-loaded alive rack (capacity base case).
  int base = -1;
  for (int r = 0; r < racks(); ++r) {
    if (!alive_[static_cast<std::size_t>(r)]) {
      continue;
    }
    if (base < 0 || bytes_[static_cast<std::size_t>(r)] <
                        bytes_[static_cast<std::size_t>(base)]) {
      base = r;
    }
  }
  if (base < 0) {
    return UnavailableError("no alive rack to place on");
  }

  PlacementDecision decision;
  decision.primary = base;

  // Affinity override: the stream's favourite rack wins if it is alive
  // and within the capacity headroom of the least-loaded choice.
  if (query.stream != 0) {
    auto it = stream_racks_.find(query.stream);
    if (it != stream_racks_.end()) {
      int favourite = -1;
      std::uint64_t touches = 0;
      for (const auto& [rack, count] : it->second) {
        if (rack < 0 || rack >= racks() ||
            !alive_[static_cast<std::size_t>(rack)]) {
          continue;
        }
        if (favourite < 0 || count > touches) {
          favourite = rack;
          touches = count;
        }
      }
      if (favourite >= 0 &&
          bytes_[static_cast<std::size_t>(favourite)] <=
              bytes_[static_cast<std::size_t>(base)] + headroom_) {
        decision.primary = favourite;
      }
    }
  }

  if (query.cls == BucketClass::kReplicated) {
    int mirror = -1;
    for (int r = 0; r < racks(); ++r) {
      if (r == decision.primary || !alive_[static_cast<std::size_t>(r)]) {
        continue;
      }
      if (mirror < 0 || bytes_[static_cast<std::size_t>(r)] <
                            bytes_[static_cast<std::size_t>(mirror)]) {
        mirror = r;
      }
    }
    if (mirror < 0) {
      return UnavailableError(
          "replicated bucket needs a second alive rack");
    }
    decision.mirror = mirror;
  }
  return decision;
}

}  // namespace ros::olfs
