#include "src/frontend/object_store.h"

#include <algorithm>

namespace ros::frontend {

std::string ObjectStore::EscapeComponent(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    // '#' is OLFS's internal-path qualifier; '%' is our escape prefix.
    if (c == '#') {
      out += "%23";
    } else if (c == '%') {
      out += "%25";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string ObjectStore::UnescapeComponent(const std::string& escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] == '%' && i + 2 < escaped.size()) {
      if (escaped.compare(i, 3, "%23") == 0) {
        out.push_back('#');
        i += 2;
        continue;
      }
      if (escaped.compare(i, 3, "%25") == 0) {
        out.push_back('%');
        i += 2;
        continue;
      }
    }
    out.push_back(escaped[i]);
  }
  return out;
}

StatusOr<std::string> ObjectStore::ObjectPath(const std::string& bucket,
                                              const std::string& key) {
  if (bucket.empty() || bucket.find('/') != std::string::npos) {
    return InvalidArgumentError("bad bucket name: " + bucket);
  }
  if (key.empty() || key.front() == '/' || key.back() == '/') {
    return InvalidArgumentError("bad object key: " + key);
  }
  std::string path = std::string(kRoot) + "/" + EscapeComponent(bucket);
  std::size_t start = 0;
  while (start <= key.size()) {
    std::size_t slash = key.find('/', start);
    if (slash == std::string::npos) {
      slash = key.size();
    }
    const std::string component = key.substr(start, slash - start);
    if (component.empty() || component == "." || component == "..") {
      return InvalidArgumentError("bad key component in " + key);
    }
    path += "/" + EscapeComponent(component);
    start = slash + 1;
  }
  return path;
}

sim::Task<Status> ObjectStore::CreateBucket(std::string bucket) {
  if (bucket.empty() || bucket.find('/') != std::string::npos) {
    co_return InvalidArgumentError("bad bucket name");
  }
  co_return co_await olfs_->Mkdir(std::string(kRoot) + "/" +
                                  EscapeComponent(bucket));
}

sim::Task<StatusOr<std::vector<std::string>>> ObjectStore::ListBuckets() {
  co_return co_await olfs_->ReadDir(kRoot);
}

sim::Task<Status> ObjectStore::PutObject(std::string bucket,
                                         std::string key,
                                         std::vector<std::uint8_t> data,
                                         olfs::AccessHint hint) {
  ROS_CO_ASSIGN_OR_RETURN(std::string path, ObjectPath(bucket, key));
  const std::uint64_t size = data.size();
  co_return co_await olfs_->Write(path, std::move(data), size, hint);
}

sim::Task<StatusOr<std::vector<std::uint8_t>>> ObjectStore::GetObject(
    std::string bucket, std::string key, olfs::AccessHint hint) {
  ROS_CO_ASSIGN_OR_RETURN(std::string path, ObjectPath(bucket, key));
  auto info = co_await olfs_->Stat(path);
  if (!info.ok()) {
    co_return info.status();
  }
  co_return co_await olfs_->Read(path, 0, info->size, hint);
}

sim::Task<StatusOr<std::vector<std::uint8_t>>> ObjectStore::GetObjectVersion(
    std::string bucket, std::string key, int version) {
  ROS_CO_ASSIGN_OR_RETURN(std::string path, ObjectPath(bucket, key));
  auto index = co_await olfs_->mv().GetRef(path);
  if (!index.ok()) {
    co_return index.status();
  }
  auto entry = (*index)->Version(version);
  if (!entry.ok()) {
    co_return entry.status();
  }
  co_return co_await olfs_->ReadVersion(path, version, 0,
                                        (*entry)->total_size);
}

sim::Task<StatusOr<ObjectInfo>> ObjectStore::HeadObject(
    std::string bucket, std::string key) {
  ROS_CO_ASSIGN_OR_RETURN(std::string path, ObjectPath(bucket, key));
  auto info = co_await olfs_->Stat(path);
  if (!info.ok()) {
    co_return info.status();
  }
  if (info->is_directory) {
    co_return NotFoundError(key + " is a prefix, not an object");
  }
  co_return ObjectInfo{key, info->size, info->version};
}

sim::Task<Status> ObjectStore::DeleteObject(std::string bucket,
                                            std::string key) {
  ROS_CO_ASSIGN_OR_RETURN(std::string path, ObjectPath(bucket, key));
  co_return co_await olfs_->Unlink(path);
}

sim::Task<StatusOr<std::vector<ObjectInfo>>> ObjectStore::ListRecursive(
    std::string dir, std::string key_prefix) {
  std::vector<ObjectInfo> out;
  auto children = co_await olfs_->ReadDir(dir);
  if (!children.ok()) {
    co_return children.status();
  }
  for (const std::string& name : *children) {
    const std::string child_path = dir + "/" + name;
    const std::string display = UnescapeComponent(name);
    const std::string child_key =
        key_prefix.empty() ? display : key_prefix + "/" + display;
    auto info = co_await olfs_->Stat(child_path);
    if (!info.ok()) {
      continue;
    }
    if (info->is_directory) {
      auto nested = co_await ListRecursive(child_path, child_key);
      if (nested.ok()) {
        out.insert(out.end(), nested->begin(), nested->end());
      }
    } else {
      out.push_back({child_key, info->size, info->version});
    }
  }
  co_return out;
}

sim::Task<StatusOr<std::vector<ObjectInfo>>> ObjectStore::ListObjects(
    std::string bucket, std::string prefix) {
  std::string dir = std::string(kRoot) + "/" + EscapeComponent(bucket);
  if (!olfs_->mv().Exists(dir)) {
    co_return NotFoundError("no bucket " + bucket);
  }
  ROS_CO_ASSIGN_OR_RETURN(std::vector<ObjectInfo> all,
                          co_await ListRecursive(dir, ""));
  if (prefix.empty()) {
    co_return all;
  }
  std::vector<ObjectInfo> filtered;
  for (ObjectInfo& info : all) {
    if (info.key.rfind(prefix, 0) == 0) {
      filtered.push_back(std::move(info));
    }
  }
  co_return filtered;
}

}  // namespace ros::frontend
