#include "src/frontend/nas_server.h"

#include "src/common/logging.h"

namespace ros::frontend {

sim::Task<Status> NasServer::Upload(std::string path,
                                    std::vector<std::uint8_t> data,
                                    std::uint64_t logical_size,
                                    olfs::AccessHint hint) {
  ++uploads_;
  co_await sim_.Delay(config_.protocol_cost);

  if (!config_.direct_write_mode) {
    // Regular path: through the OLFS PI (Samba -> FUSE -> OLFS), charging
    // the wire transfer inline.
    co_await sim_.Delay(
        sim::TransferTime(logical_size, config_.wire_bytes_per_sec));
    co_return co_await olfs_->Write(path, std::move(data), logical_size,
                                    hint);
  }

  // Direct-writing mode: stage onto the SSD tier at wire speed.
  const std::uint64_t ticket = next_ticket_++;
  disk::Volume* staging = olfs_->mv().volume();
  const std::string name = StagingName(ticket);
  ROS_CO_RETURN_IF_ERROR(co_await staging->Create(name));
  // The SSD tier keeps up with the wire: the client sees wire speed.
  ROS_CO_RETURN_IF_ERROR(
      co_await staging->AppendSparse(name, data, logical_size));
  co_await sim_.Delay(
      sim::TransferTime(logical_size, config_.wire_bytes_per_sec));

  ++pending_;
  sim_.Spawn(
      DeliveryTask(ticket, path, std::move(data), logical_size, hint));
  co_return OkStatus();
}

sim::Task<void> NasServer::DeliveryTask(std::uint64_t ticket,
                                        std::string path,
                                        std::vector<std::uint8_t> data,
                                        std::uint64_t logical_size,
                                        olfs::AccessHint hint) {
  disk::Volume* staging = olfs_->mv().volume();
  const std::string name = StagingName(ticket);

  // Replay the staged bytes into OLFS (reads the staging copy back).
  Status status = co_await staging->ReadDiscard(name, 0, logical_size);
  if (status.ok()) {
    status = co_await olfs_->Write(path, std::move(data), logical_size, hint);
  }
  if (status.ok()) {
    status = co_await staging->Delete(name);
  }
  if (!status.ok()) {
    ROS_LOG(kWarning) << "direct-write delivery of " << path
                      << " failed: " << status.ToString();
    delivery_error_ = status;
  } else {
    ++delivered_;
  }
  --pending_;
  deliveries_done_.NotifyAll();
}

sim::Task<StatusOr<std::vector<std::uint8_t>>> NasServer::Download(
    std::string path, std::uint64_t offset, std::uint64_t length,
    olfs::AccessHint hint) {
  co_await sim_.Delay(config_.protocol_cost);
  auto data = co_await olfs_->Read(path, offset, length, hint);
  if (data.ok()) {
    co_await sim_.Delay(
        sim::TransferTime(length, config_.wire_bytes_per_sec));
  }
  co_return data;
}

sim::Task<Status> NasServer::DrainDeliveries() {
  while (pending_ > 0) {
    co_await deliveries_done_.Wait();
  }
  co_return delivery_error_;
}

}  // namespace ros::frontend
