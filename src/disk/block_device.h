// Block devices of the disk tier (§3.3).
//
// BlockDevice is the timing+storage interface shared by raw devices (HDD,
// SSD) and composed RAID volumes. Devices store real bytes sparsely (64 KiB
// chunks allocated on first write) while charging transfer time from a
// sequential-throughput + per-request-latency performance model. Requests
// on one device are serialized FIFO, which is what makes concurrent I/O
// streams interfere (§4.7's four-stream problem).
#ifndef ROS_SRC_DISK_BLOCK_DEVICE_H_
#define ROS_SRC_DISK_BLOCK_DEVICE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/sim/fault.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace ros::disk {

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  virtual std::uint64_t capacity() const = 0;

  // Writes `data` at `offset`, charging simulated time.
  virtual sim::Task<Status> Write(std::uint64_t offset,
                                  std::vector<std::uint8_t> data) = 0;

  // Reads `length` bytes at `offset`, charging simulated time. Unwritten
  // ranges read as zeros.
  virtual sim::Task<StatusOr<std::vector<std::uint8_t>>> Read(
      std::uint64_t offset, std::uint64_t length) = 0;

  // Charges the time a write of `length` zero bytes would take without
  // storing anything (sparse payloads of PB-scale workloads).
  virtual sim::Task<Status> WriteDiscard(std::uint64_t offset,
                                         std::uint64_t length) = 0;

  // Charges the time a read of `length` bytes would take without
  // materializing a buffer (streaming sparse payloads).
  virtual sim::Task<Status> ReadDiscard(std::uint64_t offset,
                                        std::uint64_t length) = 0;

  // Cumulative traffic, for utilization reports.
  virtual std::uint64_t bytes_written() const = 0;
  virtual std::uint64_t bytes_read() const = 0;
};

struct DevicePerf {
  double read_bytes_per_sec = 0;
  double write_bytes_per_sec = 0;
  sim::Duration request_latency = 0;  // per-request fixed cost
};

// 4 TB nearline HDD: ~200 MB/s sequential (a RAID-5 of 7 then sustains the
// paper's ~1.2 GB/s volume read), 8 ms per-request positioning cost.
inline DevicePerf HddPerf() {
  return {.read_bytes_per_sec = 200e6,
          .write_bytes_per_sec = 200e6,
          .request_latency = sim::Millis(8)};
}

// 240 GB SATA SSD for the metadata volume.
inline DevicePerf SsdPerf() {
  return {.read_bytes_per_sec = 520e6,
          .write_bytes_per_sec = 450e6,
          .request_latency = sim::Micros(80)};
}

// A raw device: real sparse storage + the performance model above.
class StorageDevice : public BlockDevice {
 public:
  StorageDevice(sim::Simulator& sim, std::string name, std::uint64_t capacity,
                DevicePerf perf)
      : sim_(sim), name_(std::move(name)), capacity_(capacity), perf_(perf),
        queue_(sim) {}

  std::uint64_t capacity() const override { return capacity_; }

  sim::Task<Status> Write(std::uint64_t offset,
                          std::vector<std::uint8_t> data) override;
  sim::Task<StatusOr<std::vector<std::uint8_t>>> Read(
      std::uint64_t offset, std::uint64_t length) override;
  sim::Task<Status> WriteDiscard(std::uint64_t offset,
                                 std::uint64_t length) override;
  sim::Task<Status> ReadDiscard(std::uint64_t offset,
                                std::uint64_t length) override;

  // Marks the device failed: all subsequent I/O returns kUnavailable.
  // RAID volumes use this for degraded-mode and rebuild testing.
  void Fail() { failed_ = true; }
  // Replaces the failed device with a fresh one (contents lost).
  void Replace();
  // Clears the failed flag, KEEPING contents — a power-cycle of an intact
  // device, as opposed to Replace()'s swap-in of blank media. Crash tests
  // use this to model "host died mid-write, storage survived": bytes the
  // interrupted request never stored stay unwritten (torn tail).
  void Revive() { failed_ = false; }
  bool failed() const { return failed_; }

  // Installs (or removes, with nullptr) the fault injector consulted at
  // each request: kHddFailure kills the device, kHddReadError fails one
  // read with kDataLoss. The hook site is the device name.
  void set_fault_injector(sim::FaultInjector* faults) { faults_ = faults; }

  const std::string& name() const { return name_; }
  std::uint64_t bytes_written() const override { return bytes_written_; }
  std::uint64_t bytes_read() const override { return bytes_read_; }
  sim::Duration busy_time() const { return busy_time_; }
  // Bytes of backing storage allocated: whole chunks, on first store.
  std::uint64_t resident_bytes() const { return chunks_.size() * kChunk; }

 private:
  // Untimed StoreDirect/LoadDirect are for the RAID controller, which
  // moves a request's bytes after charging it.
  friend class RaidVolume;

  static constexpr std::uint64_t kChunk = 64 * kKiB;

  // The one request path behind every I/O call: bounds, FIFO lock, fault
  // checks, one latency plus the transfer, a mid-flight failure check,
  // the byte move and the counters. `bytes` is stored by a write, or
  // sized to `length` and filled by a read; a discard has none.
  sim::Task<Status> Serve(bool is_read, std::uint64_t offset,
                          std::uint64_t length,
                          std::vector<std::uint8_t>* bytes);

  // A chunk the store covers entirely is built straight from `data`; a
  // partly covered new chunk is zero-filled first.
  void StoreDirect(std::uint64_t offset, std::span<const std::uint8_t> data);
  void LoadDirect(std::uint64_t offset, std::span<std::uint8_t> out) const;
  // stored ^= coeff * delta over [offset, offset + delta.size()), an
  // unwritten range counting as zeros: a parity read-modify-write.
  void MulAccDirect(std::uint64_t offset, std::uint8_t coeff,
                    std::span<const std::uint8_t> delta);
  // Calls fn(chunk_index, within, pos, n) for each chunk piece of the
  // device range [offset, offset + length); `pos` counts from `offset`.
  template <typename Fn>
  static void ForEachPiece(std::uint64_t offset, std::uint64_t length,
                           Fn&& fn);

  // Consults the fault injector (if any) at the head of a request.
  Status CheckInjectedFault(bool is_read);

  sim::Simulator& sim_;
  std::string name_;
  std::uint64_t capacity_;
  DevicePerf perf_;
  // Positioning cost applies only when the head moves: a request starting
  // where the previous one of the same kind ended streams for free.
  std::uint64_t last_read_end_ = ~0ull;
  std::uint64_t last_write_end_ = ~0ull;
  sim::Mutex queue_;  // FIFO request serialization
  bool failed_ = false;
  sim::FaultInjector* faults_ = nullptr;
  // ros_analyze: allow(unordered-member): point lookups by chunk id
  // only; never iterated.
  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> chunks_;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t bytes_read_ = 0;
  sim::Duration busy_time_ = 0;
};

}  // namespace ros::disk

#endif  // ROS_SRC_DISK_BLOCK_DEVICE_H_
