#include "src/olfs/mv_log.h"

#include <algorithm>
#include <utility>

#include "src/common/hash.h"

namespace ros::olfs {

namespace mvlog {

namespace {

void PutU32(std::uint32_t v, std::uint8_t* out) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t GetU32(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) |
         static_cast<std::uint32_t>(in[1]) << 8 |
         static_cast<std::uint32_t>(in[2]) << 16 |
         static_cast<std::uint32_t>(in[3]) << 24;
}

// CRC over the header (with the crc field itself zeroed) chained through
// key and value, so every framed byte is covered.
std::uint32_t RecordCrc(std::span<const std::uint8_t> header10,
                        std::string_view key, std::string_view value) {
  std::uint32_t c = Crc32(header10);
  c = Crc32({reinterpret_cast<const std::uint8_t*>(key.data()), key.size()},
            c);
  return Crc32(
      {reinterpret_cast<const std::uint8_t*>(value.data()), value.size()}, c);
}

}  // namespace

std::size_t EncodedSize(const Record& record) {
  return kRecordHeaderBytes + record.key.size() + record.value.size();
}

void AppendRecord(const Record& record, std::vector<std::uint8_t>* out) {
  ROS_CHECK(record.key.size() <= kMaxKeyBytes);
  ROS_CHECK(record.value.size() <= kMaxValueBytes);
  std::uint8_t header[kRecordHeaderBytes] = {};
  header[0] = static_cast<std::uint8_t>(record.type);
  header[1] = 0;  // flags, reserved
  PutU32(static_cast<std::uint32_t>(record.key.size()), header + 2);
  PutU32(static_cast<std::uint32_t>(record.value.size()), header + 6);
  const std::uint32_t crc = RecordCrc({header, 10}, record.key, record.value);
  PutU32(crc, header + 10);
  // Grow geometrically: a bare reserve(size + k) reallocates to exactly
  // that size, so per-record appends into one big buffer (SegmentBuilder)
  // would copy the whole buffer every time — O(n^2) in segment bytes.
  const std::size_t need = out->size() + EncodedSize(record);
  if (out->capacity() < need) {
    out->reserve(std::max(need, out->capacity() + out->capacity() / 2));
  }
  out->insert(out->end(), header, header + kRecordHeaderBytes);
  out->insert(out->end(), record.key.begin(), record.key.end());
  out->insert(out->end(), record.value.begin(), record.value.end());
}

StatusOr<Record> DecodeRecord(std::span<const std::uint8_t> data,
                              std::size_t* offset) {
  const std::size_t at = *offset;
  if (at > data.size() || data.size() - at < kRecordHeaderBytes) {
    return InvalidArgumentError("mvlog: truncated record header");
  }
  const std::uint8_t* header = data.data() + at;
  const std::uint8_t type = header[0];
  if (type < static_cast<std::uint8_t>(RecordType::kPut) ||
      type > static_cast<std::uint8_t>(RecordType::kPutState)) {
    return InvalidArgumentError("mvlog: unknown record type");
  }
  const std::size_t key_len = GetU32(header + 2);
  const std::size_t val_len = GetU32(header + 6);
  if (key_len > kMaxKeyBytes || val_len > kMaxValueBytes) {
    return InvalidArgumentError("mvlog: hostile record lengths");
  }
  const std::size_t body = key_len + val_len;
  if (data.size() - at - kRecordHeaderBytes < body) {
    return InvalidArgumentError("mvlog: record body past end of buffer");
  }
  const char* key_at =
      reinterpret_cast<const char*>(header + kRecordHeaderBytes);
  const std::string_view key(key_at, key_len);
  const std::string_view value(key_at + key_len, val_len);
  const std::uint32_t want = GetU32(header + 10);
  if (RecordCrc({header, 10}, key, value) != want) {
    return DataLossError("mvlog: record checksum mismatch");
  }
  *offset = at + kRecordHeaderBytes + body;
  return Record{static_cast<RecordType>(type), std::string(key),
                std::string(value)};
}

ScanStats ScanRecords(std::span<const std::uint8_t> data,
                      const std::function<void(Record)>& fn) {
  ScanStats stats;
  std::size_t offset = 0;
  while (offset < data.size()) {
    auto record = DecodeRecord(data, &offset);
    if (!record.ok()) {
      stats.torn = true;
      break;
    }
    ++stats.records;
    stats.valid_bytes = offset;
    fn(std::move(*record));
  }
  if (!stats.torn) {
    stats.valid_bytes = data.size();
  }
  return stats;
}

}  // namespace mvlog

std::string MvLog::FileName(std::uint64_t seq) {
  std::string digits = std::to_string(seq);
  std::string name(kFilePrefix);
  name.append(digits.size() < 9 ? 9 - digits.size() : 0, '0');
  name += digits;
  return name;
}

std::optional<std::uint64_t> MvLog::SeqOfFileName(const std::string& name) {
  if (name.size() <= kFilePrefix.size() ||
      name.compare(0, kFilePrefix.size(), kFilePrefix) != 0) {
    return std::nullopt;
  }
  std::uint64_t seq = 0;
  for (std::size_t i = kFilePrefix.size(); i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') {
      return std::nullopt;
    }
    seq = seq * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return seq;
}

sim::Task<Status> MvLog::Append(mvlog::Record record) {
  if (active_ != nullptr && active_->seq != seq_) {
    sealed_.push_back(std::move(active_));
    active_ = nullptr;
  }
  if (active_ == nullptr) {
    active_ = std::make_shared<Batch>(sim_, seq_);
  }
  BatchPtr batch = active_;
  batch->records.push_back(std::move(record));
  if (!flusher_running_) {
    flusher_running_ = true;
    sim_.Spawn(FlushLoop(alive_));
  }
  co_await batch->done.Wait();
  co_return batch->result;
}

sim::Task<Status> MvLog::Sync() {
  // The last batch overall flushes last (FIFO), so awaiting it covers
  // everything enqueued before this call.
  BatchPtr last = active_;
  if (last == nullptr && !sealed_.empty()) {
    last = sealed_.back();
  }
  if (last == nullptr) {
    last = inflight_;
  }
  if (last == nullptr) {
    co_return OkStatus();
  }
  co_await last->done.Wait();
  co_return last->result;
}

void MvLog::AdvanceSeq() {
  // The still-active batch keeps its old tag: everything in it was
  // enqueued before this instant, i.e. belongs to the generation being
  // frozen. Append() seals it on the next record.
  ++seq_;
}

sim::Task<Status> MvLog::DeleteBelow(std::uint64_t seq) {
  // The caller's frame suspends inside each Delete; if the writer is
  // destroyed meanwhile, members are gone — bail on the shared flag.
  const std::shared_ptr<const bool> alive = alive_;
  while (*alive && min_seq_ < seq) {
    const std::string name = FileName(min_seq_);
    ++min_seq_;
    if (!volume_->Exists(name)) {
      continue;  // generation produced no records
    }
    ROS_CO_RETURN_IF_ERROR(co_await volume_->Delete(name));
  }
  co_return OkStatus();
}

void MvLog::Reset(std::uint64_t seq, std::uint64_t min_seq) {
  auto abort_batch = [](const BatchPtr& batch) {
    if (batch != nullptr && !batch->done.is_set()) {
      batch->result = UnavailableError("mvlog: log reset");
      batch->done.Set();
    }
  };
  abort_batch(active_);
  active_ = nullptr;
  for (const BatchPtr& batch : sealed_) {
    abort_batch(batch);
  }
  sealed_.clear();
  // An in-flight batch cannot be recalled (its device write was issued);
  // it resolves on its own, but its records no longer belong to the log's
  // owner. The flusher drains and exits once it sees an empty queue.
  if (inflight_ != nullptr) {
    inflight_->commit = false;
  }
  seq_ = seq;
  min_seq_ = min_seq;
}

sim::Task<void> MvLog::FlushLoop(std::shared_ptr<const bool> alive) {
  while (true) {
    if (sealed_.empty() && active_ == nullptr) {
      flusher_running_ = false;
      co_return;
    }
    if (sealed_.empty()) {
      // Let the active batch accumulate for the commit window, then seal
      // whatever is there. Appends (and seals) during the wait are fine:
      // the queue is re-examined after it.
      co_await sim_.Delay(kCommitWindow);
      if (!*alive) {
        co_return;
      }
      if (active_ != nullptr && sealed_.empty()) {
        sealed_.push_back(std::move(active_));
        active_ = nullptr;
      }
      if (sealed_.empty()) {
        continue;  // a Reset() raced the window
      }
    }
    BatchPtr batch = sealed_.front();
    sealed_.pop_front();
    inflight_ = batch;
    const std::string name = FileName(batch->seq);
    disk::Volume* const volume = volume_;  // survives writer destruction
    Status status = OkStatus();
    if (!volume->Exists(name)) {
      status = co_await volume->Create(name);
      if (!*alive) {
        batch->result = UnavailableError("mvlog: writer destroyed");
        batch->done.Set();
        co_return;
      }
    }
    if (status.ok()) {
      std::size_t size = 0;
      for (const mvlog::Record& record : batch->records) {
        size += mvlog::EncodedSize(record);
      }
      std::vector<std::uint8_t> encoded;
      encoded.reserve(size);
      for (const mvlog::Record& record : batch->records) {
        mvlog::AppendRecord(record, &encoded);
      }
      const std::uint64_t bytes = encoded.size();
      status = co_await volume->Append(name, std::move(encoded));
      if (!*alive) {
        batch->result = status;
        batch->done.Set();
        co_return;
      }
      if (status.ok()) {
        stats_.bytes_committed += bytes;
      }
    }
    const std::uint64_t records = batch->records.size();
    ++stats_.batches_committed;
    stats_.records_appended += records;
    stats_.max_batch_records = std::max(stats_.max_batch_records, records);
    if (!status.ok()) {
      ++stats_.commit_failures;
    } else if (batch->commit && on_commit_) {
      for (mvlog::Record& record : batch->records) {
        on_commit_(std::move(record), batch->seq);
      }
    }
    batch->records.clear();
    batch->result = status;
    batch->done.Set();
    inflight_ = nullptr;
  }
}

}  // namespace ros::olfs
