// MV write-ahead log: record framing + a group-committing writer.
//
// The log-structured MV backend (DESIGN.md §5i) serializes every namespace
// mutation as a framed record — [type, flags, key_len, val_len, crc32,
// key, value] — and appends it to the current WAL file on the metadata
// volume. Records are self-checking: the CRC covers the header fields and
// payload, so a torn tail (a crash mid-append leaves allocated-but-
// unwritten bytes that read back as zeros or stale garbage) is detected at
// the first record whose frame or checksum fails, and replay cleanly
// discards everything from that point on.
//
// MvLog batches concurrent appenders: records enqueue into the active
// batch; a single flusher coroutine wakes after the commit window (or
// immediately for a sealed batch) and lands the whole batch as ONE
// disk::Volume::Append. Every appender co_awaits its batch's
// durability barrier, so a resolved Append() means the record's bytes were
// issued to the device. A landed batch's records are handed, in log
// order, to the commit hook before any appender resumes. WAL files are sequence-numbered ("/mvwal.NNNNNNNNN");
// the store rotates the sequence when it freezes a memtable so each WAL
// file covers exactly one memtable generation.
#ifndef ROS_SRC_OLFS_MV_LOG_H_
#define ROS_SRC_OLFS_MV_LOG_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/disk/volume.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace ros::olfs {

namespace mvlog {

// What a record does to the keyspace. kPut/kRemove act on index keys,
// kPutState on running-state keys; the key itself carries the domain
// prefix (see MetadataVolume), so replay does not branch on type beyond
// put-vs-tombstone.
enum class RecordType : std::uint8_t {
  kPut = 1,
  kRemove = 2,
  kPutState = 3,
};

struct Record {
  RecordType type = RecordType::kPut;
  std::string key;
  std::string value;  // empty for kRemove

  friend bool operator==(const Record&, const Record&) = default;
};

// Frame: type(1) flags(1) key_len(4 LE) val_len(4 LE) crc(4 LE) key value.
inline constexpr std::size_t kRecordHeaderBytes = 14;
// Hostile-length guards: a corrupt frame must fail cleanly, never drive a
// multi-GB allocation. Values are whole JSON index documents; 16 MiB is
// orders of magnitude above anything the MV writes.
inline constexpr std::size_t kMaxKeyBytes = 64 * 1024;
inline constexpr std::size_t kMaxValueBytes = 16 * 1024 * 1024;

std::size_t EncodedSize(const Record& record);

// Appends the framed record to `out`.
void AppendRecord(const Record& record, std::vector<std::uint8_t>* out);

// Decodes the record starting at `*offset`; on success advances `*offset`
// past it. Any framing violation — short header, hostile lengths, bytes
// running past the buffer, CRC mismatch, unknown type — is a clean
// kInvalidArgument/kDataLoss, never UB.
StatusOr<Record> DecodeRecord(std::span<const std::uint8_t> data,
                              std::size_t* offset);

struct ScanStats {
  std::uint64_t records = 0;
  std::uint64_t valid_bytes = 0;  // clean prefix; the rest is torn tail
  bool torn = false;
};

// Walks records from the front, calling `fn` for each cleanly decoded one,
// and stops at the first torn/corrupt frame. Lenient by design: this is
// the crash-replay entry point, where a damaged tail is expected, not an
// error.
ScanStats ScanRecords(std::span<const std::uint8_t> data,
                      const std::function<void(Record)>& fn);

}  // namespace mvlog

// The group-committing WAL writer. Single-threaded simulated time: all
// bookkeeping between co_awaits is atomic with respect to other tasks.
class MvLog {
 public:
  // How long the flusher lets a batch accumulate before landing it. In
  // discrete-event time every appender runnable at the same instant joins
  // the batch even at a zero window; the window additionally coalesces
  // writers spread across a short real-time burst. Kept small so
  // sequential callers barely notice it.
  static constexpr sim::Duration kCommitWindow = sim::Micros(100);

  struct Stats {
    std::uint64_t records_appended = 0;
    std::uint64_t batches_committed = 0;
    std::uint64_t bytes_committed = 0;
    std::uint64_t commit_failures = 0;  // batches whose volume write failed
    std::uint64_t max_batch_records = 0;
  };

  // Called once per record of every batch that landed, in log order,
  // with the WAL sequence the batch went to. Batches that failed, or that
  // were in flight across a Reset, are not passed on.
  using CommitHook = std::function<void(mvlog::Record, std::uint64_t seq)>;

  MvLog(sim::Simulator& sim, disk::Volume* volume, CommitHook on_commit = {})
      : sim_(sim), volume_(volume), on_commit_(std::move(on_commit)) {
    ROS_CHECK(volume != nullptr);
  }
  // A suspended flusher frame can outlive the writer (the store is
  // destroyed and re-attached while the simulator keeps running); it
  // checks the alive flag after every suspension before touching members.
  ~MvLog() { *alive_ = false; }
  MvLog(const MvLog&) = delete;
  MvLog& operator=(const MvLog&) = delete;

  // Enqueues the record into the current sequence's batch and awaits its
  // group commit: resolves only once the batch's bytes have been appended
  // to the WAL file (or the append failed — the batch's status fans out to
  // every member).
  sim::Task<Status> Append(mvlog::Record record);

  // Waits until every batch enqueued before this call has committed.
  // Returns the status of the last such batch (earlier failures surfaced
  // to their own appenders).
  sim::Task<Status> Sync();

  // The WAL file new appends target. Advancing the sequence seals the
  // active batch (its records still land in the old file — they belong to
  // the frozen memtable) and directs subsequent appends to the next file.
  std::uint64_t current_seq() const { return seq_; }
  std::uint64_t min_seq() const { return min_seq_; }
  void AdvanceSeq();

  // Marks WAL files below `seq` obsolete (their records are covered by a
  // durable segment) and deletes them from the volume.
  sim::Task<Status> DeleteBelow(std::uint64_t seq);

  // Resets the log to append at `seq`, with `min_seq` the lowest WAL file
  // assumed present on the volume (WipeAll passes (1, 1); recovery passes
  // the newest and oldest surviving file sequences). Pending un-flushed
  // batches are failed with kUnavailable; a batch already in flight still
  // resolves, but its records skip the commit hook.
  void Reset(std::uint64_t seq, std::uint64_t min_seq);

  static std::string FileName(std::uint64_t seq);
  // Parses "NNNNNNNNN" from a WAL file name; nullopt if malformed.
  static std::optional<std::uint64_t> SeqOfFileName(const std::string& name);
  static constexpr std::string_view kFilePrefix = "/mvwal.";

  const Stats& stats() const { return stats_; }

 private:
  struct Batch {
    Batch(sim::Simulator& sim, std::uint64_t wal_seq)
        : seq(wal_seq), done(sim) {}
    std::uint64_t seq;
    std::vector<mvlog::Record> records;
    bool commit = true;  // false once a Reset has disowned the batch
    sim::Event done;
    Status result;
  };
  using BatchPtr = std::shared_ptr<Batch>;

  // The single background flusher. Checks `alive` after every co_await:
  // if the writer died while it was suspended, it resolves its in-flight
  // batch (the Batch is shared) and exits without touching members.
  sim::Task<void> FlushLoop(std::shared_ptr<const bool> alive);

  sim::Simulator& sim_;
  disk::Volume* volume_;
  CommitHook on_commit_;
  Stats stats_;
  std::uint64_t seq_ = 1;
  std::uint64_t min_seq_ = 1;  // lowest WAL file not yet deleted
  BatchPtr active_;                  // being filled
  std::deque<BatchPtr> sealed_;      // full generations awaiting flush
  BatchPtr inflight_;                // currently being written
  bool flusher_running_ = false;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace ros::olfs

#endif  // ROS_SRC_OLFS_MV_LOG_H_
