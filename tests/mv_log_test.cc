// Unit tests for the MV write-ahead log (DESIGN.md §5i): record framing,
// torn-tail detection, and the group-committing writer.
#include "src/olfs/mv_log.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/disk/block_device.h"
#include "src/disk/volume.h"
#include "src/sim/fault.h"
#include "src/sim/join.h"
#include "src/sim/simulator.h"

namespace ros::olfs {
namespace {

using mvlog::Record;
using mvlog::RecordType;

TEST(MvLogRecord, EncodeDecodeRoundTrip) {
  const Record records[] = {
      {RecordType::kPut, "i/docs/a", "{\"entries\":[]}"},
      {RecordType::kRemove, "i/docs/a", ""},
      {RecordType::kPutState, "s/burn/cursor", "{\"at\":7}"},
      {RecordType::kPut, "i/", ""},  // empty value, minimal key
  };
  std::vector<std::uint8_t> buffer;
  for (const Record& record : records) {
    mvlog::AppendRecord(record, &buffer);
  }
  std::size_t offset = 0;
  for (const Record& want : records) {
    auto got = mvlog::DecodeRecord(buffer, &offset);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, want);
  }
  EXPECT_EQ(offset, buffer.size());
}

TEST(MvLogRecord, DecodeRejectsEveryTruncation) {
  std::vector<std::uint8_t> buffer;
  mvlog::AppendRecord({RecordType::kPut, "i/k", "value-bytes"}, &buffer);
  for (std::size_t cut = 0; cut < buffer.size(); ++cut) {
    std::size_t offset = 0;
    auto got = mvlog::DecodeRecord(
        std::span<const std::uint8_t>(buffer.data(), cut), &offset);
    ASSERT_FALSE(got.ok()) << "decoded from a " << cut << "-byte prefix";
    EXPECT_TRUE(got.status().code() == StatusCode::kInvalidArgument ||
                got.status().code() == StatusCode::kDataLoss)
        << got.status().ToString();
    EXPECT_EQ(offset, 0u) << "failed decode must not advance the cursor";
  }
}

TEST(MvLogRecord, DecodeRejectsEveryBitFlip) {
  std::vector<std::uint8_t> buffer;
  mvlog::AppendRecord({RecordType::kPut, "i/k", "value-bytes"}, &buffer);
  for (std::size_t at = 0; at < buffer.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> flipped = buffer;
      flipped[at] ^= static_cast<std::uint8_t>(1u << bit);
      std::size_t offset = 0;
      auto got = mvlog::DecodeRecord(flipped, &offset);
      // Any accepted decode must at least be a different record caught by
      // nothing — which the CRC forbids: every flip must fail cleanly.
      ASSERT_FALSE(got.ok())
          << "bit " << bit << " at byte " << at << " went undetected";
      EXPECT_TRUE(got.status().code() == StatusCode::kInvalidArgument ||
                  got.status().code() == StatusCode::kDataLoss)
          << got.status().ToString();
    }
  }
}

TEST(MvLogRecord, HostileLengthsRejectedWithoutAllocation) {
  // Frame claiming a 4 GiB value: must fail on the length guard, not
  // attempt the allocation.
  std::vector<std::uint8_t> buffer(mvlog::kRecordHeaderBytes, 0);
  buffer[0] = static_cast<std::uint8_t>(RecordType::kPut);
  buffer[6] = 0xFF;
  buffer[7] = 0xFF;
  buffer[8] = 0xFF;
  buffer[9] = 0xFF;
  std::size_t offset = 0;
  auto got = mvlog::DecodeRecord(buffer, &offset);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

TEST(MvLogRecord, ScanStopsAtTornTail) {
  std::vector<std::uint8_t> buffer;
  for (int i = 0; i < 3; ++i) {
    mvlog::AppendRecord(
        {RecordType::kPut, "i/k" + std::to_string(i), "v"}, &buffer);
  }
  const std::size_t clean = buffer.size();
  // A fourth record whose tail never made it to the device.
  mvlog::AppendRecord({RecordType::kPut, "i/k3", "torn-away"}, &buffer);
  buffer.resize(clean + 9);

  std::vector<Record> scanned;
  const mvlog::ScanStats stats = mvlog::ScanRecords(
      buffer, [&scanned](Record r) { scanned.push_back(std::move(r)); });
  EXPECT_EQ(stats.records, 3u);
  EXPECT_EQ(stats.valid_bytes, clean);
  EXPECT_TRUE(stats.torn);
  ASSERT_EQ(scanned.size(), 3u);
  EXPECT_EQ(scanned[2].key, "i/k2");
}

TEST(MvLogRecord, FileNamesOrderAndParse) {
  EXPECT_EQ(MvLog::FileName(1), "/mvwal.000000001");
  EXPECT_EQ(MvLog::FileName(123456789), "/mvwal.123456789");
  EXPECT_LT(MvLog::FileName(9), MvLog::FileName(10));  // lexicographic
  EXPECT_EQ(MvLog::SeqOfFileName("/mvwal.000000042"), 42u);
  EXPECT_FALSE(MvLog::SeqOfFileName("/mvwal.x00000042").has_value());
  EXPECT_FALSE(MvLog::SeqOfFileName("/mvseg.000000001.000000001").has_value());
}

// --- the group-committing writer ---------------------------------------

class MvLogWriterTest : public ::testing::Test {
 protected:
  MvLogWriterTest()
      : device_(sim_, "ssd", 64 * kMiB, disk::SsdPerf()),
        volume_(sim_, &device_, disk::MetadataVolumeParams()),
        log_(sim_, &volume_, [this](Record record, std::uint64_t seq) {
          committed_.emplace_back(std::move(record.key), seq);
        }) {}

  sim::Task<Status> AppendOne(int i) {
    Record record{RecordType::kPut, "i/k" + std::to_string(i),
                  "value-" + std::to_string(i)};
    co_return co_await log_.Append(std::move(record));
  }

  // Fans out `count` concurrent appends and joins them.
  sim::Task<Status> AppendConcurrent(int base, int count) {
    std::vector<sim::Task<Status>> appends;
    appends.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      appends.push_back(AppendOne(base + i));
    }
    co_return co_await sim::AllOk(sim_, std::move(appends));
  }

  // Like AppendConcurrent, but records every member's own status (AllOk
  // only reports the first error) — the joined status is always OK.
  sim::Task<Status> AppendRecordingStatus(int i, std::vector<Status>* out) {
    Status status = co_await AppendOne(i);
    out->push_back(status);
    co_return OkStatus();
  }

  sim::Task<Status> AppendConcurrentRecording(int base, int count,
                                              std::vector<Status>* out) {
    std::vector<sim::Task<Status>> appends;
    for (int i = 0; i < count; ++i) {
      appends.push_back(AppendRecordingStatus(base + i, out));
    }
    co_return co_await sim::AllOk(sim_, std::move(appends));
  }

  sim::Task<void> AppendInto(int i, std::vector<Status>* out) {
    out->push_back(co_await AppendOne(i));
  }

  sim::Task<Status> AppendsThenSync(int count) {
    std::vector<sim::Task<Status>> work;
    for (int i = 0; i < count; ++i) {
      work.push_back(AppendOne(i));
    }
    work.push_back(log_.Sync());
    co_return co_await sim::AllOk(sim_, std::move(work));
  }

  std::vector<Record> ReadWal(std::uint64_t seq) {
    auto bytes = sim_.RunUntilComplete(volume_.ReadAll(MvLog::FileName(seq)));
    EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
    std::vector<Record> records;
    const mvlog::ScanStats stats = mvlog::ScanRecords(
        *bytes, [&records](Record r) { records.push_back(std::move(r)); });
    EXPECT_FALSE(stats.torn);
    return records;
  }

  sim::Simulator sim_;
  disk::StorageDevice device_;
  disk::Volume volume_;
  // What the commit hook saw: each landed record's key and WAL sequence.
  std::vector<std::pair<std::string, std::uint64_t>> committed_;
  MvLog log_;
};

TEST_F(MvLogWriterTest, ConcurrentAppendersShareOneBatch) {
  ASSERT_TRUE(sim_.RunUntilComplete(AppendConcurrent(0, 64)).ok());

  const MvLog::Stats& stats = log_.stats();
  EXPECT_EQ(stats.records_appended, 64u);
  // All 64 writers were runnable inside one commit window: the flusher
  // lands them as a single volume append (group commit, the whole point).
  EXPECT_EQ(stats.batches_committed, 1u);
  EXPECT_EQ(stats.max_batch_records, 64u);
  EXPECT_EQ(stats.commit_failures, 0u);
  EXPECT_EQ(ReadWal(1).size(), 64u);
}

TEST_F(MvLogWriterTest, SequentialAppendersPayTheWindowEach) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(sim_.RunUntilComplete(AppendOne(i)).ok());
  }
  const MvLog::Stats& stats = log_.stats();
  EXPECT_EQ(stats.records_appended, 5u);
  EXPECT_EQ(stats.batches_committed, 5u);  // nobody to coalesce with
  EXPECT_EQ(ReadWal(1).size(), 5u);
}

TEST_F(MvLogWriterTest, AdvanceSeqRotatesTheFile) {
  ASSERT_TRUE(sim_.RunUntilComplete(AppendOne(0)).ok());
  log_.AdvanceSeq();
  EXPECT_EQ(log_.current_seq(), 2u);
  ASSERT_TRUE(sim_.RunUntilComplete(AppendOne(1)).ok());

  EXPECT_EQ(ReadWal(1).size(), 1u);
  EXPECT_EQ(ReadWal(2).size(), 1u);

  // Records of the old generation are covered by a segment now: the old
  // file is deleted, the new one stays.
  ASSERT_TRUE(sim_.RunUntilComplete(log_.DeleteBelow(2)).ok());
  EXPECT_FALSE(volume_.Exists(MvLog::FileName(1)));
  EXPECT_TRUE(volume_.Exists(MvLog::FileName(2)));
  EXPECT_EQ(log_.min_seq(), 2u);
}

TEST_F(MvLogWriterTest, SyncWaitsForEverythingEnqueued) {
  ASSERT_TRUE(sim_.RunUntilComplete(AppendsThenSync(8)).ok());
  EXPECT_EQ(log_.stats().records_appended, 8u);
  EXPECT_EQ(ReadWal(1).size(), 8u);
}

TEST_F(MvLogWriterTest, DeviceFailureFailsTheWholeBatchThenRecovers) {
  sim::FaultInjector faults(/*seed=*/3);
  device_.set_fault_injector(&faults);
  faults.FailNth(sim::FaultKind::kHddFailure, "ssd", 1);

  std::vector<Status> first;
  ASSERT_TRUE(
      sim_.RunUntilComplete(AppendConcurrentRecording(0, 4, &first)).ok());
  ASSERT_EQ(first.size(), 4u);
  for (const Status& status : first) {
    EXPECT_FALSE(status.ok()) << "batch member missed the fan-out failure";
  }
  EXPECT_EQ(log_.stats().commit_failures, 1u);
  EXPECT_TRUE(committed_.empty()) << "a failed batch reached the hook";

  // The device comes back; the writer must not be wedged.
  device_.Revive();
  std::vector<Status> second;
  ASSERT_TRUE(
      sim_.RunUntilComplete(AppendConcurrentRecording(10, 4, &second)).ok());
  ASSERT_EQ(second.size(), 4u);
  for (const Status& status : second) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  EXPECT_EQ(committed_.size(), 4u);
}

TEST_F(MvLogWriterTest, CommitHookSeesLandedRecordsInLogOrder) {
  ASSERT_TRUE(sim_.RunUntilComplete(AppendConcurrent(0, 3)).ok());
  log_.AdvanceSeq();
  ASSERT_TRUE(sim_.RunUntilComplete(AppendOne(3)).ok());
  const std::vector<std::pair<std::string, std::uint64_t>> want = {
      {"i/k0", 1}, {"i/k1", 1}, {"i/k2", 1}, {"i/k3", 2}};
  EXPECT_EQ(committed_, want);
}

TEST_F(MvLogWriterTest, ResetDisownsTheBatchInFlight) {
  std::vector<Status> out;
  sim_.Spawn(AppendInto(0, &out));
  sim_.RunFor(MvLog::kCommitWindow + sim::Micros(1));  // sealed, writing
  ASSERT_TRUE(out.empty());
  log_.Reset(/*seq=*/5, /*min_seq=*/5);
  sim_.RunFor(sim::Seconds(1));
  ASSERT_EQ(out.size(), 1u);  // the write still resolves its appender...
  EXPECT_TRUE(committed_.empty());  // ...but its records skip the hook
}

TEST_F(MvLogWriterTest, ResetFailsPendingAndRetargets) {
  log_.Reset(/*seq=*/7, /*min_seq=*/7);
  EXPECT_EQ(log_.current_seq(), 7u);
  EXPECT_EQ(log_.min_seq(), 7u);
  ASSERT_TRUE(sim_.RunUntilComplete(AppendOne(0)).ok());
  EXPECT_EQ(ReadWal(7).size(), 1u);
  EXPECT_FALSE(volume_.Exists(MvLog::FileName(1)));
}

}  // namespace
}  // namespace ros::olfs
