// Fetch-scheduler benchmark (DESIGN.md §5f): tray-batched, geometry-aware
// dispatch, gated against the committed figures of the first-come-first-
// served bay scramble it replaced.
//
// For each (concurrent readers, locality mix) cell a seeded read sequence
// runs against a fresh rack and reports, in deterministic simulated time:
//
//   - mechanical load/unload cycles consumed (Library telemetry)
//   - per-read latency mean and p99
//   - scheduler telemetry: parked hits, handoffs, batch sizes, aged
//     dispatches, estimated positioning cost
//
// Every read's bytes are compared with the seeded payload it was written
// from: the scheduler may reorder mechanical work but must never change
// what a read returns.
//
// The FIFO path was removed once its comparison was committed. Its figures
// for the gated cells live in kCommittedFifo below: the full-mode ones are
// BENCH_FETCH.json's `fifo` objects (marked historical there, no longer
// produced by this bench) and the smoke ones were measured on the same
// code before the removal.
//
// A second section replays a sweep-vs-hot-set trace against the segmented
// (SLRU + ghost) read cache and compares its hit rate with the committed
// plain-LRU figure, to show scan resistance.
//
// A third section (DESIGN.md §5g) replays a multi-stream archival trace
// twice — once with cross-layer AccessHints (affinity placement +
// whole-tray readahead) and once untagged — over the same shuffled write
// order and the same seeded payloads, gating that hints strictly reduce
// mechanical cycles and p99 while returning byte-identical data.
//
// Gates (exit 1 on violation):
//   - every cell: every read returns its seeded payload bytes
//   - cells with >= 8 readers and tray locality: strictly fewer
//     load/unload cycles AND lower mean AND lower p99 latency than the
//     committed FIFO figures of the same cell
//   - scan resistance: SLRU hit rate strictly above the committed
//     plain-LRU hit rate
//   - trace replay at >= 8 readers: hints-on strictly fewer mechanical
//     cycles AND strictly lower p99 than hints-off; bytes identical at
//     every reader count
//
// Flags: --smoke (one 8-reader sweep, CI-sized), --trace-only (skip the
// scheduler cells and the scan-resistance section), --replay-check
// (double-run the smoke scheduler cell with the sim::EventHasher
// divergence oracle installed and fail on any event-stream divergence,
// naming the first divergent event).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/hash.h"
#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/units.h"
#include "src/olfs/olfs.h"
#include "src/olfs/read_cache.h"
#include "src/sim/event_hasher.h"
#include "src/sim/join.h"
#include "src/sim/time.h"

namespace {

using namespace ros;

constexpr int kArrays = 6;
// Each array holds one 10 MiB file split over three ~4 MiB images: reads
// of different offsets hit different discs of the SAME tray, which is
// exactly the access pattern tray batching exists for (and what the
// image-level single-flight cannot already collapse).
constexpr int kImagesPerArray = 3;
constexpr std::uint64_t kFileSize = 10 * kMiB;
constexpr std::uint64_t kDiscCapacity = 4 * kMiB;
constexpr std::uint64_t kReadLen = 8 * kKiB;
constexpr std::uint64_t kOffsets[kImagesPerArray] = {kMiB / 2, 5 * kMiB,
                                                     9 * kMiB};

std::vector<std::uint8_t> PayloadFor(int array) {
  Rng rng(7000 + static_cast<std::uint64_t>(array));
  std::vector<std::uint8_t> out(kFileSize);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  return out;
}

struct ReadSpec {
  int array;
  int image;  // offset slot within the array's file
};

// Seeded per-reader read sequences.
// Hot locality: 3/4 of reads target arrays {0, 1, 2} — one more hot
// array than the rack has bays, so residency is contested and victim
// choice matters; the uniform tail forces evictions either way.
std::vector<std::vector<ReadSpec>> MakeSequences(int readers,
                                                 int reads_each,
                                                 bool hot_locality) {
  Rng rng(0xf57c + static_cast<std::uint64_t>(readers) * 131 +
          (hot_locality ? 1 : 0));
  std::vector<std::vector<ReadSpec>> seq(
      static_cast<std::size_t>(readers));
  for (auto& s : seq) {
    s.reserve(static_cast<std::size_t>(reads_each));
    for (int k = 0; k < reads_each; ++k) {
      const int array = hot_locality && rng.Chance(0.75)
                            ? static_cast<int>(rng.Below(3))
                            : static_cast<int>(rng.Below(kArrays));
      s.push_back({array, static_cast<int>(rng.Below(kImagesPerArray))});
    }
  }
  return seq;
}

// FIFO figures of the gated cells (tray-hot locality, >= 8 readers) from
// the retired first-come-first-served fetch path. Sim time is
// deterministic, so the scheduler must beat each figure strictly.
struct CommittedFifo {
  int readers;
  int reads_each;
  std::uint64_t cycles;  // load + unload
  double mean_s;
  double p99_s;
};
constexpr CommittedFifo kCommittedFifo[] = {
    // Smoke cell (6 reads per reader), measured before the removal.
    {8, 6, 38, 401.34779284193746, 1453.499999884},
    // Full cells, BENCH_FETCH.json rows.
    {8, 10, 70, 444.7632252824001, 1363.379659975},
    {16, 10, 118, 807.5813436384311, 2673.899999788},
};

const CommittedFifo* FindCommittedFifo(int readers, int reads_each) {
  for (const CommittedFifo& row : kCommittedFifo) {
    if (row.readers == readers && row.reads_each == reads_each) {
      return &row;
    }
  }
  return nullptr;
}

// Scan-resistance hit rate of the retired plain-LRU read cache on the
// ScanResistance trace (BENCH_FETCH.json).
constexpr double kCommittedPlainLruHitRate = 0.2015;

struct CellResult {
  std::uint64_t loads = 0;
  std::uint64_t unloads = 0;
  double mean_s = 0;
  double p50_s = 0;
  double p99_s = 0;
  double makespan_s = 0;
  std::uint64_t mismatched_reads = 0;  // reads not matching their payload
  json::Object scheduler;              // scheduler telemetry
};

// expected[array][image]: the bytes a read of that offset slot returns.
using ExpectedReads = std::vector<std::vector<std::vector<std::uint8_t>>>;

sim::Task<Status> Reader(olfs::Olfs* olfs,
                         const std::vector<ReadSpec>* seq,
                         const ExpectedReads* expected,
                         std::vector<double>* latencies,
                         std::uint64_t* mismatches, sim::Simulator* sim) {
  for (const ReadSpec& spec : *seq) {
    const sim::TimePoint t0 = sim->now();
    const auto image = static_cast<std::size_t>(spec.image);
    auto data = co_await olfs->Read("/a" + std::to_string(spec.array),
                                    kOffsets[image], kReadLen);
    ROS_CO_RETURN_IF_ERROR(data.status());
    latencies->push_back(sim::ToSeconds(sim->now() - t0));
    if (*data != (*expected)[static_cast<std::size_t>(spec.array)][image]) {
      ++*mismatches;
    }
  }
  co_return OkStatus();
}

bool RunCell(const std::vector<std::vector<ReadSpec>>& sequences,
             CellResult* out, sim::EventHasher* hasher = nullptr) {
  sim::Simulator sim;
  sim.set_event_hasher(hasher);
  olfs::SystemConfig config = olfs::TestSystemConfig();
  config.drive_sets = 2;
  olfs::RosSystem system(sim, config);
  olfs::OlfsParams params;
  params.disc_capacity_override = kDiscCapacity;
  params.read_cache_bytes = 0;  // every read exercises the fetch path
  olfs::Olfs olfs(sim, &system, params);
  olfs.burns().burn_start_interval = sim::Seconds(1);

  ExpectedReads expected(kArrays);
  for (int a = 0; a < kArrays; ++a) {
    std::vector<std::uint8_t> payload = PayloadFor(a);
    for (std::uint64_t offset : kOffsets) {
      expected[static_cast<std::size_t>(a)].emplace_back(
          payload.begin() + static_cast<std::ptrdiff_t>(offset),
          payload.begin() + static_cast<std::ptrdiff_t>(offset + kReadLen));
    }
    if (!sim.RunUntilComplete(
               olfs.Create("/a" + std::to_string(a), std::move(payload)))
             .ok() ||
        !sim.RunUntilComplete(olfs.FlushAndDrain()).ok()) {
      std::fprintf(stderr, "staging array %d failed\n", a);
      return false;
    }
  }

  const std::uint64_t loads0 = olfs.mech().library().loads_completed();
  const std::uint64_t unloads0 = olfs.mech().library().unloads_completed();
  std::vector<std::vector<double>> latencies(sequences.size());
  const sim::TimePoint t0 = sim.now();
  std::vector<sim::Task<Status>> readers;
  for (std::size_t r = 0; r < sequences.size(); ++r) {
    readers.push_back(Reader(&olfs, &sequences[r], &expected, &latencies[r],
                             &out->mismatched_reads, &sim));
  }
  Status status =
      sim.RunUntilComplete(sim::AllOk(sim, std::move(readers)));
  if (!status.ok()) {
    std::fprintf(stderr, "read workload failed: %s\n",
                 status.ToString().c_str());
    return false;
  }
  out->makespan_s = sim::ToSeconds(sim.now() - t0);
  out->loads = olfs.mech().library().loads_completed() - loads0;
  out->unloads = olfs.mech().library().unloads_completed() - unloads0;

  std::vector<double> all;
  for (const std::vector<double>& l : latencies) {
    all.insert(all.end(), l.begin(), l.end());
  }
  const SummaryStats stats = Summarize(std::move(all));
  out->mean_s = stats.mean;
  out->p50_s = stats.p50;
  out->p99_s = stats.p99;

  const olfs::FetchSchedulerStats& s = olfs.fetch_scheduler()->stats();
  json::Object t;
  t["requests"] = json::Value(static_cast<std::int64_t>(s.requests));
  t["parked_hits"] = json::Value(static_cast<std::int64_t>(s.parked_hits));
  t["handoffs"] = json::Value(static_cast<std::int64_t>(s.handoffs));
  t["loads_avoided"] =
      json::Value(static_cast<std::int64_t>(s.loads_avoided()));
  t["max_batch"] = json::Value(static_cast<std::int64_t>(s.max_batch));
  t["max_queue_depth"] =
      json::Value(static_cast<std::int64_t>(s.max_queue_depth));
  t["aged_dispatches"] =
      json::Value(static_cast<std::int64_t>(s.aged_dispatches));
  t["mean_queue_delay_s"] = json::Value(sim::ToSeconds(s.mean_queue_delay()));
  t["est_positioning_s"] = json::Value(sim::ToSeconds(s.est_positioning));
  out->scheduler = std::move(t);
  sim.Shutdown();
  return true;
}

json::Value CellJson(const CellResult& r) {
  json::Object o;
  o["load_cycles"] = json::Value(static_cast<std::int64_t>(r.loads));
  o["unload_cycles"] = json::Value(static_cast<std::int64_t>(r.unloads));
  o["mean_latency_s"] = json::Value(r.mean_s);
  o["p50_latency_s"] = json::Value(r.p50_s);
  o["p99_latency_s"] = json::Value(r.p99_s);
  o["makespan_s"] = json::Value(r.makespan_s);
  o["scheduler"] = json::Value(r.scheduler);
  return json::Value(std::move(o));
}

json::Value CommittedFifoJson(const CommittedFifo& f) {
  json::Object o;
  o["cycles"] = json::Value(static_cast<std::int64_t>(f.cycles));
  o["mean_latency_s"] = json::Value(f.mean_s);
  o["p99_latency_s"] = json::Value(f.p99_s);
  return json::Value(std::move(o));
}

// --- scan resistance: segmented SLRU vs. the committed plain LRU ---

struct CacheDriver {

  void Access(const std::string& id) {
    if (!cache.Touch(id)) {
      cache.Admit(id, 1);
      for (const std::string& victim : cache.EvictionCandidates()) {
        cache.Remove(victim);
      }
    }
  }

  double HitRate() const {
    const double total =
        static_cast<double>(cache.hits() + cache.misses());
    return total == 0 ? 0 : static_cast<double>(cache.hits()) / total;
  }

  olfs::ReadCache cache{/*capacity_bytes=*/50};
};

json::Value ScanResistance(bool* pass) {
  CacheDriver slru;
  // 20 hot images re-referenced throughout; a long one-touch sweep in
  // between. Plain LRU let the sweep flush the hot set; the segmented
  // cache promotes the hot set out of the sweep's reach.
  constexpr int kHot = 20;
  int sweep_id = 0;
  Rng rng(0xcac4e);
  for (int i = 0; i < 4000; ++i) {
    std::string id;
    if (i % 3 == 0) {
      id = "hot" + std::to_string(rng.Below(kHot));
    } else {
      id = "sweep" + std::to_string(sweep_id++);
    }
    slru.Access(id);
  }
  json::Object o;
  o["slru_hit_rate"] = json::Value(slru.HitRate());
  o["committed_lru_hit_rate"] = json::Value(kCommittedPlainLruHitRate);
  o["ghost_hit_admissions"] =
      json::Value(static_cast<std::int64_t>(slru.cache.ghost_hits()));
  const bool ok = slru.HitRate() > kCommittedPlainLruHitRate;
  o["pass"] = json::Value(ok);
  *pass = ok;
  return json::Value(std::move(o));
}

// --- trace replay: cross-layer hints on vs. off, same archival trace ---
//
// Four write streams each archive 11 files sized so every file closes its
// own disc image; the interleaved (shuffled) close order scatters each
// stream across trays unless affinity placement interferes. Replay scans
// each stream front to back in 256 KiB chunks. With hints, the planner
// burns stream-pure trays and the scan hint stages whole trays into the
// read cache, so a scan costs roughly one tray load; without, every
// reader random-walks the rack's trays through two bays.

constexpr int kTraceStreams = 4;
constexpr int kTraceFilesPerStream = 11;  // one full RAID-5 array per stream
constexpr std::uint64_t kTraceFileSize = 1016 * kKiB;
constexpr std::uint64_t kTraceDiscCapacity = 1 * kMiB;
constexpr std::uint64_t kTraceChunk = 256 * kKiB;

std::string TracePath(int stream, int file) {
  return "/t-s" + std::to_string(stream) + "-f" + std::to_string(file);
}

std::vector<std::uint8_t> TracePayload(int stream, int file) {
  Rng rng(9100 + static_cast<std::uint64_t>(stream) * 100 +
          static_cast<std::uint64_t>(file));
  std::vector<std::uint8_t> out(kTraceFileSize);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  return out;
}

// Seeded shuffle of the (stream, file) write order, shared by both modes:
// close order — and therefore close-order placement — mixes the streams.
std::vector<std::pair<int, int>> TraceWriteOrder() {
  std::vector<std::pair<int, int>> order;
  for (int s = 0; s < kTraceStreams; ++s) {
    for (int f = 0; f < kTraceFilesPerStream; ++f) {
      order.emplace_back(s, f);
    }
  }
  Rng rng(0x7ace);
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.Below(i + 1)]);
  }
  return order;
}

// Drops every burned image's staged copy from the buffer and the read
// cache: the replay starts cold in both modes, so any cache residency it
// measures was earned by the hints (readahead) or by demand fetches.
sim::Task<Status> DropCachedImages(olfs::Olfs* olfs) {
  for (const std::string& id : olfs->images().BurnedImages()) {
    auto record = olfs->images().Lookup(id);
    if (!record.ok() ||
        (*record)->tier != olfs::ImageTier::kBurnedCached) {
      continue;
    }
    disk::Volume* volume = olfs->buckets().volume((*record)->volume_index);
    if (volume->Exists((*record)->volume_file)) {
      ROS_CO_RETURN_IF_ERROR(
          co_await volume->Delete((*record)->volume_file));
    }
    ROS_CO_RETURN_IF_ERROR(olfs->images().DropFromBuffer(id));
    olfs->cache().Remove(id);
  }
  co_return OkStatus();
}

struct TraceResult {
  std::uint64_t loads = 0;
  std::uint64_t unloads = 0;
  double mean_s = 0;
  double p50_s = 0;
  double p99_s = 0;
  double makespan_s = 0;
  std::uint64_t readahead_images = 0;
  std::uint64_t readahead_bytes = 0;
  std::uint64_t affinity_edges = 0;
  std::uint64_t speculative_enqueued = 0;
  std::uint64_t speculative_loads = 0;
  std::uint64_t speculative_demand_evictions = 0;
  std::vector<std::uint64_t> hashes;
};

sim::Task<Status> TraceReader(olfs::Olfs* olfs, int stream, bool hints,
                              std::vector<double>* latencies,
                              std::vector<std::uint64_t>* hashes,
                              sim::Simulator* sim) {
  const olfs::AccessHint hint =
      hints ? olfs::AccessHint{static_cast<std::uint64_t>(stream) + 1,
                               /*scan=*/true}
            : olfs::AccessHint{};
  for (int f = 0; f < kTraceFilesPerStream; ++f) {
    for (std::uint64_t offset = 0; offset < kTraceFileSize;
         offset += kTraceChunk) {
      const std::uint64_t n = std::min(kTraceChunk, kTraceFileSize - offset);
      const sim::TimePoint t0 = sim->now();
      auto data =
          co_await olfs->Read(TracePath(stream, f), offset, n, hint);
      ROS_CO_RETURN_IF_ERROR(data.status());
      latencies->push_back(sim::ToSeconds(sim->now() - t0));
      hashes->push_back(Xxh64(*data));
    }
  }
  co_return OkStatus();
}

bool RunTrace(bool hints, int readers, TraceResult* out) {
  sim::Simulator sim;
  olfs::SystemConfig config = olfs::TestSystemConfig();
  config.drive_sets = 2;
  olfs::RosSystem system(sim, config);
  olfs::OlfsParams params;
  params.disc_capacity_override = kTraceDiscCapacity;
  // Large enough for every stream's whole-tray readahead to stay resident
  // through the replay; identical in both modes so only the hints differ.
  params.read_cache_bytes = 48 * kMiB;
  // Pool three extra arrays' worth of closed images before planning a
  // burn batch, so the clusterer sees all four streams at once. Inert in
  // hints-off mode (no co-access edges are ever recorded).
  params.affinity_batch_window = 33;
  olfs::Olfs olfs(sim, &system, params);
  olfs.burns().burn_start_interval = sim::Seconds(1);

  for (const auto& [s, f] : TraceWriteOrder()) {
    const olfs::AccessHint hint =
        hints ? olfs::AccessHint{static_cast<std::uint64_t>(s) + 1}
              : olfs::AccessHint{};
    if (!sim.RunUntilComplete(olfs.Create(TracePath(s, f),
                                          TracePayload(s, f),
                                          kTraceFileSize, hint))
             .ok()) {
      std::fprintf(stderr, "trace write s%d f%d failed\n", s, f);
      return false;
    }
  }
  if (!sim.RunUntilComplete(olfs.FlushAndDrain()).ok()) {
    std::fprintf(stderr, "trace drain failed\n");
    return false;
  }
  if (!sim.RunUntilComplete(DropCachedImages(&olfs)).ok()) {
    std::fprintf(stderr, "trace cache drop failed\n");
    return false;
  }

  const std::uint64_t loads0 = olfs.mech().library().loads_completed();
  const std::uint64_t unloads0 = olfs.mech().library().unloads_completed();
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(readers));
  std::vector<std::vector<std::uint64_t>> hashes(
      static_cast<std::size_t>(readers));
  const sim::TimePoint t0 = sim.now();
  std::vector<sim::Task<Status>> tasks;
  for (int r = 0; r < readers; ++r) {
    tasks.push_back(TraceReader(&olfs, r % kTraceStreams, hints,
                                &latencies[static_cast<std::size_t>(r)],
                                &hashes[static_cast<std::size_t>(r)],
                                &sim));
  }
  Status status = sim.RunUntilComplete(sim::AllOk(sim, std::move(tasks)));
  if (!status.ok()) {
    std::fprintf(stderr, "trace replay failed: %s\n",
                 status.ToString().c_str());
    return false;
  }
  out->makespan_s = sim::ToSeconds(sim.now() - t0);
  out->loads = olfs.mech().library().loads_completed() - loads0;
  out->unloads = olfs.mech().library().unloads_completed() - unloads0;

  std::vector<double> all;
  for (int r = 0; r < readers; ++r) {
    const auto& l = latencies[static_cast<std::size_t>(r)];
    const auto& h = hashes[static_cast<std::size_t>(r)];
    all.insert(all.end(), l.begin(), l.end());
    out->hashes.insert(out->hashes.end(), h.begin(), h.end());
  }
  const SummaryStats stats = Summarize(std::move(all));
  out->mean_s = stats.mean;
  out->p50_s = stats.p50;
  out->p99_s = stats.p99;

  out->readahead_images = olfs.readahead_images();
  out->readahead_bytes = olfs.readahead_bytes();
  out->affinity_edges = olfs.affinity().edges();
  const olfs::FetchSchedulerStats& s = olfs.fetch_scheduler()->stats();
  out->speculative_enqueued = s.speculative_enqueued;
  out->speculative_loads = s.speculative_loads;
  out->speculative_demand_evictions = s.speculative_demand_evictions;
  sim.Shutdown();
  return true;
}

json::Value TraceModeJson(const TraceResult& r) {
  json::Object o;
  o["load_cycles"] = json::Value(static_cast<std::int64_t>(r.loads));
  o["unload_cycles"] = json::Value(static_cast<std::int64_t>(r.unloads));
  o["mean_latency_s"] = json::Value(r.mean_s);
  o["p50_latency_s"] = json::Value(r.p50_s);
  o["p99_latency_s"] = json::Value(r.p99_s);
  o["makespan_s"] = json::Value(r.makespan_s);
  o["readahead_images"] =
      json::Value(static_cast<std::int64_t>(r.readahead_images));
  o["readahead_bytes"] =
      json::Value(static_cast<std::int64_t>(r.readahead_bytes));
  o["affinity_edges"] =
      json::Value(static_cast<std::int64_t>(r.affinity_edges));
  o["speculative_enqueued"] =
      json::Value(static_cast<std::int64_t>(r.speculative_enqueued));
  o["speculative_loads"] =
      json::Value(static_cast<std::int64_t>(r.speculative_loads));
  return json::Value(std::move(o));
}

// Double-runs the CI-sized scheduler cell with the divergence oracle
// installed. The second run must replay the first's event stream exactly
// AND both runs must return the seeded payload bytes; any divergence
// names the first divergent event.
int ReplayCheck() {
  const auto sequences =
      MakeSequences(/*readers=*/8, /*reads_each=*/6, /*hot_locality=*/true);
  sim::EventHasher record;
  CellResult first;
  if (!RunCell(sequences, &first, &record)) {
    return 1;
  }
  sim::EventHasher check(record.trail());
  CellResult second;
  if (!RunCell(sequences, &second, &check)) {
    return 1;
  }
  check.Finish();
  if (check.diverged()) {
    const sim::EventHasher::Divergence& div = *check.divergence();
    std::fprintf(stderr, "REPLAY DIVERGENCE: event #%llu: %s\n",
                 static_cast<unsigned long long>(div.index),
                 div.description.c_str());
    return 1;
  }
  if (first.mismatched_reads + second.mismatched_reads != 0) {
    std::fprintf(stderr,
                 "REPLAY DIVERGENCE: identical event stream but reads "
                 "not matching their payload\n");
    return 1;
  }
  std::printf("{\"bench\": \"fetch_sched\", \"mode\": \"replay_check\", "
              "\"replay_events\": %llu, \"replay_digest\": \"%016llx\", "
              "\"pass\": true}\n",
              static_cast<unsigned long long>(check.event_count()),
              static_cast<unsigned long long>(check.digest()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool trace_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
    if (std::strcmp(argv[i], "--trace-only") == 0) {
      trace_only = true;
    }
    if (std::strcmp(argv[i], "--replay-check") == 0) {
      return ReplayCheck();
    }
  }

  const std::vector<int> reader_counts =
      smoke ? std::vector<int>{8} : std::vector<int>{4, 8, 16};
  const int reads_each = smoke ? 6 : 10;

  bool all_pass = true;
  json::Array rows;
  for (int readers : trace_only ? std::vector<int>{} : reader_counts) {
    for (bool hot : {true, false}) {
      const auto sequences = MakeSequences(readers, reads_each, hot);
      CellResult sched;
      if (!RunCell(sequences, &sched)) {
        return 1;
      }

      const bool bytes_identical = sched.mismatched_reads == 0;
      const bool gated = readers >= 8 && hot;
      const CommittedFifo* fifo =
          gated ? FindCommittedFifo(readers, reads_each) : nullptr;
      bool cell_pass = bytes_identical;
      if (gated) {
        cell_pass = cell_pass && fifo != nullptr &&
                    sched.loads + sched.unloads < fifo->cycles &&
                    sched.mean_s < fifo->mean_s && sched.p99_s < fifo->p99_s;
      }
      all_pass = all_pass && cell_pass;

      json::Object row;
      row["readers"] = json::Value(static_cast<std::int64_t>(readers));
      row["locality"] = json::Value(hot ? "tray_hot" : "uniform");
      row["reads"] = json::Value(
          static_cast<std::int64_t>(readers * reads_each));
      if (fifo != nullptr) {
        row["committed_fifo"] = CommittedFifoJson(*fifo);
      }
      row["scheduler"] = CellJson(sched);
      row["bytes_identical"] = json::Value(bytes_identical);
      row["gated"] = json::Value(gated);
      row["pass"] = json::Value(cell_pass);
      rows.push_back(json::Value(std::move(row)));
      if (!cell_pass) {
        std::fprintf(stderr,
                     "cell failed: readers=%d locality=%s "
                     "(bytes_identical=%d committed_fifo=%d)\n",
                     readers, hot ? "tray_hot" : "uniform",
                     bytes_identical ? 1 : 0, fifo != nullptr ? 1 : 0);
      }
    }
  }

  json::Array trace_rows;
  for (int readers : reader_counts) {
    TraceResult off;
    TraceResult on;
    if (!RunTrace(/*hints=*/false, readers, &off) ||
        !RunTrace(/*hints=*/true, readers, &on)) {
      return 1;
    }
    const bool bytes_identical = off.hashes == on.hashes;
    const bool no_demand_evictions =
        off.speculative_demand_evictions == 0 &&
        on.speculative_demand_evictions == 0;
    const bool gated = readers >= 8;
    bool cell_pass = bytes_identical && no_demand_evictions;
    if (gated) {
      cell_pass = cell_pass &&
                  on.loads + on.unloads < off.loads + off.unloads &&
                  on.p99_s < off.p99_s;
    }
    all_pass = all_pass && cell_pass;

    json::Object row;
    row["readers"] = json::Value(static_cast<std::int64_t>(readers));
    row["reads"] = json::Value(static_cast<std::int64_t>(
        readers * kTraceFilesPerStream *
        static_cast<int>((kTraceFileSize + kTraceChunk - 1) /
                         kTraceChunk)));
    row["hints_off"] = TraceModeJson(off);
    row["hints_on"] = TraceModeJson(on);
    row["bytes_identical"] = json::Value(bytes_identical);
    row["gated"] = json::Value(gated);
    row["pass"] = json::Value(cell_pass);
    trace_rows.push_back(json::Value(std::move(row)));
    if (!cell_pass) {
      std::fprintf(stderr,
                   "trace cell failed: readers=%d bytes_identical=%d "
                   "cycles(on=%llu off=%llu) p99(on=%g off=%g)\n",
                   readers, bytes_identical ? 1 : 0,
                   static_cast<unsigned long long>(on.loads + on.unloads),
                   static_cast<unsigned long long>(off.loads + off.unloads),
                   on.p99_s, off.p99_s);
    }
  }

  bool scan_pass = true;
  json::Value scan;
  if (!trace_only) {
    scan = ScanResistance(&scan_pass);
    all_pass = all_pass && scan_pass;
  }

  json::Object doc;
  doc["bench"] = json::Value("fetch_sched");
  doc["mode"] = json::Value(smoke ? "smoke" : "full");
  doc["rows"] = json::Value(std::move(rows));
  doc["trace_replay"] = json::Value(std::move(trace_rows));
  if (!trace_only) {
    doc["scan_resistance"] = std::move(scan);
  }
  doc["pass"] = json::Value(all_pass);
  bench::AddHostFigures(&doc);
  std::printf("%s\n", json::Value(std::move(doc)).DumpPretty().c_str());
  return all_pass ? 0 : 1;
}
