// Metadata store benchmark (DESIGN.md §5d + §5i): the log-structured MV
// measured API-to-API through the MetadataVolume drivers:
//
//   create    64 concurrent writers, group-committed into batched WAL
//             appends
//   stat      GetRef over a hot sample (decoded-index cache on)
//   readdir   ListChildren (keydir range scan)
//   count     index_count (O(1) keydir counter)
//
// Each op reports host wall-clock ops/s AND simulated seconds (the
// deterministic number CI can gate on), plus simulated p50/p99 latency for
// create and stat. Gate: create simulated seconds stay within 10% of the
// figure committed in BENCH_MV.json for that size. Differential mode: a
// cached and a cache-disabled store run the same randomized
// Put/Get/Remove/burst sequence with a mid-run snapshot/wipe/restore and
// must agree on every status code and every decoded byte; the cached store
// is then crash-replayed (re-attached from its volume) and must reproduce
// its own pre-crash views. Any divergence fails the run.
//
// Flags: --smoke (tiny sizes, CI), --scale (1M + 10M with RSS gate and
// recovery timing), --scale-smoke (1M, for the mv-scale-smoke CI job),
// --replay-check (double-run a small cell that flushes, compacts and
// re-attaches the store, with the sim::EventHasher divergence oracle
// installed; fails on any event-stream or namespace divergence, naming
// the first divergent event).
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/units.h"
#include "src/disk/block_device.h"
#include "src/disk/volume.h"
#include "src/olfs/index_file.h"
#include "src/olfs/metadata_volume.h"
#include "src/sim/event_hasher.h"
#include "src/sim/join.h"
#include "src/sim/simulator.h"

namespace {

using namespace ros;
// ros_analyze: allow(wallclock): host-side hot-path throughput timing;
// never feeds simulator state.
using Clock = std::chrono::steady_clock;

constexpr std::size_t kCreateWriters = 64;

// Create simulated seconds committed in BENCH_MV.json, by entry count
// (results rows up to 100k, scale rows above).
constexpr std::pair<std::size_t, double> kCommittedCreateSimS[] = {
    {10'000, 0.020494995},
    {100'000, 0.241616539},
    {1'000'000, 3.626539282},
    {10'000'000, 40.563946723},
};

// Sim time is deterministic; the headroom admits small model changes, not
// a regression of the commit path.
constexpr double kCreateSimHeadroom = 1.10;

// Upper bound on create simulated seconds at `n` entries: the committed
// figure of the nearest committed size at or above `n` (else the largest),
// scaled per entry.
double CreateSimBound(std::size_t n) {
  const auto* row = std::find_if(
      std::begin(kCommittedCreateSimS), std::end(kCommittedCreateSimS),
      [n](const auto& committed) { return n <= committed.first; });
  if (row == std::end(kCommittedCreateSimS)) {
    --row;
  }
  return row->second * static_cast<double>(n) /
         static_cast<double>(row->first) * kCreateSimHeadroom;
}

void CheckCreateSim(std::size_t n, double create_sim_s,
                    std::vector<std::string>* failures) {
  if (create_sim_s > CreateSimBound(n)) {
    failures->push_back("create sim seconds " + std::to_string(create_sim_s) +
                        " above bound " + std::to_string(CreateSimBound(n)) +
                        " at n=" + std::to_string(n));
  }
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Resident set from /proc/self/statm, for the scale-mode memory gate.
std::uint64_t CurrentRssBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  unsigned long pages = 0;
  unsigned long resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &pages, &resident);
  std::fclose(f);
  if (got != 2) {
    return 0;
  }
  return static_cast<std::uint64_t>(resident) *
         static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

// One MV stack, mirroring the paper's SSD metadata volume. The store can
// be re-attached (destroyed and rebuilt over the same volume) to measure
// crash recovery.
struct Fixture {
  Fixture(std::uint64_t capacity, std::size_t cache_capacity)
      : device(sim, "ssd", capacity, disk::SsdPerf()),
        volume(sim, &device, disk::MetadataVolumeParams()) {
    options.cache_capacity = cache_capacity;
    Reattach();
  }

  // Destroys the store object and attaches a fresh one over the same
  // volume contents — the crash model (host dies, SSD pair survives).
  void Reattach() {
    mv.reset();
    mv = std::make_unique<olfs::MetadataVolume>(sim, &volume, options);
  }

  sim::Simulator sim;
  disk::StorageDevice device;
  disk::Volume volume;
  olfs::MetadataVolume::Options options;
  std::unique_ptr<olfs::MetadataVolume> mv;
};

olfs::IndexFile MakeIndex(const std::string& path, std::uint64_t size) {
  olfs::IndexFile index(path, olfs::EntryType::kFile);
  olfs::VersionEntry entry;
  entry.total_size = size;
  entry.parts.push_back({"img-000042", size});
  index.AddVersion(std::move(entry), 15);
  return index;
}

// --- coroutine drivers (one RunUntilComplete per measured loop) ---

// One of kCreateWriters concurrent writers: strided slice of the paths,
// per-Put simulated latency recorded (group commit coalesces appends
// across writers).
sim::Task<Status> CreateShard(sim::Simulator* sim, olfs::MetadataVolume* mv,
                              const std::vector<std::string>* paths,
                              std::size_t first, std::size_t stride,
                              std::vector<double>* latencies_us) {
  for (std::size_t i = first; i < paths->size(); i += stride) {
    const sim::TimePoint start = sim->now();
    ROS_CO_RETURN_IF_ERROR(co_await mv->Put(MakeIndex((*paths)[i], 64)));
    latencies_us->push_back(sim::ToSeconds(sim->now() - start) * 1e6);
  }
  co_return OkStatus();
}

sim::Task<Status> CreateConcurrent(sim::Simulator* sim,
                                   olfs::MetadataVolume* mv,
                                   const std::vector<std::string>* paths,
                                   std::vector<double>* latencies_us) {
  std::vector<sim::Task<Status>> writers;
  const std::size_t stride =
      std::min(kCreateWriters, std::max<std::size_t>(1, paths->size()));
  writers.reserve(stride);
  for (std::size_t w = 0; w < stride; ++w) {
    writers.push_back(
        CreateShard(sim, mv, paths, w, stride, latencies_us));
  }
  co_return co_await sim::AllOk(*sim, std::move(writers));
}

sim::Task<Status> StatMany(sim::Simulator* sim,
                           const olfs::MetadataVolume* mv,
                           const std::vector<std::string>* paths,
                           std::vector<double>* latencies_us) {
  for (const std::string& path : *paths) {
    const sim::TimePoint start = sim->now();
    auto index = co_await mv->GetRef(path);
    if (!index.ok()) {
      co_return index.status();
    }
    if (latencies_us != nullptr) {
      latencies_us->push_back(sim::ToSeconds(sim->now() - start) * 1e6);
    }
  }
  co_return OkStatus();
}

// --- differential modes ---

olfs::IndexFile RandomIndex(Rng& rng, const std::string& path) {
  olfs::IndexFile index(path, rng.Chance(0.2)
                                  ? olfs::EntryType::kDirectory
                                  : olfs::EntryType::kFile);
  const int versions = static_cast<int>(rng.Below(3)) + 1;
  for (int v = 0; v < versions; ++v) {
    olfs::VersionEntry entry;
    entry.total_size = rng.Below(1 << 20);
    entry.tombstone = rng.Chance(0.1);
    const olfs::LocationKind kinds[] = {olfs::LocationKind::kBucket,
                                        olfs::LocationKind::kImage,
                                        olfs::LocationKind::kDisc};
    entry.location = kinds[rng.Below(3)];
    const int parts = static_cast<int>(rng.Below(2)) + 1;
    for (int p = 0; p < parts; ++p) {
      entry.parts.push_back(
          {"img-" + std::to_string(rng.Below(1000)),
           rng.Below(1 << 19)});
    }
    index.AddVersion(std::move(entry), 15);
  }
  if (rng.Chance(0.3)) {
    std::vector<std::uint8_t> forepart(rng.Below(32) + 1);
    for (auto& b : forepart) {
      b = static_cast<std::uint8_t>(rng.Next());
    }
    index.set_forepart(std::move(forepart));
  }
  return index;
}

sim::Task<Status> PutIndex(olfs::MetadataVolume* mv, olfs::IndexFile index) {
  co_return co_await mv->Put(std::move(index));
}

// Applies one operation to an MV, reducing the outcome to a comparable
// string: status code for failures, the re-encoded index bytes for reads.
// Puts take `indexes.front()`; a burst Puts all of them concurrently, so
// they share one group-commit window.
sim::Task<std::string> ApplyOp(sim::Simulator* sim, olfs::MetadataVolume* mv,
                               int op, std::string path,
                               std::vector<olfs::IndexFile> indexes) {
  std::string outcome;
  if (op == 0) {  // Put
    Status status = co_await mv->Put(std::move(indexes.front()));
    outcome = "put:";
    outcome += StatusCodeName(status.code());
  } else if (op == 1) {  // Get: the shared-ref fast path, then the value
                         // wrapper — both must agree with the plain MV.
    auto got = co_await mv->GetRef(path);
    outcome = "get:";
    if (got.ok()) {
      outcome += (*got)->ToJson();
    } else {
      outcome += StatusCodeName(got.status().code());
    }
    auto copy = co_await mv->Get(path);
    outcome += "|copy:";
    if (copy.ok()) {
      outcome += copy->ToJson();
    } else {
      outcome += StatusCodeName(copy.status().code());
    }
  } else if (op == 2) {  // Remove
    Status status = co_await mv->Remove(std::move(path));
    outcome = "rm:";
    outcome += StatusCodeName(status.code());
  } else {  // concurrent Put burst
    std::vector<sim::Task<Status>> burst;
    for (olfs::IndexFile& index : indexes) {
      burst.push_back(PutIndex(mv, std::move(index)));
    }
    Status status = co_await sim::AllOk(*sim, std::move(burst));
    outcome = "burst:";
    outcome += StatusCodeName(status.code());
  }
  co_return outcome;
}

// Everything a reader can observe of a store's namespace.
struct Views {
  std::uint64_t count = 0;
  std::vector<std::string> all_paths;
  std::vector<std::string> listings;  // per probed directory
  std::vector<std::string> reads;     // per path: the Get outcome
};

Views Capture(Fixture& f, const std::vector<std::string>& paths) {
  Views v;
  v.count = f.mv->index_count();
  v.all_paths = f.mv->AllPaths();
  for (const char* dir : {"/", "/diff", "/diff/d0", "/diff/d5"}) {
    std::string listing = f.mv->HasChildren(dir) ? "has:" : "none:";
    for (const std::string& child : f.mv->ListChildren(dir)) {
      listing += child + ",";
    }
    v.listings.push_back(std::move(listing));
  }
  for (const std::string& path : paths) {
    v.reads.push_back(f.sim.RunUntilComplete(
        ApplyOp(&f.sim, f.mv.get(), 1, path, {})));
  }
  return v;
}

// Appends human-readable mismatches between two captures.
void CompareViews(const Views& a, const Views& b, const std::string& tag,
                  const std::vector<std::string>& paths,
                  std::vector<std::string>* mismatches) {
  if (a.count != b.count) {
    mismatches->push_back(tag + ": index_count diverged");
  }
  if (a.all_paths != b.all_paths) {
    mismatches->push_back(tag + ": AllPaths diverged");
  }
  if (a.listings != b.listings) {
    mismatches->push_back(tag + ": ListChildren/HasChildren diverged");
  }
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (a.reads[i] != b.reads[i]) {
      mismatches->push_back(tag + ": read of " + paths[i] + " diverged");
    }
  }
}

// Runs the same randomized operation sequence against a small cached MV
// and a cache-disabled MV; every op outcome and every namespace view must
// match. Then crash-replays the cached store: the re-attached store must
// reproduce its own pre-crash views. Returns mismatches (empty = identical).
std::vector<std::string> RunDifferential(std::uint64_t seed, int ops) {
  constexpr std::size_t kPaths = 64;
  constexpr std::size_t kSmallCache = 32;  // < kPaths, to force evictions
  Fixture cached(256 * kMiB, kSmallCache);
  Fixture plain(256 * kMiB, 0);
  std::vector<std::string> mismatches;

  Rng rng(seed);
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < kPaths; ++i) {
    paths.push_back("/diff/d" + std::to_string(i % 8) + "/f" +
                    std::to_string(i));
  }

  for (int i = 0; i < ops; ++i) {
    const std::string& path = paths[rng.Below(paths.size())];
    const int op = static_cast<int>(rng.Below(10));
    // op 0-3: Put, 4-6: Get, 7: Remove, 8-9: concurrent Put burst.
    int kind = 0;
    if (op >= 4 && op <= 6) {
      kind = 1;
    } else if (op == 7) {
      kind = 2;
    } else if (op >= 8) {
      kind = 3;
    }
    std::vector<olfs::IndexFile> indexes = {RandomIndex(rng, path)};
    if (kind == 3) {
      const std::size_t extra = 1 + rng.Below(4);
      for (std::size_t j = 0; j < extra; ++j) {
        indexes.push_back(
            RandomIndex(rng, paths[rng.Below(paths.size())]));
      }
    }
    const std::string a = cached.sim.RunUntilComplete(
        ApplyOp(&cached.sim, cached.mv.get(), kind, path, indexes));
    const std::string b = plain.sim.RunUntilComplete(
        ApplyOp(&plain.sim, plain.mv.get(), kind, path, indexes));
    if (a != b) {
      mismatches.push_back("op " + std::to_string(i) + " on " + path +
                           ": cached=" + a + " plain=" + b);
    }
    if (cached.mv->cache_size() > kSmallCache) {
      mismatches.push_back("cache exceeded its bound at op " +
                           std::to_string(i));
    }

    if (i == ops / 2) {
      // Mid-sequence: snapshot, wipe, restore — both MVs go through the
      // same transform and must come back identical.
      for (Fixture* f : {&cached, &plain}) {
        auto snapshot = f->sim.RunUntilComplete(
            f->mv->BuildSnapshotImage("mv-snap", 256 * kMiB));
        if (!snapshot.ok()) {
          mismatches.push_back("snapshot failed: " +
                               snapshot.status().ToString());
          continue;
        }
        f->mv->WipeAll();
        Status restored =
            f->sim.RunUntilComplete(f->mv->RestoreFromSnapshot(*snapshot));
        if (!restored.ok()) {
          mismatches.push_back("restore failed: " + restored.ToString());
        }
      }
    }
  }

  // Final sweep: namespace views and every decoded index must agree.
  const Views before_crash = Capture(cached, paths);
  CompareViews(before_crash, Capture(plain, paths), "cached-vs-plain", paths,
               &mismatches);
  if (cached.mv->cache_stats().evictions == 0) {
    mismatches.push_back(
        "expected LRU evictions with 64 paths in a 32-entry cache");
  }

  // Crash-replay: drop the store object mid-life (acked mutations only —
  // RunUntilComplete returned for each), re-attach from the volume, and
  // replay. The recovered store must match what it showed before.
  cached.Reattach();
  Status opened = cached.sim.RunUntilComplete(cached.mv->Open());
  if (!opened.ok()) {
    mismatches.push_back("recovery open failed: " + opened.ToString());
  }
  CompareViews(before_crash, Capture(cached, paths), "replayed", paths,
               &mismatches);
  return mismatches;
}

// --- measured sections ---

json::Value OpRow(const std::string& op, double ops_s, double sim_s) {
  json::Object o;
  o["op"] = op;
  o["ops_s"] = ops_s;
  o["sim_s"] = sim_s;
  return o;
}

json::Value ToJson(const SummaryStats& s) {
  json::Object o;
  o["p50_us"] = s.p50;
  o["p99_us"] = s.p99;
  o["mean_us"] = s.mean;
  o["max_us"] = s.max;
  return o;
}

std::vector<std::string> MakePaths(std::size_t n) {
  const std::size_t dirs = std::max<std::size_t>(1, n / 256);
  std::vector<std::string> paths;
  paths.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    paths.push_back("/bench/d" + std::to_string(i % dirs) + "/f" +
                    std::to_string(i / dirs));
  }
  return paths;
}

// Everything measured at one size.
struct Run {
  double create_ops_s = 0;
  double create_sim_s = 0;
  SummaryStats create_lat;
  double stat_ops_s = 0;
  double stat_sim_s = 0;
  SummaryStats stat_lat;
  double readdir_ops_s = 0;
  double count_ops_s = 0;
  double snapshot_entries_s = 0;
  olfs::MetadataVolume::CacheStats cache;
  olfs::MetadataVolume::StoreStats store;
  bool ok = false;
};

Run Measure(std::size_t n, std::size_t stat_sample, int stat_rounds,
            int readdir_calls, int count_calls) {
  Run out;
  const std::size_t dirs = std::max<std::size_t>(1, n / 256);
  const std::uint64_t capacity =
      static_cast<std::uint64_t>(n) * 4 * kKiB + 64 * kMiB;
  Fixture fx(capacity, olfs::MetadataVolume::kDefaultCacheCapacity);
  const std::vector<std::string> paths = MakePaths(n);

  {
    std::vector<double> latencies_us;
    latencies_us.reserve(n);
    const sim::TimePoint sim_start = fx.sim.now();
    auto start = Clock::now();
    Status status = fx.sim.RunUntilComplete(
        CreateConcurrent(&fx.sim, fx.mv.get(), &paths, &latencies_us));
    if (!status.ok()) {
      std::fprintf(stderr, "create failed: %s\n", status.ToString().c_str());
      return out;
    }
    out.create_ops_s = static_cast<double>(n) / SecondsSince(start);
    out.create_sim_s = sim::ToSeconds(fx.sim.now() - sim_start);
    out.create_lat = Summarize(std::move(latencies_us));
  }

  // Hot stat set: a uniform sample of paths, revisited every round;
  // best-of-rounds host timing so a scheduler hiccup doesn't skew ratios.
  std::vector<std::string> sample_paths;
  const std::size_t stride = std::max<std::size_t>(1, n / stat_sample);
  for (std::size_t i = 0; i < n; i += stride) {
    sample_paths.push_back(paths[i]);
  }
  const double stat_ops = static_cast<double>(sample_paths.size());
  {
    Status warm = fx.sim.RunUntilComplete(
        StatMany(&fx.sim, fx.mv.get(), &sample_paths, nullptr));
    if (!warm.ok()) {
      std::fprintf(stderr, "stat warmup failed: %s\n",
                   warm.ToString().c_str());
      return out;
    }
  }
  std::vector<double> stat_lat_us;
  for (int r = 0; r < stat_rounds; ++r) {
    stat_lat_us.clear();
    stat_lat_us.reserve(sample_paths.size());
    const sim::TimePoint sim_start = fx.sim.now();
    auto start = Clock::now();
    Status status = fx.sim.RunUntilComplete(
        StatMany(&fx.sim, fx.mv.get(), &sample_paths, &stat_lat_us));
    if (!status.ok()) {
      std::fprintf(stderr, "stat failed: %s\n", status.ToString().c_str());
      return out;
    }
    out.stat_ops_s = std::max(out.stat_ops_s, stat_ops / SecondsSince(start));
    out.stat_sim_s = sim::ToSeconds(fx.sim.now() - sim_start);
  }
  out.stat_lat = Summarize(std::move(stat_lat_us));

  {
    std::size_t entries_seen = 0;
    auto start = Clock::now();
    for (int i = 0; i < readdir_calls; ++i) {
      entries_seen +=
          fx.mv->ListChildren("/bench/d" + std::to_string(i % dirs)).size();
    }
    out.readdir_ops_s = readdir_calls / SecondsSince(start);
    if (entries_seen == 0) {
      std::fprintf(stderr, "readdir saw no entries\n");
      return out;
    }
  }

  {
    auto start = Clock::now();
    std::uint64_t total = 0;
    for (int i = 0; i < count_calls; ++i) {
      total += fx.mv->index_count();
    }
    out.count_ops_s = count_calls / SecondsSince(start);
    if (total != static_cast<std::uint64_t>(n) * count_calls) {
      std::fprintf(stderr, "index_count mismatch\n");
      return out;
    }
  }

  {
    auto start = Clock::now();
    auto snapshot = fx.sim.RunUntilComplete(
        fx.mv->BuildSnapshotImage("mv-bench-snap", capacity));
    if (!snapshot.ok()) {
      std::fprintf(stderr, "snapshot build failed: %s\n",
                   snapshot.status().ToString().c_str());
      return out;
    }
    out.snapshot_entries_s = static_cast<double>(n) / SecondsSince(start);
  }

  out.cache = fx.mv->cache_stats();
  out.store = fx.mv->store_stats();
  out.ok = true;
  return out;
}

// Scale run: create at scale, stat a sample, then crash-replay the
// whole store and time recovery. Gates (deterministic or stable only):
// RSS per entry bounded, memtable bounded, recovered count exact.
json::Value RunScale(std::size_t n, std::vector<std::string>* failures) {
  json::Object row;
  row["entries"] = json::Value(static_cast<std::int64_t>(n));
  const std::uint64_t capacity =
      static_cast<std::uint64_t>(n) * 1 * kKiB + 512 * kMiB;
  Fixture fx(capacity, olfs::MetadataVolume::kDefaultCacheCapacity);
  const std::vector<std::string> paths = MakePaths(n);
  const std::uint64_t rss_before = CurrentRssBytes();

  {
    std::vector<double> latencies_us;
    latencies_us.reserve(n);
    const sim::TimePoint sim_start = fx.sim.now();
    auto start = Clock::now();
    Status status = fx.sim.RunUntilComplete(
        CreateConcurrent(&fx.sim, fx.mv.get(), &paths, &latencies_us));
    if (!status.ok()) {
      failures->push_back("scale create failed: " + status.ToString());
      return json::Value(std::move(row));
    }
    row["create_ops_s"] =
        json::Value(static_cast<double>(n) / SecondsSince(start));
    const double create_sim_s = sim::ToSeconds(fx.sim.now() - sim_start);
    row["create_sim_s"] = json::Value(create_sim_s);
    CheckCreateSim(n, create_sim_s, failures);
    row["create_latency"] = ToJson(Summarize(std::move(latencies_us)));
  }

  {
    std::vector<std::string> sample;
    const std::size_t stride = std::max<std::size_t>(1, n / 2048);
    for (std::size_t i = 0; i < n; i += stride) {
      sample.push_back(paths[i]);
    }
    std::vector<double> lat_us;
    lat_us.reserve(sample.size());
    auto start = Clock::now();
    Status status = fx.sim.RunUntilComplete(
        StatMany(&fx.sim, fx.mv.get(), &sample, &lat_us));
    if (!status.ok()) {
      failures->push_back("scale stat failed: " + status.ToString());
      return json::Value(std::move(row));
    }
    row["stat_ops_s"] = json::Value(static_cast<double>(sample.size()) /
                                    SecondsSince(start));
    row["stat_latency"] = ToJson(Summarize(std::move(lat_us)));
  }

  // O(1) count: microseconds regardless of n.
  {
    auto start = Clock::now();
    std::uint64_t total = 0;
    for (int i = 0; i < 1024; ++i) {
      total += fx.mv->index_count();
    }
    row["count_ops_s"] = json::Value(1024.0 / SecondsSince(start));
    if (total != static_cast<std::uint64_t>(n) * 1024) {
      failures->push_back("scale index_count mismatch");
    }
  }

  const auto store = fx.mv->store_stats();
  row["segment_count"] =
      json::Value(static_cast<std::int64_t>(store.segment_count));
  row["segment_bytes"] =
      json::Value(static_cast<std::int64_t>(store.segment_bytes));
  row["memtable_bytes"] =
      json::Value(static_cast<std::int64_t>(store.memtable_bytes));
  row["memtable_flushes"] =
      json::Value(static_cast<std::int64_t>(store.memtable_flushes));
  row["compactions"] =
      json::Value(static_cast<std::int64_t>(store.compactions));
  row["wal_batches"] =
      json::Value(static_cast<std::int64_t>(store.wal.batches_committed));
  row["wal_records"] =
      json::Value(static_cast<std::int64_t>(store.wal.records_appended));

  const std::uint64_t rss_after = CurrentRssBytes();
  const double rss_per_entry =
      n > 0 ? static_cast<double>(rss_after - rss_before) /
                  static_cast<double>(n)
            : 0.0;
  row["rss_mb"] = json::Value(static_cast<double>(rss_after) / (1 << 20));
  row["rss_bytes_per_entry"] = json::Value(rss_per_entry);
  // Keydir + keys + simulated device bytes + transient memtable. 4 KiB per
  // entry would mean something is retaining whole generations; the real
  // footprint is a few hundred bytes.
  if (rss_before > 0 && rss_per_entry > 4096.0) {
    failures->push_back("scale RSS gate: " + std::to_string(rss_per_entry) +
                        " bytes/entry at n=" + std::to_string(n));
  }
  // The active memtable must stay bounded by the flush threshold plus one
  // frozen generation regardless of n.
  if (store.memtable_bytes > 2 * 8 * kMiB) {
    failures->push_back("scale memtable unbounded: " +
                        std::to_string(store.memtable_bytes) + " bytes");
  }

  // Crash-replay the whole store: everything above was acked, so the
  // re-attached store must recover every entry. Replay is near-linear in
  // the store's byte size (segments stream + WAL tail).
  {
    fx.Reattach();
    const sim::TimePoint sim_start = fx.sim.now();
    auto start = Clock::now();
    Status opened = fx.sim.RunUntilComplete(fx.mv->Open());
    if (!opened.ok()) {
      failures->push_back("scale recovery failed: " + opened.ToString());
      return json::Value(std::move(row));
    }
    row["recovery_host_s"] = json::Value(SecondsSince(start));
    row["recovery_sim_s"] =
        json::Value(sim::ToSeconds(fx.sim.now() - sim_start));
    const auto recovered = fx.mv->store_stats();
    row["recovered_segments"] =
        json::Value(static_cast<std::int64_t>(recovered.recovered_segments));
    row["replayed_wal_records"] = json::Value(
        static_cast<std::int64_t>(recovered.replayed_wal_records));
    if (fx.mv->index_count() != n) {
      failures->push_back(
          "scale recovery lost entries: " +
          std::to_string(fx.mv->index_count()) + " of " + std::to_string(n));
    }
  }
  return json::Value(std::move(row));
}

// --- determinism: double-run a flush + compaction + re-attach cell ---

struct ReplayResult {
  std::uint64_t flushes = 0;
  std::uint64_t compactions = 0;
  Views views;  // after the re-attach
};

// Three rounds of concurrent creates over one path set (later rounds
// overwrite, leaving garbage for the compactor), a removal of every 7th
// path, a background drain, then a crash re-attach and replay. The
// thresholds are small so the cell flushes and compacts many times.
bool RunReplayCell(sim::EventHasher* hasher, ReplayResult* out) {
  Fixture fx(64 * kMiB, 256);
  fx.sim.set_event_hasher(hasher);
  fx.options.memtable_flush_bytes = 64 * kKiB;
  fx.options.compact_min_segments = 2;
  fx.options.compact_fan_in = 2;
  fx.Reattach();
  const std::vector<std::string> paths = MakePaths(2000);
  for (int round = 0; round < 3; ++round) {
    std::vector<double> latencies_us;
    Status status = fx.sim.RunUntilComplete(
        CreateConcurrent(&fx.sim, fx.mv.get(), &paths, &latencies_us));
    if (!status.ok()) {
      std::fprintf(stderr, "replay cell create failed: %s\n",
                   status.ToString().c_str());
      return false;
    }
  }
  for (std::size_t i = 0; i < paths.size(); i += 7) {
    const std::string removed = fx.sim.RunUntilComplete(
        ApplyOp(&fx.sim, fx.mv.get(), 2, paths[i], {}));
    if (removed != "rm:OK") {
      std::fprintf(stderr, "replay cell remove failed: %s\n",
                   removed.c_str());
      return false;
    }
  }
  fx.sim.RunFor(sim::Seconds(10));  // drain flushes and compactions
  const olfs::MetadataVolume::StoreStats store = fx.mv->store_stats();
  out->flushes = store.memtable_flushes;
  out->compactions = store.compactions;

  fx.Reattach();
  Status opened = fx.sim.RunUntilComplete(fx.mv->Open());
  if (!opened.ok()) {
    std::fprintf(stderr, "replay cell recovery failed: %s\n",
                 opened.ToString().c_str());
    return false;
  }
  std::vector<std::string> sample;
  for (std::size_t i = 0; i < paths.size(); i += 5) {
    sample.push_back(paths[i]);
  }
  out->views = Capture(fx, sample);
  return true;
}

int ReplayCheck() {
  sim::EventHasher record;
  ReplayResult first;
  if (!RunReplayCell(&record, &first)) {
    return 1;
  }
  sim::EventHasher check(record.trail());
  ReplayResult second;
  if (!RunReplayCell(&check, &second)) {
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
  if (first.flushes == 0 || first.compactions == 0) {
    std::fprintf(stderr, "replay cell ran %llu flushes and %llu compactions; "
                 "it must cover both\n",
                 static_cast<unsigned long long>(first.flushes),
                 static_cast<unsigned long long>(first.compactions));
    return 1;
  }
  std::vector<std::string> mismatches;
  std::vector<std::string> sample(first.views.reads.size());
  CompareViews(first.views, second.views, "replay", sample, &mismatches);
  if (first.flushes != second.flushes ||
      first.compactions != second.compactions || !mismatches.empty()) {
    std::fprintf(stderr,
                 "REPLAY DIVERGENCE: identical event stream but different "
                 "store state\n");
    return 1;
  }
  std::printf("{\"bench\": \"mv_hotpath\", \"mode\": \"replay_check\", "
              "\"memtable_flushes\": %llu, \"compactions\": %llu, "
              "\"replay_events\": %llu, \"replay_digest\": \"%016llx\", "
              "\"pass\": true}\n",
              static_cast<unsigned long long>(first.flushes),
              static_cast<unsigned long long>(first.compactions),
              static_cast<unsigned long long>(check.event_count()),
              static_cast<unsigned long long>(check.digest()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool scale = false;
  bool scale_smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--scale") == 0) {
      scale = true;
    } else if (std::strcmp(argv[i], "--scale-smoke") == 0) {
      scale_smoke = true;
    } else if (std::strcmp(argv[i], "--replay-check") == 0) {
      return ReplayCheck();
    }
  }

  std::vector<std::string> failures;
  json::Object doc;
  doc["bench"] = json::Value("mv_hotpath");

  if (scale || scale_smoke) {
    std::vector<std::size_t> sizes =
        scale_smoke ? std::vector<std::size_t>{1'000'000}
                    : std::vector<std::size_t>{1'000'000, 10'000'000};
    json::Array rows;
    for (const std::size_t n : sizes) {
      rows.push_back(RunScale(n, &failures));
    }
    doc["scale"] = json::Value(std::move(rows));
    // Quick differential keeps the ASan CI job honest about correctness,
    // not just throughput.
    const std::vector<std::string> diff =
        RunDifferential(/*seed=*/0xd1ffu, 200);
    failures.insert(failures.end(), diff.begin(), diff.end());
  } else {
    const std::vector<std::size_t> sizes =
        smoke ? std::vector<std::size_t>{1000}
              : std::vector<std::size_t>{10'000, 100'000};
    const std::size_t stat_sample = smoke ? 256 : 2048;
    const int stat_rounds = smoke ? 4 : 8;
    const int readdir_calls = smoke ? 16 : 64;
    const int count_calls = smoke ? 4 : 16;

    json::Array size_results;
    for (const std::size_t n : sizes) {
      const Run run =
          Measure(n, stat_sample, stat_rounds, readdir_calls, count_calls);
      if (!run.ok) {
        return 1;
      }
      CheckCreateSim(n, run.create_sim_s, &failures);

      json::Object row;
      row["entries"] = json::Value(static_cast<std::int64_t>(n));
      json::Array ops;
      ops.push_back(OpRow("create", run.create_ops_s, run.create_sim_s));
      ops.push_back(OpRow("stat", run.stat_ops_s, run.stat_sim_s));
      ops.push_back(OpRow("readdir", run.readdir_ops_s, 0.0));
      ops.push_back(OpRow("index_count", run.count_ops_s, 0.0));
      row["ops"] = json::Value(std::move(ops));
      row["create_latency"] = ToJson(run.create_lat);
      row["stat_latency"] = ToJson(run.stat_lat);
      row["snapshot_build_entries_s"] = json::Value(run.snapshot_entries_s);
      json::Object cache;
      cache["hits"] = json::Value(static_cast<std::int64_t>(run.cache.hits));
      cache["misses"] =
          json::Value(static_cast<std::int64_t>(run.cache.misses));
      cache["evictions"] =
          json::Value(static_cast<std::int64_t>(run.cache.evictions));
      row["cache"] = json::Value(std::move(cache));
      json::Object store;
      store["wal_batches"] = json::Value(
          static_cast<std::int64_t>(run.store.wal.batches_committed));
      store["wal_records"] = json::Value(
          static_cast<std::int64_t>(run.store.wal.records_appended));
      store["segment_count"] =
          json::Value(static_cast<std::int64_t>(run.store.segment_count));
      store["memtable_flushes"] =
          json::Value(static_cast<std::int64_t>(run.store.memtable_flushes));
      store["compactions"] =
          json::Value(static_cast<std::int64_t>(run.store.compactions));
      row["store"] = json::Value(std::move(store));
      size_results.push_back(json::Value(std::move(row)));
    }
    doc["results"] = json::Value(std::move(size_results));

    const std::vector<std::string> diff =
        RunDifferential(/*seed=*/0x5eedu, smoke ? 200 : 600);
    failures.insert(failures.end(), diff.begin(), diff.end());
  }

  for (const std::string& f : failures) {
    std::fprintf(stderr, "mv_hotpath failure: %s\n", f.c_str());
  }
  doc["differential_identical"] = json::Value(failures.empty());
  bench::AddHostFigures(&doc);
  std::printf("%s\n", json::Value(std::move(doc)).DumpPretty().c_str());
  return failures.empty() ? 0 : 1;
}
