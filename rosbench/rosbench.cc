// rosbench: the end-to-end benchmark of one simulated single-rack ROS,
// driven through the olfs::Olfs POSIX interface (PI) and measured on two
// clocks.
//
//   sim clock   what the modelled rack would do (latency, throughput,
//               mechanical cycles). Deterministic: a fixed seed gives
//               bit-identical figures and the same sim::EventHasher digest.
//   host clock  what the software costs to run (set-up time, wall time of
//               the measured phase less the benchmark's own checks of read
//               bytes, peak RSS).
//
// One process, one thread. Clients are closed-loop coroutines in the
// single-threaded sim::Simulator: archival jobs wait for each reply before
// sending the next request. The rack runs default OlfsParams; only
// capacity and deployment values are set (SystemConfig sizes,
// disc_capacity_override, read_cache_bytes).
//
// Workloads (each stresses a different layer):
//   ingest        4 writers Create 64 KiB-2 MiB files beside 4 small-file
//                 clients that Create 0.5-8 KiB files, Stat, Read recent
//                 files and ReadDir, with periodic Checkpoints; then
//                 FlushAndDrain burns every byte with parity and audit
//                 manifests.
//   cold_read     an archive staged on discs only; 8 scan-tagged readers
//                 issue 64 KiB reads, 80% to the hot last fifth of files.
//   scrub_repair  a staged archive with one damaged data member per
//                 array; ScrubManager::RunPass and RunAudit run beside 2
//                 foreground readers of the hot last fifth.
//
// A run repeats the workload in rounds, each on a freshly built rack with
// the same seed, until --seconds of host time have passed. Round 0 warms
// the process up; host figures are medians over the later rounds. Every
// round must replay round 0's event stream exactly (EventHasher in check
// mode) and reproduce its sim-clock figures, or the run is incorrect.
//
// Every read is checked byte for byte against a payload that is a
// seekable function of (seed, file, offset). A wrong byte fails the run;
// an operation that returns an error counts in `failed`.
//
// With --trace 1 the benchmark records a span around every client op and
// every top-level call, writes them with a per-layer summary as Chrome
// trace-event JSON (--trace-out), and prints the per-layer metrics.
//
// The metadata clients ride in ingest rather than in a workload of their
// own: on a shared host the metadata path's host time swings with the
// co-tenants' load about twice as much as the serialize and parity path
// does, and runs of it alone did not repeat within the host_wall_s bound.
//
// Usage:
//   rosbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--trace-out <file>]
// Stdout holds two JSON lines: a detail object (replay digest, rounds,
// every sim figure) and, last, the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/gf256.h"
#include "src/common/hash.h"
#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/units.h"
#include "src/olfs/audit.h"
#include "src/olfs/maintenance.h"
#include "src/olfs/olfs.h"
#include "src/sim/event_hasher.h"
#include "src/sim/join.h"
#include "src/sim/time.h"
#include "src/udf/serializer.h"

namespace {

using namespace ros;

// ---------------------------------------------------------------------------
// Host clock: the one place the benchmark reads wall-clock time.

// ros_analyze: allow(wallclock): host-clock metrics of the benchmark
// itself (set-up, measured phase, span host times); never feeds simulator
// state.
using HostClock = std::chrono::steady_clock;

// Seconds since a fixed, arbitrary origin. Every host-clock figure the
// benchmark reports is a difference of two calls.
double HostSeconds() {
  return std::chrono::duration<double>(HostClock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

// ---------------------------------------------------------------------------
// Payloads: byte i of file f is a pure function of (seed, f, i), so a read
// of any range is checked in O(bytes read).

std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t FileKey(std::uint64_t seed, std::uint64_t file) {
  return Mix64(seed ^ Mix64(file ^ 0x5EEDF11Eull));
}

void FillPayload(std::uint64_t key, std::uint64_t offset, std::uint8_t* out,
                 std::size_t n) {
  std::size_t i = 0;
  while (i < n) {
    const std::uint64_t pos = offset + i;
    const std::uint64_t word = Mix64(key ^ (pos >> 3));
    std::uint8_t bytes[8];
    std::memcpy(bytes, &word, sizeof(bytes));
    const std::size_t start = pos & 7;
    const std::size_t take = std::min<std::size_t>(8 - start, n - i);
    std::memcpy(out + i, bytes + start, take);
    i += take;
  }
}

std::vector<std::uint8_t> Payload(std::uint64_t key, std::uint64_t offset,
                                  std::uint64_t n) {
  std::vector<std::uint8_t> out(n);
  FillPayload(key, offset, out.data(), out.size());
  return out;
}

// Checks `got` against payload bytes [offset, offset + got.size()) of file
// `key` a word at a time, without materializing the expected bytes.
bool PayloadMatches(std::uint64_t key, std::uint64_t offset,
                    const std::vector<std::uint8_t>& got) {
  const std::size_t n = got.size();
  if (n == 0) {
    return true;
  }
  std::uint8_t edge[8];
  const std::size_t head = std::min<std::size_t>(n, (8 - (offset & 7)) & 7);
  FillPayload(key, offset, edge, head);
  if (std::memcmp(edge, got.data(), head) != 0) {
    return false;
  }
  std::size_t i = head;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, got.data() + i, sizeof(word));
    if (word != Mix64(key ^ ((offset + i) >> 3))) {
      return false;
    }
  }
  FillPayload(key, offset + i, edge, n - i);
  return std::memcmp(edge, got.data() + i, n - i) == 0;
}

// `n` sizes in [lo, hi], one per stratum of the range, in seeded order:
// every seed gets a different order and jitter but nearly the same total,
// so host and sim figures do not swing with the seed's total bytes.
std::vector<std::uint64_t> StratifiedSizes(Rng* rng, std::size_t n,
                                           std::uint64_t lo,
                                           std::uint64_t hi) {
  std::vector<std::uint64_t> sizes(n);
  const double width = static_cast<double>(hi - lo);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = (static_cast<double>(i) + rng->NextDouble()) /
                     static_cast<double>(n);
    sizes[i] = lo + static_cast<std::uint64_t>(u * width);
  }
  for (std::size_t i = n - 1; i > 0; --i) {
    std::swap(sizes[i], sizes[rng->Below(i + 1)]);
  }
  return sizes;
}

std::string FilePath(const char* root, std::size_t file) {
  return std::string(root) + "/d" + std::to_string(file / 50) + "/f" +
         std::to_string(file);
}

// A workload's seeded files (directories of 50 under `root`) and which of
// their Creates were acked.
struct FileSet {
  const char* root = "";
  std::vector<std::uint64_t> sizes;
  std::vector<std::uint64_t> keys;
  std::vector<bool> acked;
  std::uint64_t acked_bytes = 0;

  std::string Path(std::size_t file) const { return FilePath(root, file); }
  void Ack(std::size_t file) {
    acked[file] = true;
    acked_bytes += sizes[file];
  }
};

FileSet MakeFiles(const char* root, std::uint64_t seed, std::size_t n,
                  std::uint64_t lo, std::uint64_t hi) {
  FileSet f;
  f.root = root;
  Rng rng(Mix64(seed ^ Mix64(n)));
  f.sizes = StratifiedSizes(&rng, n, lo, hi);
  for (std::size_t i = 0; i < n; ++i) {
    f.keys.push_back(FileKey(seed, i));
  }
  f.acked.assign(n, false);
  return f;
}

std::vector<std::vector<std::uint8_t>> MakePayloads(const FileSet& f) {
  std::vector<std::vector<std::uint8_t>> out;
  for (std::size_t i = 0; i < f.sizes.size(); ++i) {
    out.push_back(Payload(f.keys[i], 0, f.sizes[i]));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Spans (traced runs only).

struct Span {
  const char* name = "";
  int client = 0;  // -1: a top-level call of the benchmark itself
  std::uint64_t op = 0;
  sim::TimePoint sim_start = 0;
  sim::TimePoint sim_end = 0;
  double host_start = 0;
  double host_end = 0;
};

enum class OpKind { kWrite, kRead, kMeta };

// Measurement state of one round, shared by its clients.
struct Phase {
  sim::Simulator* sim = nullptr;
  olfs::Olfs* olfs = nullptr;
  bool tracing = false;
  std::vector<Span> spans;
  std::vector<double> latency[3];  // sim seconds of successful ops, by kind
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;  // reads or stats that returned wrong data
  std::uint64_t next_op = 0;
  double check_s = 0;  // host seconds spent checking read bytes
};

// Checks a read's bytes and counts a mismatch in `wrong`. The check's host
// time is kept out of host_wall_s: it is the benchmark's cost, not the
// program's, and on cold_read's 64 KiB reads it is a large share of the
// measured phase.
bool CheckRead(Phase* phase, std::uint64_t key, std::uint64_t offset,
               std::uint64_t size, const std::vector<std::uint8_t>& got) {
  const double t = HostSeconds();
  const bool ok = got.size() == size && PayloadMatches(key, offset, got);
  phase->check_s += HostSeconds() - t;
  if (!ok) {
    ++phase->wrong;
  }
  return ok;
}

struct OpStart {
  std::uint64_t op = 0;
  sim::TimePoint sim = 0;
  double host = 0;
};

OpStart Begin(Phase* phase) {
  OpStart s;
  s.op = phase->next_op++;
  s.sim = phase->sim->now();
  s.host = phase->tracing ? HostSeconds() : 0.0;
  return s;
}

// Closes one op: counts it, records its latency when it succeeded, and
// keeps its span when tracing.
void End(Phase* phase, const OpStart& s, OpKind kind, const char* name,
         int client, bool ok) {
  ++phase->attempted;
  if (ok) {
    phase->latency[static_cast<int>(kind)].push_back(
        sim::ToSeconds(phase->sim->now() - s.sim));
  } else {
    ++phase->failed;
  }
  if (phase->tracing) {
    phase->spans.push_back({name, client, s.op, s.sim, phase->sim->now(),
                            s.host, HostSeconds()});
  }
}

// A top-level call of the benchmark (drain, checkpoint, scrub pass, audit,
// verification): traced like an op, but its latency is no client's.
void EndCall(Phase* phase, const OpStart& s, const char* name, bool ok) {
  ++phase->attempted;
  if (!ok) {
    ++phase->failed;
  }
  if (phase->tracing) {
    phase->spans.push_back({name, -1, s.op, s.sim, phase->sim->now(), s.host,
                            HostSeconds()});
  }
}

// ---------------------------------------------------------------------------
// The rack.

struct Rack {
  Rack(const olfs::SystemConfig& config, const olfs::OlfsParams& params,
       sim::EventHasher* hasher)
      : sim(std::make_unique<sim::Simulator>()) {
    sim->set_event_hasher(hasher);
    system = std::make_unique<olfs::RosSystem>(*sim, config);
    olfs = std::make_unique<olfs::Olfs>(*sim, system.get(), params);
  }
  // Suspended frames borrow the facade and the devices: drop them first.
  ~Rack() { sim->Shutdown(); }
  Rack(const Rack&) = delete;
  Rack& operator=(const Rack&) = delete;

  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<olfs::RosSystem> system;
  std::unique_ptr<olfs::Olfs> olfs;
};

olfs::SystemConfig RackConfig() {
  olfs::SystemConfig config = olfs::TestSystemConfig();
  config.drive_sets = 2;  // two 12-drive bays
  config.ssd_capacity = 1 * kGiB;
  return config;
}

// ---------------------------------------------------------------------------
// Per-layer counters, read through public accessors before and after the
// measured phase.

struct LayerSnapshot {
  std::uint64_t events = 0;
  olfs::MetadataVolume::StoreStats mv;
  olfs::MetadataVolume::CacheStats mv_cache;
  std::uint64_t mv_device_written = 0;
  std::uint64_t buffer_written = 0;
  std::uint64_t buffer_read = 0;
  int buckets = 0;
  std::uint64_t images = 0;
  int arrays_burned = 0;
  int burn_retries = 0;
  std::uint64_t drive_burned = 0;
  std::uint64_t drive_read = 0;
  sim::Duration drive_busy = 0;
  sim::Duration plc_busy = 0;
  std::uint64_t loads = 0;
  std::uint64_t unloads = 0;
  std::uint64_t roots_built = 0;
  olfs::FetchSchedulerStats fetch;
  std::uint64_t fetch_retries = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t ghost_hits = 0;
  std::uint64_t shared_reads = 0;
  std::uint64_t reconstructions = 0;
  std::uint64_t degraded_reads = 0;
  std::uint64_t scrub_bytes = 0;
  std::uint64_t scrub_repairs = 0;
  std::uint64_t refresh_burns = 0;
  std::uint64_t arrays_refreshed = 0;
  std::uint64_t audit_mismatches = 0;
};

LayerSnapshot Snapshot(Rack* rack) {
  olfs::Olfs& o = *rack->olfs;
  olfs::RosSystem& sys = *rack->system;
  LayerSnapshot s;
  s.events = rack->sim->events_processed();
  s.mv = o.mv().store_stats();
  s.mv_cache = o.mv().cache_stats();
  s.mv_device_written = sys.mv_raid()->bytes_written();
  for (int v = 0; v < sys.config().data_volumes; ++v) {
    s.buffer_written += sys.data_raid(v)->bytes_written();
    s.buffer_read += sys.data_raid(v)->bytes_read();
  }
  s.buckets = o.buckets().buckets_created();
  s.images = o.images().image_count();
  s.arrays_burned = o.burns().arrays_burned();
  s.burn_retries = o.burns().burn_retries();
  for (drive::DriveSet* set : sys.drive_sets()) {
    for (int i = 0; i < set->size(); ++i) {
      s.drive_burned += set->drive(i).bytes_burned();
      s.drive_read += set->drive(i).bytes_read();
      s.drive_busy += set->drive(i).busy_time();
    }
  }
  s.plc_busy = o.mech().library().plc().busy_time();
  s.loads = o.mech().library().loads_completed();
  s.unloads = o.mech().library().unloads_completed();
  s.roots_built = o.audit().roots_built();
  if (const olfs::FetchScheduler* sched = o.fetch_scheduler()) {
    s.fetch = sched->stats();
  }
  s.fetch_retries = o.fetches().retries();
  s.cache_hits = o.cache().hits();
  s.cache_misses = o.cache().misses();
  s.ghost_hits = o.cache().ghost_hits();
  s.shared_reads = o.shared_image_reads();
  s.reconstructions = o.reconstructions();
  s.degraded_reads = o.degraded_reads();
  s.scrub_bytes = o.scrub().scrubbed_bytes();
  s.scrub_repairs = o.scrub().scrub_repairs();
  s.refresh_burns = o.scrub().refresh_burns();
  s.arrays_refreshed = o.scrub().arrays_refreshed();
  s.audit_mismatches = o.scrub().audit_mismatches();
  return s;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

template <typename T>
double Delta(T after, T before) {
  return static_cast<double>(after) - static_cast<double>(before);
}

// Per-layer figures of the measured phase (deltas of two snapshots).
// Deterministic: sim-side counters only.
std::map<std::string, double> LayerDeltas(const LayerSnapshot& a,
                                          const LayerSnapshot& b) {
  std::map<std::string, double> m;
  m["sim.events"] = Delta(b.events, a.events);
  const double records =
      Delta(b.mv.wal.records_appended, a.mv.wal.records_appended);
  const double batches =
      Delta(b.mv.wal.batches_committed, a.mv.wal.batches_committed);
  m["mv.wal_records"] = records;
  m["mv.wal_batches"] = batches;
  m["mv.records_per_batch"] = Ratio(records, batches);
  m["mv.wal_bytes"] = Delta(b.mv.wal.bytes_committed, a.mv.wal.bytes_committed);
  m["mv.memtable_flushes"] =
      Delta(b.mv.memtable_flushes, a.mv.memtable_flushes);
  m["mv.compactions"] = Delta(b.mv.compactions, a.mv.compactions);
  m["mv.segment_bytes"] = static_cast<double>(b.mv.segment_bytes);
  const double hits = Delta(b.mv_cache.hits, a.mv_cache.hits);
  m["mv.cache_hit_rate"] =
      Ratio(hits, hits + Delta(b.mv_cache.misses, a.mv_cache.misses));
  m["mv.device_bytes_written"] =
      Delta(b.mv_device_written, a.mv_device_written);
  m["buffer.bytes_written"] = Delta(b.buffer_written, a.buffer_written);
  m["buffer.bytes_read"] = Delta(b.buffer_read, a.buffer_read);
  m["bucket.buckets_created"] = Delta(b.buckets, a.buckets);
  m["images.count"] = Delta(b.images, a.images);
  m["burn.arrays_burned"] = Delta(b.arrays_burned, a.arrays_burned);
  m["burn.retries"] = Delta(b.burn_retries, a.burn_retries);
  m["drive.bytes_burned"] = Delta(b.drive_burned, a.drive_burned);
  m["drive.busy_s"] = sim::ToSeconds(b.drive_busy - a.drive_busy);
  m["mech.plc_busy_s"] = sim::ToSeconds(b.plc_busy - a.plc_busy);
  m["audit.roots_built"] = Delta(b.roots_built, a.roots_built);
  m["fetch.requests"] = Delta(b.fetch.requests, a.fetch.requests);
  m["fetch.loads"] = Delta(b.fetch.loads, a.fetch.loads);
  m["fetch.loads_avoided"] =
      Delta(b.fetch.loads_avoided(), a.fetch.loads_avoided());
  m["fetch.queue_wait_mean_s"] =
      Ratio(sim::ToSeconds(b.fetch.total_queue_delay -
                           a.fetch.total_queue_delay),
            Delta(b.fetch.completed, a.fetch.completed));
  m["fetch.queue_wait_max_s"] = sim::ToSeconds(b.fetch.max_queue_delay);
  m["fetch.aged_dispatches"] =
      Delta(b.fetch.aged_dispatches, a.fetch.aged_dispatches);
  m["fetch.positioning_s"] =
      sim::ToSeconds(b.fetch.est_positioning - a.fetch.est_positioning);
  m["fetch.retries"] = Delta(b.fetch_retries, a.fetch_retries);
  m["fetch.background_acquires"] =
      Delta(b.fetch.background_acquires, a.fetch.background_acquires);
  m["fetch.background_yields"] =
      Delta(b.fetch.background_yields, a.fetch.background_yields);
  m["mech.load_cycles"] = Delta(b.loads, a.loads);
  m["mech.unload_cycles"] = Delta(b.unloads, a.unloads);
  m["drive.bytes_read"] = Delta(b.drive_read, a.drive_read);
  const double cache_hits = Delta(b.cache_hits, a.cache_hits);
  m["cache.hit_rate"] = Ratio(
      cache_hits, cache_hits + Delta(b.cache_misses, a.cache_misses));
  m["cache.ghost_hits"] = Delta(b.ghost_hits, a.ghost_hits);
  m["olfs.shared_image_reads"] = Delta(b.shared_reads, a.shared_reads);
  m["olfs.reconstructions"] = Delta(b.reconstructions, a.reconstructions);
  m["olfs.degraded_reads"] = Delta(b.degraded_reads, a.degraded_reads);
  m["scrub.bytes"] = Delta(b.scrub_bytes, a.scrub_bytes);
  m["scrub.repairs"] = Delta(b.scrub_repairs, a.scrub_repairs);
  m["scrub.refresh_burns"] = Delta(b.refresh_burns, a.refresh_burns);
  m["scrub.arrays_refreshed"] = Delta(b.arrays_refreshed, a.arrays_refreshed);
  m["audit.mismatches"] = Delta(b.audit_mismatches, a.audit_mismatches);
  return m;
}

// ---------------------------------------------------------------------------
// Workload plumbing.

// What one round of a workload produces. op_tail10_s and `layer` are
// sim-clock figures and must repeat exactly across rounds of one seed.
struct RoundResult {
  double setup_s = 0;
  double host_wall_s = 0;
  double op_tail10_s = 0;               // end-to-end, sim clock
  std::map<std::string, double> layer;  // per layer, sim clock
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::vector<Span> spans;
  std::vector<std::vector<std::uint8_t>> streams;  // kernel-timing inputs
};

// Serialized streams of this rack's data images (buffered images are
// serialized; burned-only ones are read off their discs), capped in total
// so timing them stays cheap.
std::vector<std::vector<std::uint8_t>> CollectStreams(Rack* rack) {
  constexpr std::uint64_t kCap = 48 * kMiB;
  std::vector<std::vector<std::uint8_t>> out;
  std::uint64_t total = 0;
  for (const olfs::ImageRecord* record : rack->olfs->images().AllRecords()) {
    if (total >= kCap || record->parity) {
      continue;
    }
    std::vector<std::uint8_t> stream;
    if (record->image != nullptr) {
      stream = udf::Serializer::Serialize(*record->image);
    } else if (record->disc.has_value()) {
      auto session =
          rack->olfs->mech().DiscAt(*record->disc)->FindSession(record->id);
      if (session.ok()) {
        stream = (*session)->data;
      }
    }
    if (!stream.empty()) {
      total += stream.size();
      out.push_back(std::move(stream));
    }
  }
  return out;
}

// Latency figures of one op kind: p50 and p99 (nearest rank) plus count.
void KindStats(std::map<std::string, double>* m, const char* prefix,
               std::vector<double> values) {
  std::sort(values.begin(), values.end());
  (*m)[std::string(prefix) + "_p50_s"] = PercentileSorted(values, 0.50);
  (*m)[std::string(prefix) + "_p99_s"] = PercentileSorted(values, 0.99);
  (*m)[std::string("samples.") + prefix] = static_cast<double>(values.size());
}

// Fills the sim figures every workload shares from the round's client-op
// latencies: the end-to-end tail mean (slowest tenth of ops), and per
// layer the p50/p99 over all ops and by kind, and ops per sim second over
// the client phase.
void FinishSim(Phase* phase, RoundResult* r, double client_phase_s) {
  std::vector<double> all;
  for (const auto& v : phase->latency) {
    all.insert(all.end(), v.begin(), v.end());
  }
  std::sort(all.begin(), all.end());
  const std::size_t tail = std::max<std::size_t>(1, all.size() / 10);
  double tail_sum = 0;
  for (std::size_t i = all.size() - std::min(tail, all.size()); i < all.size();
       ++i) {
    tail_sum += all[i];
  }
  r->op_tail10_s = Ratio(tail_sum, static_cast<double>(tail));
  r->layer["op_p50_s"] = PercentileSorted(all, 0.50);
  r->layer["op_p99_s"] = PercentileSorted(all, 0.99);
  r->layer["ops_per_s"] =
      Ratio(static_cast<double>(all.size()), client_phase_s);
  KindStats(&r->layer, "write", phase->latency[0]);
  KindStats(&r->layer, "read", phase->latency[1]);
  KindStats(&r->layer, "meta", phase->latency[2]);
}

// Verifier client: reads every acked file i with i % clients == client
// back whole and checks every byte.
sim::Task<Status> Verifier(Phase* phase, const FileSet* files, int client,
                           int clients) {
  for (std::size_t i = static_cast<std::size_t>(client);
       i < files->sizes.size(); i += static_cast<std::size_t>(clients)) {
    if (!files->acked[i]) {
      continue;
    }
    const std::uint64_t size = files->sizes[i];
    const OpStart s = Begin(phase);
    auto data = co_await phase->olfs->Read(files->Path(i), 0, size);
    const bool ok = data.ok();
    if (ok) {
      CheckRead(phase, files->keys[i], 0, size, *data);
    }
    End(phase, s, OpKind::kRead, "verify_read", client, ok);
  }
  co_return OkStatus();
}

// Runs client coroutines to completion. Clients count their own failed
// ops in the Phase and always return OK.
void RunClients(Rack* rack, std::vector<sim::Task<Status>> clients) {
  const Status st =
      rack->sim->RunUntilComplete(sim::AllOk(*rack->sim, std::move(clients)));
  ROS_CHECK(st.ok());
}

// Verification runs after the measured phase (and after its figures are
// taken), outside host_wall_s; its reads count as attempted ops.
void VerifyAll(Rack* rack, Phase* phase, const FileSet& files) {
  const OpStart s = Begin(phase);
  constexpr int kVerifiers = 4;
  std::vector<sim::Task<Status>> tasks;
  for (int c = 0; c < kVerifiers; ++c) {
    tasks.push_back(Verifier(phase, &files, c, kVerifiers));
  }
  RunClients(rack, std::move(tasks));
  EndCall(phase, s, "verify", true);
}

// Drops every burned image's buffered copy and read-cache entry, so the
// next access to any of them is optical.
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

// An archive is written by one bulk-load client, burned, and dropped from
// the buffer: every first access afterwards is optical.
sim::Task<Status> BulkLoad(Phase* phase, FileSet* archive) {
  for (std::size_t i = 0; i < archive->sizes.size(); ++i) {
    const OpStart s = Begin(phase);
    Status st = co_await phase->olfs->Create(
        archive->Path(i), Payload(archive->keys[i], 0, archive->sizes[i]));
    End(phase, s, OpKind::kWrite, "stage_create", 0, st.ok());
    if (st.ok()) {
      archive->Ack(i);
    }
  }
  co_return OkStatus();
}

// Stages the archive during set-up. Staging ops are counted (a failed
// stage write is a failed op) but their latencies are not measured.
void StageArchive(Rack* rack, Phase* phase, FileSet* archive) {
  const Status loaded = rack->sim->RunUntilComplete(BulkLoad(phase, archive));
  ROS_CHECK(loaded.ok());
  OpStart s = Begin(phase);
  const Status drained =
      rack->sim->RunUntilComplete(rack->olfs->FlushAndDrain());
  EndCall(phase, s, "flush_and_drain", drained.ok());
  s = Begin(phase);
  const Status dropped =
      rack->sim->RunUntilComplete(DropCachedImages(rack->olfs.get()));
  EndCall(phase, s, "drop_cached", dropped.ok());
  for (auto& v : phase->latency) {
    v.clear();
  }
}

// One 64 KiB read at a seeded, 4 KiB-aligned offset of an archive file.
struct ReadSpec {
  std::size_t file = 0;
  std::uint64_t offset = 0;
};

constexpr std::uint64_t kReadBytes = 64 * kKiB;

ReadSpec PickRead(Rng* rng, const FileSet& a, std::size_t file) {
  const std::uint64_t slots = (a.sizes[file] - kReadBytes) / (4 * kKiB) + 1;
  return {file, rng->Below(slots) * 4 * kKiB};
}

// Per-reader read lists: a `hot_share` of reads goes to the hot last
// fifth of the archive (the files archived most recently, hence the last
// few trays), the rest is uniform over all files.
std::vector<std::vector<ReadSpec>> SkewedReads(Rng* rng, const FileSet& a,
                                               int readers, int each,
                                               double hot_share) {
  const std::size_t files = a.sizes.size();
  std::vector<std::vector<ReadSpec>> reads(static_cast<std::size_t>(readers));
  for (auto& list : reads) {
    for (int k = 0; k < each; ++k) {
      const std::size_t file = rng->Chance(hot_share)
                                   ? files - 1 - rng->Below(files / 5)
                                   : rng->Below(files);
      list.push_back(PickRead(rng, a, file));
    }
  }
  return reads;
}

sim::Task<Status> ArchiveReader(Phase* phase, const FileSet* archive,
                                const std::vector<ReadSpec>* reads,
                                olfs::AccessHint hint, int client) {
  for (std::size_t k = 0; k < reads->size(); ++k) {
    const ReadSpec spec = (*reads)[k];
    if (!archive->acked[spec.file]) {
      continue;
    }
    const OpStart s = Begin(phase);
    auto data = co_await phase->olfs->Read(
        archive->Path(spec.file), spec.offset, kReadBytes, hint);
    const bool ok = data.ok();
    if (ok) {
      CheckRead(phase, archive->keys[spec.file], spec.offset, kReadBytes,
                *data);
    }
    End(phase, s, OpKind::kRead, "read", client, ok);
  }
  co_return OkStatus();
}

// ---------------------------------------------------------------------------
// cold_read: the fetch path. The archive lives on discs only; 8 readers
// announce themselves as scans (AccessHint stream + scan), so a fetched
// tray is staged into the read cache. 80% of reads go to the hot last
// fifth of the files (a few trays), which fits the read cache; the whole
// archive does not.

constexpr int kColdReaders = 8;
constexpr std::size_t kColdFiles = 400;
constexpr int kColdReadsEach = 1500;

void RunColdRead(std::uint64_t seed, Phase* phase, sim::EventHasher* hasher,
                 RoundResult* r, bool keep_streams) {
  const double t0 = HostSeconds();
  FileSet archive =
      MakeFiles("/archive", seed, kColdFiles, 64 * kKiB, 256 * kKiB);
  olfs::OlfsParams params;
  params.disc_capacity_override = 1 * kMiB;
  params.read_cache_bytes = 32 * kMiB;
  Rack rack(RackConfig(), params, hasher);
  phase->sim = rack.sim.get();
  phase->olfs = rack.olfs.get();
  StageArchive(&rack, phase, &archive);

  Rng rng(Mix64(seed ^ 0xC01DULL));
  const std::vector<std::vector<ReadSpec>> reads =
      SkewedReads(&rng, archive, kColdReaders, kColdReadsEach, 0.8);
  const double t1 = HostSeconds();
  r->setup_s = t1 - t0;

  const LayerSnapshot before = Snapshot(&rack);
  const sim::TimePoint start = rack.sim->now();
  std::vector<sim::Task<Status>> readers;
  for (int c = 0; c < kColdReaders; ++c) {
    const olfs::AccessHint hint{static_cast<std::uint64_t>(c) + 1,
                                /*scan=*/true};
    readers.push_back(ArchiveReader(phase, &archive, &reads[c], hint, c));
  }
  RunClients(&rack, std::move(readers));
  const sim::TimePoint done = rack.sim->now();
  r->host_wall_s = HostSeconds() - t1 - phase->check_s;
  const LayerSnapshot after = Snapshot(&rack);
  r->layer = LayerDeltas(before, after);

  FinishSim(phase, r, sim::ToSeconds(done - start));
  r->layer["read_ops_per_s"] = r->layer["ops_per_s"];
  r->layer["space_amp"] =
      Ratio(static_cast<double>(after.drive_burned),
            static_cast<double>(archive.acked_bytes));
  if (keep_streams) {
    r->streams = CollectStreams(&rack);
  }
}

// ---------------------------------------------------------------------------
// ingest: the write and metadata paths, as an archive receives them. 4
// writers Create seeded 64 KiB-2 MiB files (real bytes) while 4 small-file
// clients loop: Create a 0.5-8 KiB file, Stat two earlier files, Read one
// recently written file (served by the open bucket or the buffer), and
// every 16th step ReadDir one directory. A Maintenance::Checkpoint runs
// every kCheckpointEveryS of sim time. When the clients are done,
// FlushAndDrain burns every byte with parity and audit manifests. Files
// live in directories of 50. Never touches the fetch scheduler or the
// read cache.

constexpr int kIngestWriters = 4;
constexpr std::size_t kIngestFiles = 112;
constexpr int kSmallClients = 4;
constexpr int kSmallSteps = 1000;  // per client
constexpr double kCheckpointEveryS = 20.0;

struct IngestPlan {
  FileSet big;
  std::vector<std::vector<std::uint8_t>> big_payloads;  // generated in set-up
  std::size_t next_big = 0;                             // shared job queue
  FileSet small;
  std::vector<std::vector<std::uint8_t>> small_payloads;
  std::vector<std::size_t> small_acked;             // in ack order
  std::vector<std::vector<std::size_t>> dir_files;  // acked, per directory
  std::size_t next_small = 0;
  bool done = false;
  sim::Duration checkpoint_time = 0;
};

sim::Task<Status> IngestWriter(Phase* phase, IngestPlan* plan, int client) {
  while (plan->next_big < plan->big.sizes.size()) {
    const std::size_t i = plan->next_big++;
    const OpStart s = Begin(phase);
    Status st = co_await phase->olfs->Create(plan->big.Path(i),
                                             std::move(plan->big_payloads[i]));
    End(phase, s, OpKind::kWrite, "create", client, st.ok());
    if (st.ok()) {
      plan->big.Ack(i);
    }
  }
  co_return OkStatus();
}

sim::Task<void> StatFile(Phase* phase, IngestPlan* plan, std::size_t file,
                         int client) {
  const OpStart s = Begin(phase);
  auto info = co_await phase->olfs->Stat(plan->small.Path(file));
  const bool ok = info.ok();
  if (ok && info->size != plan->small.sizes[file]) {
    ++phase->wrong;
  }
  End(phase, s, OpKind::kMeta, "stat", client, ok);
}

sim::Task<Status> SmallClient(Phase* phase, IngestPlan* plan, Rng rng,
                              int client) {
  for (int step = 0; step < kSmallSteps; ++step) {
    const std::size_t file = plan->next_small++;
    {
      const OpStart s = Begin(phase);
      Status st = co_await phase->olfs->Create(
          plan->small.Path(file), std::move(plan->small_payloads[file]));
      End(phase, s, OpKind::kWrite, "small_create", client, st.ok());
      if (st.ok()) {
        plan->small.Ack(file);
        plan->small_acked.push_back(file);
        plan->dir_files[file / 50].push_back(file);
      }
    }
    if (plan->small_acked.empty()) {
      continue;
    }
    for (int k = 0; k < 2; ++k) {
      const std::size_t earlier =
          plan->small_acked[rng.Below(plan->small_acked.size())];
      co_await StatFile(phase, plan, earlier, client);
    }
    {
      const std::size_t window =
          std::min<std::size_t>(32, plan->small_acked.size());
      const std::size_t recent =
          plan->small_acked[plan->small_acked.size() - 1 - rng.Below(window)];
      const OpStart s = Begin(phase);
      const std::uint64_t size = plan->small.sizes[recent];
      auto data =
          co_await phase->olfs->Read(plan->small.Path(recent), 0, size);
      const bool ok = data.ok();
      if (ok) {
        CheckRead(phase, plan->small.keys[recent], 0, size, *data);
      }
      End(phase, s, OpKind::kRead, "read", client, ok);
    }
    if (step % 16 == 15) {
      const std::size_t dir = rng.Below(plan->next_small / 50 + 1);
      const std::vector<std::size_t> expect = plan->dir_files[dir];
      const std::string path =
          std::string(plan->small.root) + "/d" + std::to_string(dir);
      const OpStart s = Begin(phase);
      auto names = co_await phase->olfs->ReadDir(path);
      bool ok = names.ok();
      if (ok) {
        // Every file acked before the call must be listed.
        const std::set<std::string> listed(names->begin(), names->end());
        for (std::size_t f : expect) {
          ok = ok && listed.count("f" + std::to_string(f)) > 0;
        }
      }
      End(phase, s, OpKind::kMeta, "readdir", client, ok);
    }
  }
  co_return OkStatus();
}

sim::Task<Status> Checkpointer(Phase* phase, IngestPlan* plan) {
  olfs::Maintenance mi(phase->olfs);
  while (true) {
    co_await phase->sim->Delay(sim::Seconds(kCheckpointEveryS));
    if (plan->done) {
      co_return OkStatus();
    }
    const OpStart s = Begin(phase);
    Status st = co_await mi.Checkpoint();
    plan->checkpoint_time += phase->sim->now() - s.sim;
    EndCall(phase, s, "checkpoint", st.ok());
  }
}

// Runs every client; when the last one is done, stops the checkpointer
// and records the time.
sim::Task<Status> IngestClients(Phase* phase, IngestPlan* plan,
                                sim::TimePoint* done_at) {
  std::vector<sim::Task<Status>> clients;
  for (int c = 0; c < kIngestWriters; ++c) {
    clients.push_back(IngestWriter(phase, plan, c));
  }
  for (int c = 0; c < kSmallClients; ++c) {
    clients.push_back(SmallClient(
        phase, plan,
        Rng(Mix64(plan->small.keys[0] ^ static_cast<std::uint64_t>(c))),
        kIngestWriters + c));
  }
  Status st = co_await sim::AllOk(*phase->sim, std::move(clients));
  plan->done = true;
  *done_at = phase->sim->now();
  co_return st;
}

void RunIngest(std::uint64_t seed, Phase* phase, sim::EventHasher* hasher,
               RoundResult* r, bool keep_streams) {
  const double t0 = HostSeconds();
  olfs::OlfsParams params;
  params.disc_capacity_override = 4 * kMiB;
  Rack rack(RackConfig(), params, hasher);
  phase->sim = rack.sim.get();
  phase->olfs = rack.olfs.get();
  IngestPlan plan;
  plan.big = MakeFiles("/ingest", seed, kIngestFiles, 64 * kKiB, 2 * kMiB);
  plan.big_payloads = MakePayloads(plan.big);
  const std::size_t small =
      static_cast<std::size_t>(kSmallClients) * kSmallSteps;
  plan.small = MakeFiles("/small", seed, small, 512, 8 * kKiB);
  plan.small_payloads = MakePayloads(plan.small);
  plan.dir_files.resize(small / 50 + 1);
  const double t1 = HostSeconds();
  r->setup_s = t1 - t0;

  const LayerSnapshot before = Snapshot(&rack);
  const sim::TimePoint start = rack.sim->now();
  sim::TimePoint clients_done = start;
  std::vector<sim::Task<Status>> tasks;
  tasks.push_back(IngestClients(phase, &plan, &clients_done));
  tasks.push_back(Checkpointer(phase, &plan));
  RunClients(&rack, std::move(tasks));
  const OpStart drain = Begin(phase);
  const Status drained_ok =
      rack.sim->RunUntilComplete(rack.olfs->FlushAndDrain());
  EndCall(phase, drain, "flush_and_drain", drained_ok.ok());
  const sim::TimePoint drained = rack.sim->now();
  r->host_wall_s = HostSeconds() - t1 - phase->check_s;
  const LayerSnapshot after = Snapshot(&rack);
  r->layer = LayerDeltas(before, after);

  const double acked =
      static_cast<double>(plan.big.acked_bytes + plan.small.acked_bytes);
  FinishSim(phase, r, sim::ToSeconds(clients_done - start));
  r->layer["maintenance.checkpoint_sim_s"] =
      sim::ToSeconds(plan.checkpoint_time);
  r->layer["ingest_mb_per_s"] =
      Ratio(acked / 1e6, sim::ToSeconds(drained - start));
  r->layer["space_amp"] = Ratio(r->layer["drive.bytes_burned"], acked);

  VerifyAll(&rack, phase, plan.big);
  VerifyAll(&rack, phase, plan.small);
  if (keep_streams) {
    r->streams = CollectStreams(&rack);
  }
}

// ---------------------------------------------------------------------------
// scrub_repair: preservation. A staged archive gets seeded sector damage,
// one damaged data member per RAID-5 array, so parity can always repair
// it and every loss counted is the system's. ScrubManager::RunPass and
// then RunAudit run while 2 foreground readers issue cold reads of the
// hot last fifth (whose damage they meet first, through degraded reads);
// the scrub alone finds the rest. Afterwards every damaged member must
// have been repaired, and every file must read back intact.

constexpr std::size_t kScrubFiles = 400;
constexpr int kScrubReaders = 2;
constexpr int kScrubReadsEach = 300;
constexpr double kAuditFraction = 0.1;

struct ScrubOutcome {
  sim::Duration pass_time = 0;
  olfs::AuditReport audit;
};

sim::Task<Status> Scrubber(Phase* phase, std::uint64_t seed,
                           ScrubOutcome* out) {
  {
    const OpStart s = Begin(phase);
    auto pass = co_await phase->olfs->scrub().RunPass();
    out->pass_time = phase->sim->now() - s.sim;
    EndCall(phase, s, "scrub_pass", pass.ok());
  }
  const OpStart s = Begin(phase);
  auto audit = co_await phase->olfs->scrub().RunAudit(kAuditFraction, seed);
  EndCall(phase, s, "audit", audit.ok());
  if (audit.ok()) {
    out->audit = *audit;
  }
  co_return OkStatus();
}

// Corrupts one sector of one seeded data member of every array. Returns
// the damaged image ids.
std::vector<std::string> InjectDamage(Rack* rack, std::uint64_t seed) {
  olfs::Olfs& o = *rack->olfs;
  std::map<int, std::vector<std::string>> data_members;  // by tray
  for (const std::string& id : o.images().BurnedImages()) {
    auto record = o.images().Lookup(id);
    if (record.ok() && (*record)->disc.has_value() && !(*record)->parity) {
      data_members[(*record)->disc->tray.ToIndex()].push_back(id);
    }
  }
  Rng rng(Mix64(seed ^ 0xDA3A6Eull));
  std::vector<std::string> damaged;
  for (const auto& [tray, members] : data_members) {
    const std::string id = members[rng.Below(members.size())];
    auto record = o.images().Lookup(id);
    drive::Disc* disc = o.mech().DiscAt(*(*record)->disc);
    auto session = disc->FindSession(id);
    if (!session.ok() || (*session)->data.empty()) {
      continue;
    }
    const std::uint64_t at =
        (*session)->start + rng.Below((*session)->data.size());
    disc->CorruptSector(at / drive::kSectorSize);
    damaged.push_back(id);
  }
  return damaged;
}

void RunScrubRepair(std::uint64_t seed, Phase* phase,
                    sim::EventHasher* hasher, RoundResult* r,
                    bool keep_streams) {
  const double t0 = HostSeconds();
  FileSet archive =
      MakeFiles("/archive", seed, kScrubFiles, 64 * kKiB, 256 * kKiB);
  olfs::OlfsParams params;
  // Small discs: many arrays, so how many the foreground readers repair
  // before the scrub reaches them moves the scrub's work little.
  params.disc_capacity_override = 512 * kKiB;
  Rack rack(RackConfig(), params, hasher);
  phase->sim = rack.sim.get();
  phase->olfs = rack.olfs.get();
  StageArchive(&rack, phase, &archive);
  const std::vector<std::string> damaged = InjectDamage(&rack, seed);
  Rng rng(Mix64(seed ^ 0x5C2Bull));
  const std::vector<std::vector<ReadSpec>> reads =
      SkewedReads(&rng, archive, kScrubReaders, kScrubReadsEach, 1.0);
  const double t1 = HostSeconds();
  r->setup_s = t1 - t0;

  const LayerSnapshot before = Snapshot(&rack);
  const sim::TimePoint start = rack.sim->now();
  ScrubOutcome outcome;
  std::vector<sim::Task<Status>> tasks;
  tasks.push_back(Scrubber(phase, seed, &outcome));
  for (int c = 0; c < kScrubReaders; ++c) {
    tasks.push_back(
        ArchiveReader(phase, &archive, &reads[c], olfs::AccessHint{}, c));
  }
  RunClients(&rack, std::move(tasks));
  const sim::TimePoint done = rack.sim->now();
  r->host_wall_s = HostSeconds() - t1 - phase->check_s;
  const LayerSnapshot after = Snapshot(&rack);
  r->layer = LayerDeltas(before, after);

  // A damaged member still recorded on a retired (failed) tray was never
  // repaired: its data rides on parity of an array that no longer exists.
  double unrepaired = 0;
  for (const std::string& id : damaged) {
    auto record = rack.olfs->images().Lookup(id);
    const bool lost =
        !record.ok() ||
        ((*record)->disc.has_value() &&
         rack.olfs->da_index().state((*record)->disc->tray) ==
             olfs::ArrayState::kFailed);
    ++phase->attempted;
    if (lost) {
      ++phase->failed;
      ++unrepaired;
    }
  }

  FinishSim(phase, r, sim::ToSeconds(done - start));
  r->layer["scrub_mb_per_s"] = Ratio(r->layer["scrub.bytes"] / 1e6,
                                     sim::ToSeconds(outcome.pass_time));
  r->layer["read_ops_per_s"] = r->layer["ops_per_s"];
  r->layer["scrub.unrepaired"] = unrepaired;
  r->layer["scrub.damaged"] = static_cast<double>(damaged.size());
  r->layer["audit.bytes_read_frac"] =
      Ratio(static_cast<double>(outcome.audit.bytes_read),
            static_cast<double>(outcome.audit.stored_bytes));
  r->layer["space_amp"] = Ratio(static_cast<double>(after.drive_burned),
                                static_cast<double>(archive.acked_bytes));

  VerifyAll(&rack, phase, archive);
  if (keep_streams) {
    r->streams = CollectStreams(&rack);
  }
}

// ---------------------------------------------------------------------------
// Registry and metric catalogue.

using WorkloadFn = void (*)(std::uint64_t, Phase*, sim::EventHasher*,
                            RoundResult*, bool);

struct Workload {
  const char* name;
  WorkloadFn run;
};

constexpr Workload kWorkloads[] = {
    {"ingest", RunIngest},
    {"cold_read", RunColdRead},
    {"scrub_repair", RunScrubRepair},
};

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics, printed with --trace 0 (BENCHMARK.json end_to_end).
// The sim-clock one is the mean latency of the slowest tenth of client
// ops: every workload mixes fast paths (buffer, parked tray) with
// mechanical ones, so a single percentile jumps between modes from seed
// to seed, while the tail mean moves smoothly.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"host_wall_s", "s"},
    {"peak_rss_mb", "MB"},
    {"op_tail10_s", "s"},
};

// Per-layer metrics, printed with --trace 1 (BENCHMARK.json per_layer).
constexpr MetricDef kPerLayer[] = {
    {"udf.serialize_mb_per_s", "MB/s"},
    {"udf.parse_mb_per_s", "MB/s"},
    {"common.crc32_mb_per_s", "MB/s"},
    {"audit.leaf_hash_mb_per_s", "MB/s"},
    {"parity.xor_mb_per_s", "MB/s"},
    {"sim.events", "count"},
    {"sim.host_us_per_event", "us"},
    {"mv.wal_records", "count"},
    {"mv.wal_batches", "count"},
    {"mv.records_per_batch", "ratio"},
    {"mv.wal_bytes", "B"},
    {"mv.memtable_flushes", "count"},
    {"mv.compactions", "count"},
    {"mv.segment_bytes", "B"},
    {"mv.cache_hit_rate", "ratio"},
    {"mv.device_bytes_written", "B"},
    {"maintenance.checkpoint_sim_s", "s"},
    {"buffer.bytes_written", "B"},
    {"buffer.bytes_read", "B"},
    {"bucket.buckets_created", "count"},
    {"images.count", "count"},
    {"burn.arrays_burned", "count"},
    {"burn.retries", "count"},
    {"drive.bytes_burned", "B"},
    {"drive.busy_s", "s"},
    {"mech.plc_busy_s", "s"},
    {"audit.roots_built", "count"},
    {"fetch.requests", "count"},
    {"fetch.loads", "count"},
    {"fetch.loads_avoided", "count"},
    {"fetch.queue_wait_mean_s", "s"},
    {"fetch.queue_wait_max_s", "s"},
    {"fetch.aged_dispatches", "count"},
    {"fetch.positioning_s", "s"},
    {"fetch.retries", "count"},
    {"fetch.background_acquires", "count"},
    {"fetch.background_yields", "count"},
    {"mech.load_cycles", "count"},
    {"mech.unload_cycles", "count"},
    {"drive.bytes_read", "B"},
    {"cache.hit_rate", "ratio"},
    {"cache.ghost_hits", "count"},
    {"olfs.shared_image_reads", "count"},
    {"olfs.reconstructions", "count"},
    {"olfs.degraded_reads", "count"},
    {"scrub.bytes", "B"},
    {"scrub.repairs", "count"},
    {"scrub.damaged", "count"},
    {"scrub.unrepaired", "count"},
    {"scrub.refresh_burns", "count"},
    {"scrub.arrays_refreshed", "count"},
    {"audit.bytes_read_frac", "ratio"},
    {"audit.mismatches", "count"},
    {"op_p50_s", "s"},
    {"op_p99_s", "s"},
    {"ops_per_s", "1/s"},
    {"write_p50_s", "s"},
    {"write_p99_s", "s"},
    {"read_p50_s", "s"},
    {"read_p99_s", "s"},
    {"meta_p50_s", "s"},
    {"meta_p99_s", "s"},
    {"samples.write", "count"},
    {"samples.read", "count"},
    {"samples.meta", "count"},
    {"ingest_mb_per_s", "MB/s"},
    {"read_ops_per_s", "1/s"},
    {"scrub_mb_per_s", "MB/s"},
    {"space_amp", "ratio"},
    {"failed_frac", "ratio"},
    {"trace.host_wall_s", "s"},
    {"trace.spans", "count"},
};

// ---------------------------------------------------------------------------
// Host-clock kernel rates on this run's own images (traced runs only).

// Runs `fn` over every stream, repeating whole passes until at least
// `min_s` of host time has passed; returns MB/s of stream bytes.
template <typename Fn>
double TimeKernel(const std::vector<std::vector<std::uint8_t>>& streams,
                  double min_s, Fn fn) {
  std::uint64_t bytes = 0;
  const double t0 = HostSeconds();
  double elapsed = 0;
  do {
    for (const auto& s : streams) {
      fn(s);
      bytes += s.size();
    }
    elapsed = HostSeconds() - t0;
  } while (elapsed < min_s);
  return Ratio(static_cast<double>(bytes) / 1e6, elapsed);
}

// Times Parse, Serialize, Crc32, AuditLeafHashes and gf256::XorAcc over
// the streams. Returns false if a stream does not survive a
// Parse/Serialize round trip byte for byte.
bool KernelRates(const std::vector<std::vector<std::uint8_t>>& streams,
                 std::map<std::string, double>* m) {
  const char* names[] = {"udf.parse_mb_per_s", "udf.serialize_mb_per_s",
                         "common.crc32_mb_per_s", "audit.leaf_hash_mb_per_s",
                         "parity.xor_mb_per_s"};
  for (const char* name : names) {
    (*m)[name] = 0;
  }
  if (streams.empty()) {
    return true;
  }
  constexpr double kMinS = 0.15;
  std::vector<udf::Image> images;
  bool ok = true;
  for (const auto& s : streams) {
    auto image = udf::Serializer::Parse(s);
    ok = ok && image.ok() && udf::Serializer::Serialize(*image) == s;
    if (image.ok()) {
      images.push_back(std::move(*image));
    }
  }
  // Results feed a volatile sink so no timed call can be optimized away.
  volatile std::uint64_t sink = 0;
  (*m)["udf.parse_mb_per_s"] = TimeKernel(streams, kMinS, [&](const auto& s) {
    sink = sink + (udf::Serializer::Parse(s).ok() ? 1 : 0);
  });
  std::size_t next = 0;
  (*m)["udf.serialize_mb_per_s"] =
      TimeKernel(streams, kMinS, [&](const auto&) {
        sink = sink + udf::Serializer::Serialize(images[next++ % images.size()])
                          .size();
      });
  (*m)["common.crc32_mb_per_s"] = TimeKernel(
      streams, kMinS, [&](const auto& s) { sink = sink + Crc32(s); });
  const std::uint64_t leaf = olfs::OlfsParams{}.audit_leaf_bytes;
  (*m)["audit.leaf_hash_mb_per_s"] =
      TimeKernel(streams, kMinS, [&](const auto& s) {
        sink = sink + olfs::AuditLeafHashes(s, leaf).size();
      });
  std::size_t longest = 0;
  for (const auto& s : streams) {
    longest = std::max(longest, s.size());
  }
  std::vector<std::uint8_t> acc(longest);
  (*m)["parity.xor_mb_per_s"] = TimeKernel(streams, kMinS, [&](const auto& s) {
    gf256::XorAcc(std::span<std::uint8_t>(acc.data(), s.size()), s);
  });
  sink = sink + acc[0];
  return ok;
}

// ---------------------------------------------------------------------------
// Output.

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

std::string Hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Chrome trace-event JSON: the sim-clock timeline (pid 1) and the
// host-clock timeline (pid 2) of one round, one thread per client, plus
// the per-layer summary under "otherData".
bool WriteTrace(const std::string& path, const std::vector<Span>& spans,
                const json::Object& summary) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  double host0 = spans.empty() ? 0.0 : spans.front().host_start;
  for (const Span& s : spans) {
    host0 = std::min(host0, s.host_start);
  }
  std::fprintf(f, "{\"traceEvents\": [\n");
  std::fprintf(f,
               "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
               "\"args\": {\"name\": \"sim clock\"}},\n"
               "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, "
               "\"args\": {\"name\": \"host clock\"}}");
  for (const Span& s : spans) {
    const int tid = s.client + 1;  // tid 0: the benchmark's own calls
    const double sim_ts = static_cast<double>(s.sim_start) / 1e3;
    const double sim_dur = static_cast<double>(s.sim_end - s.sim_start) / 1e3;
    const double host_ts = (s.host_start - host0) * 1e6;
    const double host_dur = (s.host_end - s.host_start) * 1e6;
    for (int pid = 1; pid <= 2; ++pid) {
      std::fprintf(f,
                   ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"pid\": %d, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"op\": %llu, \"client\": %d, "
                   "\"sim_start_us\": %.3f, \"sim_dur_us\": %.3f, "
                   "\"host_start_us\": %.3f, \"host_dur_us\": %.3f}}",
                   s.name, s.client < 0 ? "call" : "op", pid, tid,
                   pid == 1 ? sim_ts : host_ts, pid == 1 ? sim_dur : host_dur,
                   static_cast<unsigned long long>(s.op), s.client, sim_ts,
                   sim_dur, host_ts, host_dur);
    }
  }
  std::fprintf(f, "\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": %s}\n",
               json::Value(summary).Dump().c_str());
  return std::fclose(f) == 0;
}

// Span totals by name: count, sim seconds and host seconds.
json::Object SpanSummary(const std::vector<Span>& spans) {
  std::map<std::string, std::array<double, 3>> totals;
  for (const Span& s : spans) {
    auto& t = totals[s.name];
    t[0] += 1;
    t[1] += sim::ToSeconds(s.sim_end - s.sim_start);
    t[2] += s.host_end - s.host_start;
  }
  json::Object out;
  for (const auto& [name, t] : totals) {
    json::Object o;
    o["count"] = json::Value(t[0]);
    o["sim_s"] = json::Value(t[1]);
    o["host_s"] = json::Value(t[2]);
    out[name] = json::Value(std::move(o));
  }
  return out;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->seconds = std::stod(value);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: rosbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  // Rounds repeat the same seeded workload on a fresh rack until the time
  // budget is spent, and at least kMinRounds times after round 0. Round 0
  // warms the process up (allocator, page cache) and records the event
  // stream; every later round must replay it, and host figures are medians
  // over the later rounds.
  constexpr std::size_t kMinRounds = 3;
  sim::EventHasher reference;
  std::vector<RoundResult> rounds;
  bool deterministic = true;
  std::string divergence;
  const double start = HostSeconds();
  while (rounds.size() < kMinRounds + 1 ||
         HostSeconds() - start < args.seconds) {
    const bool first = rounds.empty();
    sim::EventHasher check(first ? std::vector<std::uint64_t>{}
                                 : reference.trail());
    Phase phase;
    phase.tracing = args.trace;
    RoundResult r;
    workload->run(args.seed, &phase, first ? &reference : &check, &r,
                  first && args.trace);
    r.attempted = phase.attempted;
    r.failed = phase.failed;
    r.wrong = phase.wrong;
    if (first) {
      r.spans = std::move(phase.spans);
    } else {
      check.Finish();
      const RoundResult& r0 = rounds.front();
      if (check.diverged() && divergence.empty()) {
        divergence = "event #" + std::to_string(check.divergence()->index) +
                     ": " + check.divergence()->description;
      }
      if (check.diverged() || check.digest() != reference.digest() ||
          r.op_tail10_s != r0.op_tail10_s || r.layer != r0.layer ||
          r.attempted != r0.attempted || r.failed != r0.failed) {
        deterministic = false;
      }
    }
    rounds.push_back(std::move(r));
  }

  RoundResult& r0 = rounds.front();
  std::vector<double> setup;
  std::vector<double> wall;
  for (std::size_t i = 1; i < rounds.size(); ++i) {
    setup.push_back(rounds[i].setup_s);
    wall.push_back(rounds[i].host_wall_s);
  }
  const double host_wall_s = Median(wall);
  std::uint64_t wrong = 0;
  for (const RoundResult& r : rounds) {
    wrong += r.wrong;
  }

  std::map<std::string, double> values;
  values["op_tail10_s"] = r0.op_tail10_s;
  values["setup_s"] = Median(setup);
  values["host_wall_s"] = host_wall_s;
  values["peak_rss_mb"] = PeakRssMb();

  std::map<std::string, double> layer = r0.layer;
  bool kernels_ok = true;
  if (args.trace) {
    kernels_ok = KernelRates(r0.streams, &layer);
    layer["trace.host_wall_s"] = host_wall_s;
    layer["trace.spans"] = static_cast<double>(r0.spans.size());
  }
  layer["sim.host_us_per_event"] =
      Ratio(host_wall_s * 1e6, layer["sim.events"]);
  layer["failed_frac"] = Ratio(static_cast<double>(r0.failed),
                               static_cast<double>(r0.attempted));
  for (const char* name : {"ingest_mb_per_s", "read_ops_per_s",
                           "scrub_mb_per_s", "maintenance.checkpoint_sim_s",
                           "scrub.unrepaired", "scrub.damaged",
                           "audit.bytes_read_frac"}) {
    layer.emplace(name, 0.0);
  }

  const bool correct = wrong == 0 && deterministic && kernels_ok;

  // Detail line: everything a reader needs to audit the result.
  json::Object detail;
  detail["workload"] = json::Value(args.workload);
  detail["seed"] = json::Value(static_cast<std::int64_t>(args.seed));
  detail["rounds"] = json::Value(static_cast<std::int64_t>(rounds.size()));
  detail["replay_digest"] = json::Value(Hex64(reference.digest()));
  detail["replay_events"] =
      json::Value(static_cast<std::int64_t>(reference.event_count()));
  detail["deterministic"] = json::Value(deterministic);
  if (!divergence.empty()) {
    detail["divergence"] = json::Value(divergence);
  }
  detail["wrong"] = json::Value(static_cast<std::int64_t>(wrong));
  json::Object sim_figures;
  sim_figures["op_tail10_s"] = json::Value(r0.op_tail10_s);
  for (const char* k : {"op_p50_s", "op_p99_s", "ops_per_s",
                        "write_p50_s", "write_p99_s", "read_p50_s",
                        "read_p99_s", "meta_p50_s", "meta_p99_s",
                        "samples.write", "samples.read", "samples.meta",
                        "ingest_mb_per_s", "read_ops_per_s", "scrub_mb_per_s",
                        "space_amp", "failed_frac", "scrub.damaged",
                        "scrub.unrepaired"}) {
    sim_figures[k] = json::Value(layer[k]);
  }
  detail["sim"] = json::Value(std::move(sim_figures));
  json::Array setup_rounds;
  json::Array wall_rounds;
  for (const RoundResult& r : rounds) {
    setup_rounds.push_back(json::Value(r.setup_s));
    wall_rounds.push_back(json::Value(r.host_wall_s));
  }
  detail["setup_s_rounds"] = json::Value(std::move(setup_rounds));
  detail["host_wall_s_rounds"] = json::Value(std::move(wall_rounds));
  std::printf("%s\n", json::Value(detail).Dump().c_str());

  json::Object metrics;
  if (args.trace) {
    for (const MetricDef& d : kPerLayer) {
      json::Object m;
      m["value"] = json::Value(layer.at(d.name));
      m["unit"] = json::Value(d.unit);
      metrics[d.name] = json::Value(std::move(m));
    }
    if (!args.trace_out.empty()) {
      json::Object summary;
      summary["workload"] = json::Value(args.workload);
      summary["seed"] = json::Value(static_cast<std::int64_t>(args.seed));
      summary["replay_digest"] = json::Value(Hex64(reference.digest()));
      summary["per_layer"] = metrics;
      summary["spans"] = json::Value(SpanSummary(r0.spans));
      if (!WriteTrace(args.trace_out, r0.spans, summary)) {
        std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
        return 1;
      }
    }
  } else {
    for (const MetricDef& d : kEndToEnd) {
      json::Object m;
      m["value"] = json::Value(values.at(d.name));
      m["unit"] = json::Value(d.unit);
      metrics[d.name] = json::Value(std::move(m));
    }
  }

  json::Object result;
  result["correct"] = json::Value(correct);
  result["attempted"] = json::Value(static_cast<std::int64_t>(r0.attempted));
  result["failed"] = json::Value(static_cast<std::int64_t>(r0.failed));
  result["metrics"] = json::Value(std::move(metrics));
  std::printf("%s\n", json::Value(result).Dump().c_str());
  return 0;
}
