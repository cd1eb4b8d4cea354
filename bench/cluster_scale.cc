// Multi-rack cluster scaling bench (DESIGN.md §5k, ROADMAP item 1).
//
// One ROS rack serializes independent clients on one mechanical queue no
// matter how many arrive. This bench measures what the Cluster layer buys:
// the identical aggregate workload (fixed client count, fixed bytes) runs
// against 1, 2, 4 and 8 racks, and reports aggregate read throughput and
// per-read latency percentiles per rack count. (BENCH_CLUSTER.json also
// keeps a historical FIFO single-rack row from the retired first-come-
// first-served fetch path; this bench no longer produces it.)
//
// Clients write into per-client buckets (stream-tagged, so placement sees
// affinity), the burn pipeline drains, caches are dropped, and then every
// client scans its buckets back concurrently through the cluster's read
// fan-out. Throughput is total read bytes over the read makespan in
// deterministic simulated time.
//
// A chaos section exercises the rack failure domain: acked writes into a
// replicated bucket, primary rack killed mid-run, every acked write must
// still read back byte-identical from the mirror (zero acked loss), and
// writes placed after the kill must land on the survivor.
//
// Gates (exit 1 on violation; full mode):
//   - aggregate read throughput at 4 racks >= 3x the 1-rack run
//   - throughput at 8 racks > at 4 racks (still improving)
//   - read p99 at 4 and 8 racks <= the 1-rack p99 (equal load)
//   - chaos: zero acked replicated writes lost after a rack kill
// Smoke mode (CI) shrinks the load, runs rack counts {1, 2} and gates
// 2-rack throughput > 1-rack plus the chaos section.
//
// Flags: --smoke (CI-sized), --replay-check (double-run the 2-rack cell
// with the sim::EventHasher divergence oracle — cluster message hops are
// folded into the same stream as PLC actuations — and fail on any
// divergence or read-byte mismatch).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
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
#include "src/olfs/cluster.h"
#include "src/sim/event_hasher.h"
#include "src/sim/join.h"
#include "src/sim/time.h"

namespace {

using namespace ros;

struct Load {
  int clients = 8;
  int files_per_client = 5;
};

constexpr std::uint64_t kFileSize = 1016 * kKiB;  // one disc image per file
constexpr std::uint64_t kDiscCapacity = 1 * kMiB;

std::string BucketOf(int client) { return "c" + std::to_string(client); }
std::string KeyOf(int file) { return "f" + std::to_string(file); }

std::vector<std::uint8_t> PayloadFor(int client, int file) {
  Rng rng(0xc1a5 + static_cast<std::uint64_t>(client) * 1000 +
          static_cast<std::uint64_t>(file));
  std::vector<std::uint8_t> out(kFileSize);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  return out;
}

olfs::ClusterParams MakeParams(int racks) {
  olfs::ClusterParams params;
  params.racks = racks;
  params.rack_params.disc_capacity_override = kDiscCapacity;
  params.rack_params.read_cache_bytes = 0;  // reads exercise the fetch path
  return params;
}

sim::Task<Status> ClientWrite(olfs::Cluster* cluster, int client,
                              const Load* load) {
  const olfs::AccessHint hint{static_cast<std::uint64_t>(client) + 1,
                              /*scan=*/false};
  // f0 was written by the sequential priming pass (bucket placement).
  for (int f = 1; f < load->files_per_client; ++f) {
    ROS_CO_RETURN_IF_ERROR(co_await cluster->Put(
        BucketOf(client), KeyOf(f), PayloadFor(client, f), hint));
  }
  co_return OkStatus();
}

sim::Task<Status> ClientRead(olfs::Cluster* cluster, int client,
                             const Load* load,
                             std::vector<double>* latencies,
                             std::vector<std::uint64_t>* hashes,
                             sim::Simulator* sim) {
  const olfs::AccessHint hint{static_cast<std::uint64_t>(client) + 1,
                              /*scan=*/true};
  for (int f = 0; f < load->files_per_client; ++f) {
    const sim::TimePoint t0 = sim->now();
    auto data =
        co_await cluster->Get(BucketOf(client), KeyOf(f), hint);
    ROS_CO_RETURN_IF_ERROR(data.status());
    latencies->push_back(sim::ToSeconds(sim->now() - t0));
    hashes->push_back(Xxh64(*data));
  }
  co_return OkStatus();
}

struct CellResult {
  double write_flush_s = 0;
  double read_makespan_s = 0;
  double throughput_mbps = 0;  // aggregate read MB/s (10^6 bytes)
  double mean_s = 0;
  double p50_s = 0;
  double p99_s = 0;
  std::uint64_t messages = 0;
  std::vector<int> buckets_per_rack;
  std::vector<std::uint64_t> hashes;
};

bool RunCell(int racks, const Load& load, CellResult* out,
             sim::EventHasher* hasher = nullptr) {
  sim::Simulator sim;
  sim.set_event_hasher(hasher);
  olfs::Cluster cluster(sim, MakeParams(racks));
  const sim::TimePoint w0 = sim.now();

  // Sequential priming: each client's first object creates its bucket,
  // so the capacity ledger spreads buckets across racks one by one.
  for (int c = 0; c < load.clients; ++c) {
    const olfs::AccessHint hint{static_cast<std::uint64_t>(c) + 1,
                                /*scan=*/false};
    if (!sim.RunUntilComplete(cluster.Put(BucketOf(c), KeyOf(0),
                                          PayloadFor(c, 0), hint))
             .ok()) {
      std::fprintf(stderr, "priming client %d failed\n", c);
      return false;
    }
  }
  std::vector<sim::Task<Status>> writers;
  for (int c = 0; c < load.clients; ++c) {
    writers.push_back(ClientWrite(&cluster, c, &load));
  }
  Status status =
      sim.RunUntilComplete(sim::AllOk(sim, std::move(writers)));
  if (status.ok()) {
    status = sim.RunUntilComplete(cluster.FlushAndDrain());
  }
  if (!status.ok()) {
    std::fprintf(stderr, "write phase failed: %s\n",
                 status.ToString().c_str());
    return false;
  }
  out->write_flush_s = sim::ToSeconds(sim.now() - w0);

  out->buckets_per_rack.assign(static_cast<std::size_t>(racks), 0);
  cluster.routes().ForEach(
      [out](const std::string&, const olfs::BucketRoute& route) {
        ++out->buckets_per_rack.at(
            static_cast<std::size_t>(route.primary));
      });

  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(load.clients));
  std::vector<std::vector<std::uint64_t>> hashes(
      static_cast<std::size_t>(load.clients));
  const sim::TimePoint t0 = sim.now();
  std::vector<sim::Task<Status>> readers;
  for (int c = 0; c < load.clients; ++c) {
    readers.push_back(ClientRead(&cluster, c, &load,
                                 &latencies[static_cast<std::size_t>(c)],
                                 &hashes[static_cast<std::size_t>(c)],
                                 &sim));
  }
  status = sim.RunUntilComplete(sim::AllOk(sim, std::move(readers)));
  if (!status.ok()) {
    std::fprintf(stderr, "read phase failed: %s\n",
                 status.ToString().c_str());
    return false;
  }
  out->read_makespan_s = sim::ToSeconds(sim.now() - t0);
  const double total_bytes = static_cast<double>(load.clients) *
                             load.files_per_client *
                             static_cast<double>(kFileSize);
  out->throughput_mbps =
      out->read_makespan_s == 0
          ? 0
          : total_bytes / out->read_makespan_s / 1e6;

  std::vector<double> all;
  for (int c = 0; c < load.clients; ++c) {
    const auto& l = latencies[static_cast<std::size_t>(c)];
    const auto& h = hashes[static_cast<std::size_t>(c)];
    all.insert(all.end(), l.begin(), l.end());
    out->hashes.insert(out->hashes.end(), h.begin(), h.end());
  }
  const SummaryStats stats = Summarize(std::move(all));
  out->mean_s = stats.mean;
  out->p50_s = stats.p50;
  out->p99_s = stats.p99;
  out->messages = cluster.stats().messages;
  sim.Shutdown();
  return true;
}

json::Value CellJson(int racks, const CellResult& r) {
  json::Object o;
  o["racks"] = json::Value(racks);
  o["write_flush_s"] = json::Value(r.write_flush_s);
  o["read_makespan_s"] = json::Value(r.read_makespan_s);
  o["read_throughput_MBps"] = json::Value(r.throughput_mbps);
  o["mean_latency_s"] = json::Value(r.mean_s);
  o["p50_latency_s"] = json::Value(r.p50_s);
  o["p99_latency_s"] = json::Value(r.p99_s);
  o["messages"] = json::Value(static_cast<std::int64_t>(r.messages));
  json::Array spread;
  for (int n : r.buckets_per_rack) {
    spread.emplace_back(n);
  }
  o["buckets_per_rack"] = json::Value(std::move(spread));
  return json::Value(std::move(o));
}

// --- chaos: rack kill under a replicated bucket -------------------------

json::Value RackKillChaos(bool* pass) {
  sim::Simulator sim;
  olfs::Cluster cluster(sim, MakeParams(/*racks=*/2));
  json::Object o;
  *pass = false;

  if (!sim.RunUntilComplete(
              cluster.CreateBucket("rep", olfs::BucketClass::kReplicated))
           .ok()) {
    return json::Value(std::move(o));
  }
  const int primary = cluster.routes().Find("rep")->primary;

  // Acked = the Put returned OK. Some of these never burn: the kill
  // happens before any flush, so the primary's buffered copies die with
  // its controller. The mirror must cover all of them.
  constexpr int kWrites = 6;
  int acked = 0;
  for (int i = 0; i < kWrites; ++i) {
    if (sim.RunUntilComplete(cluster.Put("rep", KeyOf(i),
                                         PayloadFor(90, i)))
            .ok()) {
      ++acked;
    }
  }
  if (!sim.RunUntilComplete(cluster.KillRack(primary)).ok()) {
    return json::Value(std::move(o));
  }

  int lost = 0;
  for (int i = 0; i < acked; ++i) {
    auto data = sim.RunUntilComplete(cluster.Get("rep", KeyOf(i)));
    if (!data.ok() || *data != PayloadFor(90, i)) {
      ++lost;
    }
  }
  // Placement keeps working with one rack down.
  const bool post_kill_write_ok =
      sim.RunUntilComplete(
             cluster.Put("after", KeyOf(0), PayloadFor(91, 0)))
          .ok();

  o["acked_writes"] = json::Value(acked);
  o["acked_lost_after_rack_kill"] = json::Value(lost);
  o["mirror_reads"] = json::Value(
      static_cast<std::int64_t>(cluster.stats().mirror_reads));
  o["post_kill_write_ok"] = json::Value(post_kill_write_ok);
  *pass = acked == kWrites && lost == 0 && post_kill_write_ok;
  o["pass"] = json::Value(*pass);
  sim.Shutdown();
  return json::Value(std::move(o));
}

// --- determinism: double-run the 2-rack cell ----------------------------

int ReplayCheck() {
  const Load load{/*clients=*/4, /*files_per_client=*/3};
  sim::EventHasher record;
  CellResult first;
  if (!RunCell(/*racks=*/2, load, &first, &record)) {
    return 1;
  }
  sim::EventHasher check(record.trail());
  CellResult second;
  if (!RunCell(/*racks=*/2, load, &second, &check)) {
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
  if (first.hashes != second.hashes) {
    std::fprintf(stderr,
                 "REPLAY DIVERGENCE: identical event stream but "
                 "different read bytes\n");
    return 1;
  }
  std::printf("{\"bench\": \"cluster_scale\", \"mode\": \"replay_check\", "
              "\"replay_events\": %llu, \"replay_digest\": \"%016llx\", "
              "\"pass\": true}\n",
              static_cast<unsigned long long>(check.event_count()),
              static_cast<unsigned long long>(check.digest()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
    if (std::strcmp(argv[i], "--replay-check") == 0) {
      return ReplayCheck();
    }
  }

  const Load load = smoke ? Load{4, 3} : Load{8, 5};
  const std::vector<int> rack_counts =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};

  bool all_pass = true;
  json::Array rows;
  std::map<int, CellResult> by_racks;
  for (int racks : rack_counts) {
    CellResult cell;
    if (!RunCell(racks, load, &cell)) {
      return 1;
    }
    rows.push_back(CellJson(racks, cell));
    by_racks[racks] = cell;
    std::printf("racks=%d  throughput %8.2f MB/s  p99 %7.3f s  "
                "makespan %8.2f s\n",
                racks, cell.throughput_mbps, cell.p99_s,
                cell.read_makespan_s);
  }

  json::Object gates;
  const CellResult& one = by_racks.at(1);
  if (smoke) {
    const bool scale2 =
        by_racks.at(2).throughput_mbps > one.throughput_mbps;
    gates["throughput_2x_improves"] = json::Value(scale2);
    all_pass = all_pass && scale2;
  } else {
    const bool scale4 =
        by_racks.at(4).throughput_mbps >= 3.0 * one.throughput_mbps;
    const bool scale8 =
        by_racks.at(8).throughput_mbps > by_racks.at(4).throughput_mbps;
    const bool p99_4 = by_racks.at(4).p99_s <= one.p99_s;
    const bool p99_8 = by_racks.at(8).p99_s <= one.p99_s;
    gates["throughput_4racks_ge_3x"] = json::Value(scale4);
    gates["throughput_8racks_gt_4racks"] = json::Value(scale8);
    gates["p99_4racks_le_single"] = json::Value(p99_4);
    gates["p99_8racks_le_single"] = json::Value(p99_8);
    all_pass = all_pass && scale4 && scale8 && p99_4 && p99_8;
  }

  bool chaos_pass = false;
  json::Value chaos = RackKillChaos(&chaos_pass);
  all_pass = all_pass && chaos_pass;

  json::Object doc;
  doc["bench"] = json::Value("cluster_scale");
  doc["mode"] = json::Value(smoke ? "smoke" : "full");
  doc["clients"] = json::Value(load.clients);
  doc["files_per_client"] = json::Value(load.files_per_client);
  doc["file_bytes"] = json::Value(static_cast<std::int64_t>(kFileSize));
  doc["rows"] = json::Value(std::move(rows));
  doc["rack_kill_chaos"] = std::move(chaos);
  doc["gates"] = json::Value(std::move(gates));
  doc["pass"] = json::Value(all_pass);
  bench::AddHostFigures(&doc);
  std::printf("%s\n", json::Value(std::move(doc)).DumpPretty().c_str());
  return all_pass ? 0 : 1;
}
