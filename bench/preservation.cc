// Decades-scale preservation sweep (DESIGN.md §5j): media aging × scrub
// policy × EC layout over 30 simulated years.
//
// Every config builds a fresh rack with the deterministic media-aging
// model enabled, writes the same acked file set, then lives through the
// decades in scrub-interval steps. Configs with scrubbing run a
// ScrubManager pass each interval (background-class fetches, parity
// repair, refresh burns per policy); configs without scrubbing just age.
// At the end-of-life read-back, survival is the fraction of acked files
// that still read back byte-identical (degraded reads through parity
// count — that is the point of the EC layout).
//
// The audit phase then certifies what survival alone cannot: a sampled
// Merkle audit over the persisted manifests, followed by *silent*
// tampering (bit flips that read back without any error) of selected
// members, which the auditor must provably detect while reading only a
// small fraction of the stored bytes.
//
// Prints one JSON document (committed as BENCH_PRESERVE.json) and exits
// non-zero when a gate fails:
//   - archival config (RAID-6 + scrub + refresh + generation migration):
//     every acked byte survives 30 years;
//   - no-scrub baseline: measurable loss (aging wins without scrubbing);
//   - the audit detects every tampered member reading < 5% of the bytes.
//
// Flags: --smoke (shorter horizon, hotter aging, CI-sized) and
// --replay-check (every config runs twice under the sim::EventHasher
// divergence oracle — aging draws included — and must replay exactly).
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/olfs/olfs.h"
#include "src/sim/event_hasher.h"
#include "src/sim/time.h"

namespace ros::olfs {
namespace {

using sim::Seconds;

constexpr std::int64_t kYearNs = 365LL * 24 * 3600 * 1000000000LL;

struct Options {
  bool smoke = false;
  bool replay_check = false;
};

// One cell of the policy × layout sweep.
struct Config {
  const char* name;
  int parity_images;        // 1 = RAID-5, 2 = RAID-6
  bool scrub;               // periodic scrub passes
  bool refresh;             // damaged/aged arrays re-burned onto fresh media
  bool migrate;             // first refresh switches media generation
  double refresh_age_years; // 0 = only damage triggers refresh
};

constexpr Config kConfigs[] = {
    {"none-raid5", 1, false, false, false, 0.0},
    {"none-raid6", 2, false, false, false, 0.0},
    {"repair-raid5", 1, true, false, false, 0.0},
    {"repair-raid6", 2, true, false, false, 0.0},
    {"refresh-raid5", 1, true, true, false, 0.0},
    {"archival", 2, true, true, true, 8.0},
};

struct ConfigResult {
  json::Object row;
  double survival = 0.0;
  bool tamper_all_detected = false;
  double audit_fraction = 1.0;
};

std::vector<std::uint8_t> RandomBytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  return out;
}

// Modeled blank-media unit cost (USD per disc), for the TCO row: refresh
// burns consume media, and migration trades more expensive discs for a
// slower rot factor.
double DiscCostUsd(drive::DiscType type) {
  switch (type) {
    case drive::DiscType::kBdr25:
      return 1.4;
    case drive::DiscType::kBdr100:
      return 4.5;
    case drive::DiscType::kBdre25:
      return 3.0;
  }
  return 1.4;
}

OlfsParams MakeParams(const Config& cfg, bool smoke) {
  OlfsParams params;
  params.disc_type = drive::DiscType::kBdr25;
  params.disc_capacity_override = 16 * kMiB;
  params.read_cache_bytes = 0;  // every read exercises the optical path
  params.parity_images = cfg.parity_images;
  params.scrub_refresh_enabled = cfg.refresh;
  params.refresh_age_years = cfg.refresh ? cfg.refresh_age_years : 0.0;
  params.generation_migration_enabled = cfg.migrate;
  params.migration_disc_type = drive::DiscType::kBdr100;
  params.audit_leaf_bytes = 4 * kKiB;

  // Aging intensity expressed as expected latent errors per burned disc
  // per year (on young media). AdvanceAging draws per *burned* sector and
  // each array member holds one flush group of ~132 KiB files, so
  // normalize by that footprint, not the mostly-blank disc capacity. The
  // smoke run compresses decades of rot into its short horizon.
  params.media_aging.enabled = true;
  const double group = smoke ? 3.0 : 4.0;
  const double burned_sectors =
      group * 132.0 * kKiB / static_cast<double>(drive::kSectorSize);
  const double lambda_per_disc_year = smoke ? 0.5 : 0.05;
  params.media_aging.lse_per_sector_year =
      lambda_per_disc_year / burned_sectors;
  params.media_aging.growth_per_year = 0.08;
  params.media_aging.seed = 424242;
  return params;
}

// Runs one config through the decades. Returns false only on a harness
// error (pipeline failure, audit machinery broken) — data loss is a
// *result*, reported in `out`, not a failure of the run.
bool RunConfig(const Config& cfg, const Options& opt, ConfigResult* out,
               sim::EventHasher* hasher = nullptr) {
  auto fail = [&cfg](const std::string& what) {
    std::fprintf(stderr, "PRESERVE HARNESS ERROR (%s): %s\n", cfg.name,
                 what.c_str());
    return false;
  };

  const int years = opt.smoke ? 8 : 30;
  const sim::Duration scrub_interval = Seconds(60.0 * 24 * 3600);
  const int files = opt.smoke ? 6 : 12;
  const int flush_group = opt.smoke ? 3 : 4;

  sim::Simulator sim;
  sim.set_event_hasher(hasher);
  RosSystem system(sim, TestSystemConfig());
  const OlfsParams params = MakeParams(cfg, opt.smoke);
  auto olfs = std::make_unique<Olfs>(sim, &system, params);
  olfs->burns().burn_start_interval = Seconds(1);

  // Acked data, flushed in groups so the rack holds several arrays.
  std::map<std::string, std::vector<std::uint8_t>> acked;
  for (int i = 0; i < files; ++i) {
    const std::string path = "/vault/f" + std::to_string(i);
    auto payload = RandomBytes(128 * kKiB + i * 1024, 9000 + i);
    Status created = sim.RunUntilComplete(
        olfs->Create(path, payload, payload.size()));
    if (!created.ok()) {
      return fail("write not acked: " + created.ToString());
    }
    acked[path] = std::move(payload);
    if ((i + 1) % flush_group == 0 || i + 1 == files) {
      Status drained = sim.RunUntilComplete(olfs->FlushAndDrain());
      if (!drained.ok()) {
        return fail("burn pipeline: " + drained.ToString());
      }
    }
  }
  const std::size_t initial_discs = olfs->images().BurnedImages().size();

  // The decades: age in scrub-interval steps; scrubbing configs run a
  // pass per step (repair + refresh per policy), the baseline just rots.
  const std::int64_t horizon_ns = static_cast<std::int64_t>(years) * kYearNs;
  std::int64_t lived_ns = 0;
  int scrub_failures = 0;
  while (lived_ns < horizon_ns) {
    sim.RunFor(scrub_interval);
    lived_ns += scrub_interval;
    if (cfg.scrub) {
      auto pass = sim.RunUntilComplete(olfs->scrub().RunPass());
      if (!pass.ok()) {
        // An unrecoverable array mid-pass is a preservation outcome, not
        // a harness bug; count it and keep living.
        ++scrub_failures;
      }
    }
  }

  // End-of-life read-back: survival of every acked byte.
  int survived = 0;
  for (const auto& [path, expect] : acked) {
    auto data = sim.RunUntilComplete(olfs->Read(path, 0, expect.size()));
    if (data.ok() && *data == expect) {
      ++survived;
    }
  }
  out->survival = static_cast<double>(survived) / acked.size();

  // --- audit phase ---
  // A sampled audit of the (possibly refreshed) manifests, then silent
  // tampering of every third member, which the auditor must detect.
  const double sample_fraction = 0.04;
  auto clean = sim.RunUntilComplete(
      olfs->scrub().RunAudit(sample_fraction, /*seed=*/7));
  if (!clean.ok()) {
    return fail("clean audit: " + clean.status().ToString());
  }
  auto manifests = sim.RunUntilComplete(olfs->audit().LoadManifests());
  if (!manifests.ok()) {
    return fail("manifest load: " + manifests.status().ToString());
  }
  std::vector<std::string> victims;
  std::size_t member_index = 0;
  for (const AuditManifest& manifest : *manifests) {
    for (const AuditMember& member : manifest.members) {
      const bool chosen =
          member_index++ % 3 == 0 && member.stream_bytes > 0;
      if (!chosen) {
        continue;
      }
      auto record = olfs->images().Lookup(member.image_id);
      if (!record.ok() || !(*record)->disc.has_value()) {
        continue;  // lost media cannot be tampered with
      }
      drive::Disc* disc = olfs->mech().DiscAt(*(*record)->disc);
      // Flip one bit in every leaf-sized chunk, so any sampled leaf of
      // this member betrays the tampering. The flips are silent: reads
      // return the modified bytes without any error.
      bool tampered = false;
      for (std::uint64_t off = 0; off < member.stream_bytes;
           off += manifest.leaf_bytes) {
        tampered |=
            disc->TamperSessionData(member.image_id, off, 0x01).ok();
      }
      if (tampered) {
        victims.push_back(member.image_id);
      }
    }
  }
  auto caught = sim.RunUntilComplete(
      olfs->scrub().RunAudit(sample_fraction, /*seed=*/11));
  if (!caught.ok()) {
    return fail("tamper audit: " + caught.status().ToString());
  }
  const std::set<std::string> flagged(caught->damaged.begin(),
                                      caught->damaged.end());
  int victims_detected = 0;
  for (const std::string& victim : victims) {
    if (flagged.count(victim) > 0) {
      ++victims_detected;
    }
  }
  out->tamper_all_detected =
      !victims.empty() &&
      victims_detected == static_cast<int>(victims.size());
  out->audit_fraction =
      caught->stored_bytes > 0
          ? static_cast<double>(caught->bytes_read) / caught->stored_bytes
          : 1.0;

  // TCO: initial media plus every refresh burn at the generation the rack
  // had migrated to by then.
  const double media_usd =
      static_cast<double>(initial_discs) *
          DiscCostUsd(drive::DiscType::kBdr25) +
      static_cast<double>(olfs->scrub().refresh_burns()) *
          DiscCostUsd(olfs->mech().media_type());

  json::Object row;
  row["config"] = json::Value(cfg.name);
  row["parity_images"] = json::Value(static_cast<std::int64_t>(cfg.parity_images));
  row["scrub"] = json::Value(cfg.scrub);
  row["refresh"] = json::Value(cfg.refresh);
  row["migrate"] = json::Value(cfg.migrate);
  row["sim_years"] = json::Value(static_cast<std::int64_t>(years));
  row["files_acked"] = json::Value(static_cast<std::int64_t>(acked.size()));
  row["files_survived"] = json::Value(static_cast<std::int64_t>(survived));
  row["survival"] = json::Value(out->survival);
  row["scrub_passes"] =
      json::Value(static_cast<std::int64_t>(olfs->scrub().passes()));
  row["scrub_failures"] = json::Value(static_cast<std::int64_t>(scrub_failures));
  row["scrubbed_bytes"] =
      json::Value(static_cast<std::int64_t>(olfs->scrub().scrubbed_bytes()));
  row["scrub_repairs"] =
      json::Value(static_cast<std::int64_t>(olfs->scrub().scrub_repairs()));
  row["arrays_refreshed"] =
      json::Value(static_cast<std::int64_t>(olfs->scrub().arrays_refreshed()));
  row["refresh_burns"] =
      json::Value(static_cast<std::int64_t>(olfs->scrub().refresh_burns()));
  row["degraded_reads"] =
      json::Value(static_cast<std::int64_t>(olfs->degraded_reads()));
  row["reconstructions"] =
      json::Value(static_cast<std::int64_t>(olfs->reconstructions()));
  row["end_media_type"] = json::Value(
      olfs->mech().media_type() == drive::DiscType::kBdr100 ? "bdr100"
                                                            : "bdr25");
  json::Object audit;
  audit["clean_mismatches"] =
      json::Value(static_cast<std::int64_t>(clean->mismatches));
  audit["manifests"] = json::Value(static_cast<std::int64_t>(caught->manifests));
  audit["tamper_victims"] =
      json::Value(static_cast<std::int64_t>(victims.size()));
  audit["tamper_detected"] =
      json::Value(static_cast<std::int64_t>(victims_detected));
  audit["leaves_sampled"] =
      json::Value(static_cast<std::int64_t>(caught->leaves_sampled));
  audit["bytes_read"] =
      json::Value(static_cast<std::int64_t>(caught->bytes_read));
  audit["stored_bytes"] =
      json::Value(static_cast<std::int64_t>(caught->stored_bytes));
  audit["read_fraction"] = json::Value(out->audit_fraction);
  row["audit"] = json::Value(std::move(audit));
  json::Object tco;
  tco["initial_discs"] = json::Value(static_cast<std::int64_t>(initial_discs));
  tco["refresh_burns"] =
      json::Value(static_cast<std::int64_t>(olfs->scrub().refresh_burns()));
  tco["media_usd"] = json::Value(media_usd);
  row["tco"] = json::Value(std::move(tco));
  out->row = std::move(row);

  sim.Shutdown();
  return true;
}

// Double-runs one config under the divergence oracle: the second run must
// replay the first's event stream — aging draws, scrub passes, audits and
// all — fold for fold.
bool ReplayCheckConfig(const Config& cfg, const Options& opt) {
  sim::EventHasher record;
  ConfigResult first;
  if (!RunConfig(cfg, opt, &first, &record)) {
    return false;
  }
  sim::EventHasher check(record.trail());
  ConfigResult second;
  const bool ok = RunConfig(cfg, opt, &second, &check);
  check.Finish();
  if (check.diverged()) {
    const sim::EventHasher::Divergence& div = *check.divergence();
    std::fprintf(stderr,
                 "REPLAY DIVERGENCE (%s): event #%llu: %s\n", cfg.name,
                 static_cast<unsigned long long>(div.index),
                 div.description.c_str());
    return false;
  }
  if (!ok || first.survival != second.survival) {
    return false;
  }
  std::printf("{\"config\": \"%s\", \"replay_events\": %llu, "
              "\"replay_digest\": \"%016llx\"}\n",
              cfg.name,
              static_cast<unsigned long long>(check.event_count()),
              static_cast<unsigned long long>(check.digest()));
  return true;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      opt.smoke = true;
    } else if (std::strcmp(argv[i], "--replay-check") == 0) {
      opt.replay_check = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--replay-check]\n",
                   argv[0]);
      return 2;
    }
  }

  if (opt.replay_check) {
    int failures = 0;
    for (const Config& cfg : kConfigs) {
      if (!ReplayCheckConfig(cfg, opt)) {
        ++failures;
      }
    }
    if (failures > 0) {
      std::fprintf(stderr, "%d configs diverged or failed\n", failures);
      return 1;
    }
    std::printf("all %zu configs replayed deterministically\n",
                std::size(kConfigs));
    return 0;
  }

  json::Array rows;
  std::map<std::string, ConfigResult> results;
  for (const Config& cfg : kConfigs) {
    ConfigResult result;
    if (!RunConfig(cfg, opt, &result)) {
      return 1;
    }
    rows.push_back(json::Value(std::move(result.row)));
    results[cfg.name] = std::move(result);
  }

  // Gates (the acceptance bar, checked on the committed full run and the
  // CI smoke alike).
  const ConfigResult& archival = results["archival"];
  const ConfigResult& baseline = results["none-raid5"];
  const bool archival_survives = archival.survival == 1.0;
  const bool baseline_loses = baseline.survival < 1.0;
  const bool tamper_detected = archival.tamper_all_detected;
  const bool audit_cheap = archival.audit_fraction < 0.05;
  const bool pass =
      archival_survives && baseline_loses && tamper_detected && audit_cheap;

  json::Object gates;
  gates["archival_full_survival"] = json::Value(archival_survives);
  gates["no_scrub_measurable_loss"] = json::Value(baseline_loses);
  gates["tampering_always_detected"] = json::Value(tamper_detected);
  gates["audit_reads_under_5pct"] = json::Value(audit_cheap);

  json::Object doc;
  doc["bench"] = json::Value("preservation");
  doc["mode"] = json::Value(opt.smoke ? "smoke" : "full");
  doc["pass"] = json::Value(pass);
  doc["gates"] = json::Value(std::move(gates));
  doc["rows"] = json::Value(std::move(rows));
  bench::AddHostFigures(&doc);
  std::printf("%s\n", json::Value(std::move(doc)).DumpPretty().c_str());
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace ros::olfs

int main(int argc, char** argv) { return ros::olfs::Main(argc, argv); }
