// Reproduces the paper's evaluation (§5) and its §2/§4 models, and checks
// them.
//
//   paper                      print the rows as one JSON document
//   paper BENCH_PAPER.json     compare the rows with the committed ones
//
// Each row is (experiment, label, unit, paper value or null, measured
// value, band on measured/paper or null). The process exits 1 if any
// ratio leaves its band, or if a committed document is given and a row is
// missing, extra or changed: any field differs, or the measured value by
// more than 1e-9 relative. Every simulated figure is deterministic, so a
// change means the model moved. Host figures (host_wall_s, peak_rss_mb)
// are reported but not compared. To refresh after an intended model
// change, copy the output over BENCH_PAPER.json.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "bench/bench_util.h"
#include "bench/paper.h"
#include "src/common/json.h"

namespace ros::bench {
namespace {

struct Experiment {
  const char* name;
  Rows (*run)();
};

const Experiment kExperiments[] = {
    {"table1_read_latency", Table1ReadLatency},
    {"table2_drive_read", Table2DriveRead},
    {"table3_mechanical", Table3Mechanical},
    {"fig6_stack_throughput", Fig6StackThroughput},
    {"fig7_op_breakdown", Fig7OpBreakdown},
    {"fig8_burn_25gb_single", Fig8Burn25gbSingle},
    {"fig9_burn_25gb_array", Fig9Burn25gbArray},
    {"fig10_burn_100gb", Fig10Burn100gb},
    {"ablation_fuse_bigwrites", AblationFuseBigwrites},
    {"ablation_io_streams", AblationIoStreams},
    {"ablation_mech_parallel", AblationMechParallel},
    {"ablation_prefetch", AblationPrefetch},
    {"redundancy_model", RedundancyModel},
    {"tco_model", TcoModel},
    {"power_model", PowerModel},
    {"pb_scale_pipeline", PbScalePipeline},
    {"mv_recovery", MvRecovery},
};

json::Value RowJson(const std::string& experiment, const Row& row) {
  json::Object out;
  out["experiment"] = json::Value(experiment);
  out["label"] = json::Value(row.label);
  out["unit"] = json::Value(row.unit);
  out["paper"] = row.paper.has_value() ? json::Value(*row.paper)
                                       : json::Value();
  out["measured"] = json::Value(row.measured);
  out["band"] = row.band.has_value()
                    ? json::Value(json::Array{json::Value(row.band->lo),
                                              json::Value(row.band->hi)})
                    : json::Value();
  return json::Value(std::move(out));
}

std::string RowName(const json::Value& row) {
  return row["experiment"].as_string() + " / " + row["label"].as_string();
}

// Reports each row whose measured/paper ratio leaves its band.
int CheckBands(const json::Array& rows) {
  int failures = 0;
  for (const json::Value& row : rows) {
    if (row["band"].is_null()) {
      continue;
    }
    const double ratio =
        row["measured"].as_double() / row["paper"].as_double();
    const json::Array& band = row["band"].as_array();
    if (!(ratio >= band[0].as_double() && ratio <= band[1].as_double())) {
      std::fprintf(stderr, "band: %s: measured/paper %.6g outside [%g, %g]\n",
                   RowName(row).c_str(), ratio, band[0].as_double(),
                   band[1].as_double());
      ++failures;
    }
  }
  return failures;
}

// Names each field of `row` that differs from the committed row.
std::string Changes(const json::Value& row, const json::Value& committed) {
  std::string out;
  for (const char* field : {"unit", "paper", "band", "measured"}) {
    const json::Value& now = row[field];
    const json::Value& then = committed[field];
    bool same = now == then;
    if (now.is_double() && then.is_double()) {
      const double x = now.as_double();
      const double y = then.as_double();
      same = std::fabs(x - y) <= 1e-9 * std::max(std::fabs(x), std::fabs(y));
    }
    if (!same) {
      out += std::string(" ") + field + " " + now.Dump() + " (committed " +
             then.Dump() + ")";
    }
  }
  return out;
}

// Reports each row missing from, extra to, or changed against the
// committed document's rows.
int CompareRows(const json::Array& rows, const json::Array& committed) {
  std::map<std::string, const json::Value*> expected;
  for (const json::Value& row : committed) {
    expected[RowName(row)] = &row;
  }
  int failures = 0;
  for (const json::Value& row : rows) {
    const std::string name = RowName(row);
    auto it = expected.find(name);
    if (it == expected.end()) {
      std::fprintf(stderr, "extra: %s\n", name.c_str());
      ++failures;
      continue;
    }
    const std::string changes = Changes(row, *it->second);
    if (!changes.empty()) {
      std::fprintf(stderr, "changed: %s:%s\n", name.c_str(), changes.c_str());
      ++failures;
    }
    expected.erase(it);
  }
  for (const auto& [name, row] : expected) {
    std::fprintf(stderr, "missing: %s\n", name.c_str());
    ++failures;
  }
  return failures;
}

int Main(int argc, char** argv) {
  if (argc > 2) {
    std::fprintf(stderr, "usage: %s [committed BENCH_PAPER.json]\n", argv[0]);
    return 2;
  }
  json::Array rows;
  for (const Experiment& experiment : kExperiments) {
    const Rows result = experiment.run();
    for (const Row& row : result.rows()) {
      rows.push_back(RowJson(experiment.name, row));
    }
  }
  int failures = CheckBands(rows);
  if (argc == 2) {
    std::ifstream file(argv[1]);
    std::stringstream text;
    text << file.rdbuf();
    auto committed = json::Parse(text.str());
    if (!file || !committed.ok() || !(*committed)["rows"].is_array()) {
      std::fprintf(stderr, "cannot read rows from %s\n", argv[1]);
      return 2;
    }
    failures += CompareRows(rows, (*committed)["rows"].as_array());
    if (failures == 0) {
      std::printf("%zu rows match %s\n", rows.size(), argv[1]);
    }
  } else {
    json::Object doc;
    doc["bench"] = json::Value("paper");
    doc["rows"] = json::Value(std::move(rows));
    AddHostFigures(&doc);
    std::printf("%s\n", json::Value(std::move(doc)).DumpPretty().c_str());
  }
  if (failures > 0) {
    std::fprintf(stderr, "%d row(s) failed\n", failures);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ros::bench

int main(int argc, char** argv) { return ros::bench::Main(argc, argv); }
