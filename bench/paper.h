// The paper's evaluation (§5) and its §2/§4 models as rows of one
// document. Each experiment is a function returning its rows; bench/paper
// runs them all, prints the document and, given the committed
// BENCH_PAPER.json, checks every row against it.
#ifndef ROS_BENCH_PAPER_H_
#define ROS_BENCH_PAPER_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace ros::bench {

// The accepted range of measured/paper for a figure the paper reports.
struct Band {
  double lo;
  double hi;
};

// Reproduced "within a few percent".
inline constexpr Band kClose{0.95, 1.05};
inline constexpr Band kWithin10{0.9, 1.1};

struct Row {
  std::string label;
  std::string unit;
  std::optional<double> paper;
  double measured = 0;
  std::optional<Band> band;
};

class Rows {
 public:
  // A figure the paper does not report (a series point, an ablation
  // figure): pinned by equality with the committed document alone.
  void Add(std::string label, std::string unit, double measured) {
    rows_.push_back({std::move(label), std::move(unit), std::nullopt,
                     measured, std::nullopt});
  }
  // A figure the paper reports: measured/paper must also stay in `band`.
  void Paper(std::string label, std::string unit, double paper,
             double measured, Band band) {
    rows_.push_back(
        {std::move(label), std::move(unit), paper, measured, band});
  }
  const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<Row> rows_;
};

// §5.2, §5.4, §5.5.
Rows Table1ReadLatency();
Rows Table2DriveRead();
Rows Table3Mechanical();
// §5.3, §5.4.
Rows Fig6StackThroughput();
Rows Fig7OpBreakdown();
Rows Fig8Burn25gbSingle();
Rows Fig9Burn25gbArray();
Rows Fig10Burn100gb();
// §3.2, §4.1, §4.7, §4.8.
Rows AblationFuseBigwrites();
Rows AblationIoStreams();
Rows AblationMechParallel();
Rows AblationPrefetch();
// §2.1, §4.2, §4.7, §5.1 and the paper-scale pipeline.
Rows RedundancyModel();
Rows TcoModel();
Rows PowerModel();
Rows PbScalePipeline();
Rows MvRecovery();

}  // namespace ros::bench

#endif  // ROS_BENCH_PAPER_H_
