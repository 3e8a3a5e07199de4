// Subpopulation side-effect audit: the paper cautions that repairing
// fairness for one partition "may lead to imbalances in the treatment of
// other unidentified subpopulations" (§I). This example repairs w.r.t.
// the primary group attribute and then audits a second, unrelated
// partition (and the cross product) before and after the intervention.
//
//   ./audit_subpopulations [--scale S] [--seed K]

#include <cstdio>

#include "core/confair.h"
#include "core/tuning.h"
#include "data/split.h"
#include "datagen/realworld.h"
#include "fairness/intersectional.h"
#include "fairness/report.h"
#include "ml/logistic_regression.h"
#include "util/cli.h"
#include "util/rng.h"

using namespace fairdrift;

namespace {

/// Derives a second partition from an attribute that was NOT used to
/// define fairness groups (first categorical column, else a numeric
/// median split).
std::vector<int> SecondaryPartition(const Dataset& data) {
  for (size_t j = 0; j < data.num_features(); ++j) {
    const Column& c = data.column(j);
    if (!c.is_numeric() && c.num_categories() <= 4) {
      return c.codes();
    }
  }
  // Median split of the first numeric column.
  const std::vector<double>& vals = data.column(0).numeric_values();
  std::vector<double> sorted = vals;
  std::sort(sorted.begin(), sorted.end());
  double median = sorted[sorted.size() / 2];
  std::vector<int> out(vals.size());
  for (size_t i = 0; i < vals.size(); ++i) out[i] = vals[i] >= median ? 1 : 0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags = CliFlags::Parse(argc, argv);
  double scale = flags.GetDouble("scale", 0.1);
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 33));

  Result<Dataset> data = MakeRealWorldLike(
      GetRealDatasetSpec(RealDatasetId::kAcsIncomePoverty), scale);
  if (!data.ok()) {
    std::fprintf(stderr, "datagen: %s\n", data.status().ToString().c_str());
    return 1;
  }
  Rng rng(seed);
  Result<TrainValTest> split = SplitTrainValTest(*data, &rng);
  if (!split.ok()) return 1;
  Result<FeatureEncoder> encoder = FeatureEncoder::Fit(split->train);
  if (!encoder.ok()) return 1;
  Result<Matrix> x_train = encoder->Transform(split->train);
  Result<Matrix> x_test = encoder->Transform(split->test);
  if (!x_train.ok() || !x_test.ok()) return 1;

  auto evaluate = [&](const std::vector<double>& weights,
                      std::vector<int>* pred_out) -> bool {
    LogisticRegression model;
    if (!model.Fit(x_train.value(), split->train.labels(), weights).ok()) {
      return false;
    }
    Result<std::vector<int>> pred = model.Predict(x_test.value());
    if (!pred.ok()) return false;
    *pred_out = std::move(pred).value();
    return true;
  };

  std::vector<int> pred_before;
  if (!evaluate(split->train.weights(), &pred_before)) return 1;

  LogisticRegression prototype;
  Result<ConfairTuneResult> tuned = TuneConfairAlpha(
      split->train, split->val, prototype, encoder.value(), {});
  if (!tuned.ok()) return 1;
  std::vector<int> pred_after;
  if (!evaluate(tuned->weights.weights, &pred_after)) return 1;

  // Primary-group fairness, before and after.
  Result<FairnessReport> before = EvaluateFairness(
      split->test.labels(), pred_before, split->test.groups());
  Result<FairnessReport> after = EvaluateFairness(
      split->test.labels(), pred_after, split->test.groups());
  if (!before.ok() || !after.ok()) return 1;
  std::printf("primary group (the repaired one):\n");
  std::printf("  before: %s\n", FormatReport(*before).c_str());
  std::printf("  after : %s  (alpha_u=%.2f)\n\n", FormatReport(*after).c_str(),
              tuned->alpha_u);

  // Audit a second partition that the repair never saw.
  std::vector<int> secondary = SecondaryPartition(split->test);
  Result<SubgroupAudit> audit_before =
      AuditSubgroups(split->test.labels(), pred_before, secondary);
  Result<SubgroupAudit> audit_after =
      AuditSubgroups(split->test.labels(), pred_after, secondary);
  if (audit_before.ok() && audit_after.ok()) {
    std::printf("secondary partition (never targeted by the repair):\n");
    std::printf("before —\n%s", FormatSubgroupAudit(*audit_before).c_str());
    std::printf("after  —\n%s\n", FormatSubgroupAudit(*audit_after).c_str());
  }

  // Cross product: the finest subpopulations.
  Result<std::vector<int>> cross =
      CrossPartition(split->test.groups(), secondary);
  if (cross.ok()) {
    Result<SubgroupAudit> audit_cross =
        AuditSubgroups(split->test.labels(), pred_after, cross.value(), 25);
    if (audit_cross.ok()) {
      std::printf("cross partition (group x secondary), after repair —\n%s",
                  FormatSubgroupAudit(*audit_cross).c_str());
    }
  }
  std::printf(
      "\ntakeaway: a repair targeted at one partition does not guarantee "
      "parity for others — audit them explicitly.\n");
  return 0;
}
