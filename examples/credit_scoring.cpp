// Credit-scoring scenario: an end-to-end fair-lending workflow on the
// Credit-like dataset (numeric attributes only, strong bias against the
// young-applicant minority).
//
// Demonstrates: dataset generation, manual split, comparison of
// reweighing (KAM, CONFAIR) against the invasive repair (CAP),
// calibration diagnostics of the deployed model, and exporting the
// reweighed training data to CSV for downstream tooling.
//
//   ./credit_scoring [--scale S] [--seed K] [--out /tmp/credit_weighted.csv]

#include <cstdio>

#include "baselines/capuchin.h"
#include "baselines/kamiran.h"
#include "core/confair.h"
#include "core/tuning.h"
#include "data/csv.h"
#include "data/split.h"
#include "datagen/realworld.h"
#include "fairness/report.h"
#include "ml/calibration.h"
#include "ml/logistic_regression.h"
#include "util/cli.h"

using namespace fairdrift;

namespace {

/// Trains LR on (train, weights) and evaluates fairness + calibration on
/// the test split.
void Evaluate(const char* label, const Dataset& train,
              const std::vector<double>& weights, const Dataset& test,
              const FeatureEncoder& encoder) {
  LogisticRegression model;
  Result<Matrix> x_train = encoder.Transform(train);
  Result<Matrix> x_test = encoder.Transform(test);
  if (!x_train.ok() || !x_test.ok()) return;
  if (!model.Fit(x_train.value(), train.labels(), weights).ok()) {
    std::printf("%-22s training failed\n", label);
    return;
  }
  Result<std::vector<int>> pred = model.Predict(x_test.value());
  Result<std::vector<double>> proba = model.PredictProba(x_test.value());
  if (!pred.ok() || !proba.ok()) return;
  Result<FairnessReport> report =
      EvaluateFairness(test.labels(), pred.value(), test.groups());
  Result<double> ece = ExpectedCalibrationError(test.labels(), proba.value());
  Result<double> brier = BrierScore(test.labels(), proba.value());
  if (!report.ok() || !ece.ok() || !brier.ok()) return;
  std::printf("%-22s DI*=%.3f AOD*=%.3f BalAcc=%.3f ECE=%.3f Brier=%.3f\n",
              label, report->di_star, report->aod_star,
              report->balanced_accuracy, *ece, *brier);
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags = CliFlags::Parse(argc, argv);
  double scale = flags.GetDouble("scale", 0.08);
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  std::string out_path =
      flags.GetString("out", "/tmp/credit_weighted.csv");

  Result<Dataset> data =
      MakeRealWorldLike(GetRealDatasetSpec(RealDatasetId::kCredit), scale);
  if (!data.ok()) {
    std::fprintf(stderr, "datagen: %s\n", data.status().ToString().c_str());
    return 1;
  }
  std::printf("Credit-like dataset: %zu applicants, minority (age<35) "
              "%.1f%%, positive rate %.1f%% (U) vs %.1f%% (W)\n",
              data->size(),
              100.0 * static_cast<double>(data->GroupCount(kMinorityGroup)) /
                  static_cast<double>(data->size()),
              100.0 * static_cast<double>(data->CellCount(kMinorityGroup, 1)) /
                  static_cast<double>(data->GroupCount(kMinorityGroup)),
              100.0 * static_cast<double>(data->CellCount(kMajorityGroup, 1)) /
                  static_cast<double>(data->GroupCount(kMajorityGroup)));

  Rng rng(seed);
  Result<TrainValTest> split = SplitTrainValTest(*data, &rng);
  if (!split.ok()) return 1;
  Result<FeatureEncoder> encoder = FeatureEncoder::Fit(split->train);
  if (!encoder.ok()) return 1;

  std::printf("\n%-22s %s\n", "method", "test-split metrics");
  Evaluate("no-intervention", split->train, split->train.weights(),
           split->test, encoder.value());

  // KAM: closed-form reweighing.
  Result<std::vector<double>> kam = KamiranWeights(split->train);
  if (kam.ok()) {
    Evaluate("KAM reweighing", split->train, kam.value(), split->test,
             encoder.value());
  }

  // CONFAIR with auto-tuned intervention degree.
  LogisticRegression prototype;
  Result<ConfairTuneResult> tuned = TuneConfairAlpha(
      split->train, split->val, prototype, encoder.value(), {});
  if (tuned.ok()) {
    // The search returns the winner's weights; no second profile needed.
    const ConfairWeights& weights = tuned->weights;
    char label[64];
    std::snprintf(label, sizeof(label), "CONFAIR (alpha=%.2f)",
                  tuned->alpha_u);
    Evaluate(label, split->train, weights.weights, split->test,
             encoder.value());
    std::printf(
        "  CONFAIR boosted %zu conforming minority and %zu majority "
        "tuples (of %zu)\n",
        weights.boosted_primary, weights.boosted_secondary,
        split->train.size());

    // Export the weighted training data for downstream consumers.
    Dataset weighted = split->train;
    if (weighted.SetWeights(weights.weights).ok() &&
        WriteCsv(weighted, out_path).ok()) {
      std::printf("  reweighed training data written to %s\n",
                  out_path.c_str());
    }
  }

  // CAP: invasive repair for contrast — alters the training data itself.
  Rng cap_rng(seed + 1);
  Result<Dataset> repaired = CapuchinRepair(split->train, &cap_rng);
  if (repaired.ok()) {
    std::printf("  CAP repaired training set: %zu -> %zu tuples (invasive)\n",
                split->train.size(), repaired->size());
    Evaluate("CAP repair", repaired.value(), repaired->weights(),
             split->test, encoder.value());
  }
  return 0;
}
