// Model-agnostic weights scenario (the paper's Fig. 7 story): CONFAIR's
// weights are calibrated once against one learner family and then reused
// to train a different family — and, for learners without native weight
// support, consumed through weighted resampling.
//
//   ./model_agnostic_weights [--scale S] [--seed K]

#include <cstdio>

#include "core/confair.h"
#include "core/tuning.h"
#include "data/sampling.h"
#include "data/split.h"
#include "datagen/realworld.h"
#include "fairness/report.h"
#include "ml/gbt.h"
#include "ml/logistic_regression.h"
#include "util/cli.h"

using namespace fairdrift;

namespace {

void Evaluate(const char* label, Classifier* model, const Dataset& train,
              const std::vector<double>& weights, const Dataset& test,
              const FeatureEncoder& encoder) {
  Result<Matrix> x_train = encoder.Transform(train);
  Result<Matrix> x_test = encoder.Transform(test);
  if (!x_train.ok() || !x_test.ok()) return;
  if (!model->Fit(x_train.value(), train.labels(), weights).ok()) {
    std::printf("%-38s training failed\n", label);
    return;
  }
  Result<std::vector<int>> pred = model->Predict(x_test.value());
  if (!pred.ok()) return;
  Result<FairnessReport> report =
      EvaluateFairness(test.labels(), pred.value(), test.groups());
  if (!report.ok()) return;
  std::printf("%-38s DI*=%.3f AOD*=%.3f BalAcc=%.3f\n", label,
              report->di_star, report->aod_star,
              report->balanced_accuracy);
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags = CliFlags::Parse(argc, argv);
  double scale = flags.GetDouble("scale", 0.1);
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 21));

  Result<Dataset> data = MakeRealWorldLike(
      GetRealDatasetSpec(RealDatasetId::kAcsEmployment), scale);
  if (!data.ok()) {
    std::fprintf(stderr, "datagen: %s\n", data.status().ToString().c_str());
    return 1;
  }
  Rng rng(seed);
  Result<TrainValTest> split = SplitTrainValTest(*data, &rng);
  if (!split.ok()) return 1;
  Result<FeatureEncoder> encoder = FeatureEncoder::Fit(split->train);
  if (!encoder.ok()) return 1;

  // Calibrate the intervention degree once, against the *tree* learner.
  GradientBoostedTrees calibration_model;
  Result<ConfairTuneResult> tuned = TuneConfairAlpha(
      split->train, split->val, calibration_model, encoder.value(), {});
  if (!tuned.ok()) {
    std::fprintf(stderr, "tuning: %s\n", tuned.status().ToString().c_str());
    return 1;
  }
  const ConfairWeights& weights = tuned->weights;  // the winner's
  std::printf("CONFAIR weights calibrated against XGB: alpha_u = %.2f "
              "(%d models trained during the search)\n\n",
              tuned->alpha_u, tuned->models_trained);

  // Baselines without any intervention.
  LogisticRegression plain_lr;
  GradientBoostedTrees plain_xgb;
  Evaluate("LR, no intervention", &plain_lr, split->train,
           split->train.weights(), split->test, encoder.value());
  Evaluate("XGB, no intervention", &plain_xgb, split->train,
           split->train.weights(), split->test, encoder.value());
  std::printf("\n");

  // The same weights consumed by both learner families.
  GradientBoostedTrees xgb;
  Evaluate("XGB with XGB-calibrated weights", &xgb, split->train,
           weights.weights, split->test, encoder.value());
  LogisticRegression lr;
  Evaluate("LR  with XGB-calibrated weights", &lr, split->train,
           weights.weights, split->test, encoder.value());

  // Fallback for weight-agnostic learners: weighted resampling of the
  // training data reproduces the intervention without weight support.
  Dataset weighted_train = split->train;
  if (!weighted_train.SetWeights(weights.weights).ok()) return 1;
  Rng resample_rng(seed + 1);
  Result<Dataset> resampled = WeightedResample(weighted_train, &resample_rng);
  if (resampled.ok()) {
    LogisticRegression lr_resampled;
    Evaluate("LR  via weighted resampling", &lr_resampled,
             resampled.value(), resampled->weights(), split->test,
             encoder.value());
  }
  return 0;
}
