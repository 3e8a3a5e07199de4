#include "core/tuning.h"

#include <limits>
#include <utility>

#include "fairness/report.h"

namespace fairdrift {

Result<ConfairTuneResult> TuneConfairAlpha(const Dataset& train,
                                           const Dataset& val,
                                           const Classifier& prototype,
                                           const FeatureEncoder& encoder,
                                           const ConfairOptions& base,
                                           const ConfairTuneOptions& tune) {
  std::vector<double> grid = tune.alpha_grid;
  if (grid.empty()) {
    // Dense near zero where the response is steepest, then coarse: the
    // monotone fairness response makes a fine far grid unnecessary.
    grid = {0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0};
  }
  Result<Matrix> x_train = encoder.Transform(train);
  if (!x_train.ok()) return x_train.status();
  Result<Matrix> x_val = encoder.Transform(val);
  if (!x_val.ok()) return x_val.status();

  // The profile is alpha-independent and costs several model fits (0.71 s
  // of profiling against 0.12 s of LR fitting over the Fig. 14 suite), so
  // it is computed once; each candidate is then an O(n) weighing.
  Result<GroupLabelProfile> profile =
      GroupLabelProfile::Profile(train, base.profile);
  if (!profile.ok()) return profile.status();
  Result<ConfairBase> prepared =
      PrepareConfairBase(train, profile.value(), base);
  if (!prepared.ok()) return prepared.status();

  ConfairTuneResult best;
  bool have_best = false;
  double best_gap = std::numeric_limits<double>::infinity();
  double best_balacc = 0.0;

  ConfairTuneResult best_any;
  bool have_any = false;
  double best_any_gap = std::numeric_limits<double>::infinity();

  int models_trained = 0;
  for (double alpha_u : grid) {
    ConfairOptions candidate = base;
    candidate.alpha_u = alpha_u;
    candidate.alpha_w =
        candidate.objective == FairnessObjective::kDisparateImpact
            ? tune.alpha_w_ratio * alpha_u
            : 0.0;

    Result<ConfairWeights> w = ApplyConfairAlphas(
        prepared.value(), candidate.alpha_u, candidate.alpha_w);
    if (!w.ok()) return w.status();

    std::unique_ptr<Classifier> learner = prototype.CloneUnfitted();
    Status st = learner->Fit(x_train.value(), train.labels(),
                             w.value().weights);
    ++models_trained;
    if (!st.ok()) continue;

    Result<std::vector<int>> pred = learner->Predict(x_val.value());
    if (!pred.ok()) continue;
    Result<FairnessReport> report =
        EvaluateFairness(val.labels(), pred.value(), val.groups());
    if (!report.ok()) continue;

    double gap = ObjectiveGap(report.value().stats, candidate.objective);
    double balacc = report.value().balanced_accuracy;

    if (gap < best_any_gap) {
      best_any_gap = gap;
      best_any.options = candidate;
      best_any.alpha_u = alpha_u;
      best_any.validation_gap = gap;
      have_any = true;
    }
    bool better = gap < best_gap - 1e-12 ||
                  (gap < best_gap + 1e-12 && balacc > best_balacc);
    if (balacc >= tune.accuracy_floor && better) {
      best_gap = gap;
      best_balacc = balacc;
      best.options = candidate;
      best.alpha_u = alpha_u;
      best.validation_gap = gap;
      have_best = true;
    }
  }

  if (!have_best) {
    if (!have_any) {
      return Status::NumericalError(
          "TuneConfairAlpha: no alpha produced a trainable model");
    }
    best = std::move(best_any);
  }
  best.models_trained = models_trained;
  Result<ConfairWeights> weights = ApplyConfairAlphas(
      prepared.value(), best.options.alpha_u, best.options.alpha_w);
  if (!weights.ok()) return weights.status();
  best.weights = std::move(weights).value();
  best.profile = std::move(profile).value();
  return best;
}

}  // namespace fairdrift
