// Automatic search for CONFAIR's intervention degree.
//
// The paper's protocol (§IV, "Algorithm parameters"): search alpha_u on
// the validation split for the value that optimizes the fairness objective
// (DI closest to parity), with alpha_w = alpha_u / 2. Because CONFAIR's
// fairness response is monotone in alpha (only conforming tuples are
// boosted), a coarse-to-fine grid converges quickly.
//
// The search profiles `train` once: the conformance profile, the skew
// weights and the conforming-tuple marks do not depend on alpha
// (PrepareConfairBase), so each candidate costs an O(n) weighing plus
// one model retrain. Profiling is the expensive step, not training: on
// the Fig. 14 suite (7 datasets at scale 0.05, LR, a 4-thread x86 host)
// one profile per split summed to 0.71 s against 0.12 s for one LR fit
// per split. Supplying the intervention degree directly skips the
// retraining as well.

#ifndef FAIRDRIFT_CORE_TUNING_H_
#define FAIRDRIFT_CORE_TUNING_H_

#include <vector>

#include "core/confair.h"
#include "data/encode.h"
#include "ml/model.h"
#include "util/status.h"

namespace fairdrift {

/// Configuration for the alpha search.
struct ConfairTuneOptions {
  /// Candidate alpha_u values; empty selects the default 12-value grid
  /// {0, 0.25, 0.5, 0.75, 1, 1.5, 2, 2.5, 3, 4, 5, 6}.
  std::vector<double> alpha_grid;
  /// alpha_w = alpha_w_ratio * alpha_u (paper: 1/2) for the DI objective;
  /// the EO objectives keep alpha_w = 0.
  double alpha_w_ratio = 0.5;
  /// Candidates whose validation balanced accuracy falls below this floor
  /// are rejected unless nothing else qualifies.
  double accuracy_floor = 0.55;
};

/// Result of the search.
struct ConfairTuneResult {
  ConfairOptions options;  ///< base options with the winning alphas filled in
  double alpha_u = 0.0;
  double validation_gap = 0.0;  ///< objective gap at the winner
  int models_trained = 0;       ///< retraining count (runtime driver)
  /// The winner's weights: ComputeConfairWeights(train, options) without
  /// profiling `train` again.
  ConfairWeights weights;
  /// GroupLabelProfile::Profile(train, base.profile), the profile every
  /// candidate was weighed against.
  GroupLabelProfile profile;
};

/// Grid-searches alpha_u, retraining `prototype` on CONFAIR-reweighed
/// `train` and scoring the objective gap on `val`. Profiles `train` once.
Result<ConfairTuneResult> TuneConfairAlpha(const Dataset& train,
                                           const Dataset& val,
                                           const Classifier& prototype,
                                           const FeatureEncoder& encoder,
                                           const ConfairOptions& base,
                                           const ConfairTuneOptions& tune = {});

}  // namespace fairdrift

#endif  // FAIRDRIFT_CORE_TUNING_H_
