// One conformance profile per Fit (core/confair.h, core/tuning.h,
// core/artifacts.h).
//
// CONFAIR's profile does not depend on the intervention degree, so the
// alpha search, the final weights and the serving profile all share one
// GroupLabelProfile::Profile call. The tests below count those calls and
// check that sharing the profile changes no bit of the result: the tuned
// alpha, the retrain count, the weights and the saved snapshot equal a
// reference that re-derives its weights, and so its profile, through
// ComputeConfairWeights for every candidate, as the search used to.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/artifacts.h"
#include "core/confair.h"
#include "core/profile.h"
#include "core/tuning.h"
#include "data/split.h"
#include "datagen/realworld.h"
#include "fairness/report.h"
#include "serve/snapshot_io.h"
#include "util/binary_io.h"
#include "util/rng.h"

namespace fairdrift {
namespace {

constexpr double kSuiteScale = 0.05;

TrainValTest SplitOf(const Dataset& data, uint64_t seed) {
  Rng rng(seed);
  Result<TrainValTest> split = SplitTrainValTest(data, &rng);
  EXPECT_TRUE(split.ok());
  return split.ok() ? std::move(split).value() : TrainValTest{};
}

TrainValTest MepsSplit() {
  Result<Dataset> data = MakeRealWorldLike(
      GetRealDatasetSpec(RealDatasetId::kMeps), kSuiteScale);
  EXPECT_TRUE(data.ok());
  return SplitOf(data.value(), 17);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

uint64_t ProfilesDuring(const std::function<void()>& body) {
  uint64_t before = GroupLabelProfile::TotalProfileCount();
  body();
  return GroupLabelProfile::TotalProfileCount() - before;
}

uint64_t ProfilesPerFit(const TrainValTest& split, const TrainSpec& spec) {
  return ProfilesDuring([&] { EXPECT_TRUE(Fit(split, spec).ok()); });
}

/// SaveSnapshot's bytes for the frozen artifacts.
std::string SnapshotBytes(FittedArtifacts artifacts, const std::string& name) {
  Result<std::shared_ptr<const ModelSnapshot>> frozen =
      Freeze(std::move(artifacts));
  EXPECT_TRUE(frozen.ok());
  if (!frozen.ok()) return "";
  std::string path = testing::TempDir() + "/" + name;
  EXPECT_TRUE(SaveSnapshot(*frozen.value(), path).ok());
  Result<std::string> bytes = ReadFileBytes(path);
  EXPECT_TRUE(bytes.ok());
  return bytes.ok() ? std::move(bytes).value() : "";
}

/// The final single model of a Fit without threshold tuning, trained on
/// `weights`.
std::unique_ptr<Classifier> FinalModel(const Dataset& train,
                                       const FeatureEncoder& encoder,
                                       const TrainSpec& spec,
                                       const std::vector<double>& weights) {
  std::unique_ptr<Classifier> model =
      MakeLearner(spec.learner, spec.learner_seed);
  Result<Matrix> x = encoder.Transform(train);
  EXPECT_TRUE(x.ok());
  EXPECT_TRUE(model->Fit(x.value(), train.labels(), weights).ok());
  return model;
}

// ------------------------------------------------------- profile counter

TEST(ProfileCountTest, EveryFitProfilesItsSplitOnce) {
  TrainValTest split = MepsSplit();

  TrainSpec tuned;
  tuned.method = Method::kConfair;  // tune_confair defaults to true
  EXPECT_EQ(ProfilesPerFit(split, tuned), 1u);

  TrainSpec untuned = tuned;
  untuned.tune_confair = false;
  EXPECT_EQ(ProfilesPerFit(split, untuned), 1u);

  TrainSpec tuned_with_profile = tuned;
  tuned_with_profile.include_profile = true;
  EXPECT_EQ(ProfilesPerFit(split, tuned_with_profile), 1u);

  EXPECT_EQ(ProfilesPerFit(split, ServingSpec(Method::kConfair)), 1u);

  TrainSpec diffair;
  diffair.method = Method::kDiffair;
  EXPECT_EQ(ProfilesPerFit(split, diffair), 1u);
  EXPECT_EQ(ProfilesPerFit(split, ServingSpec(Method::kDiffair)), 1u);
}

TEST(ProfileCountTest, AlphaSearchProfilesOnceAndRetrainsPerCandidate) {
  TrainValTest split = MepsSplit();
  Result<FeatureEncoder> encoder = FeatureEncoder::Fit(split.train);
  ASSERT_TRUE(encoder.ok());
  std::unique_ptr<Classifier> prototype =
      MakeLearner(LearnerKind::kLogisticRegression, 42);
  uint64_t before = GroupLabelProfile::TotalProfileCount();
  Result<ConfairTuneResult> tuned = TuneConfairAlpha(
      split.train, split.val, *prototype, encoder.value(), ConfairOptions{});
  EXPECT_EQ(GroupLabelProfile::TotalProfileCount() - before, 1u);
  ASSERT_TRUE(tuned.ok());
  EXPECT_EQ(tuned->models_trained, 12);

  TrainSpec spec;
  spec.method = Method::kConfair;
  Result<FittedArtifacts> fitted = Fit(split, spec);
  ASSERT_TRUE(fitted.ok());
  EXPECT_EQ(fitted->models_trained, 13);  // 12 candidates + the final model

  EXPECT_EQ(ProfilesDuring([&] {
              EXPECT_TRUE(
                  ComputeConfairWeights(split.train, ConfairOptions{}).ok());
            }),
            1u);
}

// ------------------------------------------- the alpha-independent split

void ExpectSameWeights(const ConfairWeights& a, const ConfairWeights& b) {
  EXPECT_TRUE(SameBits(a.weights, b.weights));
  EXPECT_EQ(a.boosted_primary, b.boosted_primary);
  EXPECT_EQ(a.boosted_secondary, b.boosted_secondary);
  EXPECT_EQ(a.plan.primary_group, b.plan.primary_group);
  EXPECT_EQ(a.plan.primary_label, b.plan.primary_label);
  EXPECT_EQ(a.plan.has_secondary, b.plan.has_secondary);
  EXPECT_EQ(a.plan.secondary_group, b.plan.secondary_group);
  EXPECT_EQ(a.plan.secondary_label, b.plan.secondary_label);
}

/// Lines 1-11 of Algorithm 2 in one pass, as ComputeConfairWeights ran
/// them before the split: weights start at 0.0, gain the skew term, and
/// a tuple in a planned cell gains that cell's alpha when the alpha is
/// positive and the tuple violates none of the cell's constraints.
ConfairWeights MonolithicWeights(const Dataset& train,
                                 const GroupLabelProfile& profile,
                                 const ConfairOptions& options) {
  ConfairWeights out;
  if (options.plan_override.has_value()) {
    out.plan = *options.plan_override;
  } else {
    Result<ConfairBoostPlan> plan = PlanBoosts(train, options.objective);
    EXPECT_TRUE(plan.ok());
    out.plan = plan.value();
  }
  const std::vector<int>& labels = train.labels();
  const std::vector<int>& groups = train.groups();
  double n = static_cast<double>(train.size());
  Matrix numeric = train.NumericMatrix();
  out.weights.assign(train.size(), 0.0);
  for (size_t i = 0; i < train.size(); ++i) {
    int g = groups[i];
    int y = labels[i];
    out.weights[i] += static_cast<double>(train.LabelCount(y)) / n *
                      static_cast<double>(train.GroupCount(g)) /
                      static_cast<double>(train.CellCount(g, y));
  }
  for (size_t i = 0; i < train.size(); ++i) {
    int g = groups[i];
    int y = labels[i];
    bool is_primary = g == out.plan.primary_group &&
                      y == out.plan.primary_label && options.alpha_u > 0.0;
    bool is_secondary = out.plan.has_secondary &&
                        g == out.plan.secondary_group &&
                        y == out.plan.secondary_label && options.alpha_w > 0.0;
    if (!is_primary && !is_secondary) continue;
    const std::optional<ConstraintSet>& cs = profile.cell(g, y);
    if (!cs.has_value() || cs->Violation(numeric.RowPtr(i)) > 0.0) continue;
    if (is_primary) {
      out.weights[i] += options.alpha_u;
      ++out.boosted_primary;
    } else {
      out.weights[i] += options.alpha_w;
      ++out.boosted_secondary;
    }
  }
  return out;
}

TEST(ConfairBaseTest, ApplyingAlphasMatchesTheOnePassAlgorithm) {
  const Dataset train = MepsSplit().train;
  ConfairBoostPlan same_cell_twice;
  same_cell_twice.primary_group = kMinorityGroup;
  same_cell_twice.primary_label = 1;
  same_cell_twice.has_secondary = true;
  same_cell_twice.secondary_group = kMinorityGroup;
  same_cell_twice.secondary_label = 1;

  std::vector<ConfairOptions> shapes(4);
  shapes[1].objective = FairnessObjective::kEqualizedOddsFnr;
  shapes[2].objective = FairnessObjective::kEqualizedOddsFpr;
  shapes[3].plan_override = same_cell_twice;
  const std::pair<double, double> alphas[] = {
      {0.0, 0.0}, {0.0, 0.5}, {0.25, 0.0}, {1.0, 0.5}, {6.0, 3.0}};

  for (const ConfairOptions& shape : shapes) {
    Result<GroupLabelProfile> profile =
        GroupLabelProfile::Profile(train, shape.profile);
    ASSERT_TRUE(profile.ok());
    Result<ConfairBase> base =
        PrepareConfairBase(train, profile.value(), shape);
    ASSERT_TRUE(base.ok());
    for (const auto& [alpha_u, alpha_w] : alphas) {
      ConfairOptions options = shape;
      options.alpha_u = alpha_u;
      options.alpha_w = alpha_w;
      Result<ConfairWeights> applied =
          ApplyConfairAlphas(base.value(), alpha_u, alpha_w);
      ASSERT_TRUE(applied.ok());
      ExpectSameWeights(applied.value(),
                        MonolithicWeights(train, profile.value(), options));
      Result<ConfairWeights> direct = ComputeConfairWeights(train, options);
      ASSERT_TRUE(direct.ok());
      ExpectSameWeights(direct.value(), applied.value());
    }
  }
}

TEST(ConfairBaseTest, RejectsNegativeAlphasAndForeignProfiles) {
  const Dataset train = MepsSplit().train;
  Result<GroupLabelProfile> profile =
      GroupLabelProfile::Profile(train, ProfileOptions{});
  ASSERT_TRUE(profile.ok());
  Result<ConfairBase> base =
      PrepareConfairBase(train, profile.value(), ConfairOptions{});
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(ApplyConfairAlphas(base.value(), -1.0, 0.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ApplyConfairAlphas(base.value(), 1.0, -0.5).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(PrepareConfairBase(train, GroupLabelProfile(), ConfairOptions{})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// ------------------------------------- bitwise equivalence on the suite

struct ReferenceTune {
  ConfairOptions options;
  int models_trained = 0;
};

/// TuneConfairAlpha as it ran while every candidate re-derived its
/// weights, and with them the profile, through ComputeConfairWeights.
Result<ReferenceTune> PerCandidateTune(const Dataset& train,
                                       const Dataset& val,
                                       const Classifier& prototype,
                                       const FeatureEncoder& encoder,
                                       const ConfairOptions& base) {
  const ConfairTuneOptions tune;
  const std::vector<double> grid = {0.0, 0.25, 0.5, 0.75, 1.0, 1.5,
                                    2.0, 2.5,  3.0, 4.0,  5.0, 6.0};
  Result<Matrix> x_train = encoder.Transform(train);
  if (!x_train.ok()) return x_train.status();
  Result<Matrix> x_val = encoder.Transform(val);
  if (!x_val.ok()) return x_val.status();

  ReferenceTune best, best_any;
  bool have_best = false, have_any = false;
  double best_gap = std::numeric_limits<double>::infinity();
  double best_balacc = 0.0;
  double best_any_gap = std::numeric_limits<double>::infinity();
  int models_trained = 0;
  for (double alpha_u : grid) {
    ConfairOptions candidate = base;
    candidate.alpha_u = alpha_u;
    candidate.alpha_w =
        candidate.objective == FairnessObjective::kDisparateImpact
            ? tune.alpha_w_ratio * alpha_u
            : 0.0;
    Result<ConfairWeights> w = ComputeConfairWeights(train, candidate);
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
      have_any = true;
    }
    bool better = gap < best_gap - 1e-12 ||
                  (gap < best_gap + 1e-12 && balacc > best_balacc);
    if (balacc >= tune.accuracy_floor && better) {
      best_gap = gap;
      best_balacc = balacc;
      best.options = candidate;
      have_best = true;
    }
  }
  if (!have_best && !have_any) {
    return Status::NumericalError("reference: no trainable alpha");
  }
  ReferenceTune out = have_best ? best : best_any;
  out.models_trained = models_trained;
  return out;
}

TEST(FitEquivalenceTest, TunedConfairMatchesPerCandidateReferenceOnSuite) {
  for (const RealDatasetSpec& dataset : RealDatasetSuite()) {
    SCOPED_TRACE(dataset.name);
    Result<Dataset> data = MakeRealWorldLike(dataset, kSuiteScale);
    ASSERT_TRUE(data.ok());
    TrainValTest split = SplitOf(data.value(), 1000003);

    TrainSpec spec;
    spec.method = Method::kConfair;  // LR, alpha tuned on validation
    spec.include_profile = true;
    Result<FittedArtifacts> fitted = Fit(split, spec);
    ASSERT_TRUE(fitted.ok());

    Result<FeatureEncoder> encoder = FeatureEncoder::Fit(split.train);
    ASSERT_TRUE(encoder.ok());
    std::unique_ptr<Classifier> prototype =
        MakeLearner(spec.learner, spec.learner_seed);
    Result<ReferenceTune> reference =
        PerCandidateTune(split.train, split.val, *prototype, encoder.value(),
                         spec.confair);
    ASSERT_TRUE(reference.ok());
    Result<ConfairWeights> weights =
        ComputeConfairWeights(split.train, reference->options);
    ASSERT_TRUE(weights.ok());

    EXPECT_TRUE(SameBits(fitted->tuned_alpha, reference->options.alpha_u));
    EXPECT_EQ(fitted->models_trained, reference->models_trained + 1);
    EXPECT_TRUE(SameBits(fitted->training_weights, weights->weights));

    FittedArtifacts expected;
    expected.spec = spec;
    expected.spec.confair = reference->options;
    expected.schema = split.train.GetSchema();
    expected.encoder = encoder.value();
    expected.models.push_back(
        FinalModel(split.train, encoder.value(), spec, weights->weights));
    Result<GroupLabelProfile> profile =
        GroupLabelProfile::Profile(split.train, spec.confair.profile);
    ASSERT_TRUE(profile.ok());
    expected.profile = std::move(profile).value();
    expected.has_profile = true;
    expected.training_weights = weights->weights;
    EXPECT_EQ(SnapshotBytes(std::move(fitted).value(), "tuned_fit.bin"),
              SnapshotBytes(std::move(expected), "tuned_reference.bin"));
  }
}

TEST(FitEquivalenceTest, ServingSpecConfairMatchesTwoProfileFit) {
  const TrainSpec spec = ServingSpec(Method::kConfair);
  for (const RealDatasetSpec& dataset : RealDatasetSuite()) {
    SCOPED_TRACE(dataset.name);
    Result<Dataset> data = MakeRealWorldLike(dataset, kSuiteScale);
    ASSERT_TRUE(data.ok());
    const Dataset& train = data.value();

    Result<FittedArtifacts> fitted = Fit(train, Dataset(), spec);
    ASSERT_TRUE(fitted.ok());

    // The same Fit with the weights and the serving profile taken from
    // two separate profiles, as Fit computed them before sharing one.
    Result<FittedArtifacts> twice = Fit(train, Dataset(), spec);
    ASSERT_TRUE(twice.ok());
    Result<ConfairWeights> weights = ComputeConfairWeights(train, spec.confair);
    ASSERT_TRUE(weights.ok());
    Result<GroupLabelProfile> profile =
        GroupLabelProfile::Profile(train, spec.confair.profile);
    ASSERT_TRUE(profile.ok());
    twice->models[0] =
        FinalModel(train, twice->encoder, spec, weights->weights);
    twice->profile = std::move(profile).value();
    twice->training_weights = weights->weights;

    EXPECT_TRUE(SameBits(fitted->training_weights, weights->weights));
    EXPECT_EQ(SnapshotBytes(std::move(fitted).value(), "serving_fit.bin"),
              SnapshotBytes(std::move(twice).value(), "serving_twice.bin"));
  }
}

}  // namespace
}  // namespace fairdrift
