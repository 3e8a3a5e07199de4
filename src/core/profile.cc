#include "core/profile.h"

#include <atomic>
#include <cmath>
#include <limits>

namespace fairdrift {

namespace {
std::atomic<uint64_t> g_profile_count{0};
}  // namespace

Result<GroupLabelProfile> GroupLabelProfile::Profile(
    const Dataset& data, const ProfileOptions& options) {
  if (!data.has_labels() || !data.has_groups()) {
    return Status::FailedPrecondition(
        "GroupLabelProfile: dataset needs labels and groups");
  }
  GroupLabelProfile profile;
  profile.num_groups_ = data.num_groups();
  profile.num_classes_ = data.num_classes();
  profile.cells_.resize(static_cast<size_t>(profile.num_groups_) *
                        static_cast<size_t>(profile.num_classes_));

  // Optionally strengthen constraints with Algorithm 3. The filter is
  // applied to the whole dataset once; cells below pick up the surviving
  // tuples.
  const Dataset* source = &data;
  Dataset filtered;
  if (options.use_density_filter) {
    Result<Dataset> f = ApplyDensityFilter(data, options.filter);
    if (!f.ok()) return f.status();
    filtered = std::move(f).value();
    source = &filtered;
  }

  for (int g = 0; g < profile.num_groups_; ++g) {
    for (int y = 0; y < profile.num_classes_; ++y) {
      std::vector<size_t> cell = source->CellIndices(g, y);
      if (cell.empty()) continue;
      Matrix numeric = source->Subset(cell).NumericMatrix();
      if (numeric.cols() == 0) continue;
      Result<ConstraintSet> cs =
          options.primitive == ProfilePrimitive::kConformance
              ? DiscoverConstraints(numeric, options.cc)
              : DiscoverAxisBoxConstraints(numeric, options.axis_box);
      if (!cs.ok()) return cs.status();
      profile.cells_[static_cast<size_t>(g) *
                         static_cast<size_t>(profile.num_classes_) +
                     static_cast<size_t>(y)] = std::move(cs).value();
    }
  }
  g_profile_count.fetch_add(1, std::memory_order_relaxed);
  return profile;
}

uint64_t GroupLabelProfile::TotalProfileCount() {
  return g_profile_count.load(std::memory_order_relaxed);
}

Result<GroupLabelProfile> GroupLabelProfile::FromCells(
    int num_groups, int num_classes,
    std::vector<std::optional<ConstraintSet>> cells) {
  if (num_groups < 0 || num_classes < 0 ||
      cells.size() != static_cast<size_t>(num_groups) *
                          static_cast<size_t>(num_classes)) {
    return Status::InvalidArgument(
        "GroupLabelProfile::FromCells: cell count disagrees with shape");
  }
  GroupLabelProfile profile;
  profile.num_groups_ = num_groups;
  profile.num_classes_ = num_classes;
  profile.cells_ = std::move(cells);
  return profile;
}

const std::optional<ConstraintSet>& GroupLabelProfile::cell(int g,
                                                            int y) const {
  return cells_[static_cast<size_t>(g) * static_cast<size_t>(num_classes_) +
                static_cast<size_t>(y)];
}

double GroupLabelProfile::MinViolationForGroup(
    int g, const std::vector<double>& numeric_row) const {
  return MinViolationForGroup(g, numeric_row.data());
}

double GroupLabelProfile::MinViolationForGroup(
    int g, const double* numeric_row) const {
  double best = std::numeric_limits<double>::infinity();
  for (int y = 0; y < num_classes_; ++y) {
    const std::optional<ConstraintSet>& cs = cell(g, y);
    if (!cs.has_value()) continue;
    best = std::min(best, cs->Violation(numeric_row));
  }
  return best;
}

double GroupLabelProfile::MinMarginForGroup(
    int g, const std::vector<double>& numeric_row) const {
  return MinMarginForGroup(g, numeric_row.data());
}

double GroupLabelProfile::MinMarginForGroup(int g,
                                            const double* numeric_row) const {
  double best = std::numeric_limits<double>::infinity();
  for (int y = 0; y < num_classes_; ++y) {
    const std::optional<ConstraintSet>& cs = cell(g, y);
    if (!cs.has_value()) continue;
    best = std::min(best, cs->SignedMargin(numeric_row));
  }
  return best;
}

int GroupLabelProfile::BestLabelForGroup(
    int g, const std::vector<double>& numeric_row) const {
  return BestLabelForGroup(g, numeric_row.data());
}

int GroupLabelProfile::BestLabelForGroup(int g,
                                         const double* numeric_row) const {
  double best = std::numeric_limits<double>::infinity();
  int best_label = -1;
  for (int y = 0; y < num_classes_; ++y) {
    const std::optional<ConstraintSet>& cs = cell(g, y);
    if (!cs.has_value()) continue;
    double v = cs->Violation(numeric_row);
    if (v < best) {
      best = v;
      best_label = y;
    }
  }
  return best_label;
}

bool GroupLabelProfile::GroupProfiled(int g) const {
  if (g < 0 || g >= num_groups_) return false;  // unprofiled, not UB
  for (int y = 0; y < num_classes_; ++y) {
    if (cell(g, y).has_value()) return true;
  }
  return false;
}

}  // namespace fairdrift
