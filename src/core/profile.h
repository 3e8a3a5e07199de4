// Shared (group x label) conformance-constraint profiling.
//
// Both DIFFAIR (Algorithm 1, lines 4-8) and CONFAIR (Algorithm 2, lines
// 2-4) derive one constraint set per (group x label) cell of the training
// data; both optionally strengthen the constraints with the density filter
// of Algorithm 3 first. This module implements that common step.

#ifndef FAIRDRIFT_CORE_PROFILE_H_
#define FAIRDRIFT_CORE_PROFILE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "cc/axis_box.h"
#include "cc/discovery.h"
#include "core/density_filter.h"
#include "data/dataset.h"
#include "util/status.h"

namespace fairdrift {

/// Data-profiling primitive used to describe each (group x label) cell.
/// The paper's methods are primitive-agnostic as long as the profile
/// yields quantitative violations (§I); the profiler ablation bench
/// contrasts the two.
enum class ProfilePrimitive {
  kConformance,  ///< CC discovery (the paper's choice).
  kAxisBox,      ///< per-attribute intervals (correlation-blind baseline).
};

/// Profiling configuration shared by DIFFAIR and CONFAIR.
struct ProfileOptions {
  ProfilePrimitive primitive = ProfilePrimitive::kConformance;
  CcOptions cc;
  AxisBoxOptions axis_box;
  /// Apply Algorithm 3 before constraint discovery (the paper's default;
  /// the "DIFFAIR-0 / CONFAIR-0" ablation of Fig. 13 turns this off).
  bool use_density_filter = true;
  DensityFilterOptions filter;
};

/// Constraint sets per (group x label) cell. Cells that are empty in the
/// training data carry no set.
class GroupLabelProfile {
 public:
  /// Creates an empty profile; use Profile() to obtain a usable one.
  GroupLabelProfile() = default;

  /// Profiles `data` (requires labels and groups): for every cell, filter
  /// by density (optional) and run constraint discovery over the cell's
  /// numeric attributes.
  static Result<GroupLabelProfile> Profile(const Dataset& data,
                                           const ProfileOptions& options);

  /// Process-wide count of completed Profile calls. One Fit profiles its
  /// training split at most once; the tests hold it to that.
  static uint64_t TotalProfileCount();

  /// Rebuilds a profile from stored cells (deserialization;
  /// serve/snapshot_io.cc). `cells` holds num_groups * num_classes
  /// entries, cell (g, y) at index g * num_classes + y.
  static Result<GroupLabelProfile> FromCells(
      int num_groups, int num_classes,
      std::vector<std::optional<ConstraintSet>> cells);

  int num_groups() const { return num_groups_; }
  int num_classes() const { return num_classes_; }

  /// Constraint set of cell (g, y); nullopt when the cell was empty.
  const std::optional<ConstraintSet>& cell(int g, int y) const;

  /// min over labels y of [[Phi_{g,y}]](row): the group-level violation
  /// DIFFAIR's PREDICT uses (Algorithm 1, lines 15-16). Returns +inf when
  /// the group has no profiled cells.
  double MinViolationForGroup(int g, const std::vector<double>& numeric_row) const;
  double MinViolationForGroup(int g, const double* numeric_row) const;  ///< span form

  /// min over labels y of the signed margin of cell (g, y): like
  /// MinViolationForGroup but strictly negative for tuples inside a
  /// cell's bounds, so zero-violation ties between groups resolve toward
  /// the cell the tuple conforms to most deeply. +inf when unprofiled.
  double MinMarginForGroup(int g, const std::vector<double>& numeric_row) const;
  double MinMarginForGroup(int g, const double* numeric_row) const;  ///< span form

  /// The label y whose cell (g, y) the row conforms to best; -1 when the
  /// group has no profiled cells.
  int BestLabelForGroup(int g, const std::vector<double>& numeric_row) const;
  int BestLabelForGroup(int g, const double* numeric_row) const;  ///< span form

  /// True when at least one cell of group g is profiled.
  bool GroupProfiled(int g) const;

 private:
  int num_groups_ = 0;
  int num_classes_ = 0;
  // cells_[g * num_classes_ + y]
  std::vector<std::optional<ConstraintSet>> cells_;
};

}  // namespace fairdrift

#endif  // FAIRDRIFT_CORE_PROFILE_H_
