// The traced run: outside-in timings of each layer's public functions,
// called from the benchmark's own code so the program is unchanged.
//
// Every traced run emits every per-layer metric, measured on that
// workload's own inputs (its snapshots, request pool and training
// splits). A layer that the workload's untraced path bypasses is still
// measured here on the same inputs, so its number is real on every run.

#ifndef FDBENCH_LAYERS_H_
#define FDBENCH_LAYERS_H_

#include <memory>
#include <vector>

#include "bench_util.h"
#include "data/split.h"

namespace fdbench {

/// Library counters observed over the workload's own Fit calls.
struct FitCounters {
  uint64_t kde_fit_calls = 0;   ///< KernelDensity::Fit calls
  double kde_cache_hit_rate = 0.0;
  uint64_t ml_fits = 0;         ///< learner fits (FittedArtifacts)
};

struct LayerContext {
  const ServingData* data = nullptr;
  /// The served snapshot and a retrained one (push probes alternate).
  std::shared_ptr<const ModelSnapshot> a;
  std::shared_ptr<const ModelSnapshot> b;
  /// A DIFFAIR snapshot: every row goes through conformance routing.
  std::shared_ptr<const ModelSnapshot> routed;
  /// Fit-layer inputs (one split per dataset the workload fits).
  std::vector<const fairdrift::TrainValTest*> splits;
  FitCounters counters;
  /// Length of each of the eight in-process closed-loop phases (four
  /// untraced, four traced) whose capacity difference is the tracing
  /// overhead, and of the one-ticket-per-client phase.
  double serve_phase_s = 1.0;
  double lone_phase_s = 1.0;
};

/// Runs every probe and records every per-layer metric in `report`.
void MeasureLayers(const LayerContext& ctx, Report* report);

}  // namespace fdbench

#endif  // FDBENCH_LAYERS_H_
