// Shared plumbing of the fdbench binary: arguments, the result line,
// robust statistics, the host-noise probe, per-phase failure accounting,
// output checks, and the MEPS-like serving inputs every serving workload
// (and every traced run) starts from.

#ifndef FDBENCH_BENCH_UTIL_H_
#define FDBENCH_BENCH_UTIL_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/artifacts.h"
#include "data/dataset.h"
#include "linalg/matrix.h"
#include "serve/snapshot.h"
#include "util/status.h"

namespace fdbench {

using fairdrift::Dataset;
using fairdrift::Matrix;
using fairdrift::ModelSnapshot;
using fairdrift::ScoreResult;
using fairdrift::Status;

/// Command line: --workload NAME --seed N --seconds S --trace 0|1.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Parses argv; false (with a message on stderr) on anything malformed.
bool ParseArgs(int argc, char** argv, Args* args);

/// Wall seconds since an arbitrary fixed origin (steady clock).
double NowSeconds();

/// Exact order statistics over a copy of `values` (linear interpolation
/// between closest ranks). 0 for an empty input.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// Peak resident set of this process in MiB (VmHWM).
double PeakRssMb();

/// Scheduler-noise record taken before the workload: a thread spins on
/// the steady clock for `seconds` and records every gap between two
/// consecutive readings that exceeds 100 µs.
struct HostNoise {
  unsigned nproc = 0;
  double probe_s = 0.0;
  uint64_t gaps_over_100us = 0;
  double max_gap_us = 0.0;
};
HostNoise ProbeHostNoise(double seconds);

/// Requests of one measured phase, split by outcome. Every failure kind
/// the serving tier can report has its own counter.
struct PhaseCount {
  std::string phase;
  uint64_t attempted = 0;
  uint64_t succeeded = 0;
  uint64_t shed_admission = 0;  ///< kUnavailable at admission
  uint64_t shed_deadline = 0;   ///< kDeadlineExceeded
  uint64_t rpc_error = 0;       ///< transport / remote errors
  uint64_t push_rolled_back = 0;
  uint64_t other_error = 0;
  uint64_t failed() const {
    return shed_admission + shed_deadline + rpc_error + push_rolled_back +
           other_error;
  }
  /// Files a failed request under its kind from its status code.
  void CountFailure(const Status& status, bool remote);
  /// Adds every counter of `other` (a thread-local tally) into this one.
  void Add(const PhaseCount& other);
};

/// Everything a run reports besides the metrics: checks, phases, the
/// host-noise record, and free-form diagnostics.
class Report {
 public:
  /// Records a failed output check (the run then prints no numbers).
  void Fail(const std::string& what);
  bool correct() const { return failures_.empty(); }

  PhaseCount* Phase(const std::string& name);

  void Metric(const std::string& name, double value, const std::string& unit);
  void Diagnostic(const std::string& name, double value);
  void Note(const std::string& name, const std::string& value);
  void SetNoise(const HostNoise& noise) { noise_ = noise; }

  /// Prints the detail line, then the result line (always last), and
  /// returns the process exit code (0 only when every check passed).
  int Emit() const;

 private:
  std::vector<std::string> failures_;
  std::deque<PhaseCount> phases_;  // deque: Phase() pointers stay valid
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, double>> diagnostics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  HostNoise noise_;
};

/// Bitwise equality of every deterministic ScoreResult field
/// (snapshot_version and trace_id are identity, not score, and are
/// compared by the callers that know which version to expect).
bool SameScore(const ScoreResult& a, const ScoreResult& b);

/// Request-row layout of `data` (one double per schema field;
/// categorical fields carry their code).
Matrix RequestRows(const Dataset& data);

/// The serving workloads' inputs: the MEPS-like simulation of the
/// paper's Fig. 4 (fixed generator structure), split 70/30 by the
/// workload seed. `train` fits the snapshots; the request pool is the
/// `test` split's rows, unmodified.
struct ServingData {
  Dataset train;
  Dataset test;
  Matrix requests;          ///< request pool (the test rows), request layout
  std::vector<int> groups;  ///< pool groups (audit metadata)
  std::vector<int> labels;  ///< pool labels (audit metadata)
};
fairdrift::Result<ServingData> MakeServingData(double scale, uint64_t seed);

/// Pool rows [first, first + count), wrapping around the pool.
Matrix PoolRows(const ServingData& data, size_t first, size_t count);

/// A seeded subsample of `train` keeping `keep` of its rows: the
/// "retrained on fresh data" variant whose fitted density differs.
Dataset Resample(const Dataset& train, double keep, uint64_t seed);

/// One timed snapshot build: Fit + Freeze with the KDE fit cache cleared
/// first, so every build pays its density fit.
struct BuiltSnapshot {
  std::shared_ptr<const ModelSnapshot> snapshot;
  double build_s = 0.0;  ///< Fit + Freeze wall time
  double fit_s = 0.0;    ///< Fit alone
  size_t train_rows = 0;
  int models_trained = 0;
};
fairdrift::Result<BuiltSnapshot> BuildServingSnapshot(
    const Dataset& train, fairdrift::Method method);

/// Payload checksum of `snapshot`'s chunked form (identity of a build).
uint64_t SnapshotChecksum(const ModelSnapshot& snapshot);

/// DI* and balanced accuracy of `snapshot`'s decisions on the request
/// pool (the deployed model's fairness on held-out rows).
fairdrift::Result<fairdrift::FairnessReport> PoolFairness(
    const ModelSnapshot& snapshot, const ServingData& data);

}  // namespace fdbench

#endif  // FDBENCH_BENCH_UTIL_H_
