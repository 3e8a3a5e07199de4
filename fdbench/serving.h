// The load generator over an in-process ScoringServer: a closed loop of
// clients, each holding a window of tickets.

#ifndef FDBENCH_SERVING_H_
#define FDBENCH_SERVING_H_

#include <memory>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "serve/audit/auditor.h"
#include "serve/server.h"

namespace fdbench {

/// Load-generator threads of the serving workloads.
inline constexpr unsigned kClientThreads = 2;
/// Tickets each closed-loop client keeps outstanding: four 64-row
/// batches, so the scoring workers never wait for clients to refill.
inline constexpr size_t kClientWindow = 256;

/// One scored request kept for the output check: its pool row and the
/// result the serving path returned.
struct SampledScore {
  size_t pool_index = 0;
  ScoreResult result;
};

struct ClosedLoopResult {
  /// Completed rows per second of each fixed-length slice, and their
  /// median.
  std::vector<double> slice_rps;
  double capacity_rps = 0.0;
  std::vector<SampledScore> samples;
  /// Per-request Submit call durations (ns), Submit-return to
  /// Wait-return durations (µs) and Submit-call to Wait-return
  /// latencies (µs); filled only when timed.
  std::vector<double> submit_ns;
  std::vector<double> wait_us;
  std::vector<double> latency_us;
};

/// Runs `clients` threads against `server` for `seconds` (after a
/// warm-up), each keeping up to `window` tickets outstanding and cycling
/// through the request pool from its own offset.
ClosedLoopResult RunClosedLoop(fairdrift::ScoringServer* server,
                               const ServingData& data, double seconds,
                               size_t clients, size_t window, bool timed,
                               PhaseCount* phase);

/// Server configuration shared by the serving workloads: default
/// micro-batching (64 rows, 200 µs), the global pool, `audit` folding.
fairdrift::ServerOptions InprocServerOptions(fairdrift::ShardAuditor* audit,
                                             bool stage_trace);

/// An in-memory fairness auditor with one shard (no log file).
std::unique_ptr<fairdrift::FleetAuditor> MakeAuditor(size_t row_width);

/// Output check: every sample must be bitwise equal to a direct
/// ScoreBatch of its pool row on `snapshot`, scored on that version.
void CheckSamples(const std::vector<SampledScore>& samples,
                  const ModelSnapshot& snapshot, const ServingData& data,
                  const char* where, Report* report);

}  // namespace fdbench

#endif  // FDBENCH_SERVING_H_
