// The three workloads. Each records its metrics, phases and checks in
// `report`; with args.trace it records the per-layer metrics instead of
// the end-to-end ones.

#ifndef FDBENCH_WORKLOADS_H_
#define FDBENCH_WORKLOADS_H_

#include "bench_util.h"

namespace fdbench {

/// Scoring-pool workers per workload (FAIRDRIFT_THREADS is pinned to
/// this before the library's global pool exists).
inline constexpr unsigned kServeThreads = 2;
inline constexpr unsigned kFitThreads = 3;

void RunServeInproc(const Args& args, Report* report);
void RunServeWire(const Args& args, Report* report);
void RunFitOffline(const Args& args, Report* report);

}  // namespace fdbench

#endif  // FDBENCH_WORKLOADS_H_
