// fdbench: the repository benchmark binary.
//
//   fdbench --workload serve-inproc|serve-wire|fit-offline --seed N
//           --seconds S --trace 0|1
//
// Prints a detail line (host-noise record, per-phase request accounting,
// diagnostics) and, last, the result line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A run that fails an output check prints no numbers and
// exits 1. See README.md for what each workload and metric is for.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_util.h"
#include "serving.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace fdbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  void (*run)(const Args&, Report*) = nullptr;
  unsigned threads = kServeThreads;
  if (args.workload == "serve-inproc") {
    run = RunServeInproc;
  } else if (args.workload == "serve-wire") {
    run = RunServeWire;
  } else if (args.workload == "fit-offline") {
    run = RunFitOffline;
    threads = kFitThreads;
  } else {
    std::fprintf(stderr, "fdbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  // Pin the library's global pool before anything creates it.
  setenv("FAIRDRIFT_THREADS", std::to_string(threads).c_str(), 1);

  Report report;
  report.SetNoise(ProbeHostNoise(1.0));
  report.Note("workload", args.workload);
  report.Note("fairdrift_threads", std::to_string(threads));
  report.Note("generator_threads",
              args.workload == "fit-offline" ? "0"
                                             : std::to_string(kClientThreads));
  run(args, &report);
  if (args.trace) {
    report.Diagnostic("peak_rss_mb", PeakRssMb());
  } else {
    report.Metric("peak_rss_mb", PeakRssMb(), "MB");
  }
  return report.Emit();
}
