#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "core/pipeline.h"
#include "data/split.h"
#include "datagen/realworld.h"
#include "kde/kde.h"
#include "kde/kde_cache.h"
#include "layers.h"
#include "serve/net/remote_fleet.h"
#include "serve/net/shard_daemon.h"
#include "serve/snapshot_manifest.h"
#include "serving.h"
#include "util/rng.h"

namespace fdbench {

using namespace fairdrift;

namespace {

/// One snapshot build of a serving set-up: which method, on which split
/// of the seed's inputs (0 = the served one), and whether it is fitted on
/// a seeded 90% resample of that training split (the "retrained" snapshot
/// whose density differs).
struct BuildPlan {
  Method method;
  uint64_t split;
  bool resample;
};

/// serve-inproc measurement rounds (fresh server each).
constexpr size_t kServeRounds = 8;

struct ServingSetup {
  ServingData data;
  std::vector<BuiltSnapshot> builds;
  std::vector<double> setup_s;  ///< per build: inputs + Fit + Freeze
  FitCounters counters;
};

/// The serving workloads' set-up: each planned build regenerates the
/// inputs from the seed and fits + freezes one snapshot, timed whole.
bool SetUpServing(uint64_t seed, const std::vector<BuildPlan>& plan,
                  ServingSetup* setup, Report* report) {
  GlobalKdeCache().ResetStats();
  uint64_t fits_before = KernelDensity::TotalFitCount();
  for (const BuildPlan& step : plan) {
    double t0 = NowSeconds();
    Result<ServingData> data = MakeServingData(1.0, seed ^ (step.split << 32));
    if (!data.ok()) {
      report->Fail("serving inputs: " + data.status().ToString());
      return false;
    }
    Dataset resampled;
    if (step.resample) resampled = Resample(data.value().train, 0.9, seed + 1);
    Result<BuiltSnapshot> built = BuildServingSnapshot(
        step.resample ? resampled : data.value().train, step.method);
    if (!built.ok()) {
      report->Fail("snapshot build: " + built.status().ToString());
      return false;
    }
    setup->setup_s.push_back(NowSeconds() - t0);
    setup->counters.ml_fits += static_cast<uint64_t>(built.value().models_trained);
    setup->builds.push_back(std::move(built).value());
    if (setup->builds.size() == 1) setup->data = std::move(data).value();
  }
  setup->counters.kde_fit_calls = KernelDensity::TotalFitCount() - fits_before;
  setup->counters.kde_cache_hit_rate = GlobalKdeCache().stats().hit_rate();
  return true;
}

/// End-to-end metrics every serving workload derives from its set-up.
void ReportServingSetup(const ServingSetup& setup, Report* report) {
  std::vector<double> fit_rates;
  for (size_t i = 0; i < setup.builds.size(); ++i) {
    const BuiltSnapshot& b = setup.builds[i];
    fit_rates.push_back(static_cast<double>(b.train_rows) / b.fit_s);
    report->Diagnostic("build" + std::to_string(i) + "_fit_s", b.fit_s);
    report->Diagnostic("build" + std::to_string(i) + "_setup_s",
                       setup.setup_s[i]);
  }
  report->Metric("setup_s", Median(setup.setup_s), "s");
  report->Metric("fit_rows_per_s", Median(fit_rates), "rows/s");
  Result<FairnessReport> fairness =
      PoolFairness(*setup.builds[0].snapshot, setup.data);
  if (!fairness.ok()) {
    report->Fail("pool fairness: " + fairness.status().ToString());
    return;
  }
  report->Metric("bal_acc", fairness.value().balanced_accuracy, "ratio");
  report->Diagnostic("di_star", fairness.value().di_star);
}

/// Builds that must be bitwise the same snapshot (same inputs, same
/// spec) must serialize to the same payload.
void CheckSameBuild(const BuiltSnapshot& a, const BuiltSnapshot& b,
                    Report* report) {
  uint64_t ca = SnapshotChecksum(*a.snapshot);
  if (ca == 0 || ca != SnapshotChecksum(*b.snapshot)) {
    report->Fail("two builds from the same inputs differ");
  }
}

TrainValTest ServingSplit(const ServingData& data) {
  TrainValTest split;
  split.train = data.train;
  split.test = data.test;
  return split;
}

}  // namespace

// ------------------------------------------------------------ serve-inproc

void RunServeInproc(const Args& args, Report* report) {
  // Untraced set-up: seven timed builds (setup_s is their median) over
  // six splits, so the median is not one split's cost; the last repeats
  // the first, which must come out bitwise the same.
  std::vector<BuildPlan> plan = {
      {Method::kConfair, 0, false}, {Method::kConfair, 1, false},
      {Method::kConfair, 2, false}, {Method::kConfair, 3, false},
      {Method::kConfair, 4, false}, {Method::kConfair, 5, false},
      {Method::kConfair, 0, false}};
  if (args.trace) {
    plan = {{Method::kConfair, 0, false},
            {Method::kConfair, 0, true},
            {Method::kDiffair, 0, false}};
  }
  ServingSetup setup;
  if (!SetUpServing(args.seed, plan, &setup, report)) return;
  const std::shared_ptr<const ModelSnapshot>& snapshot =
      setup.builds[0].snapshot;

  if (args.trace) {
    TrainValTest split = ServingSplit(setup.data);
    LayerContext ctx;
    ctx.data = &setup.data;
    ctx.a = snapshot;
    ctx.b = setup.builds[1].snapshot;
    ctx.routed = setup.builds[2].snapshot;
    ctx.splits = {&split};
    ctx.counters = setup.counters;
    ctx.serve_phase_s = std::max(1.0, 0.1 * args.seconds);
    MeasureLayers(ctx, report);
    return;
  }

  CheckSameBuild(setup.builds[0], setup.builds.back(), report);
  ReportServingSetup(setup, report);

  // Rounds of (closed loop, lone requests), each on a fresh server, so
  // one unlucky thread placement moves one round and not the median.
  std::vector<double> slice_rps, p50, all_latency;
  uint64_t observations = 0;
  for (size_t round = 0; round < kServeRounds; ++round) {
    std::unique_ptr<FleetAuditor> auditor =
        MakeAuditor(setup.data.requests.cols());
    Result<std::unique_ptr<ScoringServer>> server = ScoringServer::Create(
        snapshot, InprocServerOptions(auditor ? auditor->shard(0) : nullptr,
                                      false));
    if (auditor == nullptr || !server.ok()) {
      report->Fail("serve-inproc: server or auditor creation failed");
      return;
    }
    const double round_s = args.seconds / kServeRounds;
    ClosedLoopResult closed =
        RunClosedLoop(server.value().get(), setup.data, 0.5 * round_s,
                      kClientThreads, kClientWindow, false,
                      report->Phase("closed-loop"));
    // Latency of requests that queue behind nothing of their own: each
    // client holds one ticket. Unlike an open loop, a host stall here
    // delays only the two requests in flight rather than piling up a
    // queue that every later request waits out.
    ClosedLoopResult lone =
        RunClosedLoop(server.value().get(), setup.data, 0.3 * round_s,
                      kClientThreads, 1, true, report->Phase("lone-request"));
    server.value()->Stop();
    CheckSamples(closed.samples, *snapshot, setup.data, "closed-loop", report);
    CheckSamples(lone.samples, *snapshot, setup.data, "lone-request", report);
    slice_rps.insert(slice_rps.end(), closed.slice_rps.begin(),
                     closed.slice_rps.end());
    p50.push_back(Median(lone.latency_us));
    all_latency.insert(all_latency.end(), lone.latency_us.begin(),
                       lone.latency_us.end());
    (void)auditor->Flush();
    observations += auditor->view().observations;
  }

  report->Metric("capacity_rps", Median(slice_rps), "rows/s");
  report->Metric("latency_p50_us", Median(p50), "us");
  report->Diagnostic("latency_p99_us", Quantile(all_latency, 0.99));
  report->Diagnostic("latency_samples", static_cast<double>(all_latency.size()));
  report->Diagnostic("capacity_slices", static_cast<double>(slice_rps.size()));
  report->Diagnostic("rounds", static_cast<double>(kServeRounds));
  report->Diagnostic("audit_observations", static_cast<double>(observations));
}

// -------------------------------------------------------------- serve-wire

namespace {

/// A 64-row ScoreBatch call kept for the output check.
struct SampledCall {
  size_t first = 0;  ///< first pool row (rows wrap around the pool)
  std::vector<net::WireRowOutcome> outcomes;
};

constexpr size_t kWireBatchRows = 64;
constexpr size_t kWireSampleEvery = 61;
/// serve-wire measurement rounds (fresh daemons and router each).
constexpr size_t kWireRounds = 4;
/// Rolling pushes start on a fixed schedule, one per interval. A rolling
/// push takes each shard out of rotation in turn; back to back, one shard
/// was nearly always draining, so capacity followed how fast the pushes
/// happened to run rather than the scoring path.
constexpr std::chrono::milliseconds kPushInterval(100);

/// What one serve-wire round measured.
struct WireRound {
  std::vector<double> slice_rps;  ///< fleet rows/s of each 0.5 s slice
  std::vector<double> latency_us;
  std::vector<double> push_ms;
  std::vector<SampledCall> samples;
  uint64_t ejections = 0;
};

/// One round: two fresh daemons serving A behind a fresh hash router,
/// two scoring clients, and rolling pushes B, A, B, ... every
/// kPushInterval.
/// Every push must commit and advance every daemon's served version;
/// `version_of` learns which local snapshot each served version is.
bool RunWireRound(const ServingData& data,
                  const std::shared_ptr<const ModelSnapshot>& snap_a,
                  const std::shared_ptr<const ModelSnapshot>& snap_b,
                  const ChunkedSnapshot& chunk_a,
                  const ChunkedSnapshot& chunk_b, double seconds,
                  std::map<uint64_t, const ModelSnapshot*>* version_of,
                  WireRound* round, Report* report) {
  std::vector<std::unique_ptr<net::ShardDaemon>> daemons;
  std::vector<std::string> addresses;
  for (int d = 0; d < 2; ++d) {
    net::ShardDaemonOptions options;
    options.server = InprocServerOptions(nullptr, false);
    Result<std::unique_ptr<net::ShardDaemon>> daemon =
        net::ShardDaemon::Start(snap_a, options);
    if (!daemon.ok()) {
      report->Fail("serve-wire: daemon start: " + daemon.status().ToString());
      return false;
    }
    addresses.push_back("127.0.0.1:" + std::to_string(daemon.value()->port()));
    daemons.push_back(std::move(daemon).value());
  }
  net::RemoteFleetOptions fleet_options;
  fleet_options.routing = FleetRoutingPolicy::kHashRow;
  Result<std::unique_ptr<net::RemoteFleet>> fleet =
      net::RemoteFleet::Connect(addresses, fleet_options);
  if (!fleet.ok()) {
    report->Fail("serve-wire: fleet connect: " + fleet.status().ToString());
    return false;
  }

  const size_t n = data.requests.rows();
  const size_t width = data.requests.cols();
  std::atomic<bool> stop{false};
  std::atomic<bool> measuring{false};
  std::unique_ptr<std::atomic<uint64_t>[]> rows_done(
      new std::atomic<uint64_t>[kClientThreads]);
  for (size_t c = 0; c < kClientThreads; ++c) rows_done[c].store(0);
  struct ClientOut {
    PhaseCount count;
    std::vector<double> latency_us;
    std::vector<SampledCall> samples;
  };
  std::vector<ClientOut> outs(kClientThreads);
  auto client = [&](size_t c) {
    ClientOut& out = outs[c];
    std::vector<double> rows(kWireBatchRows * width);
    size_t first = c * n / kClientThreads;
    uint64_t done = 0;
    for (uint64_t call = 0; !stop.load(std::memory_order_relaxed); ++call) {
      for (size_t i = 0; i < kWireBatchRows; ++i) {
        std::memcpy(&rows[i * width], data.requests.RowPtr((first + i) % n),
                    width * sizeof(double));
      }
      bool timed = measuring.load(std::memory_order_relaxed);
      double t0 = NowSeconds();
      Result<std::vector<net::WireRowOutcome>> reply =
          fleet.value()->ScoreBatch(rows, width);
      double t1 = NowSeconds();
      out.count.attempted += kWireBatchRows;
      if (!reply.ok()) {
        for (size_t i = 0; i < kWireBatchRows; ++i) {
          out.count.CountFailure(reply.status(), true);
        }
        continue;
      }
      for (const net::WireRowOutcome& o : reply.value()) {
        if (o.code == StatusCode::kOk) {
          ++out.count.succeeded;
          ++done;
        } else {
          out.count.CountFailure(Status(o.code, o.message), true);
        }
      }
      rows_done[c].store(done, std::memory_order_relaxed);
      if (timed) out.latency_us.push_back((t1 - t0) * 1e6);
      if (call % kWireSampleEvery == 0) {
        out.samples.push_back(SampledCall{first, std::move(reply).value()});
      }
      first = (first + kWireBatchRows) % n;
    }
  };

  PhaseCount* push_count = report->Phase("rolling-push");
  auto pusher = [&] {
    std::vector<uint64_t> last(daemons.size(), snap_a->version());
    auto due = std::chrono::steady_clock::now();
    for (size_t k = 0; !stop.load(std::memory_order_relaxed); ++k) {
      std::this_thread::sleep_until(due);
      due += kPushInterval;
      if (stop.load(std::memory_order_relaxed)) break;
      const bool to_b = k % 2 == 0;
      ++push_count->attempted;
      double t0 = NowSeconds();
      Result<RollingUpdateReport> pushed =
          fleet.value()->PushRolling(to_b ? chunk_b : chunk_a);
      double ms = (NowSeconds() - t0) * 1e3;
      if (!pushed.ok()) {
        push_count->CountFailure(pushed.status(), true);
        report->Fail("serve-wire: push failed: " + pushed.status().ToString());
        return;
      }
      if (pushed.value().state != RolloutState::kCommitted) {
        ++push_count->push_rolled_back;
        report->Fail("serve-wire: push rolled back: " + pushed.value().failure);
        return;
      }
      for (size_t d = 0; d < daemons.size(); ++d) {
        uint64_t v = daemons[d]->server()->CurrentSnapshot()->version();
        if (v <= last[d]) {
          report->Fail("serve-wire: a push did not advance the served version");
          return;
        }
        last[d] = v;
        (*version_of)[v] = to_b ? snap_b.get() : snap_a.get();
      }
      ++push_count->succeeded;
      if (measuring.load(std::memory_order_relaxed)) round->push_ms.push_back(ms);
    }
  };

  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClientThreads; ++c) threads.emplace_back(client, c);
  threads.emplace_back(pusher);
  auto total_rows = [&] {
    uint64_t sum = 0;
    for (size_t c = 0; c < kClientThreads; ++c) sum += rows_done[c].load();
    return sum;
  };
  using Clock = std::chrono::steady_clock;
  auto mark = Clock::now() + std::chrono::milliseconds(500);  // warm-up
  std::this_thread::sleep_until(mark);
  measuring.store(true);
  std::vector<double> rates;
  uint64_t last_rows = total_rows();
  auto last_time = Clock::now();
  size_t slices = std::max<size_t>(1, static_cast<size_t>(seconds / 0.5));
  for (size_t s = 0; s < slices; ++s) {
    mark += std::chrono::milliseconds(500);
    std::this_thread::sleep_until(mark);
    uint64_t now_rows = total_rows();
    auto now = Clock::now();
    rates.push_back(static_cast<double>(now_rows - last_rows) /
                    std::chrono::duration<double>(now - last_time).count());
    last_rows = now_rows;
    last_time = now;
  }
  measuring.store(false);
  stop.store(true);
  for (std::thread& t : threads) t.join();
  round->ejections = fleet.value()->ejections();
  fleet.value()->Stop();
  for (auto& d : daemons) d->Stop();

  round->slice_rps = std::move(rates);
  PhaseCount* score_phase = report->Phase("score-batch");
  for (ClientOut& out : outs) {
    score_phase->Add(out.count);
    round->latency_us.insert(round->latency_us.end(), out.latency_us.begin(),
                             out.latency_us.end());
    for (SampledCall& s : out.samples) round->samples.push_back(std::move(s));
  }
  return true;
}

/// Output check: sampled remote outcomes equal a direct ScoreBatch of the
/// same rows on the local snapshot whose version each outcome reports.
size_t CheckRemoteSamples(
    const std::vector<SampledCall>& samples, const ServingData& data,
    const std::map<uint64_t, const ModelSnapshot*>& version_of,
    Report* report) {
  size_t checked = 0;
  for (const SampledCall& call : samples) {
    Matrix rows = PoolRows(data, call.first, kWireBatchRows);
    std::map<const ModelSnapshot*, std::vector<ScoreResult>> direct;
    for (size_t i = 0; i < call.outcomes.size(); ++i) {
      const net::WireRowOutcome& o = call.outcomes[i];
      if (o.code != StatusCode::kOk) continue;
      auto it = version_of.find(o.result.snapshot_version);
      if (it == version_of.end()) {
        report->Fail("serve-wire: outcome from an unknown snapshot version");
        return checked;
      }
      if (direct.count(it->second) == 0) {
        Result<std::vector<ScoreResult>> s = it->second->ScoreBatch(rows);
        if (!s.ok()) {
          report->Fail("serve-wire: direct ScoreBatch failed");
          return checked;
        }
        direct[it->second] = std::move(s).value();
      }
      if (!SameScore(o.result, direct[it->second][i])) {
        report->Fail("serve-wire: remote outcome differs from a direct "
                     "ScoreBatch on the reported version");
        return checked;
      }
      ++checked;
    }
  }
  if (checked == 0) report->Fail("serve-wire: no remote outcome was checked");
  return checked;
}

}  // namespace

void RunServeWire(const Args& args, Report* report) {
  // A, then B (A's retrained sibling); the rest time the set-up, as on
  // serve-inproc: seven builds, the last repeating the first.
  std::vector<BuildPlan> plan = {
      {Method::kDiffair, 0, false}, {Method::kDiffair, 0, true},
      {Method::kDiffair, 1, false}, {Method::kDiffair, 2, false},
      {Method::kDiffair, 3, false}, {Method::kDiffair, 4, false},
      {Method::kDiffair, 0, false}};
  if (args.trace) plan.resize(2);
  ServingSetup setup;
  if (!SetUpServing(args.seed, plan, &setup, report)) return;
  const ServingData& data = setup.data;
  std::shared_ptr<const ModelSnapshot> snap_a = setup.builds[0].snapshot;
  std::shared_ptr<const ModelSnapshot> snap_b = setup.builds[1].snapshot;

  if (args.trace) {
    TrainValTest split = ServingSplit(data);
    LayerContext ctx;
    ctx.data = &data;
    ctx.a = snap_a;
    ctx.b = snap_b;
    ctx.routed = snap_a;
    ctx.splits = {&split};
    ctx.counters = setup.counters;
    ctx.serve_phase_s = std::max(1.0, 0.1 * args.seconds);
    MeasureLayers(ctx, report);
    return;
  }

  CheckSameBuild(setup.builds[0], setup.builds.back(), report);
  ReportServingSetup(setup, report);
  Result<ChunkedSnapshot> chunk_a = ChunkSnapshot(*snap_a);
  Result<ChunkedSnapshot> chunk_b = ChunkSnapshot(*snap_b);
  if (!chunk_a.ok() || !chunk_b.ok()) {
    report->Fail("serve-wire: ChunkSnapshot failed");
    return;
  }

  // Rounds on fresh daemons and router, so one unlucky thread placement
  // moves one round and not the median.
  std::map<uint64_t, const ModelSnapshot*> version_of;
  version_of[snap_a->version()] = snap_a.get();
  std::vector<double> slice_rps, all_latency, push_ms;
  std::vector<SampledCall> samples;
  uint64_t ejections = 0;
  for (size_t r = 0; r < kWireRounds && report->correct(); ++r) {
    WireRound round;
    if (!RunWireRound(data, snap_a, snap_b, chunk_a.value(), chunk_b.value(),
                      args.seconds / kWireRounds, &version_of, &round,
                      report)) {
      return;
    }
    slice_rps.insert(slice_rps.end(), round.slice_rps.begin(),
                     round.slice_rps.end());
    all_latency.insert(all_latency.end(), round.latency_us.begin(),
                       round.latency_us.end());
    push_ms.insert(push_ms.end(), round.push_ms.begin(), round.push_ms.end());
    for (SampledCall& s : round.samples) samples.push_back(std::move(s));
    ejections += round.ejections;
  }
  size_t checked = CheckRemoteSamples(samples, data, version_of, report);

  report->Metric("capacity_rps", Median(slice_rps), "rows/s");
  report->Metric("latency_p50_us", Quantile(all_latency, 0.5), "us");
  report->Diagnostic("latency_p99_us", Quantile(all_latency, 0.99));
  report->Diagnostic("latency_samples", static_cast<double>(all_latency.size()));
  report->Diagnostic("capacity_slices", static_cast<double>(slice_rps.size()));
  report->Diagnostic("rounds", static_cast<double>(kWireRounds));
  report->Diagnostic("push_ms", Median(push_ms));
  report->Diagnostic("push_samples", static_cast<double>(push_ms.size()));
  report->Diagnostic("checked_remote_rows", static_cast<double>(checked));
  report->Diagnostic("shard_ejections", static_cast<double>(ejections));
}

// ------------------------------------------------------------- fit-offline

namespace {

/// Paper-size fraction of every dataset of the suite.
constexpr double kFitScale = 0.05;

struct SuiteInput {
  std::string name;
  Dataset data;
  uint64_t split_seed = 0;
};

bool MakeSuite(uint64_t seed, std::vector<SuiteInput>* suite, Report* report) {
  suite->clear();
  for (const RealDatasetSpec& spec : RealDatasetSuite()) {
    Result<Dataset> data = MakeRealWorldLike(spec, kFitScale);
    if (!data.ok()) {
      report->Fail("suite inputs: " + data.status().ToString());
      return false;
    }
    SuiteInput in;
    in.name = spec.name;
    in.data = std::move(data).value();
    in.split_seed = seed * 1000003ull + suite->size();
    suite->push_back(std::move(in));
  }
  return true;
}

/// One pipeline run's outcome (the Fig. 14 protocol: split, Fit, Evaluate).
struct PipelineRun {
  double fit_s = 0.0;
  double total_s = 0.0;
  size_t train_rows = 0;
  size_t rows = 0;
  int models_trained = 0;
  FairnessReport report;
};

bool RunOne(const SuiteInput& in, Method method, PipelineRun* run,
            Report* report) {
  PipelineOptions options;
  options.method = method;  // LR; CONFAIR tunes alpha on validation
  GlobalKdeCache().Clear();
  double t0 = NowSeconds();
  Rng rng(in.split_seed);
  Result<TrainValTest> split = SplitTrainValTest(in.data, &rng,
                                                 options.train_frac,
                                                 options.val_frac);
  if (!split.ok()) {
    report->Fail(in.name + ": split: " + split.status().ToString());
    return false;
  }
  double t1 = NowSeconds();
  Result<FittedArtifacts> fitted = Fit(split.value(), options, &rng);
  double t2 = NowSeconds();
  if (!fitted.ok()) {
    report->Fail(in.name + ": Fit: " + fitted.status().ToString());
    return false;
  }
  Result<FairnessReport> evaluated = Evaluate(fitted.value(), split.value().test);
  if (!evaluated.ok()) {
    report->Fail(in.name + ": Evaluate: " + evaluated.status().ToString());
    return false;
  }
  run->total_s = NowSeconds() - t0;
  run->fit_s = t2 - t1;
  run->train_rows = split.value().train.size();
  run->rows = in.data.size();
  run->models_trained = fitted.value().models_trained;
  run->report = evaluated.value();
  return true;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace

void RunFitOffline(const Args& args, Report* report) {
  // Set-up: generating the suite. One generation is well under a second,
  // so set-up is timed as blocks of back-to-back generations and the
  // median block's per-generation time is reported.
  std::vector<SuiteInput> suite;
  std::vector<double> per_setup;
  for (int block = 0; block < 5; ++block) {
    double t0 = NowSeconds();
    size_t reps = 0;
    do {
      if (!MakeSuite(args.seed, &suite, report)) return;
      ++reps;
    } while (NowSeconds() - t0 < 0.3);
    per_setup.push_back((NowSeconds() - t0) / static_cast<double>(reps));
  }

  const Method methods[2] = {Method::kConfair, Method::kDiffair};
  GlobalKdeCache().ResetStats();
  uint64_t fits_before = KernelDensity::TotalFitCount();
  FitCounters counters;
  std::vector<FairnessReport> first_pass;
  std::vector<double> run_us;    // every pipeline run's wall time
  std::vector<double> pass_mean_us;
  double fit_s = 0.0, total_s = 0.0, train_rows = 0.0, rows = 0.0;
  PhaseCount* phase = report->Phase("pipeline-runs");
  const double start = NowSeconds();
  // Whole passes until the budget is spent; at least two, so the
  // fairness figures can be checked to repeat bitwise. A traced run
  // makes one pass for the library counters, then probes the layers.
  const size_t min_passes = args.trace ? 1 : 2;
  while (pass_mean_us.size() < min_passes ||
         (!args.trace && NowSeconds() - start < args.seconds)) {
    std::vector<FairnessReport> pass_reports;
    double pass_s = 0.0;
    for (const SuiteInput& in : suite) {
      for (Method method : methods) {
        PipelineRun run;
        ++phase->attempted;
        if (!RunOne(in, method, &run, report)) {
          ++phase->other_error;
          return;
        }
        ++phase->succeeded;
        fit_s += run.fit_s;
        total_s += run.total_s;
        pass_s += run.total_s;
        train_rows += static_cast<double>(run.train_rows);
        rows += static_cast<double>(run.rows);
        run_us.push_back(run.total_s * 1e6);
        counters.ml_fits += static_cast<uint64_t>(run.models_trained);
        pass_reports.push_back(run.report);
      }
    }
    pass_mean_us.push_back(pass_s * 1e6 /
                           static_cast<double>(pass_reports.size()));
    if (first_pass.empty()) {
      first_pass = pass_reports;
      continue;
    }
    for (size_t i = 0; i < pass_reports.size(); ++i) {
      const FairnessReport& a = first_pass[i];
      const FairnessReport& b = pass_reports[i];
      if (!SameBits(a.di_star, b.di_star) ||
          !SameBits(a.balanced_accuracy, b.balanced_accuracy)) {
        report->Fail("fit-offline: " + suite[i / 2].name + " " +
                     MethodName(methods[i % 2]) +
                     " DI*/BalAcc changed between passes");
      }
    }
  }
  counters.kde_fit_calls = KernelDensity::TotalFitCount() - fits_before;
  counters.kde_cache_hit_rate = GlobalKdeCache().stats().hit_rate();

  if (args.trace) {
    Result<ServingData> data = MakeServingData(kFitScale, args.seed);
    if (!data.ok()) {
      report->Fail("fit-offline probe inputs: " + data.status().ToString());
      return;
    }
    Result<BuiltSnapshot> a = BuildServingSnapshot(data.value().train,
                                                   Method::kConfair);
    Result<BuiltSnapshot> b = BuildServingSnapshot(
        Resample(data.value().train, 0.9, args.seed + 1), Method::kConfair);
    Result<BuiltSnapshot> routed = BuildServingSnapshot(data.value().train,
                                                        Method::kDiffair);
    if (!a.ok() || !b.ok() || !routed.ok()) {
      report->Fail("fit-offline probe snapshots failed to build");
      return;
    }
    std::vector<TrainValTest> splits;
    for (const SuiteInput& in : suite) {
      Rng rng(in.split_seed);
      Result<TrainValTest> split = SplitTrainValTest(in.data, &rng);
      if (!split.ok()) {
        report->Fail("fit-offline probe split failed");
        return;
      }
      splits.push_back(std::move(split).value());
    }
    LayerContext ctx;
    ctx.data = &data.value();
    ctx.a = a.value().snapshot;
    ctx.b = b.value().snapshot;
    ctx.routed = routed.value().snapshot;
    for (const TrainValTest& s : splits) ctx.splits.push_back(&s);
    ctx.counters = counters;
    MeasureLayers(ctx, report);
    return;
  }

  double di = 0.0, bal = 0.0;
  for (size_t d = 0; d < suite.size(); ++d) {
    di += first_pass[2 * d].di_star;
    bal += first_pass[2 * d].balanced_accuracy;
  }
  report->Metric("capacity_rps", rows / total_s, "rows/s");
  // The suite mixes datasets 10x apart in size, so the median single run
  // jumps between datasets from seed to seed; the typical pipeline-run
  // latency is taken as the median over passes of a pass's mean run.
  report->Metric("latency_p50_us", Median(pass_mean_us), "us");
  report->Diagnostic("run_latency_p50_us", Quantile(run_us, 0.5));
  report->Metric("fit_rows_per_s", train_rows / fit_s, "rows/s");
  report->Metric("bal_acc", bal / static_cast<double>(suite.size()), "ratio");
  report->Diagnostic("di_star", di / static_cast<double>(suite.size()));
  report->Metric("setup_s", Median(per_setup), "s");
  report->Diagnostic("passes", static_cast<double>(pass_mean_us.size()));
  report->Diagnostic("latency_p99_us", Quantile(run_us, 0.99));
  report->Diagnostic("latency_samples", static_cast<double>(run_us.size()));
  report->Diagnostic("kde_fit_calls", static_cast<double>(counters.kde_fit_calls));
  report->Diagnostic("kde_cache_hit_rate", counters.kde_cache_hit_rate);
}

}  // namespace fdbench
