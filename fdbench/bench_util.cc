#include "bench_util.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "core/deployment.h"
#include "data/split.h"
#include "datagen/realworld.h"
#include "fairness/report.h"
#include "kde/kde_cache.h"
#include "serve/snapshot_manifest.h"
#include "util/rng.h"

namespace fdbench {

using namespace fairdrift;

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "fdbench: %s needs a value\n", flag.c_str());
      return false;
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0.0)) {
        std::fprintf(stderr, "fdbench: bad --seconds %s\n", value.c_str());
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      std::fprintf(stderr, "fdbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (!have_workload) std::fprintf(stderr, "fdbench: --workload is required\n");
  return have_workload;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

HostNoise ProbeHostNoise(double seconds) {
  HostNoise noise;
  noise.nproc = std::thread::hardware_concurrency();
  noise.probe_s = seconds;
  auto start = std::chrono::steady_clock::now();
  auto stop = start + std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::duration<double>(seconds));
  auto last = start;
  while (true) {
    auto now = std::chrono::steady_clock::now();
    double gap_us =
        std::chrono::duration<double, std::micro>(now - last).count();
    if (gap_us > 100.0) {
      ++noise.gaps_over_100us;
      noise.max_gap_us = std::max(noise.max_gap_us, gap_us);
    }
    last = now;
    if (now >= stop) break;
  }
  return noise;
}

void PhaseCount::CountFailure(const Status& status, bool remote) {
  switch (status.code()) {
    case StatusCode::kUnavailable:
      ++(remote ? rpc_error : shed_admission);
      break;
    case StatusCode::kDeadlineExceeded:
      ++shed_deadline;
      break;
    case StatusCode::kDataLoss:
    case StatusCode::kIoError:
      ++rpc_error;
      break;
    default:
      ++other_error;
  }
}

void PhaseCount::Add(const PhaseCount& other) {
  attempted += other.attempted;
  succeeded += other.succeeded;
  shed_admission += other.shed_admission;
  shed_deadline += other.shed_deadline;
  rpc_error += other.rpc_error;
  push_rolled_back += other.push_rolled_back;
  other_error += other.other_error;
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Fail(const std::string& what) {
  std::fprintf(stderr, "fdbench: CHECK FAILED: %s\n", what.c_str());
  failures_.push_back(what);
}

PhaseCount* Report::Phase(const std::string& name) {
  for (PhaseCount& p : phases_) {
    if (p.phase == name) return &p;
  }
  phases_.push_back(PhaseCount{});
  phases_.back().phase = name;
  return &phases_.back();
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Diagnostic(const std::string& name, double value) {
  diagnostics_.push_back({name, value});
}

void Report::Note(const std::string& name, const std::string& value) {
  notes_.push_back({name, value});
}

int Report::Emit() const {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string detail = "{\"detail\": {\"host\": {\"nproc\": " +
                       std::to_string(noise_.nproc) +
                       ", \"noise_probe_s\": " + JsonNumber(noise_.probe_s) +
                       ", \"gaps_over_100us\": " +
                       std::to_string(noise_.gaps_over_100us) +
                       ", \"max_gap_us\": " + JsonNumber(noise_.max_gap_us) +
                       "}, \"phases\": [";
  for (size_t i = 0; i < phases_.size(); ++i) {
    const PhaseCount& p = phases_[i];
    attempted += p.attempted;
    failed += p.failed();
    detail += (i ? ", " : "") + std::string("{\"phase\": ") +
              JsonString(p.phase) +
              ", \"attempted\": " + std::to_string(p.attempted) +
              ", \"succeeded\": " + std::to_string(p.succeeded) +
              ", \"shed_admission\": " + std::to_string(p.shed_admission) +
              ", \"shed_deadline\": " + std::to_string(p.shed_deadline) +
              ", \"rpc_error\": " + std::to_string(p.rpc_error) +
              ", \"push_rolled_back\": " +
              std::to_string(p.push_rolled_back) +
              ", \"other_error\": " + std::to_string(p.other_error) + "}";
  }
  detail += "], \"diagnostics\": {";
  for (size_t i = 0; i < diagnostics_.size(); ++i) {
    detail += (i ? ", " : "") + JsonString(diagnostics_[i].first) + ": " +
              JsonNumber(diagnostics_[i].second);
  }
  detail += "}, \"notes\": {";
  for (size_t i = 0; i < notes_.size(); ++i) {
    detail += (i ? ", " : "") + JsonString(notes_[i].first) + ": " +
              JsonString(notes_[i].second);
  }
  detail += "}, \"check_failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    detail += (i ? ", " : "") + JsonString(failures_[i]);
  }
  detail += "]}}";
  std::printf("%s\n", detail.c_str());

  std::string result = std::string("{\"correct\": ") +
                       (correct() ? "true" : "false") +
                       ", \"attempted\": " +
                       std::to_string(std::max<uint64_t>(attempted, 1)) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
  if (correct()) {  // a run that failed a check prints no numbers
    for (size_t i = 0; i < metrics_.size(); ++i) {
      result += (i ? ", " : "") + JsonString(metrics_[i].first) +
                ": {\"value\": " + JsonNumber(metrics_[i].second.first) +
                ", \"unit\": " + JsonString(metrics_[i].second.second) + "}";
    }
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

bool SameScore(const ScoreResult& a, const ScoreResult& b) {
  auto same_bits = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  return same_bits(a.probability, b.probability) && a.label == b.label &&
         a.routed_group == b.routed_group && same_bits(a.margin, b.margin) &&
         same_bits(a.log_density, b.log_density) &&
         a.density_outlier == b.density_outlier &&
         a.density_checked == b.density_checked && a.group == b.group;
}

Matrix RequestRows(const Dataset& data) {
  Matrix rows(data.size(), data.num_features());
  for (size_t f = 0; f < data.num_features(); ++f) {
    const Column& col = data.column(f);
    for (size_t i = 0; i < data.size(); ++i) {
      rows.At(i, f) = col.is_numeric()
                          ? col.numeric_values()[i]
                          : static_cast<double>(col.codes()[i]);
    }
  }
  return rows;
}

Result<ServingData> MakeServingData(double scale, uint64_t seed) {
  // The generator's structure (attribute directions, category counts)
  // stays the paper's Fig. 4 MEPS row; the workload seed draws the
  // split, so every seed serves the same kind of rows at the same cost.
  Result<Dataset> data =
      MakeRealWorldLike(GetRealDatasetSpec(RealDatasetId::kMeps), scale);
  if (!data.ok()) return data.status();
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  Result<TrainValTest> split = SplitTrainValTest(data.value(), &rng, 0.7, 0.0);
  if (!split.ok()) return split.status();
  ServingData out;
  out.train = std::move(split.value().train);
  out.test = std::move(split.value().test);
  // Clients send the held-out rows as they are, cycling the test split.
  out.requests = RequestRows(out.test);
  out.groups = out.test.groups();
  out.labels = out.test.labels();
  return out;
}

Matrix PoolRows(const ServingData& data, size_t first, size_t count) {
  Matrix rows(count, data.requests.cols());
  for (size_t i = 0; i < count; ++i) {
    const double* src = data.requests.RowPtr((first + i) % data.requests.rows());
    std::memcpy(rows.RowPtr(i), src, rows.cols() * sizeof(double));
  }
  return rows;
}

Dataset Resample(const Dataset& train, double keep, uint64_t seed) {
  Rng rng(seed);
  std::vector<size_t> idx = rng.SampleWithoutReplacement(
      train.size(), static_cast<size_t>(keep * static_cast<double>(train.size())));
  std::sort(idx.begin(), idx.end());
  return train.Subset(idx);
}

Result<BuiltSnapshot> BuildServingSnapshot(const Dataset& train,
                                           Method method) {
  TrainSpec spec = ServingSpec(method);
  spec.monitor.mode = MonitorMode::kSampled;
  spec.monitor.sample_modulus = 16;
  GlobalKdeCache().Clear();
  BuiltSnapshot out;
  out.train_rows = train.size();
  double t0 = NowSeconds();
  Result<FittedArtifacts> fitted = Fit(train, Dataset(), spec);
  if (!fitted.ok()) return fitted.status();
  out.fit_s = NowSeconds() - t0;
  out.models_trained = fitted.value().models_trained;
  Result<std::shared_ptr<const ModelSnapshot>> frozen =
      Freeze(std::move(fitted).value());
  if (!frozen.ok()) return frozen.status();
  out.build_s = NowSeconds() - t0;
  out.snapshot = std::move(frozen).value();
  return out;
}

uint64_t SnapshotChecksum(const ModelSnapshot& snapshot) {
  Result<ChunkedSnapshot> chunked = ChunkSnapshot(snapshot);
  return chunked.ok() ? chunked.value().manifest.payload_checksum : 0;
}

Result<FairnessReport> PoolFairness(const ModelSnapshot& snapshot,
                                    const ServingData& data) {
  Result<std::vector<ScoreResult>> scores =
      snapshot.ScoreBatch(data.requests);
  if (!scores.ok()) return scores.status();
  std::vector<int> pred(scores.value().size());
  for (size_t i = 0; i < pred.size(); ++i) pred[i] = scores.value()[i].label;
  return EvaluateFairness(data.labels, pred, data.groups);
}

}  // namespace fdbench
