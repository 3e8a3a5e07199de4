#include "serving.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <string>
#include <thread>

namespace fdbench {

using namespace fairdrift;

namespace {

constexpr double kWarmupSeconds = 0.5;
constexpr double kSliceSeconds = 0.5;
/// Every this-many-th completion of a client is kept for the output check.
constexpr uint64_t kSampleEvery = 997;
constexpr size_t kMaxSamplesPerClient = 256;
/// Cap on per-request timing samples kept per client.
constexpr size_t kMaxTimings = 1 << 20;

std::vector<double> PoolRow(const ServingData& data, size_t i) {
  const double* p = data.requests.RowPtr(i);
  return std::vector<double>(p, p + data.requests.cols());
}

RequestAuditInfo AuditInfo(const ServingData& data, size_t i) {
  return RequestAuditInfo{data.groups[i], data.labels[i]};
}

}  // namespace

ClosedLoopResult RunClosedLoop(ScoringServer* server, const ServingData& data,
                               double seconds, size_t clients, size_t window,
                               bool timed, PhaseCount* phase) {
  const size_t n = data.requests.rows();
  struct ClientOut {
    PhaseCount count;
    std::vector<SampledScore> samples;
    std::vector<double> submit_ns;
    std::vector<double> wait_us;
    std::vector<double> latency_us;
  };
  std::vector<ClientOut> outs(clients);
  std::unique_ptr<std::atomic<uint64_t>[]> done(
      new std::atomic<uint64_t>[clients]);
  for (size_t c = 0; c < clients; ++c) done[c].store(0);
  std::atomic<bool> stop{false};

  auto client = [&](size_t c) {
    ClientOut& out = outs[c];
    struct Pending {
      ScoreTicket ticket;
      size_t index;
      std::chrono::steady_clock::time_point started;    // Submit called
      std::chrono::steady_clock::time_point submitted;  // Submit returned
    };
    std::deque<Pending> ring;
    uint64_t completed = 0;
    auto finish_oldest = [&] {
      Pending p = std::move(ring.front());
      ring.pop_front();
      Result<ScoreResult> r = p.ticket.Wait();
      auto now = std::chrono::steady_clock::now();
      if (!r.ok()) {
        out.count.CountFailure(r.status(), false);
        return;
      }
      ++out.count.succeeded;
      ++completed;
      done[c].store(completed, std::memory_order_relaxed);
      if (timed && out.wait_us.size() < kMaxTimings) {
        out.wait_us.push_back(
            std::chrono::duration<double, std::micro>(now - p.submitted)
                .count());
        out.latency_us.push_back(
            std::chrono::duration<double, std::micro>(now - p.started)
                .count());
      }
      if (completed % kSampleEvery == 0 &&
          out.samples.size() < kMaxSamplesPerClient) {
        out.samples.push_back(SampledScore{p.index, r.value()});
      }
    };
    size_t next = c * n / clients;
    while (!stop.load(std::memory_order_relaxed)) {
      if (ring.size() >= window) finish_oldest();
      std::vector<double> row = PoolRow(data, next);
      auto t0 = std::chrono::steady_clock::now();
      Result<ScoreTicket> ticket =
          server->Submit(std::move(row), AuditInfo(data, next));
      auto t1 = std::chrono::steady_clock::now();
      ++out.count.attempted;
      if (timed && out.submit_ns.size() < kMaxTimings) {
        out.submit_ns.push_back(
            std::chrono::duration<double, std::nano>(t1 - t0).count());
      }
      if (ticket.ok()) {
        ring.push_back(Pending{std::move(ticket).value(), next, t0, t1});
      } else {
        out.count.CountFailure(ticket.status(), false);
      }
      next = next + 1 == n ? 0 : next + 1;
    }
    while (!ring.empty()) finish_oldest();
  };

  auto total_done = [&] {
    uint64_t sum = 0;
    for (size_t c = 0; c < clients; ++c) {
      sum += done[c].load(std::memory_order_relaxed);
    }
    return sum;
  };

  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) threads.emplace_back(client, c);
  using Clock = std::chrono::steady_clock;
  auto slice = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kSliceSeconds));
  auto mark = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(kWarmupSeconds));
  std::this_thread::sleep_until(mark);
  size_t slices = std::max<size_t>(
      1, static_cast<size_t>(std::floor(seconds / kSliceSeconds)));
  std::vector<double> rates;
  uint64_t last_done = total_done();
  Clock::time_point last_time = Clock::now();
  for (size_t s = 0; s < slices; ++s) {
    mark += slice;
    std::this_thread::sleep_until(mark);
    uint64_t now_done = total_done();
    Clock::time_point now = Clock::now();
    rates.push_back(static_cast<double>(now_done - last_done) /
                    std::chrono::duration<double>(now - last_time).count());
    last_done = now_done;
    last_time = now;
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();

  ClosedLoopResult result;
  result.capacity_rps = Median(rates);
  result.slice_rps = std::move(rates);
  for (ClientOut& out : outs) {
    phase->Add(out.count);
    result.samples.insert(result.samples.end(), out.samples.begin(),
                          out.samples.end());
    result.submit_ns.insert(result.submit_ns.end(), out.submit_ns.begin(),
                            out.submit_ns.end());
    result.wait_us.insert(result.wait_us.end(), out.wait_us.begin(),
                          out.wait_us.end());
    result.latency_us.insert(result.latency_us.end(), out.latency_us.begin(),
                             out.latency_us.end());
  }
  return result;
}

ServerOptions InprocServerOptions(ShardAuditor* audit, bool stage_trace) {
  ServerOptions options;  // 64-row batches, 200 µs window, global pool
  options.audit = audit;
  if (stage_trace) {
    options.trace.enabled = true;   // stage histograms, no record sink
    options.trace.sample_modulus = 16;
  }
  return options;
}

std::unique_ptr<FleetAuditor> MakeAuditor(size_t row_width) {
  AuditOptions options;
  options.enabled = true;
  options.window_size = 1024;
  options.row_logging = AuditRowLogging::kNone;
  Result<std::unique_ptr<FleetAuditor>> auditor =
      FleetAuditor::Create(options, 1, row_width);
  return auditor.ok() ? std::move(auditor).value() : nullptr;
}

void CheckSamples(const std::vector<SampledScore>& samples,
                  const ModelSnapshot& snapshot, const ServingData& data,
                  const char* where, Report* report) {
  if (samples.empty()) {
    report->Fail(std::string(where) + ": no scored request was sampled");
    return;
  }
  Matrix rows(samples.size(), data.requests.cols());
  for (size_t i = 0; i < samples.size(); ++i) {
    const double* src = data.requests.RowPtr(samples[i].pool_index);
    for (size_t f = 0; f < rows.cols(); ++f) rows.At(i, f) = src[f];
  }
  Result<std::vector<ScoreResult>> direct = snapshot.ScoreBatch(rows);
  if (!direct.ok()) {
    report->Fail(std::string(where) + ": direct ScoreBatch failed: " +
                 direct.status().ToString());
    return;
  }
  for (size_t i = 0; i < samples.size(); ++i) {
    const ScoreResult& served = samples[i].result;
    if (served.snapshot_version != snapshot.version() ||
        !SameScore(served, direct.value()[i])) {
      report->Fail(std::string(where) + ": served score of pool row " +
                   std::to_string(samples[i].pool_index) +
                   " differs from a direct ScoreBatch");
      return;
    }
  }
}

}  // namespace fdbench
