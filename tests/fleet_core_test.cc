// Tests for the fleet core both transports share: the RolloutEngine
// (serve/fleet/rollout.h) behind ScoringFleet::RollingUpdate and
// RemoteFleet::PushRolling, and the one stats merge
// (ServerStats::MergeViews + BuildFleetStatsView).
//
// The load-bearing contracts:
//   - Transport parity: the same fault schedule gives the same rollout
//     report shape in process (drain + swap) and over the wire (the push
//     conversation) — retry then commit, exhaust then reverse-order
//     rollback, kInvalidArgument for zero attempts, and a failure string
//     that names the failed shard and carries its last error.
//   - Rollouts serialize: concurrent pushes never interleave (no push
//     conversation clobbers another's staging, at most one shard is out
//     of rotation), so every daemon ends on the same snapshot.
//   - A misbucketed view never becomes the merge's reference histogram.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/deployment.h"
#include "serve/fleet/fleet.h"
#include "serve/net/remote_fleet.h"
#include "serve/net/shard_daemon.h"
#include "serve/server_stats.h"
#include "serve/snapshot_manifest.h"
#include "util/fault.h"
#include "util/rng.h"

namespace fairdrift {
namespace {

using net::RemoteFleet;
using net::RemoteFleetOptions;
using net::RemoteShardClient;
using net::ShardDaemon;
using net::ShardDaemonOptions;
using net::WireRowOutcome;
using net::WireScoreRequest;

constexpr std::chrono::milliseconds kIo{2000};

Dataset MakeTrainingData(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x0(n);
  std::vector<double> x1(n);
  std::vector<double> x2(n);
  std::vector<int> cat(n);
  std::vector<int> labels(n);
  std::vector<int> groups(n);
  for (size_t i = 0; i < n; ++i) {
    int g = rng.Bernoulli(0.35) ? 1 : 0;
    double shift = g == 1 ? 0.7 : -0.7;
    x0[i] = rng.Gaussian(shift, 1.0);
    x1[i] = rng.Gaussian(-shift, 1.2);
    x2[i] = rng.Gaussian(0.0, 0.8);
    cat[i] = static_cast<int>(rng.UniformInt(0, 2));
    labels[i] = x0[i] - 0.5 * x1[i] + rng.Gaussian(0.0, 0.6) > 0.0 ? 1 : 0;
    groups[i] = g;
  }
  Dataset data;
  EXPECT_TRUE(data.AddNumericColumn("x0", std::move(x0)).ok());
  EXPECT_TRUE(data.AddNumericColumn("x1", std::move(x1)).ok());
  EXPECT_TRUE(data.AddNumericColumn("x2", std::move(x2)).ok());
  EXPECT_TRUE(data.AddCategoricalColumn("cat", std::move(cat), 3).ok());
  EXPECT_TRUE(data.SetLabels(std::move(labels), 2).ok());
  EXPECT_TRUE(data.SetGroups(std::move(groups)).ok());
  return data;
}

/// Deterministic snapshot; (seed, true) and (seed, false) differ only in
/// the density chunk, so a push between them moves exactly one chunk.
std::shared_ptr<const ModelSnapshot> MakeSnapshot(uint64_t seed,
                                                  bool with_density) {
  Dataset train = MakeTrainingData(400, seed);
  TrainSpec spec = ServingSpec(Method::kConfair);
  spec.learner = LearnerKind::kLogisticRegression;
  spec.include_density = with_density;
  Result<std::shared_ptr<const ModelSnapshot>> snapshot =
      BuildSnapshot(train, spec);
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  return snapshot.ok() ? snapshot.value() : nullptr;
}

Matrix MakeRequests(size_t n, uint64_t seed) {
  Rng rng(seed);
  Matrix rows(n, 4);
  for (size_t i = 0; i < n; ++i) {
    rows.At(i, 0) = rng.Gaussian();
    rows.At(i, 1) = rng.Gaussian();
    rows.At(i, 2) = rng.Gaussian();
    rows.At(i, 3) = static_cast<double>(rng.UniformInt(0, 2));
  }
  return rows;
}

WireScoreRequest MakeWireRequest(const Matrix& m) {
  WireScoreRequest request;
  request.width = m.cols();
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t c = 0; c < m.cols(); ++c) request.rows.push_back(m.At(r, c));
  }
  return request;
}

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// Two daemons serving `snapshot` behind a RemoteFleet whose prober the
/// test steps by hand.
struct RemoteSetup {
  std::vector<std::unique_ptr<ShardDaemon>> daemons;
  std::unique_ptr<RemoteFleet> fleet;
};

RemoteSetup StartRemote(std::shared_ptr<const ModelSnapshot> snapshot) {
  RemoteSetup setup;
  std::vector<std::string> addresses;
  for (int i = 0; i < 2; ++i) {
    ShardDaemonOptions options;
    options.io_timeout = kIo;
    Result<std::unique_ptr<ShardDaemon>> daemon =
        ShardDaemon::Start(snapshot, options);
    EXPECT_TRUE(daemon.ok()) << daemon.status().ToString();
    if (!daemon.ok()) return setup;
    addresses.push_back("127.0.0.1:" +
                        std::to_string(daemon.value()->port()));
    setup.daemons.push_back(std::move(daemon).value());
  }
  RemoteFleetOptions options;
  options.io_timeout = kIo;
  options.start_prober = false;
  Result<std::unique_ptr<RemoteFleet>> fleet =
      RemoteFleet::Connect(addresses, options);
  EXPECT_TRUE(fleet.ok()) << fleet.status().ToString();
  if (fleet.ok()) setup.fleet = std::move(fleet).value();
  return setup;
}

/// Scores `requests` on daemon `d` directly and returns each row's
/// probability bits (the bitwise witness of which snapshot it serves).
std::vector<uint64_t> DaemonScoreBits(ShardDaemon* daemon,
                                      const Matrix& requests) {
  RemoteShardClient client("127.0.0.1", daemon->port(), kIo);
  Result<std::vector<WireRowOutcome>> got =
      client.ScoreBatch(MakeWireRequest(requests));
  EXPECT_TRUE(got.ok()) << got.status().ToString();
  std::vector<uint64_t> bits;
  if (!got.ok()) return bits;
  for (const WireRowOutcome& outcome : got.value()) {
    EXPECT_EQ(outcome.code, StatusCode::kOk) << outcome.message;
    bits.push_back(Bits(outcome.result.probability));
  }
  return bits;
}

std::vector<uint64_t> LocalScoreBits(const ModelSnapshot& snapshot,
                                     const Matrix& requests) {
  Result<std::vector<ScoreResult>> want = snapshot.ScoreBatch(requests);
  EXPECT_TRUE(want.ok());
  std::vector<uint64_t> bits;
  if (!want.ok()) return bits;
  for (const ScoreResult& r : want.value()) bits.push_back(Bits(r.probability));
  return bits;
}

// ------------------------------------------------------------ stats merge

TEST(StatsMergeTest, MisbucketedFirstViewNeverBecomesTheReference) {
  // A daemon from a mismatched build answers first with 128 buckets; the
  // wire accepts it (up to 65,536 buckets). Every well-formed 256-bucket
  // view after it must still merge.
  ServerStats::View alien;
  alien.completed = 5;
  alien.latency_hist.assign(128, 0);
  alien.latency_hist[3] = 5;
  for (auto& h : alien.stage_hist) h.assign(128, 1);
  alien.batch_size_hist.assign(8, 1);

  ServerStats a;
  ServerStats b;
  for (int i = 0; i < 40; ++i) {
    a.RecordCompletion(std::chrono::microseconds(100 + i));
    b.RecordCompletion(std::chrono::microseconds(900 + 7 * i));
    a.RecordStageLatency(2, std::chrono::microseconds(50));
    b.RecordStageLatency(2, std::chrono::microseconds(400));
  }
  a.RecordBatch(8);
  b.RecordBatch(32);
  ServerStats::View va = a.Snapshot();
  ServerStats::View vb = b.Snapshot();

  ServerStats::View merged = ServerStats::MergeViews({alien, va, vb});
  ASSERT_EQ(merged.latency_hist.size(), ServerStats::kLatencyBuckets);
  ASSERT_EQ(merged.batch_size_hist.size(), ServerStats::kBatchBuckets);
  std::vector<uint64_t> want_hist(ServerStats::kLatencyBuckets, 0);
  for (const ServerStats::View* v : {&va, &vb}) {
    ASSERT_TRUE(ServerStats::MergeHistogramInto(&want_hist, v->latency_hist)
                    .ok());
  }
  EXPECT_EQ(merged.latency_hist, want_hist);
  EXPECT_EQ(merged.p50_latency_us,
            ServerStats::PercentileUsFromHist(want_hist, 0.50));
  EXPECT_EQ(merged.p99_latency_us,
            ServerStats::PercentileUsFromHist(want_hist, 0.99));
  EXPECT_GT(merged.stage_p99_us[2], 0.0) << "stage histograms were skipped";
  // Scalar counters still merge from every view, the alien one included.
  EXPECT_EQ(merged.completed, 85u);
  EXPECT_EQ(merged.batches, 2u);

  // The fleet view is built from the same merge.
  std::vector<ShardStatsSample> samples(3);
  samples[0].view = alien;
  samples[1].view = va;
  samples[2].view = vb;
  FleetStatsView fleet = BuildFleetStatsView(samples);
  EXPECT_EQ(fleet.latency_hist, want_hist);
  EXPECT_EQ(fleet.p99_latency_us, merged.p99_latency_us);
  EXPECT_EQ(fleet.completed, 85u);
  EXPECT_EQ(fleet.shard_completed, (std::vector<uint64_t>{5, 40, 40}));
}

TEST(StatsMergeTest, UnreachableShardKeepsItsSlotButAddsNothing) {
  ServerStats a;
  a.RecordSubmitted();
  a.RecordCompletion(std::chrono::microseconds(10));
  std::vector<ShardStatsSample> samples(2);
  samples[0].view = a.Snapshot();
  samples[0].snapshot_version = 7;
  samples[1].reachable = false;
  samples[1].view.completed = 1000;  // must be ignored
  samples[1].snapshot_version = 6;
  samples[1].ejected = true;
  FleetStatsView view = BuildFleetStatsView(samples);
  EXPECT_EQ(view.num_shards, 2u);
  EXPECT_EQ(view.completed, 1u);
  EXPECT_EQ(view.shard_completed, (std::vector<uint64_t>{1, 0}));
  EXPECT_EQ(view.shard_ejected, (std::vector<uint8_t>{0, 1}));
  EXPECT_EQ(view.min_snapshot_version, 6u);
  EXPECT_EQ(view.max_snapshot_version, 7u);
}

// -------------------------------------------------------- rollout parity

#ifndef FAIRDRIFT_NO_FAULT_INJECTION

class FaultGuard {
 public:
  explicit FaultGuard(uint64_t seed) { FaultInjector::Global().Arm(seed); }
  ~FaultGuard() { FaultInjector::Global().Disarm(); }
  FaultGuard(const FaultGuard&) = delete;
  FaultGuard& operator=(const FaultGuard&) = delete;
};

/// One fleet, either transport, rolled from `before` to `after`.
class RolloutHarness {
 public:
  virtual ~RolloutHarness() = default;
  virtual Result<RollingUpdateReport> Roll(
      const RollingUpdateOptions& options) = 0;
  /// Arms a fault that fails shard `shard`'s attempts: `fires` times,
  /// or every attempt when 0.
  virtual void FailShard(size_t shard, uint64_t fires) = 0;
  /// A fragment of the error the armed fault produces.
  virtual std::string FaultError() const = 0;
  /// Every shard serves `before` again (zero skew after a rollback) —
  /// or `after` when `updated`.
  virtual void ExpectServes(bool updated) = 0;

 protected:
  std::shared_ptr<const ModelSnapshot> before_ = MakeSnapshot(53, true);
  std::shared_ptr<const ModelSnapshot> after_ = MakeSnapshot(53, false);
};

class InProcessHarness : public RolloutHarness {
 public:
  InProcessHarness() {
    FleetOptions options;
    options.num_shards = 2;
    Result<std::unique_ptr<ScoringFleet>> fleet =
        ScoringFleet::Create(before_, options);
    EXPECT_TRUE(fleet.ok()) << fleet.status().ToString();
    if (fleet.ok()) fleet_ = std::move(fleet).value();
  }
  Result<RollingUpdateReport> Roll(
      const RollingUpdateOptions& options) override {
    return fleet_->RollingUpdate(after_, options);
  }
  void FailShard(size_t shard, uint64_t fires) override {
    FaultRule stall;
    stall.arg = shard;  // the shard's drain barrier (fault tag = index)
    if (fires > 0) stall.max_fires = fires;
    FaultInjector::Global().SetRule("fleet.drain", stall);
  }
  std::string FaultError() const override { return "did not drain"; }
  void ExpectServes(bool updated) override {
    uint64_t want = (updated ? after_ : before_)->version();
    FleetStatsView stats = fleet_->stats();
    EXPECT_EQ(stats.min_snapshot_version, want);
    EXPECT_EQ(stats.max_snapshot_version, want);
    for (size_t s = 0; s < 2; ++s) EXPECT_TRUE(fleet_->ShardAvailable(s));
  }

 private:
  std::unique_ptr<ScoringFleet> fleet_;
};

class RemoteHarness : public RolloutHarness {
 public:
  RemoteHarness() : setup_(StartRemote(before_)) {
    Result<ChunkedSnapshot> chunked = ChunkSnapshot(*after_);
    EXPECT_TRUE(chunked.ok());
    if (chunked.ok()) chunked_ = std::move(chunked).value();
  }
  Result<RollingUpdateReport> Roll(
      const RollingUpdateOptions& options) override {
    return setup_.fleet->PushRolling(chunked_, options);
  }
  void FailShard(size_t shard, uint64_t fires) override {
    // Each shard needs exactly one chunk (only the density chunk
    // differs), so the shard's chunk hits start after `shard` of them.
    FaultRule reject;
    reject.skip = shard;
    if (fires > 0) reject.max_fires = fires;
    FaultInjector::Global().SetRule("net.push.chunk", reject);
  }
  std::string FaultError() const override {
    return "does not match its manifest entry";
  }
  void ExpectServes(bool updated) override {
    Matrix requests = MakeRequests(24, 5);
    std::vector<uint64_t> want =
        LocalScoreBits(updated ? *after_ : *before_, requests);
    for (auto& daemon : setup_.daemons) {
      EXPECT_EQ(DaemonScoreBits(daemon.get(), requests), want);
    }
    for (size_t s = 0; s < 2; ++s) {
      EXPECT_TRUE(setup_.fleet->ShardAvailable(s));
    }
  }

 private:
  RemoteSetup setup_;
  ChunkedSnapshot chunked_;
};

class RolloutParityTest : public testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (GetParam()) {
      harness_ = std::make_unique<RemoteHarness>();
    } else {
      harness_ = std::make_unique<InProcessHarness>();
    }
  }
  static RollingUpdateOptions Options() {
    RollingUpdateOptions options;
    options.max_attempts_per_shard = 2;
    options.initial_backoff = std::chrono::milliseconds(1);
    options.backoff_seed = 11;
    return options;
  }
  std::unique_ptr<RolloutHarness> harness_;
};

TEST_P(RolloutParityTest, TransientFailureRetriesThenCommits) {
  FaultGuard guard(3);
  harness_->FailShard(1, /*fires=*/1);
  Result<RollingUpdateReport> report = harness_->Roll(Options());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const RollingUpdateReport& r = report.value();
  EXPECT_EQ(r.state, RolloutState::kCommitted);
  EXPECT_TRUE(r.failure.empty()) << r.failure;
  EXPECT_EQ(r.shards_updated, 2u);
  EXPECT_EQ(r.total_attempts, 3u);
  EXPECT_EQ(r.shard_stall_ms.size(), 2u);
  ASSERT_EQ(r.shards.size(), 2u);
  for (size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(r.shards[s].shard, s);
    EXPECT_TRUE(r.shards[s].updated);
    EXPECT_FALSE(r.shards[s].rolled_back);
  }
  EXPECT_EQ(r.shards[0].attempts, 1u);
  EXPECT_TRUE(r.shards[0].last_error.empty());
  EXPECT_EQ(r.shards[1].attempts, 2u);
  EXPECT_NE(r.shards[1].last_error.find(harness_->FaultError()),
            std::string::npos)
      << r.shards[1].last_error;
  harness_->ExpectServes(/*updated=*/true);
}

TEST_P(RolloutParityTest, ExhaustedShardRollsBackInReverseOrder) {
  FaultGuard guard(4);
  harness_->FailShard(1, /*fires=*/0);
  Result<RollingUpdateReport> report = harness_->Roll(Options());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const RollingUpdateReport& r = report.value();
  EXPECT_EQ(r.state, RolloutState::kRolledBack);
  EXPECT_EQ(r.shards_updated, 1u);
  EXPECT_EQ(r.total_attempts, 3u);
  EXPECT_EQ(r.shard_stall_ms.size(), 1u);
  ASSERT_EQ(r.shards.size(), 2u);
  EXPECT_EQ(r.shards[0].shard, 0u);
  EXPECT_TRUE(r.shards[0].updated);
  EXPECT_TRUE(r.shards[0].rolled_back);
  EXPECT_EQ(r.shards[1].shard, 1u);
  EXPECT_FALSE(r.shards[1].updated);
  EXPECT_EQ(r.shards[1].attempts, 2u);
  EXPECT_NE(r.failure.find("shard 1"), std::string::npos) << r.failure;
  EXPECT_NE(r.failure.find(harness_->FaultError()), std::string::npos)
      << "the failure must carry the last error: " << r.failure;
  harness_->ExpectServes(/*updated=*/false);
}

TEST_P(RolloutParityTest, FirstShardExhaustedReportsOnlyAttemptedShards) {
  FaultGuard guard(5);
  harness_->FailShard(0, /*fires=*/0);
  Result<RollingUpdateReport> report = harness_->Roll(Options());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const RollingUpdateReport& r = report.value();
  EXPECT_EQ(r.state, RolloutState::kRolledBack);
  EXPECT_EQ(r.shards_updated, 0u);
  EXPECT_TRUE(r.shard_stall_ms.empty());
  ASSERT_EQ(r.shards.size(), 1u) << "shard 1 was never attempted";
  EXPECT_EQ(r.shards[0].attempts, 2u);
  EXPECT_NE(r.failure.find("shard 0"), std::string::npos) << r.failure;
  EXPECT_NE(r.failure.find(harness_->FaultError()), std::string::npos)
      << r.failure;
  harness_->ExpectServes(/*updated=*/false);
}

TEST_P(RolloutParityTest, ZeroAttemptsIsInvalidArgument) {
  RollingUpdateOptions options = Options();
  options.max_attempts_per_shard = 0;
  Result<RollingUpdateReport> report = harness_->Roll(options);
  ASSERT_FALSE(report.ok()) << "a zero-attempt rollout must not 'commit'";
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  harness_->ExpectServes(/*updated=*/false);
}

INSTANTIATE_TEST_SUITE_P(BothTransports, RolloutParityTest,
                         testing::Values(false, true),
                         [](const testing::TestParamInfo<bool>& info) {
                           return info.param ? "Remote" : "InProcess";
                         });

// ------------------------------------------------------ concurrent pushes

TEST(RolloutConcurrencyTest, ConcurrentPushesLeaveEveryDaemonOnOneSnapshot) {
  std::shared_ptr<const ModelSnapshot> base = MakeSnapshot(71, true);
  std::shared_ptr<const ModelSnapshot> b = MakeSnapshot(72, true);
  std::shared_ptr<const ModelSnapshot> c = MakeSnapshot(73, true);
  ASSERT_NE(base, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);
  RemoteSetup setup = StartRemote(base);
  ASSERT_NE(setup.fleet, nullptr);
  Result<ChunkedSnapshot> chunk_b = ChunkSnapshot(*b);
  Result<ChunkedSnapshot> chunk_c = ChunkSnapshot(*c);
  ASSERT_TRUE(chunk_b.ok());
  ASSERT_TRUE(chunk_c.ok());

  Matrix requests = MakeRequests(32, 9);
  std::vector<uint64_t> want_b = LocalScoreBits(*b, requests);
  std::vector<uint64_t> want_c = LocalScoreBits(*c, requests);
  ASSERT_NE(want_b, want_c);

  // Every staged chunk takes 5 ms, so each shard's push conversation
  // spans tens of milliseconds and the two pushes genuinely overlap.
  FaultGuard guard(6);
  FaultRule slow;
  slow.action = FaultAction::kDelay;
  slow.delay = std::chrono::milliseconds(5);
  FaultInjector::Global().SetRule("net.push.chunk", slow);

  for (int round = 0; round < 8; ++round) {
    Result<RollingUpdateReport> report_b = Status::Internal("not run");
    Result<RollingUpdateReport> report_c = Status::Internal("not run");
    // Watches the rotation while both pushes run: one rollout at a time
    // means at most one shard is ever out of rotation. Shard 0 is read
    // again after shard 1, so a rollout stepping from shard 0 to shard 1
    // between the two reads does not count.
    std::atomic<bool> pushing{true};
    std::atomic<uint64_t> both_out{0};
    std::thread watcher([&] {
      RemoteFleet* fleet = setup.fleet.get();
      while (pushing.load()) {
        if (!fleet->ShardAvailable(0) && !fleet->ShardAvailable(1) &&
            !fleet->ShardAvailable(0)) {
          both_out.fetch_add(1);
        }
      }
    });
    std::thread push_b(
        [&] { report_b = setup.fleet->PushRolling(chunk_b.value()); });
    std::thread push_c(
        [&] { report_c = setup.fleet->PushRolling(chunk_c.value()); });
    push_b.join();
    push_c.join();
    pushing.store(false);
    watcher.join();
    EXPECT_EQ(both_out.load(), 0u)
        << "round " << round << ": two shards were out of rotation at once";
    ASSERT_TRUE(report_b.ok()) << report_b.status().ToString();
    ASSERT_TRUE(report_c.ok()) << report_c.status().ToString();
    EXPECT_EQ(report_b.value().state, RolloutState::kCommitted);
    EXPECT_EQ(report_c.value().state, RolloutState::kCommitted);
    // Interleaved push conversations clobber a daemon's staging and fail
    // chunk verification; serialized ones never retry.
    EXPECT_EQ(report_b.value().total_attempts, 2u) << "round " << round;
    EXPECT_EQ(report_c.value().total_attempts, 2u) << "round " << round;

    // Serialized rollouts: whichever push ran second owns every daemon.
    std::vector<uint64_t> d0 =
        DaemonScoreBits(setup.daemons[0].get(), requests);
    std::vector<uint64_t> d1 =
        DaemonScoreBits(setup.daemons[1].get(), requests);
    EXPECT_EQ(d0, d1) << "round " << round << ": daemons on different "
                      << "snapshots after concurrent pushes";
    EXPECT_TRUE(d0 == want_b || d0 == want_c) << "round " << round;
  }
  for (auto& daemon : setup.daemons) {
    EXPECT_EQ(daemon->counters().frame_errors, 0u);
  }
  FleetStatsView stats = setup.fleet->stats();
  EXPECT_EQ(stats.rolling_updates, 16u);
  EXPECT_EQ(stats.rollbacks, 0u);
}

#endif  // FAIRDRIFT_NO_FAULT_INJECTION

}  // namespace
}  // namespace fairdrift
