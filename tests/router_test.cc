// Tests for net::Router (serve/net/router.h), the frontend router as a
// library class: one in-process router over two shard daemons, driven
// through the same frame protocol the CLI's `route` command serves.
//
// The load-bearing contracts (the CI network smoke's, without processes):
//   - Hash-routed scores through the router are bitwise equal to
//     in-process scores.
//   - A router metrics scrape equals the sum of the daemon scrapes for
//     the summable families.
//   - A push through the router commits on every daemon.
//   - A stopped daemon fails over: every row still scores, bitwise.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/deployment.h"
#include "serve/net/remote_fleet.h"
#include "serve/net/router.h"
#include "serve/net/shard_daemon.h"
#include "serve/snapshot_manifest.h"
#include "util/rng.h"

namespace fairdrift {
namespace {

using net::RemoteFleetOptions;
using net::RemoteShardClient;
using net::Router;
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

std::shared_ptr<const ModelSnapshot> MakeSnapshot(uint64_t seed) {
  Dataset train = MakeTrainingData(400, seed);
  TrainSpec spec = ServingSpec(Method::kConfair);
  spec.learner = LearnerKind::kLogisticRegression;
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

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// Scores `requests` through `client` and checks every row against the
/// in-process scores of `snapshot`, bit for bit.
void ExpectScoresMatch(RemoteShardClient* client, const Matrix& requests,
                       const ModelSnapshot& snapshot) {
  WireScoreRequest request;
  request.width = requests.cols();
  for (size_t r = 0; r < requests.rows(); ++r) {
    for (size_t c = 0; c < requests.cols(); ++c) {
      request.rows.push_back(requests.At(r, c));
    }
  }
  Result<std::vector<WireRowOutcome>> got = client->ScoreBatch(request);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  Result<std::vector<ScoreResult>> want = snapshot.ScoreBatch(requests);
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(got.value().size(), want.value().size());
  for (size_t i = 0; i < want.value().size(); ++i) {
    const WireRowOutcome& outcome = got.value()[i];
    ASSERT_EQ(outcome.code, StatusCode::kOk) << "row " << i << ": "
                                             << outcome.message;
    EXPECT_EQ(Bits(outcome.result.probability),
              Bits(want.value()[i].probability))
        << "row " << i;
    EXPECT_EQ(outcome.result.label, want.value()[i].label) << "row " << i;
    EXPECT_EQ(Bits(outcome.result.log_density),
              Bits(want.value()[i].log_density))
        << "row " << i;
  }
}

/// The value of an unlabeled family line ("name value") in a scrape.
uint64_t Scraped(const std::string& text, const std::string& family) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, family.size() + 1, family + " ") == 0) {
      return std::strtoull(line.c_str() + family.size() + 1, nullptr, 10);
    }
  }
  ADD_FAILURE() << "family " << family << " missing from scrape:\n" << text;
  return 0;
}

std::string Scrape(uint16_t port) {
  RemoteShardClient client("127.0.0.1", port, kIo);
  Result<std::string> text = client.Metrics();
  EXPECT_TRUE(text.ok()) << text.status().ToString();
  return text.ok() ? text.value() : std::string();
}

class RouterTest : public testing::Test {
 protected:
  void SetUp() override {
    before_ = MakeSnapshot(81);
    after_ = MakeSnapshot(82);
    ASSERT_NE(before_, nullptr);
    ASSERT_NE(after_, nullptr);
    std::vector<std::string> addresses;
    for (int i = 0; i < 2; ++i) {
      ShardDaemonOptions options;
      options.io_timeout = kIo;
      // An odd modulus keeps the content-hash sample independent of the
      // 2-shard hash routing, so both daemons sample rows.
      options.trace_log_path = testing::TempDir() + "/router_test_trace" +
                               std::to_string(i) + "." +
                               std::to_string(::getpid()) + ".jsonl";
      options.trace_sample_modulus = 3;
      Result<std::unique_ptr<ShardDaemon>> daemon =
          ShardDaemon::Start(before_, options);
      ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
      addresses.push_back("127.0.0.1:" +
                          std::to_string(daemon.value()->port()));
      daemons_.push_back(std::move(daemon).value());
    }
    RemoteFleetOptions options;
    options.io_timeout = kIo;
    options.start_prober = false;
    Result<std::unique_ptr<Router>> router =
        Router::Start("127.0.0.1", 0, addresses, options);
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    router_ = std::move(router).value();
    client_ = std::make_unique<RemoteShardClient>("127.0.0.1",
                                                  router_->port(), kIo);
  }

  std::shared_ptr<const ModelSnapshot> before_;
  std::shared_ptr<const ModelSnapshot> after_;
  std::vector<std::unique_ptr<ShardDaemon>> daemons_;
  std::unique_ptr<Router> router_;
  std::unique_ptr<RemoteShardClient> client_;
};

TEST_F(RouterTest, HashRoutedScoresBitwiseEqualInProcess) {
  Matrix requests = MakeRequests(96, 83);
  ExpectScoresMatch(client_.get(), requests, *before_);
  // Hash routing spread the rows over both daemons.
  EXPECT_GT(daemons_[0]->server()->stats().completed, 0u);
  EXPECT_GT(daemons_[1]->server()->stats().completed, 0u);
}

TEST_F(RouterTest, MetricsScrapeEqualsSumOfDaemonScrapes) {
  ExpectScoresMatch(client_.get(), MakeRequests(128, 85), *before_);
  std::string router = Scrape(router_->port());
  std::string d0 = Scrape(daemons_[0]->port());
  std::string d1 = Scrape(daemons_[1]->port());
  for (const char* family : {"fairdrift_completed_total",
                             "fairdrift_batches_total",
                             "fairdrift_trace_sampled_total"}) {
    EXPECT_EQ(Scraped(router, family),
              Scraped(d0, family) + Scraped(d1, family))
        << family;
  }
  EXPECT_EQ(Scraped(router, "fairdrift_completed_total"), 128u);
  EXPECT_GT(Scraped(router, "fairdrift_trace_sampled_total"), 0u);
  EXPECT_NE(router.find("fairdrift_router_shards 2"), std::string::npos)
      << router;

  // kStatsSnapshot renders the same merged view.
  Result<ServerStats::View> stats = client_->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().completed, 128u);
}

TEST_F(RouterTest, PushThroughRouterCommitsOnEveryDaemon) {
  Result<ChunkedSnapshot> chunked = ChunkSnapshot(*after_);
  ASSERT_TRUE(chunked.ok());
  Result<RemoteShardClient::PushReply> pushed = client_->Push(chunked.value());
  ASSERT_TRUE(pushed.ok()) << pushed.status().ToString();
  // The router holds no chunks, so it asks the pusher for all of them.
  EXPECT_EQ(pushed.value().chunks_sent, chunked.value().chunks.size());
  EXPECT_GT(pushed.value().commit.snapshot_version, 0u);
  for (auto& daemon : daemons_) {
    EXPECT_EQ(daemon->counters().push_commits, 1u);
  }
  ExpectScoresMatch(client_.get(), MakeRequests(64, 87), *after_);
  EXPECT_EQ(router_->fleet()->stats().rolling_updates, 1u);

  // A commit without a pending manifest is a typed error, not a relay.
  Result<RemoteShardClient::CommitReply> stray = client_->PushCommit();
  ASSERT_FALSE(stray.ok());
  EXPECT_EQ(stray.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(RouterTest, StoppedDaemonFailsOverBitwise) {
  Matrix requests = MakeRequests(64, 89);
  ExpectScoresMatch(client_.get(), requests, *before_);
  daemons_[1]->Stop();
  // The dead shard's rows re-pick onto the survivor on the spot.
  ExpectScoresMatch(client_.get(), requests, *before_);
  EXPECT_EQ(router_->fleet()->ejections(), 1u);
  EXPECT_FALSE(router_->fleet()->ShardAvailable(1));
  ExpectScoresMatch(client_.get(), requests, *before_);
}

}  // namespace
}  // namespace fairdrift
