#include "layers.h"

#include <chrono>
#include <functional>
#include <string>

#include "cc/discovery.h"
#include "core/confair.h"
#include "core/density_filter.h"
#include "core/diffair.h"
#include "core/profile.h"
#include "kde/kde.h"
#include "kde/kde_cache.h"
#include "serve/fleet/fleet.h"
#include "serve/net/remote_fleet.h"
#include "serve/net/shard_daemon.h"
#include "serve/net/wire.h"
#include "serve/snapshot_io.h"
#include "serve/snapshot_manifest.h"
#include "serving.h"
#include "util/parallel.h"

namespace fdbench {

using namespace fairdrift;

namespace {

constexpr size_t kBatchRows = 64;
/// Minimum wall time of one repeated-call probe.
constexpr double kProbeSeconds = 0.3;

/// Calls `fn` repeatedly until `min_s` has elapsed (and at least
/// `min_calls` times); returns the median per-call seconds.
double MedianCallSeconds(const std::function<void()>& fn, double min_s,
                         size_t min_calls) {
  std::vector<double> times;
  double start = NowSeconds();
  while (times.size() < min_calls || NowSeconds() - start < min_s) {
    double t0 = NowSeconds();
    fn();
    times.push_back(NowSeconds() - t0);
  }
  return Median(times);
}

/// Wall seconds of one call.
double TimeOnce(const std::function<void()>& fn) {
  double t0 = NowSeconds();
  fn();
  return NowSeconds() - t0;
}

std::vector<Matrix> PoolBatches(const ServingData& data) {
  std::vector<Matrix> batches;
  for (size_t first = 0; first < data.requests.rows(); first += kBatchRows) {
    batches.push_back(PoolRows(data, first, kBatchRows));
  }
  return batches;
}

/// ns per row of ScoreBatchInto on 64-row batches, scored inline so the
/// number is the kernel's own cost.
double ScoreNsPerRow(const ModelSnapshot& snapshot,
                     const std::vector<Matrix>& batches, Report* report) {
  ThreadPool inline_pool(0);
  ScoreScratch scratch;
  size_t next = 0;
  double per_batch = MedianCallSeconds(
      [&] {
        Status st = snapshot.ScoreBatchInto(batches[next], &scratch,
                                            &inline_pool);
        if (!st.ok()) report->Fail("ScoreBatchInto: " + st.ToString());
        next = (next + 1) % batches.size();
      },
      kProbeSeconds, 16);
  return per_batch * 1e9 / static_cast<double>(kBatchRows);
}

void MeasureServe(const LayerContext& ctx, Report* report) {
  const ServingData& data = *ctx.data;
  // Closed-loop phases with tracing off (0) and on (1) in ABBA order, so
  // neither setting always runs first; each phase has a fresh server.
  constexpr int kOrder[] = {0, 1, 1, 0, 0, 1, 1, 0};
  std::vector<double> capacity[2];
  std::vector<double> submit_ns;
  std::vector<ServerStats::View> traced_stats;
  for (int traced : kOrder) {
    std::unique_ptr<FleetAuditor> auditor = MakeAuditor(data.requests.cols());
    Result<std::unique_ptr<ScoringServer>> server = ScoringServer::Create(
        ctx.a, InprocServerOptions(auditor ? auditor->shard(0) : nullptr,
                                   traced == 1));
    if (!server.ok()) {
      report->Fail("layer probe server: " + server.status().ToString());
      return;
    }
    ClosedLoopResult run =
        RunClosedLoop(server.value().get(), data, ctx.serve_phase_s,
                      kClientThreads, kClientWindow, traced == 1,
                      report->Phase(traced ? "probe-serve-traced"
                                           : "probe-serve-untraced"));
    capacity[traced].push_back(run.capacity_rps);
    CheckSamples(run.samples, *ctx.a, data, "probe-serve", report);
    if (traced == 1) {
      traced_stats.push_back(server.value()->stats());
      submit_ns.insert(submit_ns.end(), run.submit_ns.begin(),
                       run.submit_ns.end());
    }
    server.value()->Stop();
  }
  auto traced_median = [&](const std::function<double(
                               const ServerStats::View&)>& field) {
    std::vector<double> values;
    for (const ServerStats::View& v : traced_stats) values.push_back(field(v));
    return Median(values);
  };
  report->Metric("serve.submit_ns", Median(submit_ns), "ns");
  const char* stage_names[4] = {"serve.queue_wait_p99_us",
                                "serve.batch_assemble_p99_us",
                                "serve.score_p99_us",
                                "serve.audit_fold_p99_us"};
  for (int s = 0; s < 4; ++s) {
    report->Metric(stage_names[s],
                   traced_median([s](const ServerStats::View& v) {
                     return v.stage_p99_us[s];
                   }),
                   "us");
  }
  report->Metric("serve.mean_batch_rows",
                 traced_median([](const ServerStats::View& v) {
                   return v.mean_batch_size;
                 }),
                 "rows");
  report->Metric("serve.shed",
                 traced_median([](const ServerStats::View& v) {
                   return static_cast<double>(v.shed_admission +
                                              v.shed_deadline);
                 }),
                 "count");
  const double untraced = Median(capacity[0]);
  const double traced = Median(capacity[1]);
  report->Diagnostic("probe_untraced_capacity_rps", untraced);
  report->Diagnostic("probe_traced_capacity_rps", traced);
  report->Metric("trace.overhead_pct",
                 untraced > 0.0 ? 100.0 * (untraced - traced) / untraced : 0.0,
                 "%");

  // A lone request's completion time: each client holds one ticket and
  // waits it right after Submit, so nothing of its own queues ahead.
  std::unique_ptr<FleetAuditor> auditor = MakeAuditor(data.requests.cols());
  Result<std::unique_ptr<ScoringServer>> server = ScoringServer::Create(
      ctx.a,
      InprocServerOptions(auditor ? auditor->shard(0) : nullptr, false));
  if (!server.ok()) {
    report->Fail("layer probe server: " + server.status().ToString());
    return;
  }
  ClosedLoopResult lone =
      RunClosedLoop(server.value().get(), data, ctx.lone_phase_s,
                    kClientThreads, 1, true, report->Phase("probe-serve-lone"));
  server.value()->Stop();
  CheckSamples(lone.samples, *ctx.a, data, "probe-serve-lone", report);
  report->Metric("serve.ticket_wait_us", Median(lone.wait_us), "us");
  report->Diagnostic("ticket_wait_samples",
                     static_cast<double>(lone.wait_us.size()));
}

void MeasureSnapshot(const LayerContext& ctx,
                     const std::vector<Matrix>& batches, Report* report) {
  const ModelSnapshot& snapshot = *ctx.a;
  report->Metric("snapshot.score_ns_per_row",
                 ScoreNsPerRow(snapshot, batches, report), "ns/row");

  // The density monitor on the rows the sampled policy actually checks.
  Result<std::vector<ScoreResult>> scored =
      snapshot.ScoreBatch(ctx.data->requests);
  if (!scored.ok() || snapshot.density() == nullptr) {
    report->Fail("layer probe: the served snapshot has no density monitor");
    return;
  }
  std::vector<size_t> numeric = snapshot.schema().NumericFieldIndices();
  std::vector<std::vector<double>> checked;
  for (size_t i = 0; i < scored.value().size(); ++i) {
    if (!scored.value()[i].density_checked) continue;
    std::vector<double> point;
    for (size_t f : numeric) point.push_back(ctx.data->requests.At(i, f));
    checked.push_back(std::move(point));
  }
  report->Metric("kde.checked_share",
                 static_cast<double>(checked.size()) /
                     static_cast<double>(scored.value().size()),
                 "ratio");
  double below_ns = 0.0;
  if (!checked.empty()) {
    const KernelDensity& kde = *snapshot.density();
    double floor = snapshot.density_floor();
    size_t sink = 0;
    double per_pass = MedianCallSeconds(
        [&] {
          for (const std::vector<double>& p : checked) {
            sink += kde.LogDensityBelow(p.data(), floor) ? 1 : 0;
          }
        },
        kProbeSeconds, 3);
    below_ns = per_pass * 1e9 / static_cast<double>(checked.size());
    report->Diagnostic("kde_probe_below_verdicts", static_cast<double>(sink));
  }
  report->Metric("kde.below_ns_per_row", below_ns, "ns/row");

  // The audit fold on already-scored batches.
  std::unique_ptr<FleetAuditor> auditor =
      MakeAuditor(ctx.data->requests.cols());
  if (auditor == nullptr) {
    report->Fail("layer probe: auditor creation failed");
    return;
  }
  std::vector<ScoreResult> results(kBatchRows);
  std::vector<int> groups(kBatchRows);
  std::vector<int> labels(kBatchRows);
  size_t next = 0;
  double per_batch = MedianCallSeconds(
      [&] {
        size_t first = next * kBatchRows;
        for (size_t i = 0; i < kBatchRows; ++i) {
          size_t idx = (first + i) % scored.value().size();
          results[i] = scored.value()[idx];
          groups[i] = ctx.data->groups[idx];
          labels[i] = ctx.data->labels[idx];
        }
        AuditFoldOutcome outcome;
        auditor->shard(0)->FoldBatch(batches[next], results.data(),
                                     groups.data(), labels.data(), kBatchRows,
                                     &outcome);
        next = (next + 1) % batches.size();
      },
      kProbeSeconds, 16);
  report->Metric("audit.fold_ns_per_row",
                 per_batch * 1e9 / static_cast<double>(kBatchRows), "ns/row");
}

/// Two always-available shards: the router's view of a healthy fleet.
class HealthyShards : public ShardDirectory {
 public:
  size_t num_shards() const override { return 2; }
  bool ShardAvailable(size_t) const override { return true; }
  size_t ShardLoad(size_t) const override { return 0; }
};

/// One manifest -> chunks -> commit conversation with one daemon.
Status PushOverClient(net::RemoteShardClient* client,
                      const ChunkedSnapshot& chunked, uint64_t* version) {
  Result<std::vector<std::string>> needed =
      client->PushManifest(chunked.manifest);
  if (!needed.ok()) return needed.status();
  for (const std::string& name : needed.value()) {
    for (const SnapshotPayloadChunk& chunk : chunked.chunks) {
      if (chunk.name != name) continue;
      Status st = client->PushChunk(chunk.name, chunk.bytes);
      if (!st.ok()) return st;
    }
  }
  Result<net::RemoteShardClient::CommitReply> commit = client->PushCommit();
  if (!commit.ok()) return commit.status();
  *version = commit.value().snapshot_version;
  return Status::OK();
}

void MeasureWireAndPush(const LayerContext& ctx,
                        const std::vector<Matrix>& batches, Report* report) {
  const ServingData& data = *ctx.data;
  Result<ChunkedSnapshot> chunk_a = ChunkSnapshot(*ctx.a);
  Result<ChunkedSnapshot> chunk_b = ChunkSnapshot(*ctx.b);
  if (!chunk_a.ok() || !chunk_b.ok()) {
    report->Fail("layer probe: ChunkSnapshot failed");
    return;
  }

  // Codec: a 64-row request and its reply, both directions.
  net::WireScoreRequest request;
  request.width = data.requests.cols();
  request.rows.assign(batches[0].RowPtr(0),
                      batches[0].RowPtr(0) + kBatchRows * request.width);
  Result<std::vector<ScoreResult>> direct = ctx.a->ScoreBatch(batches[0]);
  if (!direct.ok()) {
    report->Fail("layer probe: direct ScoreBatch failed");
    return;
  }
  std::vector<net::WireRowOutcome> outcomes(kBatchRows);
  for (size_t i = 0; i < kBatchRows; ++i) outcomes[i].result = direct.value()[i];
  size_t wire_bytes = 0;
  double codec_s = MedianCallSeconds(
      [&] {
        BinaryWriter req_w;
        net::SerializeScoreRequest(request, &req_w);
        BinaryReader req_r(req_w.buffer());
        Result<net::WireScoreRequest> req = net::DeserializeScoreRequest(&req_r);
        BinaryWriter rep_w;
        net::SerializeRowOutcomes(outcomes, &rep_w);
        BinaryReader rep_r(rep_w.buffer());
        Result<std::vector<net::WireRowOutcome>> rep =
            net::DeserializeRowOutcomes(&rep_r);
        if (!req.ok() || !rep.ok()) report->Fail("wire codec round trip");
        // 24 bytes of frame header + checksum around each payload.
        wire_bytes = req_w.buffer().size() + rep_w.buffer().size() + 48;
      },
      kProbeSeconds, 16);
  report->Metric("wire.codec_ns_per_row",
                 codec_s * 1e9 / static_cast<double>(kBatchRows), "ns/row");
  report->Metric("wire.bytes_per_row",
                 static_cast<double>(wire_bytes) /
                     static_cast<double>(kBatchRows),
                 "B/row");

  // Router pick over two healthy shards (hash routing, as serve-wire).
  ShardRouter router(FleetRoutingPolicy::kHashRow, 2);
  HealthyShards shards;
  size_t picked = 0, picks = 0;
  double pick_s = MedianCallSeconds(
      [&] {
        for (size_t i = 0; i < data.requests.rows(); ++i) {
          picked += router.Pick(data.requests.RowPtr(i), data.requests.cols(),
                                shards);
        }
        picks += data.requests.rows();
      },
      kProbeSeconds, 3);
  report->Metric("fleet.pick_ns",
                 pick_s * 1e9 / static_cast<double>(data.requests.rows()),
                 "ns");
  report->Diagnostic("fleet_pick_shard1_share",
                     static_cast<double>(picked) / static_cast<double>(picks));

  report->Metric("snapshot.route_ns_per_row",
                 ScoreNsPerRow(*ctx.routed, batches, report), "ns/row");

  // Snapshot chunking and payload parsing (the push path's CPU work).
  report->Metric("push.chunk_ms",
                 1e3 * MedianCallSeconds([&] { (void)ChunkSnapshot(*ctx.b); },
                                         kProbeSeconds, 5),
                 "ms");
  Result<std::string> payload =
      AssemblePayload(chunk_b.value().manifest, chunk_b.value().chunks);
  if (!payload.ok()) {
    report->Fail("layer probe: AssemblePayload: " + payload.status().ToString());
    return;
  }
  double parse_s = MedianCallSeconds(
      [&] {
        SnapshotLoadReport load;
        Result<std::shared_ptr<const ModelSnapshot>> parsed =
            ParseSnapshotPayload(
                chunk_b.value().manifest.snapshot_format_version,
                payload.value().data(), payload.value().size(),
                SnapshotLoadMode::kAllowPartial, &load, "fdbench");
        if (!parsed.ok()) report->Fail("ParseSnapshotPayload failed");
      },
      kProbeSeconds, 5);
  report->Metric("push.parse_ms", parse_s * 1e3, "ms");
  double delta = 0.0;
  for (const SnapshotChunkInfo& info : chunk_b.value().manifest.chunks) {
    size_t at = chunk_a.value().manifest.FindChunk(info.name);
    if (at == static_cast<size_t>(-1) ||
        chunk_a.value().manifest.chunks[at].checksum != info.checksum) {
      delta += static_cast<double>(info.size);
    }
  }
  report->Metric("push.delta_bytes", delta, "B");

  // One daemon on loopback serving the workload's snapshot.
  net::ShardDaemonOptions options;
  options.server = InprocServerOptions(nullptr, false);
  Result<std::unique_ptr<net::ShardDaemon>> daemon =
      net::ShardDaemon::Start(ctx.a, options);
  if (!daemon.ok()) {
    report->Fail("layer probe daemon: " + daemon.status().ToString());
    return;
  }
  net::RemoteShardClient client("127.0.0.1", daemon.value()->port(),
                                std::chrono::milliseconds(5000));
  PhaseCount* rpc_phase = report->Phase("probe-wire-rpc");
  size_t next = 0;
  double rpc_s = MedianCallSeconds(
      [&] {
        request.rows.assign(batches[next].RowPtr(0),
                            batches[next].RowPtr(0) + kBatchRows * request.width);
        ++rpc_phase->attempted;
        Result<std::vector<net::WireRowOutcome>> reply =
            client.ScoreBatch(request);
        if (!reply.ok()) {
          rpc_phase->CountFailure(reply.status(), true);
        } else if (next == 0) {
          ++rpc_phase->succeeded;
          for (size_t i = 0; i < kBatchRows; ++i) {
            if (reply.value()[i].code != StatusCode::kOk ||
                !SameScore(reply.value()[i].result, direct.value()[i])) {
              report->Fail("probe-wire: remote score differs from direct");
              break;
            }
          }
        } else {
          ++rpc_phase->succeeded;
        }
        next = (next + 1) % batches.size();
      },
      kProbeSeconds * 2, 32);
  report->Metric("wire.rpc_us", rpc_s * 1e6, "us");

  PhaseCount* push_phase = report->Phase("probe-push-shard");
  uint64_t last_version = ctx.a->version();
  size_t pushes = 0;
  double shard_s = MedianCallSeconds(
      [&] {
        const ChunkedSnapshot& next_chunks =
            pushes % 2 == 0 ? chunk_b.value() : chunk_a.value();
        uint64_t version = 0;
        ++push_phase->attempted;
        Status st = PushOverClient(&client, next_chunks, &version);
        if (!st.ok()) {
          push_phase->CountFailure(st, true);
          report->Fail("probe-push: " + st.ToString());
        } else if (version <= last_version) {
          report->Fail("probe-push: served version did not advance");
        } else {
          ++push_phase->succeeded;
          last_version = version;
        }
        ++pushes;
      },
      kProbeSeconds * 2, 6);
  report->Metric("push.shard_ms", shard_s * 1e3, "ms");
  client.Disconnect();
  daemon.value()->Stop();
}

void MeasureFit(const LayerContext& ctx, Report* report) {
  double confair_s = 0.0, profile_s = 0.0, filter_s = 0.0, cc_s = 0.0;
  double kde_s = 0.0, ml_s = 0.0, diffair_s = 0.0, evaluate_s = 0.0;
  for (const TrainValTest* split : ctx.splits) {
    const Dataset& train = split->train;
    // Warm the KDE fit cache the way the alpha search does after its
    // first candidate; kde.fit_s times the fits themselves below.
    GlobalKdeCache().Clear();
    ConfairOptions confair;
    if (!ComputeConfairWeights(train, confair).ok()) {
      report->Fail("layer probe: ComputeConfairWeights failed");
      return;
    }
    confair_s += TimeOnce([&] { (void)ComputeConfairWeights(train, confair); });
    ProfileOptions profile;
    profile_s += TimeOnce(
        [&] { (void)GroupLabelProfile::Profile(train, profile); });
    filter_s += TimeOnce(
        [&] { (void)DensityFilterIndices(train, profile.filter); });

    Result<Dataset> filtered = ApplyDensityFilter(train, profile.filter);
    if (!filtered.ok()) {
      report->Fail("layer probe: ApplyDensityFilter failed");
      return;
    }
    for (int g = 0; g < train.num_groups(); ++g) {
      for (int y = 0; y < train.num_classes(); ++y) {
        std::vector<size_t> cell = filtered.value().CellIndices(g, y);
        if (!cell.empty()) {
          Matrix m = filtered.value().Subset(cell).NumericMatrix();
          cc_s += TimeOnce([&] { (void)DiscoverConstraints(m, profile.cc); });
        }
        std::vector<size_t> raw_cell = train.CellIndices(g, y);
        if (!raw_cell.empty()) {
          Matrix m = train.Subset(raw_cell).NumericMatrix();
          kde_s += TimeOnce([&] { (void)KernelDensity::Fit(m, KdeOptions{}); });
        }
      }
    }
    Matrix numeric = train.NumericMatrix();
    kde_s += TimeOnce([&] { (void)KernelDensity::Fit(numeric, KdeOptions{}); });

    Result<FeatureEncoder> encoder = FeatureEncoder::Fit(train);
    if (!encoder.ok()) {
      report->Fail("layer probe: encoder fit failed");
      return;
    }
    Result<Matrix> x = encoder.value().Transform(train);
    if (!x.ok()) {
      report->Fail("layer probe: encoding failed");
      return;
    }
    std::unique_ptr<Classifier> learner =
        MakeLearner(LearnerKind::kLogisticRegression, 42);
    ml_s += TimeOnce(
        [&] { (void)learner->Fit(x.value(), train.labels(), train.weights()); });
    diffair_s += TimeOnce([&] {
      (void)DiffairModel::Train(train, split->val, *learner, encoder.value(),
                                DiffairOptions{});
    });

    TrainSpec plain;  // NO-INT: a single LR model, no serving extras
    Result<FittedArtifacts> artifacts = Fit(*split, plain);
    if (!artifacts.ok()) {
      report->Fail("layer probe: Fit failed");
      return;
    }
    evaluate_s += TimeOnce(
        [&] { (void)Evaluate(artifacts.value(), split->test); });
  }
  report->Metric("core.confair_weights_s", confair_s, "s");
  report->Metric("core.profile_s", profile_s, "s");
  report->Metric("core.density_filter_s", filter_s, "s");
  report->Metric("cc.discover_s", cc_s, "s");
  report->Metric("kde.fit_s", kde_s, "s");
  report->Metric("kde.fit_calls",
                 static_cast<double>(ctx.counters.kde_fit_calls), "count");
  report->Metric("kde.cache_hit_rate", ctx.counters.kde_cache_hit_rate,
                 "ratio");
  report->Metric("ml.fit_s", ml_s, "s");
  report->Metric("ml.fits", static_cast<double>(ctx.counters.ml_fits),
                 "count");
  report->Metric("core.diffair_train_s", diffair_s, "s");
  report->Metric("core.evaluate_s", evaluate_s, "s");
}

}  // namespace

void MeasureLayers(const LayerContext& ctx, Report* report) {
  std::vector<Matrix> batches = PoolBatches(*ctx.data);
  MeasureServe(ctx, report);
  MeasureSnapshot(ctx, batches, report);
  MeasureWireAndPush(ctx, batches, report);
  MeasureFit(ctx, report);
}

}  // namespace fdbench
