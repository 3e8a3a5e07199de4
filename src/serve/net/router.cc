#include "serve/net/router.h"

#include <utility>

#include "serve/trace/metrics_registry.h"

namespace fairdrift {
namespace net {

Result<std::unique_ptr<Router>> Router::Start(
    const std::string& host, uint16_t port,
    const std::vector<std::string>& shard_addresses,
    const RemoteFleetOptions& options) {
  std::unique_ptr<Router> router(new Router());
  Result<std::unique_ptr<RemoteFleet>> fleet =
      RemoteFleet::Connect(shard_addresses, options);
  if (!fleet.ok()) return fleet.status();
  router->fleet_ = std::move(fleet).value();
  Router* raw = router.get();
  Result<std::unique_ptr<FrameServer>> frame_server = FrameServer::Start(
      host, port, options.io_timeout,
      [raw](const Frame& frame) { return raw->HandleFrame(frame); });
  if (!frame_server.ok()) return frame_server.status();
  router->frame_server_ = std::move(frame_server).value();
  return router;
}

Router::~Router() { Stop(); }

void Router::Stop() {
  if (frame_server_) frame_server_->Stop();
  if (fleet_) fleet_->Stop();
}

Frame Router::HandleFrame(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kScoreBatch:
      return HandleScoreBatch(frame);
    case FrameType::kHealthProbe:
      return HandleHealthProbe();
    case FrameType::kStatsSnapshot: {
      BinaryWriter w;
      SerializeStatsView(fleet_->stats(), &w);
      return Frame{FrameType::kStatsSnapshotReply, std::move(w).TakeBuffer()};
    }
    case FrameType::kMetrics:
      return HandleMetrics();
    case FrameType::kPushManifest: {
      std::lock_guard<std::mutex> lock(push_mu_);
      return staging_.OnManifest(frame, PushStaging::ChunkMap{});
    }
    case FrameType::kPushChunk: {
      std::lock_guard<std::mutex> lock(push_mu_);
      return staging_.OnChunk(frame);
    }
    case FrameType::kPushCommit:
      return HandlePushCommit();
    default:
      return ErrorFrame(Status::InvalidArgument(
          std::string("router cannot serve frame type ") +
          FrameTypeName(frame.type)));
  }
}

Frame Router::HandleScoreBatch(const Frame& frame) {
  BinaryReader r(frame.payload);
  Result<WireScoreRequest> request = DeserializeScoreRequest(&r);
  if (!request.ok()) return ErrorFrame(request.status());
  Result<std::vector<WireRowOutcome>> outcomes = fleet_->ScoreBatch(
      request.value().rows, request.value().width,
      std::chrono::nanoseconds(request.value().deadline_ns));
  if (!outcomes.ok()) return ErrorFrame(outcomes.status());
  BinaryWriter w;
  SerializeRowOutcomes(outcomes.value(), &w);
  return Frame{FrameType::kScoreBatchReply, std::move(w).TakeBuffer()};
}

Frame Router::HandleHealthProbe() {
  FleetStatsView stats = fleet_->stats();
  WireHealthProbe probe;
  probe.completed = stats.completed;
  for (size_t depth : stats.queue_depths) probe.queue_depth += depth;
  probe.snapshot_version = stats.min_snapshot_version;
  BinaryWriter w;
  SerializeHealthProbe(probe, &w);
  return Frame{FrameType::kHealthProbeReply, std::move(w).TakeBuffer()};
}

Frame Router::HandleMetrics() {
  // The same fairdrift_* family set the daemons expose, rendered from
  // the fleet-merged view, plus the router's own lifecycle counters.
  FleetStatsView fv = fleet_->stats();
  std::string text;
  MetricsEmitter emitter(&text);
  EmitStatsViewMetrics(fv, &emitter);
  emitter.Counter("fairdrift_router_ejections_total",
                  "Shards ejected from routing", fv.ejections);
  emitter.Counter("fairdrift_router_readmissions_total",
                  "Ejected shards returned to routing", fv.readmissions);
  emitter.Counter("fairdrift_router_rolling_updates_total",
                  "Rolling pushes relayed", fv.rolling_updates);
  emitter.Counter("fairdrift_router_rollbacks_total",
                  "Rolling pushes rolled back", fv.rollbacks);
  emitter.Gauge("fairdrift_router_shards", "Shard daemons behind this router",
                static_cast<double>(fv.num_shards));
  return Frame{FrameType::kMetricsReply, std::move(text)};
}

Frame Router::HandlePushCommit() {
  ChunkedSnapshot chunked;
  {
    std::lock_guard<std::mutex> lock(push_mu_);
    Result<ChunkedSnapshot> pending = staging_.Pending(PushStaging::ChunkMap{});
    if (!pending.ok()) return ErrorFrame(pending.status());
    chunked = std::move(pending).value();
    staging_.Clear();
  }
  Result<RollingUpdateReport> rolled = fleet_->PushRolling(chunked);
  if (!rolled.ok()) return ErrorFrame(rolled.status());
  if (rolled.value().state == RolloutState::kRolledBack) {
    return ErrorFrame(Status::Unavailable("rolling push rolled back: " +
                                          rolled.value().failure));
  }
  // Every daemon stamps its own process-local version; report the
  // fleet's minimum so the pusher sees the slowest shard's floor.
  uint64_t version = 0;
  for (size_t s = 0; s < fleet_->num_shards(); ++s) {
    Result<WireHealthProbe> probe = fleet_->shard_client(s)->Probe();
    if (!probe.ok()) continue;
    uint64_t v = probe.value().snapshot_version;
    if (version == 0 || v < version) version = v;
  }
  BinaryWriter w;
  w.WriteU64(version);
  w.WriteU8(0);
  w.WriteString(std::string());
  return Frame{FrameType::kPushCommitReply, std::move(w).TakeBuffer()};
}

}  // namespace net
}  // namespace fairdrift
