#include "serve/net/shard_daemon.h"

#include <utility>

#include "serve/trace/trace_context.h"
#include "util/timer.h"

namespace fairdrift {
namespace net {

Result<std::unique_ptr<ShardDaemon>> ShardDaemon::Start(
    std::shared_ptr<const ModelSnapshot> snapshot,
    const ShardDaemonOptions& options) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("ShardDaemon: null snapshot");
  }
  std::unique_ptr<ShardDaemon> daemon(new ShardDaemon());
  daemon->options_ = options;

  // A trace log path turns the wrapped server into a tracing server:
  // the daemon owns the sink (destroyed after the server), stamps the
  // wire stages itself, and emits whole-span records after the reply
  // serializes (defer_emit).
  if (!options.trace_log_path.empty()) {
    TraceLogOptions log_options;
    log_options.rotate_bytes = options.trace_rotate_bytes;
    Result<std::unique_ptr<TraceLog>> log =
        TraceLog::Open(options.trace_log_path, log_options);
    if (!log.ok()) return log.status();
    daemon->trace_log_ = std::move(log).value();
    daemon->options_.server.trace.enabled = true;
    daemon->options_.server.trace.sample_modulus =
        options.trace_sample_modulus;
    daemon->options_.server.trace.sink = daemon->trace_log_.get();
    daemon->options_.server.trace.role = "shard";
    daemon->options_.server.trace.defer_emit = true;
  }

  Result<std::unique_ptr<ScoringServer>> server =
      ScoringServer::Create(snapshot, daemon->options_.server);
  if (!server.ok()) return server.status();
  daemon->server_ = std::move(server).value();

  // One collector renders everything a scrape needs: the server's
  // lock-free stats view in the shared fairdrift_* family set, the
  // daemon's wire counters, and point-in-time serving gauges.
  ShardDaemon* raw = daemon.get();
  daemon->metrics_.AddCollector([raw](MetricsEmitter* out) {
    EmitStatsViewMetrics(raw->server_->stats(), out);
    Counters wire = raw->counters();
    out->Counter("fairdrift_net_connections_accepted_total",
                 "TCP connections accepted", wire.connections_accepted);
    out->Counter("fairdrift_net_frames_served_total",
                 "Request frames answered", wire.frames_served);
    out->Counter("fairdrift_net_frame_errors_total",
                 "Error frames sent to peers", wire.frame_errors);
    out->Counter("fairdrift_net_push_commits_total",
                 "Snapshot pushes committed", wire.push_commits);
    out->Counter("fairdrift_net_push_reverts_total",
                 "Snapshot pushes reverted", wire.push_reverts);
    out->Gauge("fairdrift_queue_depth", "Admitted requests awaiting a batch",
               static_cast<double>(raw->server_->queue_depth()));
    out->Gauge("fairdrift_snapshot_version",
               "Model snapshot version serving new batches",
               static_cast<double>(raw->server_->CurrentSnapshot()->version()));
    if (raw->trace_log_ != nullptr) {
      out->Counter("fairdrift_trace_log_records_total",
                   "Whole-span records appended to the trace log",
                   raw->trace_log_->records());
    }
  });

  // Seed the chunk store from the snapshot we serve, so the very first
  // push already diffs against real content: a pusher whose snapshot
  // shares four of five chunks with ours sends one chunk, not five.
  Result<ChunkedSnapshot> chunked = ChunkSnapshot(*snapshot);
  if (!chunked.ok()) return chunked.status();
  for (SnapshotPayloadChunk& chunk : chunked.value().chunks) {
    daemon->current_chunks_[chunk.name] = std::move(chunk.bytes);
  }

  Result<std::unique_ptr<FrameServer>> frame_server = FrameServer::Start(
      options.host, options.port, options.io_timeout,
      [raw](const Frame& frame) { return raw->HandleFrame(frame); });
  if (!frame_server.ok()) return frame_server.status();
  daemon->frame_server_ = std::move(frame_server).value();
  return daemon;
}

ShardDaemon::~ShardDaemon() { Stop(); }

void ShardDaemon::Stop() {
  // Both stops are once-only and return only after completing, so
  // concurrent callers are safe.
  if (frame_server_) frame_server_->Stop();
  if (server_) server_->Stop();
}

ShardDaemon::Counters ShardDaemon::counters() const {
  Counters counters;
  {
    std::lock_guard<std::mutex> lock(counter_mu_);
    counters = counters_;
  }
  if (frame_server_) {
    static_cast<FrameServer::Counters&>(counters) = frame_server_->counters();
  }
  return counters;
}

Frame ShardDaemon::HandleFrame(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kScoreBatch:
      return HandleScoreBatch(frame);
    case FrameType::kHealthProbe:
      return HandleHealthProbe();
    case FrameType::kStatsSnapshot:
      return HandleStatsSnapshot();
    case FrameType::kMetrics:
      return HandleMetrics();
    case FrameType::kPushManifest: {
      std::lock_guard<std::mutex> lock(push_mu_);
      return staging_.OnManifest(frame, current_chunks_);
    }
    case FrameType::kPushChunk: {
      std::lock_guard<std::mutex> lock(push_mu_);
      Frame reply = staging_.OnChunk(frame);
      if (reply.type == FrameType::kPushChunkReply) {
        std::lock_guard<std::mutex> counters(counter_mu_);
        ++counters_.push_chunks_received;
      }
      return reply;
    }
    case FrameType::kPushCommit:
      return HandlePushCommit();
    case FrameType::kPushRevert:
      return HandlePushRevert();
    default:
      return ErrorFrame(Status::InvalidArgument(
          std::string("shard daemon cannot serve frame type ") +
          FrameTypeName(frame.type)));
  }
}

Frame ShardDaemon::HandleScoreBatch(const Frame& frame) {
  // Stamped before deserialization so the wire_recv span covers decode.
  const uint64_t wire_recv_ns =
      options_.server.trace.enabled ? MonotonicNowNs() : 0;
  BinaryReader r(frame.payload);
  Result<WireScoreRequest> request = DeserializeScoreRequest(&r);
  if (!request.ok()) return ErrorFrame(request.status());
  const WireScoreRequest& req = request.value();
  const size_t count = req.count();
  const std::chrono::nanoseconds deadline{req.deadline_ns};

  // Every sampled row in this frame parents under the sender's span id
  // from the frame's trace extension (per-row trace ids re-mint from
  // row content at admission, so the extension only carries linkage).
  SubmitTraceInfo trace;
  trace.parent_span_id = frame.has_trace ? frame.trace.parent_span_id : 0;
  trace.wire_recv_ns = wire_recv_ns;

  // Submit every row first so the whole batch coalesces, then wait.
  // Shed/invalid rows carry their typed code per row instead of failing
  // the frame: one overloaded row must not poison its batch-mates.
  std::vector<ScoreTicket> tickets(count);
  std::vector<WireRowOutcome> outcomes(count);
  for (size_t i = 0; i < count; ++i) {
    std::vector<double> row(req.rows.begin() + i * req.width,
                            req.rows.begin() + (i + 1) * req.width);
    Result<ScoreTicket> ticket =
        server_->Submit(std::move(row), RequestAuditInfo{}, trace, deadline);
    if (ticket.ok()) {
      tickets[i] = std::move(ticket).value();
    } else {
      outcomes[i].code = ticket.status().code();
      outcomes[i].message = ticket.status().message();
    }
  }
  for (size_t i = 0; i < count; ++i) {
    if (!tickets[i].valid()) continue;
    Result<ScoreResult> result = tickets[i].Wait();
    if (result.ok()) {
      outcomes[i].result = result.value();
    } else {
      outcomes[i].code = result.status().code();
      outcomes[i].message = result.status().message();
    }
  }
  BinaryWriter w;
  SerializeRowOutcomes(outcomes, &w);
  Frame reply{FrameType::kScoreBatchReply, std::move(w).TakeBuffer()};
  if (trace_log_ != nullptr) {
    // Emission is deferred to here so wire_send (reply serialized,
    // about to hit the socket) closes each sampled row's span. Wait()
    // above ordered these slot reads after the scoring thread's writes.
    const uint64_t wire_send_ns = MonotonicNowNs();
    for (ScoreTicket& ticket : tickets) {
      if (!ticket.valid()) continue;
      TraceSpanSlot* slot = ticket.trace_slot();
      if (slot == nullptr || !slot->sampled()) continue;
      slot->StampAt(TraceStage::kWireSend, wire_send_ns);
      server_->EmitTrace(ticket);
    }
  }
  return reply;
}

Frame ShardDaemon::HandleHealthProbe() {
  WireHealthProbe probe;
  probe.completed = server_->stats().completed;
  probe.queue_depth = server_->queue_depth();
  probe.inflight_batches = server_->inflight_batches();
  probe.snapshot_version = server_->CurrentSnapshot()->version();
  BinaryWriter w;
  SerializeHealthProbe(probe, &w);
  return Frame{FrameType::kHealthProbeReply, std::move(w).TakeBuffer()};
}

Frame ShardDaemon::HandleStatsSnapshot() {
  BinaryWriter w;
  SerializeStatsView(server_->stats(), &w);
  return Frame{FrameType::kStatsSnapshotReply, std::move(w).TakeBuffer()};
}

Frame ShardDaemon::HandleMetrics() {
  return Frame{FrameType::kMetricsReply, metrics_.RenderText()};
}

Frame ShardDaemon::HandlePushCommit() {
  std::lock_guard<std::mutex> lock(push_mu_);
  // Staged chunks where the pusher sent new bytes, our held chunks where
  // the manifest said they were unchanged.
  Result<ChunkedSnapshot> pending = staging_.Pending(current_chunks_);
  if (!pending.ok()) return ErrorFrame(pending.status());
  const SnapshotManifest& manifest = pending.value().manifest;
  std::vector<SnapshotPayloadChunk>& chunks = pending.value().chunks;
  Result<std::string> payload = AssemblePayload(manifest, chunks);
  if (!payload.ok()) return ErrorFrame(payload.status());

  SnapshotLoadReport report;
  Result<std::shared_ptr<const ModelSnapshot>> parsed = ParseSnapshotPayload(
      manifest.snapshot_format_version, payload.value().data(),
      payload.value().size(), options_.push_load_mode, &report,
      "pushed snapshot");
  if (!parsed.ok()) return ErrorFrame(parsed.status());

  // Keep a one-deep revert history, then swap. In-flight batches finish
  // on the snapshot they grabbed — the swap drops nothing.
  previous_snapshot_ = server_->CurrentSnapshot();
  previous_chunks_ = current_chunks_;
  Status swapped = server_->UpdateSnapshot(parsed.value());
  if (!swapped.ok()) return ErrorFrame(swapped);

  current_chunks_.clear();
  for (SnapshotPayloadChunk& chunk : chunks) {
    current_chunks_[chunk.name] = std::move(chunk.bytes);
  }
  staging_.Clear();

  std::string note = report.degraded_note;
  if (!options_.state_dir.empty()) {
    Status persisted = SaveChunkedSnapshot(*parsed.value(),
                                           options_.state_dir);
    if (!persisted.ok()) {
      // The swap already happened and serving is correct; surface the
      // persistence problem to the pusher instead of unwinding it.
      if (!note.empty()) note += "; ";
      note += "state persist failed: " + persisted.message();
    }
  }
  {
    std::lock_guard<std::mutex> counters(counter_mu_);
    ++counters_.push_commits;
  }
  BinaryWriter w;
  w.WriteU64(parsed.value()->version());
  w.WriteU8(report.outcome == SnapshotLoadReport::Outcome::kDegraded ? 1 : 0);
  w.WriteString(note);
  return Frame{FrameType::kPushCommitReply, std::move(w).TakeBuffer()};
}

Frame ShardDaemon::HandlePushRevert() {
  std::lock_guard<std::mutex> lock(push_mu_);
  staging_.Clear();
  if (previous_snapshot_ == nullptr) {
    return ErrorFrame(Status::FailedPrecondition(
        "no committed push to revert"));
  }
  Status swapped = server_->UpdateSnapshot(previous_snapshot_);
  if (!swapped.ok()) return ErrorFrame(swapped);
  current_chunks_ = previous_chunks_;
  uint64_t version = previous_snapshot_->version();
  previous_snapshot_.reset();
  previous_chunks_.clear();
  if (!options_.state_dir.empty()) {
    // Best effort: a revert that cannot persist still serves correctly.
    std::shared_ptr<const ModelSnapshot> current = server_->CurrentSnapshot();
    (void)SaveChunkedSnapshot(*current, options_.state_dir);
  }
  {
    std::lock_guard<std::mutex> counters(counter_mu_);
    ++counters_.push_reverts;
  }
  BinaryWriter w;
  w.WriteU64(version);
  return Frame{FrameType::kPushRevertReply, std::move(w).TakeBuffer()};
}

}  // namespace net
}  // namespace fairdrift
