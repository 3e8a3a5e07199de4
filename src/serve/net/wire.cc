#include "serve/net/wire.h"

#include <utility>

#include "util/fault.h"

namespace fairdrift {
namespace net {
namespace {

// Caps that bound a corrupted count field before it allocates.
constexpr uint64_t kMaxRowsPerBatch = 1u << 20;
constexpr uint64_t kMaxRowWidth = 1u << 16;
constexpr uint64_t kMaxHistBuckets = 1u << 16;

// One decoded field into its destination: the typed-status plumbing
// every decoder below shares.
template <typename T, typename U>
Status ReadInto(Result<T> value, U* dst) {
  if (!value.ok()) return value.status();
  *dst = static_cast<U>(std::move(value).value());
  return Status::OK();
}
Status ReadField(BinaryReader* r, uint64_t* dst) {
  return ReadInto(r->ReadU64(), dst);
}
Status ReadField(BinaryReader* r, int* dst) {
  return ReadInto(r->ReadI32(), dst);
}
Status ReadField(BinaryReader* r, double* dst) {
  return ReadInto(r->ReadDouble(), dst);
}
Status ReadField(BinaryReader* r, std::string* dst) {
  return ReadInto(r->ReadString(), dst);
}
Status ReadField(BinaryReader* r, bool* dst) {
  uint8_t v = 0;
  FAIRDRIFT_RETURN_IF_ERROR(ReadInto(r->ReadU8(), &v));
  *dst = v != 0;
  return Status::OK();
}

}  // namespace

void SerializeScoreRequest(const WireScoreRequest& request, BinaryWriter* w) {
  w->WriteU64(request.width);
  w->WriteU64(request.deadline_ns);
  w->WriteDoubleVector(request.rows);
}

Result<WireScoreRequest> DeserializeScoreRequest(BinaryReader* r) {
  WireScoreRequest request;
  FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &request.width));
  FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &request.deadline_ns));
  FAIRDRIFT_RETURN_IF_ERROR(ReadInto(r->ReadDoubleVector(), &request.rows));
  if (request.width == 0 || request.width > kMaxRowWidth) {
    return Status::DataLoss("score request has an implausible row width");
  }
  if (request.rows.size() % request.width != 0 ||
      request.rows.size() / request.width > kMaxRowsPerBatch) {
    return Status::DataLoss(
        "score request rows are not a whole number of rows");
  }
  return request;
}

void SerializeRowOutcomes(const std::vector<WireRowOutcome>& outcomes,
                          BinaryWriter* w) {
  w->WriteU64(outcomes.size());
  for (const WireRowOutcome& outcome : outcomes) {
    w->WriteU8(static_cast<uint8_t>(outcome.code));
    w->WriteString(outcome.message);
    const ScoreResult& res = outcome.result;
    w->WriteDouble(res.probability);
    w->WriteI32(res.label);
    w->WriteI32(res.routed_group);
    w->WriteDouble(res.margin);
    w->WriteDouble(res.log_density);
    w->WriteU8(res.density_outlier ? 1 : 0);
    w->WriteU8(res.density_checked ? 1 : 0);
    w->WriteU64(res.snapshot_version);
    w->WriteI32(res.group);
    w->WriteU64(res.trace_id);
  }
}

Result<std::vector<WireRowOutcome>> DeserializeRowOutcomes(BinaryReader* r) {
  Result<uint64_t> count = r->ReadU64();
  if (!count.ok()) return count.status();
  if (count.value() > kMaxRowsPerBatch) {
    return Status::DataLoss("score reply claims an implausible row count");
  }
  std::vector<WireRowOutcome> outcomes;
  outcomes.reserve(count.value());
  for (uint64_t i = 0; i < count.value(); ++i) {
    WireRowOutcome outcome;
    ScoreResult& res = outcome.result;
    FAIRDRIFT_RETURN_IF_ERROR(ReadInto(r->ReadU8(), &outcome.code));
    FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &outcome.message));
    FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &res.probability));
    FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &res.label));
    FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &res.routed_group));
    FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &res.margin));
    FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &res.log_density));
    FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &res.density_outlier));
    FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &res.density_checked));
    FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &res.snapshot_version));
    FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &res.group));
    FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &res.trace_id));
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

void SerializeHealthProbe(const WireHealthProbe& probe, BinaryWriter* w) {
  w->WriteU64(probe.completed);
  w->WriteU64(probe.queue_depth);
  w->WriteU64(probe.inflight_batches);
  w->WriteU64(probe.snapshot_version);
}

Result<WireHealthProbe> DeserializeHealthProbe(BinaryReader* r) {
  WireHealthProbe probe;
  FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &probe.completed));
  FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &probe.queue_depth));
  FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &probe.inflight_batches));
  FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &probe.snapshot_version));
  return probe;
}

namespace {

void WriteU64Hist(const std::vector<uint64_t>& hist, BinaryWriter* w) {
  w->WriteU64(hist.size());
  for (uint64_t v : hist) w->WriteU64(v);
}

Result<std::vector<uint64_t>> ReadU64Hist(BinaryReader* r) {
  Result<uint64_t> count = r->ReadU64();
  if (!count.ok()) return count.status();
  if (count.value() > kMaxHistBuckets) {
    return Status::DataLoss("stats view claims an implausible bucket count");
  }
  std::vector<uint64_t> hist;
  hist.reserve(count.value());
  for (uint64_t i = 0; i < count.value(); ++i) {
    Result<uint64_t> v = r->ReadU64();
    if (!v.ok()) return v.status();
    hist.push_back(v.value());
  }
  return hist;
}

}  // namespace

void SerializeStatsView(const ServerStats::View& view, BinaryWriter* w) {
  w->WriteU64(view.submitted);
  w->WriteU64(view.completed);
  w->WriteU64(view.shed_admission);
  w->WriteU64(view.shed_deadline);
  w->WriteU64(view.invalid);
  w->WriteU64(view.batches);
  w->WriteU64(view.snapshot_swaps);
  w->WriteDouble(view.mean_batch_size);
  w->WriteDouble(view.p50_latency_us);
  w->WriteDouble(view.p95_latency_us);
  w->WriteDouble(view.p99_latency_us);
  w->WriteDouble(view.ewma_batch_latency_us);
  w->WriteU64(view.density_checked);
  w->WriteU64(view.density_outliers);
  w->WriteDouble(view.ewma_outlier_rate);
  w->WriteU64(view.audit_windows);
  w->WriteU64(view.audit_breaches);
  w->WriteU64(view.audit_alerts_raised);
  w->WriteU8(view.audit_alert_active ? 1 : 0);
  w->WriteU8(view.audit_has_metrics ? 1 : 0);
  w->WriteDouble(view.audit_last_di_star);
  w->WriteDouble(view.audit_last_spd);
  WriteU64Hist(view.batch_size_hist, w);
  WriteU64Hist(view.latency_hist, w);
  w->WriteU64(view.trace_sampled);
  w->WriteU64(view.trace_append_failures);
  for (size_t s = 0; s < ServerStats::kServeStages; ++s) {
    w->WriteDouble(view.stage_p99_us[s]);
  }
  for (size_t s = 0; s < ServerStats::kServeStages; ++s) {
    WriteU64Hist(view.stage_hist[s], w);
  }
}

Result<ServerStats::View> DeserializeStatsView(BinaryReader* r) {
  ServerStats::View view;
  FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &view.submitted));
  FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &view.completed));
  FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &view.shed_admission));
  FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &view.shed_deadline));
  FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &view.invalid));
  FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &view.batches));
  FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &view.snapshot_swaps));
  FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &view.mean_batch_size));
  FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &view.p50_latency_us));
  FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &view.p95_latency_us));
  FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &view.p99_latency_us));
  FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &view.ewma_batch_latency_us));
  FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &view.density_checked));
  FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &view.density_outliers));
  FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &view.ewma_outlier_rate));
  FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &view.audit_windows));
  FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &view.audit_breaches));
  FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &view.audit_alerts_raised));
  FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &view.audit_alert_active));
  FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &view.audit_has_metrics));
  FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &view.audit_last_di_star));
  FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &view.audit_last_spd));
  FAIRDRIFT_RETURN_IF_ERROR(ReadInto(ReadU64Hist(r), &view.batch_size_hist));
  FAIRDRIFT_RETURN_IF_ERROR(ReadInto(ReadU64Hist(r), &view.latency_hist));
  FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &view.trace_sampled));
  FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &view.trace_append_failures));
  for (size_t s = 0; s < ServerStats::kServeStages; ++s) {
    FAIRDRIFT_RETURN_IF_ERROR(ReadField(r, &view.stage_p99_us[s]));
  }
  for (size_t s = 0; s < ServerStats::kServeStages; ++s) {
    FAIRDRIFT_RETURN_IF_ERROR(ReadInto(ReadU64Hist(r), &view.stage_hist[s]));
  }
  return view;
}

Frame PushStaging::OnManifest(const Frame& frame, const ChunkMap& held) {
  BinaryReader r(frame.payload);
  Result<SnapshotManifest> manifest = DeserializeManifest(&r);
  if (!manifest.ok()) return ErrorFrame(manifest.status());
  manifest_ = std::move(manifest).value();
  chunks_.clear();
  pending_ = true;
  std::vector<std::string> needed;
  for (const SnapshotChunkInfo& info : manifest_.chunks) {
    auto it = held.find(info.name);
    bool reusable = it != held.end() && it->second.size() == info.size &&
                    Fnv1aHash(it->second.data(), it->second.size()) ==
                        info.checksum;
    if (!reusable) needed.push_back(info.name);
  }
  BinaryWriter w;
  w.WriteU64(needed.size());
  for (const std::string& name : needed) w.WriteString(name);
  return Frame{FrameType::kPushManifestReply, std::move(w).TakeBuffer()};
}

Frame PushStaging::OnChunk(const Frame& frame) {
  BinaryReader r(frame.payload);
  Result<std::string> name = r.ReadString();
  if (!name.ok()) return ErrorFrame(name.status());
  Result<std::string> bytes = r.ReadString();
  if (!bytes.ok()) return ErrorFrame(bytes.status());
  if (!pending_) {
    return ErrorFrame(Status::FailedPrecondition(
        "push chunk without a pending manifest (send kPushManifest first)"));
  }
  size_t index = manifest_.FindChunk(name.value());
  if (index == static_cast<size_t>(-1)) {
    return ErrorFrame(Status::InvalidArgument(
        "pushed chunk '" + name.value() + "' is not in the pending manifest"));
  }
  const SnapshotChunkInfo& info = manifest_.chunks[index];
  if (FAULT_POINT_ARG("net.push.chunk", static_cast<uint64_t>(index)) ||
      bytes.value().size() != info.size ||
      Fnv1aHash(bytes.value().data(), bytes.value().size()) != info.checksum) {
    return ErrorFrame(Status::DataLoss(
        "pushed chunk '" + name.value() +
        "' does not match its manifest entry (size or checksum)"));
  }
  chunks_[info.name] = std::move(bytes).value();
  return Frame{FrameType::kPushChunkReply, std::string()};
}

Result<ChunkedSnapshot> PushStaging::Pending(const ChunkMap& held) const {
  if (!pending_) {
    return Status::FailedPrecondition(
        "push commit without a pending manifest");
  }
  ChunkedSnapshot pending;
  pending.manifest = manifest_;
  pending.chunks.reserve(manifest_.chunks.size());
  for (const SnapshotChunkInfo& info : manifest_.chunks) {
    auto staged = chunks_.find(info.name);
    if (staged != chunks_.end()) {
      pending.chunks.push_back({info.name, staged->second});
      continue;
    }
    auto it = held.find(info.name);
    if (it == held.end()) {
      return Status::FailedPrecondition(
          "chunk '" + info.name +
          "' was neither pushed nor already held; cannot commit");
    }
    pending.chunks.push_back({info.name, it->second});
  }
  return pending;
}

void PushStaging::Clear() {
  pending_ = false;
  chunks_.clear();
}

}  // namespace net
}  // namespace fairdrift
