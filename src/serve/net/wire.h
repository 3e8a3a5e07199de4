// Wire codecs for the network serving tier: the payloads that ride
// inside net/frame.h frames between the frontend router, shard daemons,
// and clients.
//
// Everything numeric travels as raw little-endian IEEE-754 bits via
// util/binary_io.h, so a ScoreResult deserialized on the router is
// BITWISE identical to the one the shard daemon computed -- the same
// cross-process identity guarantee the snapshot format gives. Every
// decoder returns typed Status errors (kDataLoss on malformed bytes)
// and validates counts before allocating.

#ifndef FAIRDRIFT_SERVE_NET_WIRE_H_
#define FAIRDRIFT_SERVE_NET_WIRE_H_

#include <map>
#include <string>
#include <vector>

#include "net/frame.h"
#include "serve/server_stats.h"
#include "serve/snapshot.h"
#include "serve/snapshot_manifest.h"
#include "util/binary_io.h"
#include "util/status.h"

namespace fairdrift {
namespace net {

/// kScoreBatch request: `count` rows of `width` doubles, row-major, plus
/// a per-request deadline (0 = none) applied by the receiving shard.
struct WireScoreRequest {
  uint64_t width = 0;
  std::vector<double> rows;  ///< count * width doubles
  uint64_t deadline_ns = 0;

  size_t count() const { return width == 0 ? 0 : rows.size() / width; }
};

void SerializeScoreRequest(const WireScoreRequest& request, BinaryWriter* w);
Result<WireScoreRequest> DeserializeScoreRequest(BinaryReader* r);

/// One row's outcome inside a kScoreBatchReply: the shard-side Status
/// code (kOk = scored; sheds and invalid rows carry their typed code)
/// plus the full ScoreResult when scored.
struct WireRowOutcome {
  StatusCode code = StatusCode::kOk;
  std::string message;  ///< empty on kOk
  ScoreResult result;
};

void SerializeRowOutcomes(const std::vector<WireRowOutcome>& outcomes,
                          BinaryWriter* w);
Result<std::vector<WireRowOutcome>> DeserializeRowOutcomes(BinaryReader* r);

/// kHealthProbeReply: the progress counters the health state machine
/// crosses to decide stalled-ness, plus the served snapshot version.
struct WireHealthProbe {
  uint64_t completed = 0;
  uint64_t queue_depth = 0;
  uint64_t inflight_batches = 0;
  uint64_t snapshot_version = 0;
};

void SerializeHealthProbe(const WireHealthProbe& probe, BinaryWriter* w);
Result<WireHealthProbe> DeserializeHealthProbe(BinaryReader* r);

/// ServerStats::View codec (kStatsSnapshotReply). Round-trips bitwise:
/// every double travels as raw bits, both histograms travel whole with
/// their bucket counts, and the receiver validates those counts before
/// merging (ServerStats::MergeHistogramInto).
void SerializeStatsView(const ServerStats::View& view, BinaryWriter* w);
Result<ServerStats::View> DeserializeStatsView(BinaryReader* r);

/// Receiver side of the incremental push (kPushManifest -> kPushChunk*
/// -> kPushCommit), shared by the shard daemon and the router: the
/// pending manifest plus the chunks pushed against it, each verified
/// before it is kept. Not thread-safe; the owner serializes calls.
class PushStaging {
 public:
  using ChunkMap = std::map<std::string, std::string>;

  /// kPushManifest: starts a new pending push and replies with the names
  /// of the manifest chunks `held` cannot supply — a held chunk with the
  /// same name, size, and FNV-1a never travels. (A router holds no
  /// chunks, so it asks for all of them.)
  Frame OnManifest(const Frame& frame, const ChunkMap& held);

  /// kPushChunk: verifies one chunk against its pending-manifest entry
  /// (size + FNV-1a; fault site "net.push.chunk" rejects here with
  /// kDataLoss) and stages it.
  Frame OnChunk(const Frame& frame);

  /// What kPushCommit assembles: the pending manifest with every chunk,
  /// staged where pushed and taken from `held` otherwise.
  /// kFailedPrecondition without a pending manifest, or when a chunk was
  /// neither pushed nor held.
  Result<ChunkedSnapshot> Pending(const ChunkMap& held) const;

  /// Drops the pending push (after a commit, or on kPushRevert).
  void Clear();

 private:
  bool pending_ = false;
  SnapshotManifest manifest_;
  ChunkMap chunks_;
};

}  // namespace net
}  // namespace fairdrift

#endif  // FAIRDRIFT_SERVE_NET_WIRE_H_
