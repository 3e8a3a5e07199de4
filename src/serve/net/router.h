// Router: the frontend router process, as a library class.
//
//   clients --frames--> [FrameServer] -> Router::HandleFrame -> RemoteFleet
//
// Clients speak the same frame protocol they would speak to a single
// shard daemon. The router answers on the shared net::FrameServer and
// serves every frame from a RemoteFleet: score batches fan out across
// the daemons by the configured policy (the fleet's prober ejects and
// readmits daemons), kStatsSnapshot / kMetrics render the fleet-merged
// view from one round of per-daemon Stats RPCs — so a router scrape
// equals the sum/merge of the per-daemon scrapes — and pushes are
// staged with the daemons' own PushStaging, then relayed through
// PushRolling's one-shard-out-at-a-time rollout. Unlike a daemon the
// router keeps no chunk store, so it asks the pusher for every chunk;
// the incremental hop is router -> shards, where each daemon's manifest
// diff keeps unchanged chunks local.

#ifndef FAIRDRIFT_SERVE_NET_ROUTER_H_
#define FAIRDRIFT_SERVE_NET_ROUTER_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/frame_server.h"
#include "serve/net/remote_fleet.h"
#include "serve/net/wire.h"

namespace fairdrift {
namespace net {

class Router {
 public:
  /// Connects a RemoteFleet over `shard_addresses` ("host:port"; each
  /// daemon must answer a probe now) and serves on host:port (0 picks an
  /// ephemeral port, see port()). Frames are read and written with the
  /// fleet's io_timeout.
  static Result<std::unique_ptr<Router>> Start(
      const std::string& host, uint16_t port,
      const std::vector<std::string>& shard_addresses,
      const RemoteFleetOptions& options = {});

  ~Router();
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  uint16_t port() const { return frame_server_->port(); }

  /// The fleet behind the router (test introspection).
  RemoteFleet* fleet() { return fleet_.get(); }

  /// Stops serving, then stops the fleet's prober. Idempotent.
  void Stop();

 private:
  Router() = default;

  Frame HandleFrame(const Frame& frame);
  Frame HandleScoreBatch(const Frame& frame);
  Frame HandleHealthProbe();
  Frame HandleMetrics();
  Frame HandlePushCommit();

  std::unique_ptr<RemoteFleet> fleet_;
  std::mutex push_mu_;
  PushStaging staging_;  // guarded by push_mu_
  std::unique_ptr<FrameServer> frame_server_;
};

}  // namespace net
}  // namespace fairdrift

#endif  // FAIRDRIFT_SERVE_NET_ROUTER_H_
