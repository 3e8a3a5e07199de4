// FrameServer: the one connection server behind every frame endpoint —
// shard daemons (serve/net/shard_daemon.h) and the router
// (serve/net/router.h) differ only in the handler they plug in.
//
// One accept thread polls the listener, reaping finished connection
// threads each tick; each accepted connection gets its own thread
// running read -> handle -> write with deadline-bounded reads, so a
// frame-level error on one connection (checksum mismatch, injected
// partial read, dead client) closes that connection and nothing else.
// Idle connections park in short readability polls, so Stop() is never
// stuck behind a silent peer; only an actual frame start pays the full
// io_timeout read.

#ifndef FAIRDRIFT_NET_FRAME_SERVER_H_
#define FAIRDRIFT_NET_FRAME_SERVER_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/socket.h"
#include "util/status.h"

namespace fairdrift {
namespace net {

class FrameServer {
 public:
  /// Answers one request frame (ErrorFrame on failure). Called
  /// concurrently from connection threads.
  using Handler = std::function<Frame(const Frame& request)>;

  /// Wire activity counters.
  struct Counters {
    uint64_t connections_accepted = 0;
    uint64_t frames_served = 0;
    uint64_t frame_errors = 0;  ///< error frames sent to peers
  };

  /// Binds host:port (0 picks an ephemeral port, see port()) and starts
  /// accepting; the server is serving when Start returns. `io_timeout`
  /// bounds each frame read and write: a peer that stalls mid-frame is
  /// disconnected with kDeadlineExceeded rather than wedging a thread.
  static Result<std::unique_ptr<FrameServer>> Start(
      const std::string& host, uint16_t port,
      std::chrono::milliseconds io_timeout, Handler handler);

  ~FrameServer();
  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// The bound port (resolved for ephemeral binds).
  uint16_t port() const { return listener_.port(); }

  Counters counters() const;

  /// Stops accepting, lets each connection finish its current frame,
  /// joins every thread, and closes the listener. Idempotent; every
  /// caller returns only after the stop has completed.
  void Stop();

 private:
  FrameServer() = default;

  void AcceptLoop();
  /// Joins connection threads whose peer has gone, so a long-running
  /// server never holds a joinable thread per client it ever served.
  void ReapFinishedConnections();
  void ServeConnection(TcpConnection conn,
                       std::shared_ptr<std::atomic<bool>> done);

  Handler handler_;
  std::chrono::milliseconds io_timeout_{0};
  TcpListener listener_;
  std::atomic<bool> stop_{false};
  std::once_flag stop_once_;
  std::thread accept_thread_;

  /// One thread per live connection; `done` flips when it exits so the
  /// accept loop can reap (join) it.
  struct ConnThread {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::mutex conn_mu_;
  std::vector<ConnThread> conn_threads_;

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> frames_served_{0};
  std::atomic<uint64_t> frame_errors_{0};
};

}  // namespace net
}  // namespace fairdrift

#endif  // FAIRDRIFT_NET_FRAME_SERVER_H_
