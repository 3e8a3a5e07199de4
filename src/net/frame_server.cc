#include "net/frame_server.h"

#include <utility>

namespace fairdrift {
namespace net {

namespace {

/// Accept / readability poll tick: the bound on how long Stop() waits
/// for the accept loop and idle connections to notice.
constexpr std::chrono::milliseconds kPollTick{50};

}  // namespace

Result<std::unique_ptr<FrameServer>> FrameServer::Start(
    const std::string& host, uint16_t port,
    std::chrono::milliseconds io_timeout, Handler handler) {
  std::unique_ptr<FrameServer> server(new FrameServer());
  server->handler_ = std::move(handler);
  server->io_timeout_ = io_timeout;
  Result<TcpListener> listener = TcpListener::Listen(host, port);
  if (!listener.ok()) return listener.status();
  server->listener_ = std::move(listener).value();
  FrameServer* raw = server.get();
  server->accept_thread_ = std::thread([raw] { raw->AcceptLoop(); });
  return server;
}

FrameServer::~FrameServer() { Stop(); }

void FrameServer::Stop() {
  // call_once serializes concurrent stoppers: exactly one runs the join
  // sequence, and every caller returns only after it has completed --
  // no two threads ever join the same std::thread.
  std::call_once(stop_once_, [this] {
    stop_.store(true);
    if (accept_thread_.joinable()) accept_thread_.join();
    std::vector<ConnThread> conns;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      conns.swap(conn_threads_);
    }
    for (ConnThread& c : conns) {
      if (c.thread.joinable()) c.thread.join();
    }
    listener_.Close();
  });
}

FrameServer::Counters FrameServer::counters() const {
  Counters c;
  c.connections_accepted = connections_accepted_.load();
  c.frames_served = frames_served_.load();
  c.frame_errors = frame_errors_.load();
  return c;
}

void FrameServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    ReapFinishedConnections();
    Result<TcpConnection> conn = listener_.Accept(kPollTick);
    if (!conn.ok()) continue;  // poll tick elapsed, or a transient failure
    connections_accepted_.fetch_add(1);
    auto done = std::make_shared<std::atomic<bool>>(false);
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn_threads_.push_back(ConnThread{
        std::thread(&FrameServer::ServeConnection, this,
                    std::move(conn).value(), done),
        done});
  }
}

void FrameServer::ReapFinishedConnections() {
  std::lock_guard<std::mutex> lock(conn_mu_);
  for (auto it = conn_threads_.begin(); it != conn_threads_.end();) {
    if (it->done->load(std::memory_order_acquire)) {
      it->thread.join();
      it = conn_threads_.erase(it);
    } else {
      ++it;
    }
  }
}

void FrameServer::ServeConnection(TcpConnection conn,
                                  std::shared_ptr<std::atomic<bool>> done) {
  while (!stop_.load(std::memory_order_relaxed)) {
    if (!conn.WaitReadable(kPollTick)) continue;
    Result<Frame> frame = ReadFrame(conn, io_timeout_);
    if (!frame.ok()) {
      // kUnavailable here is normally just the peer hanging up; anything
      // else (checksum, desync, timeout) is worth reporting back if the
      // socket still works. Either way this connection is done — a
      // desynchronized stream cannot be re-framed.
      if (frame.status().code() != StatusCode::kUnavailable) {
        frame_errors_.fetch_add(1);
      }
      (void)WriteErrorFrame(conn, frame.status(), io_timeout_);
      break;
    }
    Frame reply = handler_(frame.value());
    frames_served_.fetch_add(1);
    if (reply.type == FrameType::kError) frame_errors_.fetch_add(1);
    if (!WriteFrame(conn, reply.type, reply.payload, io_timeout_).ok()) {
      break;
    }
  }
  conn.Close();
  done->store(true, std::memory_order_release);
}

}  // namespace net
}  // namespace fairdrift
