/// \file server.hpp
/// Multi-connection socket front end of the analysis service (ROADMAP
/// item 1, DESIGN.md §15): a TCP listener in front of WorkerPool::submit.
///
/// Every connection gets a reader thread and an OrderedWriter (the same
/// ordered-reply writer the stdio loop uses); all connections share ONE
/// sharded worker pool, so the affinity routing, bounded queues and
/// admission control of DESIGN.md §13 apply across clients exactly as
/// they do within one stdio stream. Per connection:
///
///   * the protocol mode is negotiated from the first bytes: the 5-byte
///     kFrameMagic switches to length-prefixed binary frames (frame.hpp),
///     anything else is plain JSON lines — one daemon serves both kinds
///     of client at once;
///   * responses are written strictly in that connection's submission
///     order, even though shards complete out of order;
///   * backpressure is end-to-end: the reorder deque is bounded, a full
///     deque stops the reader, a full socket send buffer blocks the
///     writer — a slow client throttles only itself;
///   * oversized lines/frames are rejected from the header alone (the
///     8 MiB kMaxRequestBytes cap holds BEFORE any payload allocation)
///     with a structured `bad_request`, and malformed frames never kill
///     the daemon;
///   * a vanished client (write error, EOF mid-frame) sheds only its own
///     connection: its in-flight requests still execute, their responses
///     are discarded, every other connection is untouched;
///   * shutdown (a `shutdown` request or stop()) is a graceful drain:
///     the listener closes, reads stop, every already-submitted request
///     is answered, then connections close;
///   * with a trace path, every reply appends one trace line (the
///     writer's, shared by all connections).

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "service/daemon.hpp"
#include "service/service.hpp"
#include "service/transport/socket.hpp"
#include "service/worker_pool.hpp"

namespace spsta::service::transport {

struct SocketServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral (see SocketServer::port)
  /// Shards (0 = one per hardware thread), queue bound and trace file.
  ServeOptions serve{};
};

struct SocketServerReport {
  std::uint64_t connections = 0;       ///< accepted over the lifetime
  std::uint64_t frame_connections = 0; ///< of which negotiated binary frames
  std::uint64_t requests = 0;          ///< responses written or shed
  bool shutdown = false;               ///< stopped by a `shutdown` request
};

class SocketServer {
 public:
  SocketServer(AnalysisService& service, SocketServerOptions options = {});
  /// Joins everything; equivalent to stop() + the tail of serve().
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds and listens. Throws std::runtime_error when the address is
  /// unusable. Returns the bound port (resolves port 0).
  std::uint16_t listen();

  /// Accept loop: serves until a `shutdown` request or stop(), then
  /// drains every connection and returns. Call listen() first.
  SocketServerReport serve();

  /// Requests a graceful stop from any thread (idempotent).
  void stop();

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] const WorkerPool& pool() const noexcept { return pool_; }
  [[nodiscard]] WorkerPool& pool() noexcept { return pool_; }

 private:
  struct Connection;

  void serve_connection(const std::shared_ptr<Connection>& conn);
  /// Joins finished connection threads; \p all also joins live ones
  /// (after shutting their reads down for a graceful drain).
  void reap_connections(bool all);

  AnalysisService& service_;
  SocketServerOptions options_;
  WorkerPool pool_;
  std::unique_ptr<obs::TraceLog> trace_;
  ScopedFd listen_fd_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};

  std::mutex conns_mutex_;
  std::vector<std::shared_ptr<Connection>> conns_;

  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> frame_connections_{0};
  std::atomic<std::uint64_t> requests_{0};
};

}  // namespace spsta::service::transport
