#include "service/transport/server.hpp"

#include <cstring>
#include <future>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include <poll.h>
#include <sys/socket.h>

#include "obs/metrics.hpp"
#include "service/frame.hpp"
#include "service/ordered_writer.hpp"

namespace spsta::service::transport {

namespace {

/// Accept-loop poll granularity: how quickly stop() / a shutdown request
/// served on another thread is noticed.
constexpr int kAcceptPollMs = 50;

/// Read chunk. Small enough to keep per-connection memory modest, large
/// enough that bulk frame payloads stream in few syscalls.
constexpr std::size_t kReadChunk = 64 * 1024;

bool blank_line(std::string_view line) {
  for (const char c : line) {
    if (c != ' ' && c != '\t' && c != '\r') return false;
  }
  return true;
}

/// An already-resolved response as a future, so synthesized errors (bad
/// frames, oversized lines) slot into the in-order reorder deque like any
/// pooled response.
std::future<Response> ready_response(Response response) {
  std::promise<Response> promise;
  promise.set_value(std::move(response));
  return promise.get_future();
}

}  // namespace

/// Per-connection state: the socket and the reader thread. `mutex`
/// guards the fd between the reader closing it and the drain path (or the
/// writer's sink) shutting its read side down.
struct SocketServer::Connection {
  ScopedFd fd;
  std::mutex mutex;
  std::thread reader;              ///< joined by reap_connections
  std::atomic<bool> done{false};   ///< reader (and writer) fully finished

  /// Stops the receive side so a blocked read returns: used by the writer
  /// on write failure and by the graceful drain. Takes the mutex because
  /// the drain path races the reader thread closing its own fd — without
  /// it a shutdown() could land on a recycled descriptor number.
  void shut_read() {
    const std::lock_guard<std::mutex> lock(mutex);
    if (fd.valid()) ::shutdown(fd.get(), SHUT_RD);
  }
};

SocketServer::SocketServer(AnalysisService& service, SocketServerOptions options)
    : service_(service),
      options_(std::move(options)),
      pool_(service, {options_.serve.workers, options_.serve.queue_capacity}) {
  if (!options_.serve.trace_path.empty()) {
    trace_ = std::make_unique<obs::TraceLog>(options_.serve.trace_path);
  }
}

SocketServer::~SocketServer() {
  stop();
  reap_connections(/*all=*/true);
}

std::uint16_t SocketServer::listen() {
  std::string error;
  listen_fd_ = tcp_listen(options_.host, options_.port, &port_, &error);
  if (!listen_fd_.valid()) {
    throw std::runtime_error("cannot listen on " + options_.host + ":" +
                             std::to_string(options_.port) + " (" + error + ")");
  }
  return port_;
}

void SocketServer::stop() { stop_.store(true, std::memory_order_release); }

void SocketServer::reap_connections(bool all) {
  std::vector<std::shared_ptr<Connection>> joinable;
  {
    const std::lock_guard<std::mutex> lock(conns_mutex_);
    auto it = conns_.begin();
    while (it != conns_.end()) {
      const bool take = all || (*it)->done.load(std::memory_order_acquire);
      if (take) {
        joinable.push_back(*it);
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& conn : joinable) {
    if (all) conn->shut_read();  // graceful: stop reads, drain writes
    if (conn->reader.joinable()) conn->reader.join();
  }
}

SocketServerReport SocketServer::serve() {
  while (!stop_.load(std::memory_order_acquire) && pool_.accepting()) {
    pollfd pfd{listen_fd_.get(), POLLIN, 0};
    const int rc = ::poll(&pfd, 1, kAcceptPollMs);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    reap_connections(/*all=*/false);
    if (rc == 0) continue;
    ScopedFd fd(::accept(listen_fd_.get(), nullptr, nullptr));
    if (!fd.valid()) continue;
    connections_.fetch_add(1, std::memory_order_relaxed);
    obs::registry().counter("service.transport.connections").add();
    auto conn = std::make_shared<Connection>();
    conn->fd = std::move(fd);
    {
      const std::lock_guard<std::mutex> lock(conns_mutex_);
      conns_.push_back(conn);
    }
    conn->reader = std::thread([this, conn] { serve_connection(conn); });
  }
  // Graceful drain: no new connections, no new requests, but every
  // already-submitted request is answered before connections close.
  listen_fd_.reset();
  reap_connections(/*all=*/true);
  pool_.drain();
  return {connections_.load(std::memory_order_relaxed),
          frame_connections_.load(std::memory_order_relaxed),
          requests_.load(std::memory_order_relaxed),
          service_.shutdown_requested()};
}

void SocketServer::serve_connection(const std::shared_ptr<Connection>& conn) {
  // The writer starts once the first bytes fix the connection's mode.
  std::optional<OrderedWriter> writer;
  const auto start_writer = [&](bool frames) {
    writer.emplace(
        [conn](std::string_view wire) {
          if (write_all(conn->fd.get(), wire.data(), wire.size())) return true;
          // The client is gone or unwritable: shed exactly this connection.
          obs::registry().counter("service.transport.client_write_errors").add();
          conn->shut_read();
          return false;
        },
        frames, default_max_pending(pool_), trace_.get());
  };

  /// Queues one response-to-be in submission order; false once the
  /// connection is dead. A full writer pauses reads (backpressure).
  const auto enqueue = [&](const OrderedWriter::Submit& submit) {
    if (!writer->push(submit)) return false;
    requests_.fetch_add(1, std::memory_order_relaxed);
    return true;
  };
  const auto enqueue_bad_request = [&](const std::string& message) {
    return enqueue([&] {
      return ready_response(Response::failure(Json(), ErrorCode::BadRequest, message));
    });
  };

  std::string buffer;
  bool frame_mode = false;
  bool line_discarding = false;  ///< inside an over-cap line, pre-newline
  FrameDecoder decoder;
  std::vector<char> chunk(kReadChunk);

  for (;;) {
    const ssize_t n = read_some(conn->fd.get(), chunk.data(), chunk.size());
    if (n <= 0) break;  // EOF or error: stop reading, drain writes below
    std::string_view bytes(chunk.data(), static_cast<std::size_t>(n));

    if (!writer) {
      buffer.append(bytes);
      if (buffer.front() == kFrameMagic[0]) {
        if (buffer.size() < sizeof(kFrameMagic)) continue;  // magic incomplete
        if (std::memcmp(buffer.data(), kFrameMagic, sizeof(kFrameMagic)) != 0) {
          start_writer(/*frames=*/false);
          enqueue_bad_request("unrecognized connection magic");
          break;
        }
        frame_mode = true;
        frame_connections_.fetch_add(1, std::memory_order_relaxed);
        decoder.feed(std::string_view(buffer).substr(sizeof(kFrameMagic)));
        buffer.clear();
      }
      start_writer(frame_mode);
      bytes = {};  // already buffered / fed
    }

    bool conn_dead = false;
    if (frame_mode) {
      decoder.feed(bytes);
      Frame frame;
      for (;;) {
        const FrameDecoder::Status status = decoder.next(frame);
        if (status == FrameDecoder::Status::NeedMore) break;
        if (status == FrameDecoder::Status::BadFrame) {
          // Malformed frame: structured answer, connection stays up (the
          // length prefix kept the stream in sync).
          if (!enqueue_bad_request(decoder.error())) conn_dead = true;
        } else if (frame.kind == FrameKind::Waveform) {
          if (!enqueue_bad_request(
                  "unexpected waveform frame (requests are JSON frames)")) {
            conn_dead = true;
          }
        } else {
          if (!enqueue([&] {
                return pool_.submit(std::move(frame.payload),
                                    std::chrono::steady_clock::now(),
                                    /*binary_frames=*/true);
              })) {
            conn_dead = true;
          }
        }
        if (conn_dead) break;
      }
    } else {
      if (!bytes.empty()) buffer.append(bytes);
      std::size_t start = 0;
      for (;;) {
        const std::size_t nl = buffer.find('\n', start);
        if (nl == std::string::npos) break;
        std::string_view line(buffer.data() + start, nl - start);
        start = nl + 1;
        if (line_discarding) {
          line_discarding = false;  // tail of an already-rejected line
          continue;
        }
        if (blank_line(line)) continue;
        if (!enqueue([&] {
              return pool_.submit(std::string(line), std::chrono::steady_clock::now(),
                                  /*binary_frames=*/false);
            })) {
          conn_dead = true;
          break;
        }
      }
      buffer.erase(0, start);
      // Cap enforcement before the newline arrives: a partial line beyond
      // kMaxRequestBytes is rejected now and discarded as it streams in,
      // so a runaway client cannot balloon the connection buffer.
      if (!line_discarding && buffer.size() > kMaxRequestBytes) {
        if (!enqueue_bad_request(
                "request line exceeds the " + std::to_string(kMaxRequestBytes) +
                " byte limit")) {
          conn_dead = true;
        }
        buffer.clear();
        line_discarding = true;
      } else if (line_discarding) {
        buffer.clear();
      }
    }
    if (conn_dead) break;
    // Stop reading new requests once a shutdown was admitted; queued work
    // still drains through the writer.
    if (!pool_.accepting() || stop_.load(std::memory_order_acquire)) break;
  }

  if (writer) writer->close();
  {
    // Under the mutex: the drain path's shut_read may be inspecting the fd.
    const std::lock_guard<std::mutex> lock(conn->mutex);
    conn->fd.reset();
  }
  conn->done.store(true, std::memory_order_release);
}

}  // namespace spsta::service::transport
