/// \file ordered_writer.hpp
/// The service's one ordered-reply path (DESIGN.md §9). Every transport —
/// the stdio loop and each socket connection, JSON lines or binary frames
/// — pushes the futures WorkerPool::submit returns into an OrderedWriter,
/// whose thread writes the replies strictly in push order as they
/// complete, even though the pool's shards finish out of order.
///
///   * at most `max_pending` replies are outstanding (queued, executing or
///     being written): push() waits for room *before* it submits, so a
///     client that stops reading throttles only its own reader, and a
///     reader whose bound is at most the pool's queue capacity can never
///     fill a shard queue by itself;
///   * the writer thread encodes each reply (a JSON line, or a JSON frame
///     followed by its waveform sidecar frames), hands the bytes to the
///     sink, records the `service.serialize` span and, given a trace log,
///     appends one trace line per reply;
///   * a sink that fails (the peer is gone) makes the writer dead: later
///     replies are still awaited, so their work completes and the pool's
///     books balance, but nothing more is written and push() returns
///     false.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <string_view>
#include <thread>

#include "obs/trace.hpp"
#include "service/protocol.hpp"
#include "service/worker_pool.hpp"

namespace spsta::service {

class OrderedWriter {
 public:
  /// Writes one reply's wire bytes; returns false when the peer is gone.
  using Sink = std::function<bool(std::string_view wire)>;

  /// \p frames selects binary-frame encoding (DESIGN.md §15) over JSON
  /// lines. \p trace, when non-null, must outlive the writer.
  OrderedWriter(Sink sink, bool frames, std::size_t max_pending,
                obs::TraceLog* trace = nullptr);
  /// close().
  ~OrderedWriter();

  OrderedWriter(const OrderedWriter&) = delete;
  OrderedWriter& operator=(const OrderedWriter&) = delete;

  /// Makes the reply to one request: a submit to the pool, or a reply
  /// that is ready at once.
  using Submit = std::function<std::future<Response>()>;

  /// Waits while `max_pending` replies are outstanding, then calls
  /// \p submit and queues its reply behind every earlier one. Returns
  /// false, without calling \p submit, once the sink failed. One thread
  /// pushes into a writer.
  bool push(const Submit& submit);

  /// Returns once every pushed reply is written (or discarded after a sink
  /// failure) and the writer thread has exited. Idempotent.
  void close();

 private:
  void run();

  Sink sink_;
  bool frames_;
  std::size_t max_pending_;
  obs::TraceLog* trace_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::future<Response>> pending_;  ///< in push order
  /// Pushed and not yet written (or discarded): pending_ plus the reply
  /// the writer thread holds. The `max_pending` bound applies to this.
  std::size_t outstanding_ = 0;
  bool closed_ = false;  ///< no more pushes
  bool dead_ = false;    ///< the sink failed

  std::thread thread_;  ///< last: starts once every member above exists
};

/// The reorder bound for a socket connection's writer in front of
/// \p pool: twice what the pool's queues can hold, plus slack, so
/// admission control sheds a crowd of clients long before the bound blocks
/// one reader. (The stdio loop, one client, bounds its writer by one
/// shard's queue capacity instead: it pauses rather than sheds.)
[[nodiscard]] std::size_t default_max_pending(const WorkerPool& pool) noexcept;

}  // namespace spsta::service
