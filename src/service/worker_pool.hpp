/// \file worker_pool.hpp
/// The service runtime (DESIGN.md §13): every request any transport
/// receives is executed through WorkerPool::submit — a sharded worker pool
/// with session-affinity routing, bounded per-shard queues and admission
/// control.
///
///   * N shards, each one worker thread plus a bounded FIFO queue;
///   * routing is by *content hash*: a request naming a session routes on
///     the session key's hash value, and a `load` routes on the content
///     hash of what it loads (for a `path` load, of the file's bytes) — so
///     every request touching one design lands on one shard (per-design
///     FIFO, zero cross-shard contention on the hot path) and identical
///     designs submitted by different clients share that shard's warm
///     compiled plan via the session store;
///   * admission control: a submit against a full shard queue is answered
///     immediately with a structured `overloaded` error carrying a
///     `retry_after_ms` hint (queue depth × the shard's recent mean
///     service time) instead of queueing without bound — shed early,
///     shed cheap;
///   * deadline shedding at dequeue (queue wait burned the budget) plus
///     the service-internal re-check after the session mutex is won;
///   * an admitted `shutdown` closes admission: no later submit, from any
///     client, is queued behind it, and it always executes (its
///     deadline_ms is not applied), so the daemon reports the stop;
///   * a `service.pool.queue_depth` gauge tracks total queued requests.
///
/// Responses complete out of order across shards; submit() returns a
/// future per request and each transport writes completions back in its
/// own submission order through an OrderedWriter (ordered_writer.hpp).
/// Commands with no routing key (ping, stats, shutdown) spread
/// round-robin.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "service/protocol.hpp"
#include "service/service.hpp"

namespace spsta::service {

struct WorkerPoolOptions {
  /// Worker shards (0 = one per hardware thread, capped at 16).
  unsigned shards = 0;
  /// Bounded queue capacity per shard; a submit beyond it is shed with
  /// `overloaded`.
  std::size_t queue_capacity = 256;
};

/// Aggregated pool counters (relaxed snapshots). Every submitted line is
/// accounted to exactly one outcome, so after drain() the identity
///
///   submitted == executed + rejected_overload + deadline_shed
///              + parse_errors + shutdown_shed
///
/// holds exactly (service_worker_pool_test asserts it).
struct WorkerPoolStats {
  std::uint64_t submitted = 0;          ///< lines accepted into submit()
  std::uint64_t executed = 0;           ///< requests a worker ran
  std::uint64_t rejected_overload = 0;  ///< shed by admission control
  std::uint64_t deadline_shed = 0;      ///< shed at dequeue (stale)
  std::uint64_t parse_errors = 0;       ///< answered at submit (bad envelope)
  std::uint64_t shutdown_shed = 0;      ///< answered at submit while stopping

  /// Outcomes accounted so far; equals `submitted` once the pool is idle.
  [[nodiscard]] std::uint64_t resolved() const noexcept {
    return executed + rejected_overload + deadline_shed + parse_errors +
           shutdown_shed;
  }
};

class WorkerPool {
 public:
  explicit WorkerPool(AnalysisService& service, WorkerPoolOptions options = {});
  /// Drains every queued job (each submitted request is answered exactly
  /// once) and joins the workers.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Routes, admits and enqueues one request line. Returns a future that
  /// yields the response; a parse failure or an admission-control shed
  /// resolves the future immediately. \p enqueued is the deadline origin.
  /// \p binary_frames marks requests from binary-frame connections
  /// (DESIGN.md §15): handlers may then return bulk payloads as
  /// Response::waveforms sidecars.
  [[nodiscard]] std::future<Response> submit(
      std::string line,
      std::chrono::steady_clock::time_point enqueued = std::chrono::steady_clock::now(),
      bool binary_frames = false);

  /// Blocks until every queue is empty and no worker is mid-request.
  void drain();

  /// Begins a graceful shutdown: every later submit() is answered with
  /// `overloaded` ("shutting down") and counted in shutdown_shed; already
  /// queued requests still execute and workers exit once their queues are
  /// empty. Admitting a `shutdown` request calls this.
  void stop_accepting();

  /// False once stop_accepting() ran: transports stop reading then.
  [[nodiscard]] bool accepting() const noexcept {
    return !stopping_.load(std::memory_order_acquire);
  }

  [[nodiscard]] unsigned shards() const noexcept {
    return static_cast<unsigned>(shards_.size());
  }
  [[nodiscard]] std::size_t queue_capacity() const noexcept {
    return options_.queue_capacity;
  }
  /// Total requests queued right now (all shards).
  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return total_depth_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] WorkerPoolStats stats() const noexcept;

  /// The shard a request routes to — exposed so tests can pin down the
  /// affinity contract (a load of content C, by name, text or path, and
  /// every request on the session C created land on the same shard).
  [[nodiscard]] unsigned route_shard(const Request& request) const;

 private:
  struct Job {
    Request request;
    std::promise<Response> promise;
    std::uint64_t trace_id = 0;
  };

  struct Shard {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Job> queue;
    std::thread worker;
    /// EWMA of recent execute wall-clock, the retry-after currency.
    std::atomic<std::uint64_t> avg_execute_ns{1'000'000};
  };

  void worker_loop(Shard& shard);
  void update_depth_gauge() const;

  AnalysisService& service_;
  WorkerPoolOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> stopping_{false};

  std::atomic<std::size_t> total_depth_{0};
  /// Accepted-but-unanswered requests: +1 on queue admit, -1 after the
  /// promise resolves. drain() waits for 0 — no gap where a job is
  /// neither queued nor counted.
  std::atomic<std::size_t> inflight_{0};
  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;
  mutable std::atomic<std::uint64_t> round_robin_{0};
  std::atomic<std::uint64_t> trace_seq_{0};

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> deadline_shed_{0};
  std::atomic<std::uint64_t> parse_errors_{0};
  std::atomic<std::uint64_t> shutdown_shed_{0};
};

}  // namespace spsta::service
