#include "service/worker_pool.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"

namespace spsta::service {

namespace {

unsigned resolve_shards(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(hw, 1u, 16u);
}

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

WorkerPool::WorkerPool(AnalysisService& service, WorkerPoolOptions options)
    : service_(service), options_(options) {
  options_.shards = resolve_shards(options_.shards);
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  shards_.reserve(options_.shards);
  for (unsigned i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  // Threads start only after every shard exists: worker_loop never sees a
  // half-built shards_ vector.
  for (const auto& shard : shards_) {
    shard->worker = std::thread([this, s = shard.get()] { worker_loop(*s); });
  }
}

WorkerPool::~WorkerPool() {
  stopping_.store(true, std::memory_order_release);
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    shard->cv.notify_all();
  }
  for (const auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

WorkerPoolStats WorkerPool::stats() const noexcept {
  return {submitted_.load(std::memory_order_relaxed),
          executed_.load(std::memory_order_relaxed),
          rejected_.load(std::memory_order_relaxed),
          deadline_shed_.load(std::memory_order_relaxed),
          parse_errors_.load(std::memory_order_relaxed),
          shutdown_shed_.load(std::memory_order_relaxed)};
}

void WorkerPool::stop_accepting() {
  stopping_.store(true, std::memory_order_release);
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    shard->cv.notify_all();
  }
}

unsigned WorkerPool::route_shard(const Request& request) const {
  const unsigned n = shards();
  if (n == 1) return 0;  // nothing to route: skip the hashing (and reads)
  // A request naming a session routes on the session key — which IS the
  // content hash, so it lands where the design's plan is warm.
  if (const Json* key = request.body.find("session");
      key != nullptr && key->is_string()) {
    if (const auto h = parse_hash_key(key->as_string())) {
      return static_cast<unsigned>(*h % n);
    }
    return static_cast<unsigned>(fnv1a64(key->as_string()) % n);
  }
  if (request.cmd == "load") {
    // Route a load on the content hash of what it loads, reproducing
    // handle_load's key derivation — identical designs submitted by
    // different clients converge on one shard and one compiled plan.
    const Json* circuit = request.body.find("circuit");
    if (circuit != nullptr && circuit->is_string()) {
      return static_cast<unsigned>(
          load_content_hash("circuit", circuit->as_string()) % n);
    }
    const Json* text = request.body.find("text");
    const Json* format = request.body.find("format");
    if (text != nullptr && text->is_string() && format != nullptr &&
        format->is_string()) {
      return static_cast<unsigned>(
          load_content_hash(format->as_string(), text->as_string()) % n);
    }
    // A path load routes on the content hash of the file it names — the
    // key its session will have. An unreadable file routes anywhere; the
    // handler answers its io_error.
    const Json* path = request.body.find("path");
    if (path != nullptr && path->is_string()) {
      if (const auto h = path_load_hash(path->as_string(), format)) {
        return static_cast<unsigned>(*h % n);
      }
    }
  }
  // No routing key (ping, stats, shutdown, malformed loads): spread.
  return static_cast<unsigned>(round_robin_.fetch_add(1, std::memory_order_relaxed) %
                               n);
}

void WorkerPool::update_depth_gauge() const {
  obs::registry().gauge("service.pool.queue_depth")
      .set(static_cast<double>(total_depth_.load(std::memory_order_relaxed)));
}

std::future<Response> WorkerPool::submit(
    std::string line, std::chrono::steady_clock::time_point enqueued,
    bool binary_frames) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  std::promise<Response> promise;
  std::future<Response> future = promise.get_future();
  const std::uint64_t trace_id =
      trace_seq_.fetch_add(1, std::memory_order_relaxed) + 1;

  std::variant<Request, Response> parsed = parse_request(line);
  if (Response* error = std::get_if<Response>(&parsed)) {
    parse_errors_.fetch_add(1, std::memory_order_relaxed);
    error->span = {trace_id, "", 0.0, 0.0};
    promise.set_value(std::move(*error));
    return future;
  }
  Request request = std::move(std::get<Request>(parsed));
  request.enqueued = enqueued;
  request.binary_frames = binary_frames;

  if (stopping_.load(std::memory_order_acquire)) {
    shutdown_shed_.fetch_add(1, std::memory_order_relaxed);
    Response r = Response::failure(request.id, ErrorCode::Overloaded,
                                   "service is shutting down");
    r.span = {trace_id, request.cmd, request.age_ms(), 0.0};
    promise.set_value(std::move(r));
    return future;
  }

  const bool shutdown = request.cmd == "shutdown";
  Shard& shard = *shards_[route_shard(request)];
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    // Re-check under the shard lock: a worker only exits after observing
    // stopping_ with this mutex held, so a submit that reaches the lock
    // afterwards is guaranteed to see stopping_ too (mutex ordering plus
    // read coherence) and never enqueues onto a dead shard.
    if (stopping_.load(std::memory_order_acquire)) {
      shutdown_shed_.fetch_add(1, std::memory_order_relaxed);
      Response r = Response::failure(request.id, ErrorCode::Overloaded,
                                     "service is shutting down");
      r.span = {trace_id, request.cmd, request.age_ms(), 0.0};
      promise.set_value(std::move(r));
      return future;
    }
    if (shard.queue.size() >= options_.queue_capacity) {
      // Admission control: shed NOW, with a hint, rather than queueing
      // without bound. The hint is how long the backlog ahead would take
      // at this shard's recent mean service time.
      rejected_.fetch_add(1, std::memory_order_relaxed);
      obs::registry().counter("service.pool.overloaded").add();
      const double backlog_ms =
          static_cast<double>(shard.queue.size() + 1) *
          static_cast<double>(shard.avg_execute_ns.load(std::memory_order_relaxed)) *
          1e-6;
      Response r = Response::failure(
          request.id, ErrorCode::Overloaded,
          "shard queue full (" + std::to_string(shard.queue.size()) +
              " queued); retry later");
      r.body.set("retry_after_ms", Json(backlog_ms));
      r.span = {trace_id, request.cmd, request.age_ms(), 0.0};
      promise.set_value(std::move(r));
      return future;
    }
    shard.queue.push_back(Job{std::move(request), std::move(promise), trace_id});
    total_depth_.fetch_add(1, std::memory_order_relaxed);
    inflight_.fetch_add(1, std::memory_order_relaxed);
    // An admitted shutdown is a fence, raised in the critical section
    // that queues it: no later submit to this shard queues behind it, and
    // every submit that starts after this one returns is shed.
    if (shutdown) stopping_.store(true, std::memory_order_release);
    shard.cv.notify_one();
  }
  update_depth_gauge();
  if (shutdown) stop_accepting();  // wake idle shards: they exit once empty
  return future;
}

void WorkerPool::worker_loop(Shard& shard) {
  obs::LatencyHistogram& queue_hist = obs::registry().histogram("service.queue_wait");
  obs::LatencyHistogram& execute_hist = obs::registry().histogram("service.execute");
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(shard.mutex);
      shard.cv.wait(lock, [&] {
        return !shard.queue.empty() || stopping_.load(std::memory_order_acquire);
      });
      if (shard.queue.empty()) return;  // stopping and fully drained
      job = std::move(shard.queue.front());
      shard.queue.pop_front();
    }
    total_depth_.fetch_sub(1, std::memory_order_relaxed);
    update_depth_gauge();

    const double queue_ms = job.request.age_ms();
    queue_hist.record_ns(static_cast<std::uint64_t>(queue_ms * 1e6));
    Response response;
    // An admitted shutdown always runs: admission is already closed
    // behind it, so shedding it would stop the daemon unannounced.
    if (job.request.expired() && job.request.cmd != "shutdown") {
      // Stale at dequeue: its whole budget was burned in the queue.
      deadline_shed_.fetch_add(1, std::memory_order_relaxed);
      response = Response::failure(
          job.request.id, ErrorCode::DeadlineExceeded,
          "deadline of " + json_number(job.request.deadline_ms) +
              " ms exceeded (" + json_number(queue_ms) + " ms in queue)");
      response.span = {job.trace_id, job.request.cmd, queue_ms, 0.0};
    } else {
      const auto exec_start = std::chrono::steady_clock::now();
      response = service_.execute(job.request);
      const auto exec_end = std::chrono::steady_clock::now();
      const double execute_ms = ms_between(exec_start, exec_end);
      execute_hist.record_ns(static_cast<std::uint64_t>(execute_ms * 1e6));
      executed_.fetch_add(1, std::memory_order_relaxed);
      // EWMA (α = 1/8) of service time, the retry-after currency.
      const auto ns = static_cast<std::uint64_t>(execute_ms * 1e6);
      std::uint64_t avg = shard.avg_execute_ns.load(std::memory_order_relaxed);
      shard.avg_execute_ns.store(avg - avg / 8 + ns / 8, std::memory_order_relaxed);
      response.span = {job.trace_id, job.request.cmd, queue_ms, execute_ms};
    }
    job.promise.set_value(std::move(response));
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    {
      // Notify under the mutex: a drain() that read a non-zero count is
      // guaranteed to be waiting (or about to re-check) when this fires.
      const std::lock_guard<std::mutex> lock(drain_mutex_);
      drain_cv_.notify_all();
    }
  }
}

void WorkerPool::drain() {
  std::unique_lock<std::mutex> lock(drain_mutex_);
  drain_cv_.wait(lock,
                 [&] { return inflight_.load(std::memory_order_relaxed) == 0; });
}

}  // namespace spsta::service
