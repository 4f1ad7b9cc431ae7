#include "service/ordered_writer.hpp"

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "service/frame.hpp"

namespace spsta::service {

OrderedWriter::OrderedWriter(Sink sink, bool frames, std::size_t max_pending,
                             obs::TraceLog* trace)
    : sink_(std::move(sink)),
      frames_(frames),
      max_pending_(max_pending),
      trace_(trace),
      thread_([this] { run(); }) {}

OrderedWriter::~OrderedWriter() { close(); }

bool OrderedWriter::push(const Submit& submit) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return outstanding_ < max_pending_ || dead_; });
    if (dead_) return false;
    ++outstanding_;
  }
  // Submit outside the lock: the writer thread keeps writing meanwhile.
  std::future<Response> reply = submit();
  const std::lock_guard<std::mutex> lock(mutex_);
  pending_.push_back(std::move(reply));
  cv_.notify_all();
  return true;
}

void OrderedWriter::close() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
}

void OrderedWriter::run() {
  obs::LatencyHistogram& serialize_hist =
      obs::registry().histogram("service.serialize");
  for (;;) {
    std::future<Response> next;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return !pending_.empty() || closed_; });
      if (pending_.empty()) return;  // closed and fully drained
      next = std::move(pending_.front());
      pending_.pop_front();
    }
    // Block outside the lock: replies complete in shard order, the deque
    // keeps push order. dead_ is written only by this thread.
    const Response response = next.get();
    const auto done = [&](bool sink_failed) {
      const std::lock_guard<std::mutex> lock(mutex_);
      --outstanding_;
      if (sink_failed) dead_ = true;
      cv_.notify_all();  // a push may be waiting for room
    };
    if (dead_) {
      done(false);
      continue;
    }

    const auto t0 = std::chrono::steady_clock::now();
    std::string wire;
    if (frames_) {
      append_frame(wire, FrameKind::Json, response.to_line());
      for (const std::vector<double>& waveform : response.waveforms) {
        append_waveform_frame(wire, waveform);
      }
    } else {
      wire = response.to_line();
      wire.push_back('\n');
    }
    const bool wrote = sink_(wire);
    const auto serialize_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count();
    serialize_hist.record_ns(static_cast<std::uint64_t>(serialize_ns));
    if (trace_ != nullptr) {
      trace_->write({response.span.trace_id, response.span.cmd, response.ok,
                     response.span.queue_ms, response.span.execute_ms,
                     static_cast<double>(serialize_ns) * 1e-6});
    }
    done(!wrote);
  }
}

std::size_t default_max_pending(const WorkerPool& pool) noexcept {
  return 2 * pool.shards() * pool.queue_capacity() + 64;
}

}  // namespace spsta::service
