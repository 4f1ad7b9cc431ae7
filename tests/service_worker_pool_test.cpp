// Tests for the sharded worker pool: content-hash affinity routing (path
// loads included), admission control (bounded queues shed with a
// structured `overloaded` error carrying retry_after_ms), deadline
// shedding at dequeue and after the session mutex, drain semantics, the
// shutdown fence, and trace ids in submission order.

#include <chrono>
#include <fstream>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "netlist/iscas89.hpp"
#include "service/session.hpp"
#include "service/worker_pool.hpp"

namespace spsta::service {
namespace {

Request parse_ok(const std::string& line) {
  auto parsed = parse_request(line);
  EXPECT_TRUE(std::holds_alternative<Request>(parsed)) << line;
  return std::get<Request>(std::move(parsed));
}

TEST(ServiceWorkerPool, AffinityRoutesLoadAndItsSessionToOneShard) {
  AnalysisService service;
  WorkerPool pool(service, {.shards = 8, .queue_capacity = 16});

  // The load request routes on the content hash of what it loads...
  const std::string load_line = R"({"id":1,"cmd":"load","circuit":"s27"})";
  const unsigned load_shard = pool.route_shard(parse_ok(load_line));

  // ...and once loaded, every request naming the resulting session key
  // routes to the SAME shard: that is the affinity contract that keeps a
  // design's compiled plan hot on one worker.
  Response loaded = pool.submit(load_line).get();
  ASSERT_TRUE(loaded.ok) << loaded.to_line();
  const std::string key = loaded.body.find("session")->as_string();
  const unsigned analyze_shard = pool.route_shard(
      parse_ok(R"({"cmd":"analyze","session":")" + key + R"("})"));
  EXPECT_EQ(analyze_shard, load_shard);

  // Identical load submitted again (a different client, same content):
  // same shard, and the session store dedups to one compiled plan.
  EXPECT_EQ(pool.route_shard(parse_ok(load_line)), load_shard);
  Response reloaded = pool.submit(load_line).get();
  ASSERT_TRUE(reloaded.ok);
  EXPECT_EQ(reloaded.body.find("session")->as_string(), key);
  EXPECT_GE(service.store().plan_hits(), 1u);
}

TEST(ServiceWorkerPool, ResponsesResolveThroughFuturesWithCorrectIds) {
  AnalysisService service;
  WorkerPool pool(service, {.shards = 4, .queue_capacity = 64});

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 24; ++i) {
    futures.push_back(
        pool.submit(R"({"id":)" + std::to_string(i) + R"(,"cmd":"ping"})"));
  }
  for (int i = 0; i < 24; ++i) {
    const Response r = futures[static_cast<std::size_t>(i)].get();
    EXPECT_TRUE(r.ok) << r.to_line();
    EXPECT_EQ(r.id.as_number(), static_cast<double>(i));
  }
  EXPECT_EQ(pool.stats().executed, 24u);
  EXPECT_EQ(pool.stats().rejected_overload, 0u);
}

TEST(ServiceWorkerPool, FullQueueShedsWithOverloadedAndRetryAfterHint) {
  AnalysisService service;
  // One shard, minimal queue: occupy the worker with a genuinely slow
  // request (Monte Carlo with a large run count), fill the queue, then
  // every further submit must be shed immediately.
  WorkerPool pool(service, {.shards = 1, .queue_capacity = 1});

  Response loaded = pool.submit(R"({"cmd":"load","circuit":"s386"})").get();
  ASSERT_TRUE(loaded.ok) << loaded.to_line();
  const std::string key = loaded.body.find("session")->as_string();

  const std::string slow = R"({"id":"slow","cmd":"analyze","session":")" + key +
                           R"(","engine":"mc","params":{"runs":20000}})";
  std::vector<std::future<Response>> slow_futures;
  // Enough slow requests that at least one is still queued whenever the
  // burst below arrives: worker busy + queue occupied = admission closed.
  for (int i = 0; i < 6; ++i) slow_futures.push_back(pool.submit(slow));

  std::uint64_t shed = 0;
  std::vector<std::future<Response>> burst;
  for (int i = 0; i < 32; ++i) {
    burst.push_back(
        pool.submit(R"({"id":)" + std::to_string(i) + R"(,"cmd":"ping"})"));
  }
  for (auto& f : burst) {
    const Response r = f.get();
    if (r.ok) continue;
    EXPECT_EQ(r.error_code(), "overloaded");
    const Json* hint = r.body.find("retry_after_ms");
    ASSERT_NE(hint, nullptr) << r.to_line();
    EXPECT_GT(hint->as_number(), 0.0);
    ++shed;
  }
  EXPECT_GT(shed, 0u);

  // The slow submissions themselves overflow the 1-deep queue: some shed
  // too. Every admitted one completes; every response is one of the two.
  std::uint64_t slow_ok = 0, slow_shed = 0;
  for (auto& f : slow_futures) {
    const Response r = f.get();
    if (r.ok) {
      ++slow_ok;
    } else {
      EXPECT_EQ(r.error_code(), "overloaded") << r.to_line();
      ++slow_shed;
    }
  }
  EXPECT_GE(slow_ok, 1u);  // at least the one the worker was running
  EXPECT_EQ(pool.stats().rejected_overload, shed + slow_shed);
  pool.drain();
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ServiceWorkerPool, StaleRequestsAreShedAtDequeue) {
  AnalysisService service;
  WorkerPool pool(service, {.shards = 2, .queue_capacity = 8});

  // Submit with an enqueue stamp far in the past and a tiny deadline: the
  // worker must shed at dequeue, not run the command.
  const auto long_ago =
      std::chrono::steady_clock::now() - std::chrono::seconds(30);
  const Response r =
      pool.submit(R"({"id":1,"cmd":"ping","deadline_ms":5})", long_ago).get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error_code(), "deadline_exceeded");
  EXPECT_EQ(pool.stats().deadline_shed, 1u);
  EXPECT_EQ(pool.stats().executed, 0u);
}

TEST(ServiceWorkerPool, DrainWaitsForEveryAcceptedRequest) {
  AnalysisService service;
  WorkerPool pool(service, {.shards = 4, .queue_capacity = 256});
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit(R"({"cmd":"ping"})"));
  }
  pool.drain();
  // After drain every accepted future is ready — no waiting in get().
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_TRUE(f.get().ok);
  }
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ServiceWorkerPool, MalformedLinesResolveImmediatelyWithParseError) {
  AnalysisService service;
  WorkerPool pool(service, {.shards = 2, .queue_capacity = 8});
  const Response r = pool.submit("}{ not json").get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error_code(), "parse_error");
}

TEST(ServiceWorkerPool, StatsIdentityHoldsAcrossEveryOutcomeClass) {
  // Every line handed to submit() must resolve through exactly one of the
  // five outcome counters: executed, rejected_overload, deadline_shed,
  // parse_errors, shutdown_shed. Drive the pool through all five and
  // assert the books balance — this is the identity the bench harness and
  // CI check on every service_load run.
  AnalysisService service;
  WorkerPool pool(service, {.shards = 1, .queue_capacity = 1});

  // deadline_shed: an already-stale request shed at dequeue (queue empty,
  // so it cannot be confused with an admission reject).
  const auto long_ago =
      std::chrono::steady_clock::now() - std::chrono::seconds(30);
  ASSERT_EQ(pool.submit(R"({"cmd":"ping","deadline_ms":5})", long_ago)
                .get()
                .error_code(),
            "deadline_exceeded");

  // parse_errors: answered at submit without touching a shard queue.
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(pool.submit("}{ not json").get().error_code(), "parse_error");
  }

  // executed + rejected_overload: occupy the single worker with slow Monte
  // Carlo work, then burst past the 1-deep queue.
  Response loaded = pool.submit(R"({"cmd":"load","circuit":"s386"})").get();
  ASSERT_TRUE(loaded.ok) << loaded.to_line();
  const std::string key = loaded.body.find("session")->as_string();
  const std::string slow = R"({"cmd":"analyze","session":")" + key +
                           R"(","engine":"mc","params":{"runs":20000}})";
  std::vector<std::future<Response>> inflight;
  for (int i = 0; i < 4; ++i) inflight.push_back(pool.submit(slow));
  for (int i = 0; i < 16; ++i) {
    inflight.push_back(pool.submit(R"({"cmd":"ping"})"));
  }

  // shutdown_shed: once accepting stops, new submissions resolve
  // immediately while everything already queued still completes.
  pool.stop_accepting();
  for (int i = 0; i < 2; ++i) {
    const Response r = pool.submit(R"({"cmd":"ping"})").get();
    EXPECT_EQ(r.error_code(), "overloaded");
    EXPECT_NE(r.body.find("message")->as_string().find("shutting down"),
              std::string::npos);
  }
  for (auto& f : inflight) (void)f.get();
  pool.drain();

  const WorkerPoolStats stats = pool.stats();
  EXPECT_GE(stats.executed, 2u);  // the load + at least one admitted slow
  EXPECT_GT(stats.rejected_overload, 0u);
  EXPECT_EQ(stats.deadline_shed, 1u);
  EXPECT_EQ(stats.parse_errors, 3u);
  EXPECT_EQ(stats.shutdown_shed, 2u);
  EXPECT_EQ(stats.submitted, stats.resolved())
      << "identity broken: submitted=" << stats.submitted
      << " executed=" << stats.executed
      << " rejected=" << stats.rejected_overload
      << " deadline=" << stats.deadline_shed
      << " parse=" << stats.parse_errors
      << " shutdown=" << stats.shutdown_shed;
}

TEST(ServiceWorkerPool, PathLoadsRouteWithTheSessionTheyCreate) {
  // A path load routes on the content hash of the file it names — the key
  // of the session it creates — so the load and every later request on
  // that session share a shard, at any shard count and whatever the path.
  const std::string text{netlist::s27_bench_text()};
  const std::string dir = ::testing::TempDir();
  std::vector<std::string> paths;
  for (const char* name : {"a.bench", "b.bench", "c.bench", "d.bench",
                           "e.bench", "f.bench", "g.bench", "h.bench"}) {
    paths.push_back(dir + "/" + name);
    std::ofstream out(paths.back(), std::ios::binary);
    out << text;
    ASSERT_TRUE(out.good());
  }
  const std::string text_line =
      R"({"cmd":"load","format":"bench","text":)" + Json(text).dump() + "}";

  for (const unsigned n : {2u, 3u, 8u, 16u}) {
    AnalysisService service;
    WorkerPool pool(service, {.shards = n, .queue_capacity = 32});
    const unsigned text_shard = pool.route_shard(parse_ok(text_line));
    std::string key;
    for (const std::string& path : paths) {
      const std::string path_line =
          R"({"cmd":"load","path":)" + Json(path).dump() + "}";
      const unsigned path_shard = pool.route_shard(parse_ok(path_line));
      EXPECT_EQ(path_shard, text_shard) << path << " at " << n << " shards";

      Response loaded = pool.submit(path_line).get();
      ASSERT_TRUE(loaded.ok) << loaded.to_line();
      key = loaded.body.find("session")->as_string();
      EXPECT_EQ(pool.route_shard(parse_ok(R"({"cmd":"analyze","session":")" +
                                          key + R"("})")),
                path_shard);
    }
    // Identical content under every path: one session, one plan.
    EXPECT_EQ(service.store().size(), 1u);
    EXPECT_EQ(key, hash_key(load_content_hash("bench", text)));
  }
}

TEST(ServiceWorkerPool, UnreadablePathLoadStillAnswersIoError) {
  // Routing cannot hash a file it cannot read: the load routes anywhere
  // and its handler answers io_error — one executed request, books
  // balanced.
  AnalysisService service;
  WorkerPool pool(service, {.shards = 4, .queue_capacity = 8});
  const Response r =
      pool.submit(R"({"cmd":"load","path":"/nonexistent/dir/x.bench"})").get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error_code(), "io_error") << r.to_line();
  pool.drain();
  const WorkerPoolStats stats = pool.stats();
  EXPECT_EQ(stats.executed, 1u);
  EXPECT_EQ(stats.submitted, stats.resolved());
}

TEST(ServiceWorkerPool, DeadlineIsRecheckedAfterWinningTheSessionMutex) {
  // A request that was fresh at dequeue but burned its whole budget
  // waiting on same-session mutex contention must be shed at execute
  // start. It ran on a worker, so it counts as executed, not as a
  // dequeue-time deadline shed.
  AnalysisService service;
  WorkerPool pool(service, {.shards = 2, .queue_capacity = 8});
  const Response loaded = pool.submit(R"({"id":1,"cmd":"load","circuit":"s27"})").get();
  ASSERT_TRUE(loaded.ok) << loaded.to_line();
  const std::string key = loaded.body.find("session")->as_string();
  const std::shared_ptr<Session> session = service.store().find(key);
  ASSERT_NE(session, nullptr);

  std::future<Response> contended;
  {
    // The test plays the long-running same-session request by holding the
    // session mutex; the analyze passes the dequeue check, then blocks on
    // the mutex until its deadline has certainly lapsed.
    const std::lock_guard<std::mutex> hold(session->mutex);
    contended = pool.submit(R"({"id":2,"cmd":"analyze","session":")" + key +
                            R"(","deadline_ms":400})");
    std::this_thread::sleep_for(std::chrono::milliseconds(900));
  }
  const Response r = contended.get();
  EXPECT_FALSE(r.ok) << r.to_line();
  EXPECT_EQ(r.error_code(), "deadline_exceeded");
  const WorkerPoolStats stats = pool.stats();
  EXPECT_EQ(stats.executed, 2u);  // the load and the contended analyze
  EXPECT_EQ(stats.deadline_shed, 0u);
}

TEST(ServiceWorkerPool, AssignsSequentialTraceIdsInSubmissionOrder) {
  AnalysisService service;
  WorkerPool pool(service, {.shards = 2, .queue_capacity = 16});
  const Response first = pool.submit(R"({"id":1,"cmd":"ping"})").get();
  const Response second = pool.submit(R"({"id":2,"cmd":"ping"})").get();
  EXPECT_EQ(first.span.trace_id, 1u);
  EXPECT_EQ(second.span.trace_id, 2u);
  EXPECT_EQ(first.span.cmd, "ping");
  EXPECT_GE(first.span.execute_ms, 0.0);
  EXPECT_NE(first.to_line().find(R"("trace_id":"t-1")"), std::string::npos);

  // Ids follow submission order, whatever order the shards finish in.
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(pool.submit(R"({"cmd":"ping"})"));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get().span.trace_id, 3 + i);
  }

  // The direct execute path carries no trace id — and no "trace_id" key
  // on the wire.
  const Response direct = service.execute_line(R"({"cmd":"ping"})");
  EXPECT_EQ(direct.span.trace_id, 0u);
  EXPECT_EQ(direct.to_line().find("trace_id"), std::string::npos);
}

TEST(ServiceWorkerPool, AdmittedShutdownFencesLaterSubmits) {
  AnalysisService service;
  WorkerPool pool(service, {.shards = 4, .queue_capacity = 8});
  std::future<Response> ping = pool.submit(R"({"id":1,"cmd":"ping"})");
  std::future<Response> stop = pool.submit(R"({"id":2,"cmd":"shutdown"})");
  EXPECT_FALSE(pool.accepting());
  const Response late = pool.submit(R"({"id":3,"cmd":"ping"})").get();
  EXPECT_EQ(late.error_code(), "overloaded");
  EXPECT_TRUE(ping.get().ok);
  EXPECT_TRUE(stop.get().ok);
  pool.drain();
  EXPECT_TRUE(service.shutdown_requested());
  const WorkerPoolStats stats = pool.stats();
  EXPECT_EQ(stats.executed, 2u);
  EXPECT_EQ(stats.shutdown_shed, 1u);
  EXPECT_EQ(stats.submitted, stats.resolved());
}

TEST(ServiceWorkerPool, AdmittedShutdownRunsEvenPastItsDeadline) {
  // Admission closes when the shutdown is queued, so a shutdown shed at
  // dequeue would stop the daemon without saying so. It always runs.
  AnalysisService service;
  WorkerPool pool(service, {.shards = 1, .queue_capacity = 8});
  const auto long_ago = std::chrono::steady_clock::now() - std::chrono::seconds(30);
  const Response stop =
      pool.submit(R"({"id":1,"cmd":"shutdown","deadline_ms":5})", long_ago).get();
  EXPECT_TRUE(stop.ok) << stop.to_line();
  EXPECT_FALSE(pool.accepting());
  pool.drain();
  EXPECT_TRUE(service.shutdown_requested());
  EXPECT_EQ(pool.stats().deadline_shed, 0u);
  EXPECT_EQ(pool.stats().executed, 1u);
}

}  // namespace
}  // namespace spsta::service
