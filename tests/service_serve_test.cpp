// Tests for the stdio serve loop — one WorkerPool plus one OrderedWriter:
// replies in request order at any shard count, garbage lines answered in
// place, payloads bit-identical at 1 and 8 shards, the stream cases (EOF
// mid-line, oversized line, blank-only input, shutdown behind queued
// analyzes, shutdown leaving later lines unread), and a closed-loop client
// over a real pipe that waits for each reply before sending the next line,
// and a piped script that queues more work behind a slow load than one
// shard queue holds.

#include <cerrno>
#include <chrono>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "netlist/bench_io.hpp"
#include "netlist/generator.hpp"
#include "service/daemon.hpp"
#include "service/session.hpp"

namespace spsta::service {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream echo(text);
  for (std::string line; std::getline(echo, line);) out.push_back(line);
  return out;
}

/// The session key a `load` of builtin circuit \p name creates.
std::string circuit_key(const std::string& name) {
  return hash_key(load_content_hash("circuit", name));
}

TEST(ServiceServe, RepliesComeBackInRequestOrderAtAnyShardCount) {
  for (const unsigned workers : {1u, 4u}) {
    std::string script = R"({"id":0,"cmd":"load","circuit":"s27"})" "\n";
    for (int i = 1; i <= 20; ++i) {
      script += R"({"id":)" + std::to_string(i) + R"(,"cmd":"ping"})" "\n";
    }
    script += R"({"id":21,"cmd":"shutdown"})" "\n";
    std::istringstream in(script);
    std::ostringstream out;
    AnalysisService service;
    const ServeReport report =
        serve(in, out, service, {.workers = workers, .queue_capacity = 64});

    EXPECT_TRUE(report.shutdown);
    EXPECT_EQ(report.requests, 22u);
    const std::vector<std::string> replies = lines_of(out.str());
    ASSERT_EQ(replies.size(), 22u) << workers << " workers";
    for (std::size_t i = 0; i < replies.size(); ++i) {
      EXPECT_NE(replies[i].find("\"id\":" + std::to_string(i) + ","),
                std::string::npos)
          << replies[i];
      EXPECT_NE(replies[i].find("\"ok\":true"), std::string::npos) << replies[i];
    }
  }
}

TEST(ServiceServe, GarbageLinesAreAnsweredInPlace) {
  std::istringstream in(
      R"({"id":1,"cmd":"ping"})" "\n"
      "}{ broken\n"
      R"({"id":3,"cmd":"ping"})" "\n");
  std::ostringstream out;
  AnalysisService service;
  const ServeReport report = serve(in, out, service, {.workers = 2});
  EXPECT_EQ(report.requests, 3u);
  const std::vector<std::string> replies = lines_of(out.str());
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_NE(replies[0].find("\"id\":1"), std::string::npos);
  EXPECT_NE(replies[0].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(replies[1].find("parse_error"), std::string::npos) << replies[1];
  EXPECT_NE(replies[2].find("\"id\":3"), std::string::npos);
  EXPECT_NE(replies[2].find("\"ok\":true"), std::string::npos);
}

TEST(ServiceServe, PayloadsAreBitIdenticalAtOneAndEightShards) {
  // The same script must produce byte-identical analysis payloads at 1 and
  // 8 shards (the repo-wide determinism contract, applied to the service).
  // The analyzes follow the load without waiting for its reply: affinity
  // routing puts them on the load's shard, behind it. Wall-clock fields
  // (elapsed_ms) legitimately differ, so only the payloads are compared.
  const std::string key = circuit_key("s27");
  const auto run_at = [&](unsigned workers) {
    std::istringstream in(
        R"({"id":1,"cmd":"load","circuit":"s27"})" "\n"
        R"({"id":2,"cmd":"analyze","session":")" + key + R"("})" "\n"
        R"({"id":3,"cmd":"analyze","session":")" + key + R"(","engine":"ssta"})" "\n"
        R"({"id":4,"cmd":"query","session":")" + key + R"(","node":"G17"})" "\n");
    std::ostringstream out;
    AnalysisService service;
    (void)serve(in, out, service, {.workers = workers});
    std::vector<std::string> payloads;
    for (const std::string& line : lines_of(out.str())) {
      const Json reply = Json::parse(line);
      EXPECT_TRUE(reply.find("ok")->as_bool()) << line;
      const Json* result = reply.find("result");
      if (result == nullptr || result->find("session") != nullptr) continue;
      const Json* payload = result->find("endpoints");
      if (payload == nullptr) payload = result->find("stats");
      if (payload == nullptr) {
        ADD_FAILURE() << "no payload in " << line;
        continue;
      }
      payloads.push_back(payload->dump());
    }
    return payloads;
  };
  const std::vector<std::string> one = run_at(1);
  EXPECT_EQ(one.size(), 3u);
  EXPECT_EQ(one, run_at(8));
}

TEST(ServiceDaemon, ServeHandlesAScriptedSessionOverStreams) {
  std::istringstream in(
      R"({"id":1,"cmd":"load","circuit":"s27"})" "\n"
      "\n"  // blank lines are skipped, not answered
      R"({"id":2,"cmd":"stats"})" "\n"
      "total garbage\n"
      R"({"id":4,"cmd":"shutdown"})" "\n");
  std::ostringstream out;
  AnalysisService service;
  const ServeReport report = serve(in, out, service);

  EXPECT_TRUE(report.shutdown);
  EXPECT_EQ(report.requests, 4u);
  EXPECT_TRUE(service.shutdown_requested());

  // One response line per non-blank request line, in order.
  const std::vector<std::string> replies = lines_of(out.str());
  ASSERT_EQ(replies.size(), 4u);
  EXPECT_NE(replies[0].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(replies[2].find("parse_error"), std::string::npos);
  EXPECT_NE(replies[3].find("stopping"), std::string::npos);
  // ids echo back in request order.
  EXPECT_NE(replies[0].find("\"id\":1"), std::string::npos);
  EXPECT_NE(replies[1].find("\"id\":2"), std::string::npos);
  EXPECT_NE(replies[3].find("\"id\":4"), std::string::npos);
}

TEST(ServiceDaemon, ServeStopsAtShutdownAndLeavesLaterLinesUnread) {
  // The admitted shutdown closes the pool's admission before line 3 is
  // read, whatever the shard count.
  for (const unsigned workers : {1u, 4u}) {
    std::istringstream in(
        R"({"id":1,"cmd":"ping"})" "\n"
        R"({"id":2,"cmd":"shutdown"})" "\n"
        R"({"id":3,"cmd":"ping"})" "\n");
    std::ostringstream out;
    AnalysisService service;
    const ServeReport report = serve(in, out, service, {.workers = workers});
    EXPECT_TRUE(report.shutdown);
    EXPECT_EQ(report.requests, 2u);
    EXPECT_EQ(out.str().find("\"id\":3"), std::string::npos);
    EXPECT_EQ(lines_of(out.str()).size(), 2u);
  }
}

TEST(ServiceDaemon, ServeReturnsCleanlyOnEof) {
  std::istringstream in(R"({"id":1,"cmd":"ping"})" "\n");
  std::ostringstream out;
  AnalysisService service;
  const ServeReport report = serve(in, out, service);
  EXPECT_FALSE(report.shutdown);
  EXPECT_EQ(report.requests, 1u);
  EXPECT_FALSE(service.shutdown_requested());
}

TEST(ServiceDaemon, EofMidLineStillAnswersThePartialFinalRequest) {
  // A client that dies (or a pipe that closes) after writing a request
  // but before the newline: getline yields the partial-terminated line at
  // EOF and the daemon must still answer it, not drop it.
  std::istringstream in(R"({"id":7,"cmd":"ping"})");  // no trailing \n
  std::ostringstream out;
  AnalysisService service;
  const ServeReport report = serve(in, out, service);
  EXPECT_FALSE(report.shutdown);
  EXPECT_EQ(report.requests, 1u);
  EXPECT_NE(out.str().find("\"id\":7"), std::string::npos);
  EXPECT_NE(out.str().find("\"ok\":true"), std::string::npos);
}

TEST(ServiceDaemon, OversizedLineIsRejectedStructurallyNotParsed) {
  // A line beyond kMaxRequestBytes is answered with bad_request before
  // the JSON parser ever allocates for it, and the daemon keeps serving.
  std::string huge = R"({"id":1,"cmd":"ping","pad":")";
  huge.append(kMaxRequestBytes, 'x');
  huge += "\"}\n";
  huge += R"({"id":2,"cmd":"ping"})" "\n";
  std::istringstream in(huge);
  std::ostringstream out;
  AnalysisService service;
  const ServeReport report = serve(in, out, service);
  EXPECT_EQ(report.requests, 2u);

  const std::vector<std::string> replies = lines_of(out.str());
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_NE(replies[0].find("bad_request"), std::string::npos) << replies[0];
  EXPECT_NE(replies[0].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(replies[1].find("\"id\":2"), std::string::npos);
  EXPECT_NE(replies[1].find("\"ok\":true"), std::string::npos);
}

TEST(ServiceDaemon, BlankOnlyInputProducesNoResponsesAndReturnsCleanly) {
  std::istringstream in("\n   \n\t\n\r\n\n");
  std::ostringstream out;
  AnalysisService service;
  const ServeReport report = serve(in, out, service);
  EXPECT_FALSE(report.shutdown);
  EXPECT_EQ(report.requests, 0u);
  EXPECT_TRUE(out.str().empty());
}

TEST(ServiceDaemon, ShutdownBehindQueuedAnalyzesAnswersEveryRequest) {
  // Three analyzes queued on the session's shard, then a shutdown that
  // routes round-robin: every request ahead of the shutdown must be
  // answered before the daemon stops — shutdown drains, it does not
  // abandon queued work.
  AnalysisService service;
  std::istringstream load_in(R"({"id":0,"cmd":"load","circuit":"s27"})" "\n");
  std::ostringstream load_out;
  (void)serve(load_in, load_out, service);
  const std::string key = circuit_key("s27");
  ASSERT_NE(load_out.str().find(key), std::string::npos) << load_out.str();

  std::string run;
  for (int i = 1; i <= 3; ++i) {
    run += R"({"id":)" + std::to_string(i) + R"(,"cmd":"analyze","session":")" +
           key + R"(","engine":"ssta"})" "\n";
  }
  run += R"({"id":4,"cmd":"shutdown"})" "\n";
  std::istringstream in(run);
  std::ostringstream out;
  const ServeReport report = serve(in, out, service, {.workers = 4});

  EXPECT_TRUE(report.shutdown);
  EXPECT_EQ(report.requests, 4u);
  const std::vector<std::string> replies = lines_of(out.str());
  ASSERT_EQ(replies.size(), 4u);
  for (std::size_t i = 0; i < replies.size(); ++i) {
    EXPECT_NE(replies[i].find("\"id\":" + std::to_string(i + 1)), std::string::npos);
    EXPECT_NE(replies[i].find("\"ok\":true"), std::string::npos) << replies[i];
  }
}

/// A std::streambuf over a pipe end: buffered reads through read(2),
/// writes straight through write(2).
class FdStreamBuf : public std::streambuf {
 public:
  explicit FdStreamBuf(int fd) : fd_(fd) {}

 protected:
  int_type underflow() override {
    ssize_t n;
    do {
      n = ::read(fd_, buffer_, sizeof(buffer_));
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return traits_type::eof();
    setg(buffer_, buffer_, buffer_ + n);
    return traits_type::to_int_type(*gptr());
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    std::streamsize done = 0;
    while (done < n) {
      const ssize_t w = ::write(fd_, s + done, static_cast<std::size_t>(n - done));
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) return done;
      done += w;
    }
    return done;
  }
  int_type overflow(int_type c) override {
    if (traits_type::eq_int_type(c, traits_type::eof())) return traits_type::not_eof(c);
    const char ch = traits_type::to_char_type(c);
    return xsputn(&ch, 1) == 1 ? c : traits_type::eof();
  }

 private:
  int fd_;
  char buffer_[4096];
};

bool write_fd(int fd, const std::string& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t w = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    done += static_cast<std::size_t>(w);
  }
  return true;
}

/// Reads one reply line from \p fd, or nullopt when none arrives within
/// \p limit (or the stream ends first).
std::optional<std::string> read_line_within(int fd, std::string& pending,
                                            std::chrono::seconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  for (;;) {
    if (const std::size_t nl = pending.find('\n'); nl != std::string::npos) {
      std::string line = pending.substr(0, nl);
      pending.erase(0, nl + 1);
      return line;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return std::nullopt;
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) return std::nullopt;
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return std::nullopt;
    pending.append(chunk, static_cast<std::size_t>(n));
  }
}

/// A generated 10k-gate design as `.bench` text: its load takes long
/// enough that requests sent behind it pile up in the queue.
std::string big_bench_text() {
  netlist::GeneratorSpec spec;
  spec.name = "g10k";
  spec.num_inputs = 64;
  spec.num_outputs = 32;
  spec.num_gates = 10000;
  spec.target_depth = 30;
  spec.seed = 7;
  return netlist::write_bench(netlist::generate_circuit(spec));
}

TEST(ServiceServe, ClosedLoopClientOverAPipeGetsEveryReply) {
  // A client that waits for each reply before it sends the next line: a
  // load of a 10k-gate design, then an analyze. The serve loop must write
  // each reply as soon as it completes, not when the next line arrives.
  const std::string text = big_bench_text();
  const std::string key = hash_key(load_content_hash("bench", text));
  constexpr std::chrono::seconds kReplyWithin{60};

  for (const unsigned workers : {1u, 2u}) {
    int to_daemon[2];
    int from_daemon[2];
    ASSERT_EQ(::pipe(to_daemon), 0);
    ASSERT_EQ(::pipe(from_daemon), 0);
    AnalysisService service;
    std::thread daemon([&] {
      FdStreamBuf in_buf(to_daemon[0]);
      FdStreamBuf out_buf(from_daemon[1]);
      std::istream in(&in_buf);
      std::ostream out(&out_buf);
      (void)serve(in, out, service, {.workers = workers});
      ::close(from_daemon[1]);
    });

    // No ASSERT until the daemon thread is joined.
    std::string pending;
    std::optional<std::string> loaded;
    std::optional<std::string> analyzed;
    if (write_fd(to_daemon[1], R"({"id":1,"cmd":"load","format":"bench","text":)" +
                                   Json(text).dump() + "}\n")) {
      loaded = read_line_within(from_daemon[0], pending, kReplyWithin);
    }
    if (loaded && write_fd(to_daemon[1], R"({"id":2,"cmd":"analyze","session":")" +
                                             key + "\"}\n")) {
      analyzed = read_line_within(from_daemon[0], pending, kReplyWithin);
    }
    // End of input ends the serve loop even when a reply never came.
    ::close(to_daemon[1]);
    daemon.join();
    ::close(to_daemon[0]);
    ::close(from_daemon[0]);

    ASSERT_TRUE(loaded.has_value()) << "no load reply at " << workers << " workers";
    EXPECT_NE(loaded->find("\"ok\":true"), std::string::npos) << *loaded;
    EXPECT_NE(loaded->find(key), std::string::npos) << *loaded;
    ASSERT_TRUE(analyzed.has_value()) << "no analyze reply at " << workers << " workers";
    EXPECT_NE(analyzed->find("\"id\":2"), std::string::npos) << *analyzed;
    EXPECT_NE(analyzed->find("\"ok\":true"), std::string::npos) << *analyzed;
  }
}

TEST(ServiceServe, PipedScriptNeverShedsWorkQueuedBehindASlowLoad) {
  // A piped script (`cat script.jsonl | spsta_serviced`) sends every line
  // without waiting: a slow load, then more queries of its session than
  // one shard queue holds. A full queue must pause reading, not shed the
  // script's own requests with `overloaded`.
  const std::string text = big_bench_text();
  const std::string key = hash_key(load_content_hash("bench", text));
  constexpr int kQueries = 300;
  std::string script =
      R"({"id":0,"cmd":"load","format":"bench","text":)" + Json(text).dump() + "}\n";
  for (int i = 1; i <= kQueries; ++i) {
    script += R"({"id":)" + std::to_string(i) + R"(,"cmd":"query","session":")" +
              key + R"(","node":)" + std::to_string(i) + "}\n";
  }

  for (const unsigned workers : {1u, 2u}) {
    int to_daemon[2];
    int from_daemon[2];
    ASSERT_EQ(::pipe(to_daemon), 0);
    ASSERT_EQ(::pipe(from_daemon), 0);
    AnalysisService service;
    std::thread daemon([&] {
      FdStreamBuf in_buf(to_daemon[0]);
      FdStreamBuf out_buf(from_daemon[1]);
      std::istream in(&in_buf);
      std::ostream out(&out_buf);
      (void)serve(in, out, service, {.workers = workers});
      ::close(from_daemon[1]);
    });
    std::thread client([&] {
      (void)write_fd(to_daemon[1], script);
      ::close(to_daemon[1]);  // end of the script
    });

    // No ASSERT until both threads are joined.
    std::vector<std::string> replies;
    std::string pending;
    while (replies.size() < kQueries + 1) {
      std::optional<std::string> reply =
          read_line_within(from_daemon[0], pending, std::chrono::seconds(60));
      if (!reply) break;
      replies.push_back(std::move(*reply));
    }
    client.join();
    daemon.join();
    ::close(to_daemon[0]);
    ::close(from_daemon[0]);

    ASSERT_EQ(replies.size(), static_cast<std::size_t>(kQueries + 1))
        << workers << " workers";
    for (std::size_t i = 0; i < replies.size(); ++i) {
      EXPECT_NE(replies[i].find("\"id\":" + std::to_string(i) + ","),
                std::string::npos)
          << replies[i];
      EXPECT_NE(replies[i].find("\"ok\":true"), std::string::npos)
          << workers << " workers: " << replies[i];
    }
  }
}

}  // namespace
}  // namespace spsta::service
