// Protocol-layer tests for the analysis service: structured errors for
// every malformed input (the daemon must survive anything), request
// envelope validation, and the acceptance round-trip — a scripted
// load → analyze → ECO → re-query session whose incremental answer is
// bit-identical to a fresh full analysis of the edited design.

#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/spsta.hpp"
#include "netlist/delay_model.hpp"
#include "netlist/iscas89.hpp"
#include "netlist/netlist.hpp"
#include "obs/metrics.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"

namespace spsta::service {
namespace {

/// Executes one line, asserting it fails with \p code.
void expect_error(AnalysisService& service, const std::string& line,
                  std::string_view code) {
  const Response r = service.execute_line(line);
  EXPECT_FALSE(r.ok) << line;
  EXPECT_EQ(r.error_code(), code) << line << " -> " << r.to_line();
}

/// Executes one line, asserting success, and returns the result object.
Json expect_ok(AnalysisService& service, const std::string& line) {
  const Response r = service.execute_line(line);
  EXPECT_TRUE(r.ok) << line << " -> " << r.to_line();
  return r.body;
}

std::string load_line(const std::string& circuit) {
  return R"({"id":1,"cmd":"load","circuit":")" + circuit + R"("})";
}

TEST(ServiceProtocol, RequestEnvelopeValidation) {
  // Valid request parses into a Request.
  auto ok = parse_request(R"({"id":3,"cmd":"ping"})");
  ASSERT_TRUE(std::holds_alternative<Request>(ok));
  EXPECT_EQ(std::get<Request>(ok).cmd, "ping");
  EXPECT_EQ(std::get<Request>(ok).id.as_number(), 3.0);

  // Envelope failures parse into ready error responses.
  const char* bad[] = {
      "not json at all",
      "[1,2,3]",                             // not an object
      R"({"id":1})",                         // missing cmd
      R"({"id":1,"cmd":42})",                // cmd not a string
      R"({"id":1,"cmd":""})",                // empty cmd
      R"({"id":[1],"cmd":"ping"})",          // id must be number/string/null
      R"({"id":1,"cmd":"ping","deadline_ms":"soon"})",
      R"({"id":1,"cmd":"ping","deadline_ms":-5})",
  };
  for (const char* line : bad) {
    auto parsed = parse_request(line);
    ASSERT_TRUE(std::holds_alternative<Response>(parsed)) << line;
    EXPECT_FALSE(std::get<Response>(parsed).ok) << line;
  }
}

TEST(ServiceProtocol, MalformedRequestsYieldStructuredErrorsAndServiceSurvives) {
  AnalysisService service;
  expect_error(service, "{definitely not json", "parse_error");
  expect_error(service, R"({"id":1,"cmd":"frobnicate"})", "unknown_command");
  expect_error(service, R"({"id":2,"cmd":"analyze","session":"feedfeedfeedfeed"})",
               "unknown_session");
  expect_error(service, R"({"id":3,"cmd":"load"})", "bad_request");
  expect_error(service, R"({"id":4,"cmd":"load","circuit":"s9999"})", "bad_params");
  expect_error(service, R"({"id":5,"cmd":"load","path":"/no/such/file.bench"})",
               "io_error");

  // After every one of those, the service still serves real work.
  const Json loaded = expect_ok(service, load_line("s27"));
  const std::string session = loaded.find("session")->as_string();

  expect_error(service,
               R"({"id":6,"cmd":"analyze","session":")" + session +
                   R"(","engine":"quantum"})",
               "unknown_engine");
  expect_error(service,
               R"({"id":7,"cmd":"query","session":")" + session +
                   R"(","node":99999})",
               "unknown_node");
  expect_error(service,
               R"({"id":8,"cmd":"query","session":")" + session +
                   R"(","node":"NO_SUCH_NET"})",
               "unknown_node");
  expect_error(service,
               R"({"id":9,"cmd":"set_delay","session":")" + session +
                   R"(","node":"G11"})",
               "bad_request");  // missing mean
  expect_error(service,
               R"({"id":10,"cmd":"analyze","session":")" + session +
                   R"(","params":{"runs":0}})",
               "bad_params");
  expect_error(service,
               R"({"id":11,"cmd":"analyze","session":")" + session +
                   R"(","params":{"bogus_knob":1}})",
               "bad_params");

  // And still answers correctly afterwards.
  const Json analyzed = expect_ok(
      service, R"({"cmd":"analyze","session":")" + session + R"("})");
  EXPECT_FALSE(analyzed.find("cached")->as_bool());
  EXPECT_GT(analyzed.find("endpoints")->as_array().size(), 0u);
}

TEST(ServiceProtocol, RepeatedAnalyzeIsServedFromCache) {
  AnalysisService service;
  const std::string session =
      expect_ok(service, load_line("s27")).find("session")->as_string();
  const std::string analyze =
      R"({"cmd":"analyze","session":")" + session + R"(","engine":"ssta"})";

  const Json first = expect_ok(service, analyze);
  const Json second = expect_ok(service, analyze);
  EXPECT_FALSE(first.find("cached")->as_bool());
  EXPECT_TRUE(second.find("cached")->as_bool());

  // The cached reply carries the identical payload.
  EXPECT_EQ(first.find("endpoints")->dump(), second.find("endpoints")->dump());

  // Different params → different cache entry (mc keyed on runs/seed).
  const std::string mc = R"({"cmd":"analyze","session":")" + session +
                         R"(","engine":"mc","params":{"runs":200,"seed":9}})";
  EXPECT_FALSE(expect_ok(service, mc).find("cached")->as_bool());
  EXPECT_TRUE(expect_ok(service, mc).find("cached")->as_bool());
  const std::string mc2 = R"({"cmd":"analyze","session":")" + session +
                          R"(","engine":"mc","params":{"runs":200,"seed":10}})";
  EXPECT_FALSE(expect_ok(service, mc2).find("cached")->as_bool());

  // `threads` is NOT part of the cache key: determinism contract makes
  // thread count irrelevant to the result.
  const std::string threaded = R"({"cmd":"analyze","session":")" + session +
                               R"(","engine":"ssta","params":{"threads":4}})";
  EXPECT_TRUE(expect_ok(service, threaded).find("cached")->as_bool());
}

TEST(ServiceProtocol, LoadingIdenticalContentReusesTheSession) {
  AnalysisService service;
  const Json first = expect_ok(service, load_line("s27"));
  const Json again = expect_ok(service, load_line("s27"));
  EXPECT_EQ(first.find("session")->as_string(), again.find("session")->as_string());
  EXPECT_FALSE(first.find("reloaded")->as_bool());
  EXPECT_TRUE(again.find("reloaded")->as_bool());
  EXPECT_EQ(service.store().size(), 1u);

  // Same netlist text via the inline-text route hits the bench-format hash.
  const std::string text{netlist::s27_bench_text()};
  Json req = Json::object();
  req.set("cmd", Json("load"));
  req.set("format", Json("bench"));
  req.set("text", Json(text));
  const Json inline_load = expect_ok(service, req.dump());
  EXPECT_EQ(inline_load.find("nodes")->as_number(),
            first.find("nodes")->as_number());

  // Unload removes it; the key is then unknown.
  const std::string session = first.find("session")->as_string();
  (void)expect_ok(service, R"({"cmd":"unload","session":")" + session + R"("})");
  expect_error(service, R"({"cmd":"analyze","session":")" + session + R"("})",
               "unknown_session");
}

// The acceptance criterion: a scripted session (load, analyze with two
// engines, set_delay ECO, re-query) where the post-ECO incremental answer
// is bit-identical — EXPECT_EQ on doubles, no tolerance — to a fresh full
// analysis of the edited design.
TEST(ServiceProtocol, EcoRequeryIsBitIdenticalToFreshFullAnalysis) {
  AnalysisService service;
  const std::string session =
      expect_ok(service, load_line("s27")).find("session")->as_string();

  // Analyze with two engines (warms the session; spsta_moment first so the
  // ECO path has a settled incremental engine to update).
  (void)expect_ok(service, R"({"cmd":"analyze","session":")" + session +
                               R"(","engine":"spsta_moment"})");
  (void)expect_ok(service, R"({"cmd":"analyze","session":")" + session +
                               R"(","engine":"ssta"})");

  // ECO: retime gate G11 (mean 2.5, sigma 0.1).
  const Json eco = expect_ok(
      service, R"({"cmd":"set_delay","session":")" + session +
                   R"(","node":"G11","mean":2.5,"std":0.1})");
  EXPECT_EQ(eco.find("eco_version")->as_number(), 1.0);

  // The ECO invalidated the pre-edit cache: the next analyze recomputes
  // (via the warm incremental engine, not from cache).
  const Json post = expect_ok(service, R"({"cmd":"analyze","session":")" + session +
                                           R"(","engine":"spsta_moment"})");
  EXPECT_FALSE(post.find("cached")->as_bool());
  EXPECT_EQ(post.find("eco_version")->as_number(), 1.0);

  // Reference: a fresh full moment analysis of the edited design, built
  // independently of the service.
  netlist::Netlist design = netlist::make_paper_circuit("s27");
  netlist::DelayModel delays = netlist::DelayModel::unit(design);
  const std::vector<netlist::SourceStats> sources(design.timing_sources().size(),
                                                  netlist::scenario_I());
  delays.set_delay(design.find("G11"), stats::Gaussian{2.5, 0.1 * 0.1});
  const core::SpstaResult fresh = core::run_spsta_moment(design, delays, sources);

  // Re-query every node through the protocol; the incremental answer must
  // match the fresh run bit for bit.
  for (netlist::NodeId id = 0; id < design.node_count(); ++id) {
    const Json q = expect_ok(service,
                             R"({"cmd":"query","session":")" + session +
                                 R"(","node":)" + std::to_string(id) + "}");
    EXPECT_EQ(q.find("eco_version")->as_number(), 1.0);
    const Json* s = q.find("stats");
    ASSERT_NE(s, nullptr);
    const core::NodeTop& ref = fresh.node.at(id);
    EXPECT_EQ(s->find("probs")->find("p0")->as_number(), ref.probs.p0) << id;
    EXPECT_EQ(s->find("probs")->find("p1")->as_number(), ref.probs.p1) << id;
    EXPECT_EQ(s->find("probs")->find("pr")->as_number(), ref.probs.pr) << id;
    EXPECT_EQ(s->find("probs")->find("pf")->as_number(), ref.probs.pf) << id;
    EXPECT_EQ(s->find("rise")->find("p")->as_number(), ref.rise.mass) << id;
    EXPECT_EQ(s->find("rise")->find("mean")->as_number(), ref.rise.arrival.mean) << id;
    EXPECT_EQ(s->find("rise")->find("std")->as_number(), ref.rise.arrival.stddev())
        << id;
    EXPECT_EQ(s->find("fall")->find("p")->as_number(), ref.fall.mass) << id;
    EXPECT_EQ(s->find("fall")->find("mean")->as_number(), ref.fall.arrival.mean) << id;
    EXPECT_EQ(s->find("fall")->find("std")->as_number(), ref.fall.arrival.stddev())
        << id;
  }
}

// Batched ECO transactions and what-if probes over the protocol: the
// `edits` array commits as ONE transaction (one eco_version bump, true
// per-request work counters), and `"probe":true` answers without
// committing anything.
TEST(ServiceProtocol, BatchedEditsCommitAsOneTransactionAndProbesCommitNothing) {
  AnalysisService service;
  const std::string session =
      expect_ok(service, load_line("s1238")).find("session")->as_string();
  (void)expect_ok(service, R"({"cmd":"analyze","session":")" + session +
                               R"(","engine":"spsta_moment"})");

  // Pick real gate names from the same (deterministically generated)
  // circuit. The deepest endpoint gate makes a good probe target.
  const netlist::Netlist ref = netlist::make_paper_circuit("s1238");
  std::vector<std::string> gname;
  for (netlist::NodeId id = 0; id < ref.node_count() && gname.size() < 3; ++id) {
    if (netlist::is_combinational(ref.node(id).type)) gname.push_back(ref.node(id).name);
  }
  ASSERT_EQ(gname.size(), 3u);
  const std::string target = ref.node(ref.timing_endpoints().front()).name;

  // Exactly one of 'node' and 'edits' must be present, and edits non-empty.
  expect_error(service,
               R"({"cmd":"set_delay","session":")" + session + R"(","node":")" +
                   gname[0] + R"(","mean":2.0,"edits":[{"node":")" + gname[1] +
                   R"(","mean":2.0}]})",
               "bad_request");
  expect_error(service,
               R"({"cmd":"set_delay","session":")" + session + R"("})",
               "bad_request");
  expect_error(service,
               R"({"cmd":"set_delay","session":")" + session + R"(","edits":[]})",
               "bad_params");
  expect_error(service,
               R"({"cmd":"set_delay","session":")" + session +
                   R"(","edits":[{"node":")" + gname[0] + R"("}]})",
               "bad_request");  // edit missing mean
  // All-or-nothing: one bad node in the batch commits none of it.
  expect_error(service,
               R"({"cmd":"set_delay","session":")" + session +
                   R"(","edits":[{"node":")" + gname[0] +
                   R"(","mean":2.0},{"node":"NO_SUCH","mean":2.0}]})",
               "unknown_node");
  const Json unchanged = expect_ok(
      service, R"({"cmd":"stats","session":")" + session + R"("})");
  EXPECT_EQ(unchanged.find("session")->find("eco_version")->as_number(), 0.0);

  // A three-edit batch: one eco_version bump, per-request work counters.
  const Json batched = expect_ok(
      service, R"({"cmd":"set_delay","session":")" + session +
                   R"(","edits":[{"node":")" + gname[0] +
                   R"(","mean":2.0},{"node":")" + gname[1] +
                   R"(","mean":1.5,"std":0.1},{"node":")" + gname[2] +
                   R"(","mean":0.5}]})");
  EXPECT_EQ(batched.find("eco_version")->as_number(), 1.0);
  EXPECT_EQ(batched.find("edits")->as_number(), 3.0);
  ASSERT_NE(batched.find("nodes_reevaluated"), nullptr);
  ASSERT_NE(batched.find("settled_early"), nullptr);
  EXPECT_GT(batched.find("nodes_reevaluated")->as_number(), 0.0);

  // Single-edit form still works and reports the same counters.
  const Json single = expect_ok(
      service, R"({"cmd":"set_delay","session":")" + session + R"(","node":")" +
                   gname[0] + R"(","mean":2.25})");
  EXPECT_EQ(single.find("eco_version")->as_number(), 2.0);
  EXPECT_EQ(single.find("edits")->as_number(), 1.0);
  EXPECT_GT(single.find("nodes_reevaluated")->as_number(), 0.0);

  // set_source carries the counters too.
  const Json src = expect_ok(
      service, R"({"cmd":"set_source","session":")" + session +
                   R"(","source":0,"rise":[0.5,0.2]})");
  ASSERT_NE(src.find("nodes_reevaluated"), nullptr);
  ASSERT_NE(src.find("settled_early"), nullptr);

  // Probe: what-if arrivals at explicit targets, nothing committed. The
  // edit retimes the target endpoint gate itself, so its what-if arrival
  // must differ from the committed state's.
  const Json probed = expect_ok(
      service, R"({"cmd":"set_delay","session":")" + session +
                   R"(","probe":true,"edits":[{"node":")" + target +
                   R"(","mean":9.0}],"nodes":[")" + target + R"("]})");
  EXPECT_TRUE(probed.find("probe")->as_bool());
  EXPECT_EQ(probed.find("eco_version")->as_number(), 3.0);  // unchanged
  const Json* results = probed.find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->as_array().size(), 1u);
  const Json& r0 = results->as_array().front();
  EXPECT_EQ(r0.find("name")->as_string(), target);
  ASSERT_NE(r0.find("rise"), nullptr);
  ASSERT_NE(r0.find("fall"), nullptr);
  ASSERT_NE(r0.find("probs"), nullptr);
  const Json committed_now = expect_ok(
      service, R"({"cmd":"query","session":")" + session + R"(","node":")" +
                   target + R"("})");
  EXPECT_NE(r0.find("rise")->find("mean")->as_number(),
            committed_now.find("stats")->find("rise")->find("mean")->as_number());

  // Probe with no explicit targets answers at every timing endpoint, and
  // still does not advance the ECO version.
  const Json all_eps = expect_ok(
      service, R"({"cmd":"set_delay","session":")" + session +
                   R"(","probe":true,"edits":[{"node":")" + gname[0] +
                   R"(","mean":3.0}]})");
  EXPECT_EQ(all_eps.find("results")->as_array().size(),
            ref.timing_endpoints().size());
  const Json after = expect_ok(
      service, R"({"cmd":"stats","session":")" + session + R"("})");
  EXPECT_EQ(after.find("session")->find("eco_version")->as_number(), 3.0);
}

TEST(ServiceProtocol, StatsSurfaceCountersAndShutdownIsAcknowledged) {
  AnalysisService service;
  const std::string session =
      expect_ok(service, load_line("s27")).find("session")->as_string();
  (void)expect_ok(service, R"({"cmd":"analyze","session":")" + session + R"("})");
  (void)expect_ok(service, R"({"cmd":"analyze","session":")" + session + R"("})");
  expect_error(service, "garbage", "parse_error");

  const Json global = expect_ok(service, R"({"cmd":"stats"})");
  EXPECT_EQ(global.find("sessions")->as_number(), 1.0);
  EXPECT_GE(global.find("requests")->as_number(), 4.0);
  EXPECT_GE(global.find("errors")->as_number(), 1.0);
  EXPECT_EQ(global.find("analysis_cache")->find("hits")->as_number(), 1.0);

  const Json per = expect_ok(
      service, R"({"cmd":"stats","session":")" + session + R"("})");
  const Json* sj = per.find("session");
  ASSERT_NE(sj, nullptr);
  EXPECT_EQ(sj->find("analyses")->as_number(), 2.0);
  EXPECT_EQ(sj->find("cache_hits")->as_number(), 1.0);
  EXPECT_EQ(sj->find("eco_version")->as_number(), 0.0);

  EXPECT_FALSE(service.shutdown_requested());
  (void)expect_ok(service, R"({"cmd":"shutdown"})");
  EXPECT_TRUE(service.shutdown_requested());
}

TEST(ServiceProtocol, StatsCarryMetricsSnapshot) {
  AnalysisService service;
  const std::string session =
      expect_ok(service, load_line("s27")).find("session")->as_string();
  (void)expect_ok(service, R"({"cmd":"analyze","session":")" + session + R"("})");

  const Json stats = expect_ok(service, R"({"cmd":"stats"})");
  const Json* metrics = stats.find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_NE(metrics->find("enabled"), nullptr);
  if (!metrics->find("enabled")->as_bool()) return;  // compiled out / disabled

  // The analyze above must have driven the engine stage timers.
  const Json* stages = metrics->find("stages");
  ASSERT_NE(stages, nullptr);
  const Json* levelize = stages->find("stage.levelize");
  ASSERT_NE(levelize, nullptr);
  EXPECT_GE(levelize->find("count")->as_number(), 1.0);
  EXPECT_GE(levelize->find("total_ms")->as_number(), 0.0);
  ASSERT_NE(stages->find("stage.moment.propagate"), nullptr);
}

TEST(ServiceProtocol, NonFiniteResponseBodyDegradesToStructuredError) {
  // A hand-built response with Inf in the body must serialize as a valid
  // internal_error line — never "inf" (invalid JSON), never a fake 0.
  Json body = Json::object();
  body.set("mean", Json(std::numeric_limits<double>::infinity()));
  Response poisoned = Response::success(Json(7.0), body);
  poisoned.span.trace_id = 3;
  const std::string line = poisoned.to_line();
  const Json parsed = Json::parse(line);  // must be a valid document
  EXPECT_FALSE(parsed.find("ok")->as_bool());
  EXPECT_EQ(parsed.find("error")->find("code")->as_string(), "internal_error");
  EXPECT_EQ(parsed.find("id")->as_number(), 7.0);
  EXPECT_EQ(parsed.find("trace_id")->as_string(), "t-3");  // span survives

  // End to end: an ECO with the largest accepted sigma overflows the
  // variance to Inf inside the engine. Whatever the pipeline produces,
  // the wire line must stay parseable — degraded to internal_error if
  // any non-finite value reaches the body.
  AnalysisService service;
  const std::string session =
      expect_ok(service, load_line("s27")).find("session")->as_string();
  (void)expect_ok(service, R"({"cmd":"set_delay","session":")" + session +
                               R"(","node":"G11","mean":1,"std":1e300})");
  const Response r = service.execute_line(
      R"({"cmd":"analyze","session":")" + session + R"("})");
  const Json echoed = Json::parse(r.to_line());
  if (!echoed.find("ok")->as_bool()) {
    EXPECT_EQ(echoed.find("error")->find("code")->as_string(), "internal_error");
  }
}

TEST(ServiceProtocol, MetricsToggleDoesNotPerturbResultsOrCache) {
  // Metrics are observational only: the analysis payload is byte-identical
  // with recording on and off, and toggling never invalidates the cache.
  AnalysisService on_service;
  AnalysisService off_service;
  const std::string load = load_line("s208");

  obs::set_enabled(true);
  const std::string s_on =
      expect_ok(on_service, load).find("session")->as_string();
  const Json r_on = expect_ok(
      on_service, R"({"cmd":"analyze","session":")" + s_on + R"("})");

  obs::set_enabled(false);
  const std::string s_off =
      expect_ok(off_service, load).find("session")->as_string();
  const Json r_off = expect_ok(
      off_service, R"({"cmd":"analyze","session":")" + s_off + R"("})");
  obs::set_enabled(true);

  EXPECT_EQ(r_on.find("endpoints")->dump(), r_off.find("endpoints")->dump());

  // Same session, analyze again with metrics flipped: still a cache hit.
  obs::set_enabled(false);
  const Json again = expect_ok(
      on_service, R"({"cmd":"analyze","session":")" + s_on + R"("})");
  obs::set_enabled(true);
  EXPECT_TRUE(again.find("cached")->as_bool());
}

}  // namespace
}  // namespace spsta::service
