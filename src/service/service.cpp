#include "service/service.hpp"

#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "netlist/bench_io.hpp"
#include "netlist/graph.hpp"
#include "netlist/hier_bench_io.hpp"
#include "netlist/iscas89.hpp"
#include "netlist/verilog_io.hpp"
#include "obs/metrics.hpp"

namespace spsta::service {

namespace {

using netlist::NodeId;

/// Internal control-flow error: handlers throw it, execute() converts it
/// into a structured failure response.
struct ServiceError {
  ErrorCode code;
  std::string message;
};

[[noreturn]] void fail(ErrorCode code, std::string message) {
  throw ServiceError{code, std::move(message)};
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Engine require_engine(std::string_view name) {
  if (const std::optional<Engine> engine = spsta::parse_engine(name)) return *engine;
  fail(ErrorCode::UnknownEngine,
       "unknown engine '" + std::string(name) +
           "' (expected spsta_moment|spsta_numeric|canonical|ssta|mc)");
}

double number_field(const Json& object, std::string_view key, double fallback,
                    double lo, double hi) {
  const Json* v = object.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) {
    fail(ErrorCode::BadParams, "'" + std::string(key) + "' must be a number");
  }
  const double x = v->as_number();
  if (!(x >= lo && x <= hi)) {
    fail(ErrorCode::BadParams, "'" + std::string(key) + "' out of range");
  }
  return x;
}

AnalyzeParams parse_params(const Json& body) {
  AnalyzeParams p;
  const Json* params = body.find("params");
  if (params == nullptr) return p;
  if (!params->is_object()) {
    fail(ErrorCode::BadParams, "'params' must be an object");
  }
  // Only client-supplied fields are set on the request: unset optionals
  // take the engine defaults, and a supplied field the engine cannot honor
  // is rejected by Analyzer::validate in ensure_analysis.
  if (params->find("threads") != nullptr) {
    p.request.threads =
        static_cast<unsigned>(number_field(*params, "threads", 1, 0, 1024));
  }
  if (params->find("grid_dt") != nullptr) {
    p.request.grid_dt = number_field(*params, "grid_dt", 0.05, 1e-6, 1e6);
  }
  if (params->find("grid_pad_sigma") != nullptr) {
    p.request.grid_pad_sigma = number_field(*params, "grid_pad_sigma", 8.0, 0, 64);
  }
  if (params->find("max_grid_points") != nullptr) {
    p.request.max_grid_points = static_cast<std::size_t>(
        number_field(*params, "max_grid_points", 4096, 2, 1 << 22));
  }
  if (params->find("runs") != nullptr) {
    p.request.runs =
        static_cast<std::uint64_t>(number_field(*params, "runs", 10000, 1, 1e9));
  }
  if (params->find("seed") != nullptr) {
    p.request.seed = static_cast<std::uint64_t>(
        number_field(*params, "seed", 1, 0, 9.007199254740992e15));
  }
  for (const Json::Member& m : params->as_object()) {
    if (m.first != "threads" && m.first != "grid_dt" && m.first != "grid_pad_sigma" &&
        m.first != "max_grid_points" && m.first != "runs" && m.first != "seed") {
      fail(ErrorCode::BadParams, "unknown parameter '" + m.first + "'");
    }
  }
  return p;
}

Engine engine_of(const Json& body, Engine fallback = Engine::SpstaMoment) {
  const Json* engine = body.find("engine");
  if (engine == nullptr) return fallback;
  if (!engine->is_string()) fail(ErrorCode::BadParams, "'engine' must be a string");
  return require_engine(engine->as_string());
}

/// Resolves a "node" field (name string or integer id) against the design.
NodeId resolve_node(const Session& session, const Json& value) {
  if (value.is_string()) {
    const NodeId id = session.design().find(value.as_string());
    if (id == netlist::kInvalidNode) {
      fail(ErrorCode::UnknownNode, "no node named '" + value.as_string() + "'");
    }
    return id;
  }
  if (value.is_number()) {
    const double x = value.as_number();
    if (x < 0 || x != std::floor(x) ||
        x >= static_cast<double>(session.design().node_count())) {
      fail(ErrorCode::UnknownNode,
           "node id " + json_number(x) + " out of range [0, " +
               std::to_string(session.design().node_count()) + ")");
    }
    return static_cast<NodeId>(x);
  }
  fail(ErrorCode::BadParams, "'node' must be a name or an integer id");
}

Json direction_json(double p, double mean, double stddev) {
  Json j = Json::object();
  j.set("p", Json(p));
  j.set("mean", Json(mean));
  j.set("std", Json(stddev));
  return j;
}

Json probs_json(const netlist::FourValueProbs& probs) {
  Json j = Json::object();
  j.set("p0", Json(probs.p0));
  j.set("p1", Json(probs.p1));
  j.set("pr", Json(probs.pr));
  j.set("pf", Json(probs.pf));
  return j;
}

/// Moment-engine node state as the engine-agnostic stats shape — shared by
/// the warm-query fast path and probe result rendering.
Json node_top_json(const core::NodeTop& top) {
  Json j = Json::object();
  j.set("probs", probs_json(top.probs));
  j.set("rise", direction_json(top.rise.mass, top.rise.arrival.mean,
                               top.rise.arrival.stddev()));
  j.set("fall", direction_json(top.fall.mass, top.fall.arrival.mean,
                               top.fall.arrival.stddev()));
  return j;
}

/// Per-node stats of a cached analysis, engine-agnostic shape:
/// {probs?, rise:{p,mean,std}, fall:{p,mean,std}}.
Json node_stats_json(const CachedAnalysis& analysis, NodeId id) {
  Json j = Json::object();
  if (const auto* moment = std::get_if<core::SpstaResult>(&analysis.result)) {
    const core::NodeTop& top = moment->node.at(id);
    j.set("probs", probs_json(top.probs));
    j.set("rise", direction_json(top.rise.mass, top.rise.arrival.mean,
                                 top.rise.arrival.stddev()));
    j.set("fall", direction_json(top.fall.mass, top.fall.arrival.mean,
                                 top.fall.arrival.stddev()));
  } else if (const auto* numeric =
                 std::get_if<core::SpstaNumericResult>(&analysis.result)) {
    const core::NodeTopDensity& top = numeric->node.at(id);
    j.set("probs", probs_json(top.probs));
    j.set("rise", direction_json(top.rise.mass(), top.rise.mean(), top.rise.stddev()));
    j.set("fall", direction_json(top.fall.mass(), top.fall.mean(), top.fall.stddev()));
  } else if (const auto* canonical =
                 std::get_if<core::SpstaCanonicalResult>(&analysis.result)) {
    const core::NodeCanonicalTop& top = canonical->node.at(id);
    j.set("probs", probs_json(top.probs));
    j.set("rise", direction_json(top.rise.mass, top.rise.arrival.mean(),
                                 std::sqrt(top.rise.arrival.variance())));
    j.set("fall", direction_json(top.fall.mass, top.fall.arrival.mean(),
                                 std::sqrt(top.fall.arrival.variance())));
  } else if (const auto* arrivals = std::get_if<ssta::SstaResult>(&analysis.result)) {
    const spsta::ssta::NodeArrival& a = arrivals->arrival.at(id);
    j.set("rise", direction_json(1.0, a.rise.mean, a.rise.stddev()));
    j.set("fall", direction_json(1.0, a.fall.mean, a.fall.stddev()));
  } else if (const auto* sampled = std::get_if<mc::MonteCarloResult>(&analysis.result)) {
    const spsta::mc::NodeEstimate& e = sampled->node.at(id);
    j.set("probs", probs_json(e.probs()));
    j.set("rise", direction_json(e.rise_probability(), e.rise_time.mean(),
                                 std::sqrt(e.rise_time.variance())));
    j.set("fall", direction_json(e.fall_probability(), e.fall_time.mean(),
                                 std::sqrt(e.fall_time.variance())));
  }
  return j;
}

/// Endpoint summary + worst endpoint (by mean arrival over both
/// directions, transitions with vanishing probability excluded).
Json endpoints_json(const Session& session, const CachedAnalysis& analysis) {
  Json endpoints = Json::array();
  double worst_mean = -1e300;
  Json worst;
  for (const NodeId ep : session.design().timing_endpoints()) {
    Json row = node_stats_json(analysis, ep);
    row.set("node", Json(static_cast<std::uint64_t>(ep)));
    row.set("name", Json(session.design().node(ep).name));
    for (const bool rising : {true, false}) {
      const Json* dir = row.find(rising ? "rise" : "fall");
      if (dir == nullptr) continue;
      const double p = dir->find("p")->as_number();
      const double mean = dir->find("mean")->as_number();
      if (p >= 1e-9 && mean > worst_mean) {
        worst_mean = mean;
        worst = Json::object();
        worst.set("node", Json(static_cast<std::uint64_t>(ep)));
        worst.set("name", Json(session.design().node(ep).name));
        worst.set("direction", Json(rising ? "rise" : "fall"));
        worst.set("p", Json(p));
        worst.set("mean", Json(mean));
        worst.set("std", *dir->find("std"));
      }
    }
    endpoints.push_back(std::move(row));
  }
  Json j = Json::object();
  j.set("endpoints", std::move(endpoints));
  if (!worst.is_null()) j.set("worst", std::move(worst));
  return j;
}

struct LoadedText {
  std::string format;  ///< "bench" | "verilog" | "circuit"
  std::string content; ///< text, or the builtin circuit name
};

/// The format a path's extension names ("" when it names none).
std::string format_of_path(const std::string& path) {
  const std::size_t dot = path.rfind('.');
  const std::string ext = dot == std::string::npos ? "" : path.substr(dot);
  if (ext == ".bench") return "bench";
  if (ext == ".hbench") return "hier";
  if (ext == ".v" || ext == ".verilog") return "verilog";
  return "";
}

/// The whole file, or nullopt when it cannot be opened.
std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

/// Boundary state of one hierarchical signal, the same engine-agnostic
/// shape node_stats_json renders for flat analyses.
Json port_top_json(const hier::PortTop& top) {
  Json j = Json::object();
  j.set("probs", probs_json(top.probs));
  j.set("rise", direction_json(top.rise.mass, top.rise.arrival.mean,
                               top.rise.arrival.stddev()));
  j.set("fall", direction_json(top.fall.mass, top.fall.arrival.mean,
                               top.fall.arrival.stddev()));
  return j;
}

/// Hierarchical counterpart of endpoints_json: one row per top output,
/// same worst-endpoint rule (max mean arrival, vanishing mass excluded).
Json hier_endpoints_json(const hier::HierReport& report) {
  Json endpoints = Json::array();
  double worst_mean = -1e300;
  Json worst;
  for (const std::size_t sig : report.outputs) {
    const hier::PortTop& top = report.signals.at(sig);
    const std::string& name = report.signal_names.at(sig);
    Json row = port_top_json(top);
    row.set("name", Json(name));
    for (const bool rising : {true, false}) {
      const core::TransitionTop& t = rising ? top.rise : top.fall;
      if (t.mass >= 1e-9 && t.arrival.mean > worst_mean) {
        worst_mean = t.arrival.mean;
        worst = Json::object();
        worst.set("name", Json(name));
        worst.set("direction", Json(rising ? "rise" : "fall"));
        worst.set("p", Json(t.mass));
        worst.set("mean", Json(t.arrival.mean));
        worst.set("std", Json(t.arrival.stddev()));
      }
    }
    endpoints.push_back(std::move(row));
  }
  Json j = Json::object();
  j.set("endpoints", std::move(endpoints));
  if (!worst.is_null()) j.set("worst", std::move(worst));
  return j;
}

/// Sheds a request whose deadline lapsed while it waited — called by the
/// heavy handlers right after they win the session mutex, the second shed
/// point the dispatch-time check cannot cover (ISSUE 6 satellite).
void check_deadline(const Request& request) {
  if (request.expired()) {
    fail(ErrorCode::DeadlineExceeded,
         "deadline of " + json_number(request.deadline_ms) +
             " ms exceeded at execute start (" + json_number(request.age_ms()) +
             " ms since enqueue)");
  }
}

}  // namespace

std::uint64_t load_content_hash(std::string_view format,
                                std::string_view content) noexcept {
  return fnv1a64(content, fnv1a64(format) * 0x9e3779b97f4a7c15ull + 1);
}

std::optional<std::uint64_t> path_load_hash(const std::string& path,
                                            const Json* format) {
  if (format != nullptr && !format->is_string()) return std::nullopt;
  const std::string fmt = format != nullptr ? format->as_string() : format_of_path(path);
  if (fmt.empty()) return std::nullopt;
  const std::optional<std::string> content = read_file(path);
  if (!content) return std::nullopt;
  return load_content_hash(fmt, *content);
}

Json metrics_json() {
  const obs::Snapshot snap = obs::registry().snapshot();
  Json j = Json::object();
  j.set("enabled", Json(snap.enabled));
  Json counters = Json::object();
  for (const auto& c : snap.counters) counters.set(c.name, Json(c.value));
  j.set("counters", std::move(counters));
  if (!snap.gauges.empty()) {
    Json gauges = Json::object();
    for (const auto& g : snap.gauges) gauges.set(g.name, Json::number_or_null(g.value));
    j.set("gauges", std::move(gauges));
  }
  Json stages = Json::object();
  for (const auto& h : snap.histograms) {
    Json s = Json::object();
    s.set("count", Json(h.count));
    s.set("total_ms", Json(static_cast<double>(h.total_ns) * 1e-6));
    s.set("max_ms", Json(static_cast<double>(h.max_ns) * 1e-6));
    Json buckets = Json::array();
    for (const auto& b : h.buckets) {
      Json row = Json::object();
      // Overflow bucket: upper bound is unbounded -> null.
      row.set("le_us", b.upper_us == UINT64_MAX ? Json(nullptr) : Json(b.upper_us));
      row.set("count", Json(b.count));
      buckets.push_back(std::move(row));
    }
    s.set("buckets", std::move(buckets));
    stages.set(h.name, std::move(s));
  }
  j.set("stages", std::move(stages));
  return j;
}

std::string AnalyzeParams::cache_key(Engine engine) const {
  // Normalized values (supplied-or-default), so an explicit default and an
  // omitted field share the cache entry.
  std::string key{to_string(engine)};
  switch (engine) {
    case Engine::SpstaNumeric: {
      const core::SpstaOptions defaults;
      key += "|dt=" + json_number(request.grid_dt.value_or(defaults.grid_dt)) +
             "|pad=" +
             json_number(request.grid_pad_sigma.value_or(defaults.grid_pad_sigma)) +
             "|maxpts=" +
             std::to_string(request.max_grid_points.value_or(defaults.max_grid_points));
      break;
    }
    case Engine::Mc: {
      const mc::MonteCarloConfig defaults;
      key += "|runs=" + std::to_string(request.runs.value_or(defaults.runs)) +
             "|seed=" + std::to_string(request.seed.value_or(defaults.seed));
      break;
    }
    case Engine::SpstaMoment:
    case Engine::Canonical:
    case Engine::Ssta:
      break;  // no result-affecting parameters
  }
  return key;
}

AnalysisService::AnalysisService() = default;

Response AnalysisService::execute_line(std::string_view line) {
  auto parsed = parse_request(line);
  if (Response* error = std::get_if<Response>(&parsed)) {
    requests_.fetch_add(1, std::memory_order_relaxed);
    errors_.fetch_add(1, std::memory_order_relaxed);
    return std::move(*error);
  }
  return execute(std::get<Request>(parsed));
}

Response AnalysisService::execute(const Request& request) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  Response response = dispatch(request);
  if (!response.ok) errors_.fetch_add(1, std::memory_order_relaxed);
  return response;
}

Response AnalysisService::dispatch(const Request& request) {
  try {
    if (request.cmd == "ping") return handle_ping(request);
    if (request.cmd == "load") return handle_load(request);
    if (request.cmd == "analyze") return handle_analyze(request);
    if (request.cmd == "query") return handle_query(request);
    if (request.cmd == "set_delay") return handle_set_delay(request);
    if (request.cmd == "set_source") return handle_set_source(request);
    if (request.cmd == "stats") return handle_stats(request);
    if (request.cmd == "unload") return handle_unload(request);
    if (request.cmd == "shutdown") return handle_shutdown(request);
    return Response::failure(request.id, ErrorCode::UnknownCommand,
                             "unknown command '" + request.cmd + "'");
  } catch (const ServiceError& e) {
    return Response::failure(request.id, e.code, e.message);
  } catch (const std::exception& e) {
    return Response::failure(request.id, ErrorCode::InternalError, e.what());
  } catch (...) {
    return Response::failure(request.id, ErrorCode::InternalError,
                             "unknown exception");
  }
}

std::shared_ptr<Session> AnalysisService::resolve_session(const Request& request) {
  const Json* key = request.body.find("session");
  if (key == nullptr || !key->is_string()) {
    fail(ErrorCode::BadRequest, "missing string field 'session'");
  }
  std::shared_ptr<Session> session = store_.find(key->as_string());
  if (session == nullptr) {
    fail(ErrorCode::UnknownSession, "no session '" + key->as_string() +
                                        "' (load a design first)");
  }
  return session;
}

Response AnalysisService::handle_ping(const Request& request) {
  Json result = Json::object();
  result.set("protocol", Json(1));
  Json engines = Json::array();
  for (const Engine e : {Engine::SpstaMoment, Engine::SpstaNumeric, Engine::Canonical,
                         Engine::Ssta, Engine::Mc}) {
    engines.push_back(Json(std::string(to_string(e))));
  }
  result.set("engines", std::move(engines));
  return Response::success(request.id, std::move(result));
}

Response AnalysisService::handle_load(const Request& request) {
  const Json* circuit = request.body.find("circuit");
  const Json* text = request.body.find("text");
  const Json* path = request.body.find("path");
  const int given = (circuit != nullptr) + (text != nullptr) + (path != nullptr);
  if (given != 1) {
    fail(ErrorCode::BadRequest,
         "load needs exactly one of 'circuit', 'text', 'path'");
  }

  LoadedText source;
  if (circuit != nullptr) {
    if (!circuit->is_string()) fail(ErrorCode::BadParams, "'circuit' must be a string");
    source = {"circuit", circuit->as_string()};
  } else {
    const Json* format = request.body.find("format");
    if (format != nullptr && !format->is_string()) {
      fail(ErrorCode::BadParams, "'format' must be a string");
    }
    if (text != nullptr) {
      if (!text->is_string()) fail(ErrorCode::BadParams, "'text' must be a string");
      if (format == nullptr) fail(ErrorCode::BadParams, "'text' load needs 'format'");
      source = {format->as_string(), text->as_string()};
    } else {
      if (!path->is_string()) fail(ErrorCode::BadParams, "'path' must be a string");
      std::optional<std::string> content = read_file(path->as_string());
      if (!content) fail(ErrorCode::IoError, "cannot open '" + path->as_string() + "'");
      source.format = format != nullptr ? format->as_string()
                                        : format_of_path(path->as_string());
      if (format == nullptr && source.format.empty()) {
        fail(ErrorCode::BadParams, "cannot infer format from '" +
                                       path->as_string() + "'; pass \"format\"");
      }
      source.content = std::move(*content);
    }
    if (source.format != "bench" && source.format != "verilog" &&
        source.format != "hier") {
      fail(ErrorCode::BadParams,
           "format must be 'bench', 'verilog' or 'hier', got '" + source.format + "'");
    }
  }

  // Content hash = (format, bytes): identical content re-loads the
  // existing session without re-parsing — including content loaded by a
  // different client, which is the cross-session plan-cache hit.
  const std::uint64_t hash = load_content_hash(source.format, source.content);

  if (source.format == "hier") {
    // Hierarchical load: the factory parses the hierarchy and compiles its
    // unique blocks (through the process-wide library, so two sessions
    // sharing a block compile it once) under the same per-key latch.
    const auto make_session = [this, &source](const std::string& key) {
      try {
        netlist::HierDesign design = netlist::parse_hier_bench(source.content);
        hier::HierAnalyzerOptions options;
        options.shared_models = &block_models_;
        options.shared_blocks = &block_library_;
        return std::make_shared<Session>(key, std::move(design), options);
      } catch (const ServiceError&) {
        throw;
      } catch (const std::invalid_argument& e) {
        fail(ErrorCode::BadParams, e.what());
      } catch (const std::exception& e) {
        fail(ErrorCode::BadParams, std::string("parse failed: ") + e.what());
      }
    };
    const auto [session, fresh] = store_.load(hash, make_session);
    const netlist::HierDesign& design = session->hier_analyzer->design();
    Json result = Json::object();
    result.set("session", Json(session->key));
    result.set("name", Json(session->display_name));
    result.set("reloaded", Json(!fresh));
    result.set("hier", Json(true));
    result.set("blocks", Json(design.blocks().size()));
    result.set("instances", Json(design.instances().size()));
    result.set("inputs", Json(design.top_inputs().size()));
    result.set("outputs", Json(design.top_outputs().size()));
    result.set("expanded_gates", Json(design.expanded_gate_count()));
    result.set("expanded_nodes", Json(design.expanded_node_count()));
    result.set("expanded_dffs", Json(design.expanded_dff_count()));
    return Response::success(request.id, std::move(result));
  }

  // The parse runs inside the store's design factory: outside the store
  // mutex, and only when no session (ready or in flight) exists for the
  // hash — concurrent identical loads wait on the per-key latch and never
  // parse or compile twice.
  const auto make_design = [&source]() -> netlist::Netlist {
    try {
      if (source.format == "circuit") {
        return netlist::make_paper_circuit(source.content);
      }
      if (source.format == "bench") {
        return netlist::parse_bench(source.content);
      }
      return netlist::parse_verilog(source.content);
    } catch (const ServiceError&) {
      throw;
    } catch (const std::invalid_argument& e) {
      fail(ErrorCode::BadParams, e.what());
    } catch (const std::exception& e) {
      fail(ErrorCode::BadParams, std::string("parse failed: ") + e.what());
    }
  };

  const auto [session, fresh] = store_.load(hash, make_design, &pattern_cache_);
  Json result = Json::object();
  result.set("session", Json(session->key));
  result.set("name", Json(session->display_name));
  result.set("reloaded", Json(!fresh));
  result.set("nodes", Json(session->design().node_count()));
  result.set("gates", Json(session->design().gate_count()));
  result.set("inputs", Json(session->design().primary_inputs().size()));
  result.set("outputs", Json(session->design().primary_outputs().size()));
  result.set("dffs", Json(session->design().dffs().size()));
  result.set("sources", Json(session->design().timing_sources().size()));
  result.set("endpoints", Json(session->design().timing_endpoints().size()));
  return Response::success(request.id, std::move(result));
}

std::pair<const CachedAnalysis*, bool> AnalysisService::ensure_analysis(
    Session& session, Engine engine, const AnalyzeParams& params) {
  AnalysisRequest request = params.request;
  request.engine = engine;
  // Reject engine/option mismatches (e.g. grid_dt with the moment engine)
  // before touching counters or the cache: a request the engine cannot
  // honor must not cost an analysis.
  try {
    Analyzer::validate(request);
  } catch (const std::invalid_argument& e) {
    fail(ErrorCode::BadParams, e.what());
  }

  const std::string key = params.cache_key(engine);
  ++session.analyses;
  if (const auto it = session.cache.find(key); it != session.cache.end()) {
    ++it->second.hits;
    ++session.cache_hits;
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    return {&it->second, true};
  }
  cache_misses_.fetch_add(1, std::memory_order_relaxed);

  CachedAnalysis entry;
  if (engine == Engine::SpstaMoment && session.incremental) {
    // Warm path: the incremental engine's settled state is bit-identical
    // to a fresh full run (settle_eps == 0).
    const double t0 = now_seconds();
    core::SpstaResult result;
    result.node = session.incremental->flush();
    entry.result = std::move(result);
    entry.elapsed_seconds = now_seconds() - t0;
  } else {
    AnalysisReport report = session.analyzer->run(request);
    entry.result = std::move(report.result);
    entry.elapsed_seconds = report.elapsed_seconds;
  }
  record_engine_run(engine, entry.elapsed_seconds);
  const auto [it, inserted] = session.cache.emplace(key, std::move(entry));
  (void)inserted;
  return {&it->second, false};
}

Response AnalysisService::handle_analyze(const Request& request) {
  const std::shared_ptr<Session> session_ptr = resolve_session(request);
  Session& session = *session_ptr;
  const Engine engine = engine_of(request.body);
  const AnalyzeParams params = parse_params(request.body);

  const std::lock_guard<std::mutex> lock(session.mutex);
  // Second shed point: the wait for session.mutex (another client's long
  // analysis) counts against the deadline too.
  check_deadline(request);

  if (session.is_hier()) {
    // Hierarchical path: composition through block models, cached per
    // (engine, params) like flat results. The validate step restricts the
    // engine set to the two block models exist for.
    AnalysisRequest hier_request = params.request;
    hier_request.engine = engine;
    try {
      hier::HierAnalyzer::validate(hier_request);
    } catch (const std::invalid_argument& e) {
      fail(ErrorCode::BadParams, e.what());
    }
    const std::string key = params.cache_key(engine);
    ++session.analyses;
    bool cached = true;
    auto it = session.hier_cache.find(key);
    if (it == session.hier_cache.end()) {
      cached = false;
      cache_misses_.fetch_add(1, std::memory_order_relaxed);
      hier::HierReport report = session.hier_analyzer->run(hier_request);
      record_engine_run(engine, report.elapsed_seconds);
      it = session.hier_cache.emplace(key, CachedHierAnalysis{std::move(report), 0})
               .first;
    } else {
      ++it->second.hits;
      ++session.cache_hits;
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
    }
    const hier::HierReport& report = it->second.report;
    Json result = hier_endpoints_json(report);
    result.set("engine", Json(std::string(to_string(engine))));
    result.set("cached", Json(cached));
    result.set("hier", Json(true));
    result.set("elapsed_ms", Json(report.elapsed_seconds * 1e3));
    result.set("models_extracted", Json(report.models_extracted));
    result.set("model_cache_hits", Json(report.model_cache_hits));
    return Response::success(request.id, std::move(result));
  }

  const auto [analysis, cached] = ensure_analysis(session, engine, params);

  Json result = endpoints_json(session, *analysis);
  result.set("engine", Json(std::string(to_string(engine))));
  result.set("cached", Json(cached));
  result.set("eco_version", Json(session.eco_version));
  result.set("elapsed_ms", Json(analysis->elapsed_seconds * 1e3));
  return Response::success(request.id, std::move(result));
}

Response AnalysisService::handle_query(const Request& request) {
  const std::shared_ptr<Session> session_ptr = resolve_session(request);
  Session& session = *session_ptr;
  const Engine engine = engine_of(request.body);
  const AnalyzeParams params = parse_params(request.body);
  if (session.is_hier()) {
    fail(ErrorCode::BadParams,
         "query targets flat sessions; analyze reports hierarchical endpoints");
  }
  const Json* node = request.body.find("node");
  const Json* path = request.body.find("path");
  if ((node == nullptr) == (path == nullptr)) {
    fail(ErrorCode::BadRequest, "query needs exactly one of 'node', 'path'");
  }
  if (request.body.find("density") != nullptr && node == nullptr) {
    fail(ErrorCode::BadRequest, "'density' needs a 'node' query");
  }

  const std::lock_guard<std::mutex> lock(session.mutex);
  check_deadline(request);

  // Resolve the query target *before* running any engine: a bogus node
  // must not cost an analysis (or populate the cache).
  NodeId query_node = netlist::kInvalidNode;
  if (node != nullptr) query_node = resolve_node(session, *node);

  // Warm-query fast path: once a session has a warm incremental engine, a
  // plain moment-engine node query reads that node's state directly — an
  // O(1) read, since every edit commits eagerly — instead of materializing
  // (and copying) a full SpstaResult per (engine, params) cache entry. No
  // engine work runs, so the reply says `cached`. Bit-identical: the
  // engine settles exactly (eps == 0).
  if (node != nullptr && engine == Engine::SpstaMoment && session.incremental &&
      request.body.find("density") == nullptr) {
    AnalysisRequest validate_request = params.request;
    validate_request.engine = engine;
    try {
      Analyzer::validate(validate_request);
    } catch (const std::invalid_argument& e) {
      fail(ErrorCode::BadParams, e.what());
    }
    ++session.queries;

    Json stats = node_top_json(session.incremental->node(query_node));
    stats.set("node", Json(static_cast<std::uint64_t>(query_node)));
    stats.set("name", Json(session.design().node(query_node).name));
    stats.set("type", Json(std::string(
                          netlist::to_string(session.design().node(query_node).type))));
    Json result = Json::object();
    result.set("engine", Json(std::string(to_string(engine))));
    result.set("cached", Json(true));
    result.set("eco_version", Json(session.eco_version));
    result.set("stats", std::move(stats));
    return Response::success(request.id, std::move(result));
  }

  const auto [analysis, cached] = ensure_analysis(session, engine, params);
  ++session.queries;

  Json result = Json::object();
  result.set("engine", Json(std::string(to_string(engine))));
  result.set("cached", Json(cached));
  result.set("eco_version", Json(session.eco_version));

  if (node != nullptr) {
    const NodeId id = query_node;
    Json stats = node_stats_json(*analysis, id);
    stats.set("node", Json(static_cast<std::uint64_t>(id)));
    stats.set("name", Json(session.design().node(id).name));
    stats.set("type",
              Json(std::string(netlist::to_string(session.design().node(id).type))));

    // Full arrival density of one transition (numeric engine only): the
    // grid spec plus every sample. On a JSON-lines connection the samples
    // are inlined (shortest-round-trip doubles, so they are bit-exact);
    // on a binary-frame connection they ship as one raw f64 WAVEFORM
    // sidecar frame and the body says `samples_wire:"frame"` —
    // DESIGN.md §15's bulk payload path.
    std::vector<std::vector<double>> sidecars;
    if (const Json* density = request.body.find("density")) {
      const bool rise = density->is_string() && density->as_string() == "rise";
      const bool fall = density->is_string() && density->as_string() == "fall";
      if (!rise && !fall) {
        fail(ErrorCode::BadParams, "'density' must be \"rise\" or \"fall\"");
      }
      const auto* numeric =
          std::get_if<core::SpstaNumericResult>(&analysis->result);
      if (numeric == nullptr) {
        fail(ErrorCode::BadParams,
             "'density' requires engine \"spsta_numeric\"");
      }
      const core::NodeTopDensity& top = numeric->node.at(id);
      const stats::PiecewiseDensity& pd = rise ? top.rise : top.fall;
      Json d = Json::object();
      d.set("direction", Json(std::string(rise ? "rise" : "fall")));
      d.set("t0", Json(pd.grid().t0));
      d.set("dt", Json(pd.grid().dt));
      d.set("n", Json(static_cast<std::uint64_t>(pd.grid().n)));
      d.set("mass", Json(pd.mass()));
      if (request.binary_frames) {
        d.set("samples_wire", Json(std::string("frame")));
        sidecars.emplace_back(pd.values().begin(), pd.values().end());
      } else {
        Json samples = Json::array();
        for (const double v : pd.values()) samples.push_back(Json(v));
        d.set("samples", std::move(samples));
      }
      stats.set("density", std::move(d));
    }

    result.set("stats", std::move(stats));
    if (!sidecars.empty()) {
      result.set("waveform_frames",
                 Json(static_cast<std::uint64_t>(sidecars.size())));
    }
    Response response = Response::success(request.id, std::move(result));
    response.waveforms = std::move(sidecars);
    return response;
  }

  // Path query: structural critical path (mean delays), each point
  // annotated with the engine's arrival statistics.
  NodeId endpoint = netlist::kInvalidNode;
  const std::vector<double> means = session.delays().means();
  if (path->is_string() || path->is_number()) {
    endpoint = resolve_node(session, *path);
  } else if (path->is_bool() && path->as_bool()) {
    const auto worst = netlist::critical_paths(session.design(), means, 1);
    if (worst.empty()) fail(ErrorCode::BadParams, "design has no timing endpoints");
    endpoint = worst.front().nodes.back();
  } else {
    fail(ErrorCode::BadParams, "'path' must be true or an endpoint node");
  }
  const netlist::Path critical =
      netlist::critical_path_to(session.design(), endpoint, means);
  Json points = Json::array();
  for (const NodeId id : critical.nodes) {
    Json point = node_stats_json(*analysis, id);
    point.set("node", Json(static_cast<std::uint64_t>(id)));
    point.set("name", Json(session.design().node(id).name));
    points.push_back(std::move(point));
  }
  Json path_json = Json::object();
  path_json.set("endpoint", Json(session.design().node(endpoint).name));
  path_json.set("delay", Json(critical.delay));
  path_json.set("points", std::move(points));
  result.set("path", std::move(path_json));
  return Response::success(request.id, std::move(result));
}

Response AnalysisService::handle_set_delay(const Request& request) {
  using EcoEdit = core::IncrementalSpsta::EcoEdit;
  const std::shared_ptr<Session> session_ptr = resolve_session(request);
  Session& session = *session_ptr;
  if (session.is_hier()) {
    fail(ErrorCode::BadParams, "set_delay is not supported on hierarchical sessions");
  }
  const Json* edits_field = request.body.find("edits");
  const Json* node = request.body.find("node");
  if ((edits_field == nullptr) == (node == nullptr)) {
    fail(ErrorCode::BadRequest,
         "set_delay needs exactly one of 'node' (single edit) or 'edits' (batch)");
  }
  bool probe = false;
  if (const Json* p = request.body.find("probe")) {
    if (!p->is_bool()) fail(ErrorCode::BadParams, "'probe' must be a boolean");
    probe = p->as_bool();
  }
  if (edits_field != nullptr &&
      (!edits_field->is_array() || edits_field->as_array().empty())) {
    fail(ErrorCode::BadParams, "'edits' must be a non-empty array");
  }

  const std::lock_guard<std::mutex> lock(session.mutex);
  check_deadline(request);

  // Resolve every edit before applying any: a bogus entry must not leave a
  // half-applied batch behind.
  const auto parse_edit = [&session](const Json& object) -> EcoEdit {
    const Json* n = object.find("node");
    if (n == nullptr) fail(ErrorCode::BadRequest, "set_delay edit needs 'node'");
    const double mean = number_field(object, "mean", -1e301, -1e300, 1e300);
    if (mean == -1e301) fail(ErrorCode::BadRequest, "set_delay edit needs 'mean'");
    const double stddev = number_field(object, "std", 0.0, 0.0, 1e300);
    return EcoEdit::delay_edit(resolve_node(session, *n),
                               stats::Gaussian{mean, stddev * stddev});
  };
  std::vector<EcoEdit> edits;
  if (edits_field != nullptr) {
    edits.reserve(edits_field->as_array().size());
    for (const Json& entry : edits_field->as_array()) {
      if (!entry.is_object()) {
        fail(ErrorCode::BadParams, "'edits' entries must be objects");
      }
      edits.push_back(parse_edit(entry));
    }
  } else {
    edits.push_back(parse_edit(request.body));
  }

  if (probe) return run_probe(request, session, edits);

  const core::IncrementalSpsta::CommitStats stats = session.apply_eco(edits);

  Json result = Json::object();
  if (node != nullptr) {
    result.set("node", Json(static_cast<std::uint64_t>(edits.front().node)));
    result.set("name", Json(session.design().node(edits.front().node).name));
  }
  result.set("edits", Json(edits.size()));
  result.set("eco_version", Json(session.eco_version));
  // Per-request ECO cost: what THIS wave re-evaluated, not lifetime totals
  // (`stats` still reports the session-lifetime counter).
  result.set("nodes_reevaluated", Json(stats.cone_size));
  result.set("settled_early", Json(stats.settled_early));
  return Response::success(request.id, std::move(result));
}

Response AnalysisService::run_probe(const Request& request, Session& session,
                                    std::span<const core::IncrementalSpsta::EcoEdit> edits) {
  // Targets: an explicit 'nodes' list, defaulting to every timing endpoint
  // (the set an ECO optimization loop watches).
  std::vector<NodeId> targets;
  if (const Json* nodes = request.body.find("nodes")) {
    if (!nodes->is_array() || nodes->as_array().empty()) {
      fail(ErrorCode::BadParams, "'nodes' must be a non-empty array");
    }
    targets.reserve(nodes->as_array().size());
    for (const Json& entry : nodes->as_array()) {
      targets.push_back(resolve_node(session, entry));
    }
  } else {
    targets = session.design().timing_endpoints();
  }

  const core::IncrementalSpsta::ProbeResult probed = session.probe_eco(edits, targets);

  Json results = Json::array();
  for (std::size_t i = 0; i < targets.size(); ++i) {
    Json row = node_top_json(probed.tops[i]);
    row.set("node", Json(static_cast<std::uint64_t>(targets[i])));
    row.set("name", Json(session.design().node(targets[i]).name));
    results.push_back(std::move(row));
  }
  Json result = Json::object();
  result.set("probe", Json(true));
  result.set("edits", Json(edits.size()));
  // A probe commits nothing: eco_version is unchanged and later queries
  // still see the pre-probe state.
  result.set("eco_version", Json(session.eco_version));
  result.set("nodes_reevaluated", Json(probed.stats.cone_size));
  result.set("settled_early", Json(probed.stats.settled_early));
  result.set("results", std::move(results));
  return Response::success(request.id, std::move(result));
}

Response AnalysisService::handle_set_source(const Request& request) {
  const std::shared_ptr<Session> session_ptr = resolve_session(request);
  Session& session = *session_ptr;
  if (session.is_hier()) {
    fail(ErrorCode::BadParams, "set_source is not supported on hierarchical sessions");
  }
  const Json* source = request.body.find("source");
  if (source == nullptr || !source->is_number() ||
      source->as_number() != std::floor(source->as_number()) ||
      source->as_number() < 0) {
    fail(ErrorCode::BadRequest, "set_source needs a non-negative integer 'source'");
  }

  const std::lock_guard<std::mutex> lock(session.mutex);
  const std::size_t index = static_cast<std::size_t>(source->as_number());
  if (index >= session.sources().size()) {
    fail(ErrorCode::BadParams,
         "source index " + std::to_string(index) + " out of range [0, " +
             std::to_string(session.sources().size()) + ")");
  }

  netlist::SourceStats stats = session.sources()[index];
  if (const Json* probs = request.body.find("probs")) {
    if (!probs->is_array() || probs->as_array().size() != 4) {
      fail(ErrorCode::BadParams, "'probs' must be [p0, p1, pr, pf]");
    }
    double p[4];
    for (int i = 0; i < 4; ++i) {
      const Json& v = probs->as_array()[i];
      if (!v.is_number() || v.as_number() < 0) {
        fail(ErrorCode::BadParams, "'probs' entries must be non-negative numbers");
      }
      p[i] = v.as_number();
    }
    if (p[0] + p[1] + p[2] + p[3] <= 0) {
      fail(ErrorCode::BadParams, "'probs' must not be all zero");
    }
    stats.probs = netlist::FourValueProbs{p[0], p[1], p[2], p[3]}.normalized();
  }
  const auto arrival = [&](std::string_view key,
                           stats::Gaussian fallback) -> stats::Gaussian {
    const Json* v = request.body.find(key);
    if (v == nullptr) return fallback;
    if (!v->is_array() || v->as_array().size() != 2 ||
        !v->as_array()[0].is_number() || !v->as_array()[1].is_number() ||
        v->as_array()[1].as_number() < 0) {
      fail(ErrorCode::BadParams,
           "'" + std::string(key) + "' must be [mean, std] with std >= 0");
    }
    const double s = v->as_array()[1].as_number();
    return {v->as_array()[0].as_number(), s * s};
  };
  stats.rise_arrival = arrival("rise", stats.rise_arrival);
  stats.fall_arrival = arrival("fall", stats.fall_arrival);

  const core::IncrementalSpsta::CommitStats wave = session.apply_set_source(index, stats);

  Json result = Json::object();
  result.set("source", Json(index));
  result.set("eco_version", Json(session.eco_version));
  result.set("nodes_reevaluated", Json(wave.cone_size));
  result.set("settled_early", Json(wave.settled_early));
  return Response::success(request.id, std::move(result));
}

Response AnalysisService::handle_stats(const Request& request) {
  Json result = Json::object();
  result.set("protocol", Json(1));
  result.set("sessions", Json(store_.size()));
  result.set("requests", Json(requests_.load(std::memory_order_relaxed)));
  result.set("errors", Json(errors_.load(std::memory_order_relaxed)));
  result.set("metrics", metrics_json());

  Json cache = Json::object();
  cache.set("hits", Json(cache_hits_.load(std::memory_order_relaxed)));
  cache.set("misses", Json(cache_misses_.load(std::memory_order_relaxed)));
  result.set("analysis_cache", std::move(cache));

  {
    // Cross-session plan cache (the LRU session store).
    Json store = Json::object();
    store.set("plan_hits", Json(store_.plan_hits()));
    store.set("plan_misses", Json(store_.plan_misses()));
    store.set("evictions", Json(store_.evictions()));
    store.set("latch_waits", Json(store_.latch_waits()));
    store.set("approx_bytes", Json(store_.approx_bytes()));
    const StoreBudget budget = store_.budget();
    if (budget.max_sessions != 0) store.set("max_sessions", Json(budget.max_sessions));
    if (budget.max_bytes != 0) store.set("max_bytes", Json(budget.max_bytes));

    // Hierarchical sharing layers, budgeted alongside the session store.
    Json models = Json::object();
    models.set("hits", Json(block_models_.hits()));
    models.set("misses", Json(block_models_.misses()));
    models.set("evictions", Json(block_models_.evictions()));
    models.set("entries", Json(block_models_.size()));
    models.set("approx_bytes", Json(block_models_.approx_bytes()));
    store.set("block_models", std::move(models));
    Json library = Json::object();
    library.set("entries", Json(block_library_.size()));
    library.set("hits", Json(block_library_.hits()));
    library.set("misses", Json(block_library_.misses()));
    store.set("block_library", std::move(library));
    result.set("plan_cache", std::move(store));
  }

  Json pattern = Json::object();
  pattern.set("entries", Json(pattern_cache_.size()));
  pattern.set("hits", Json(pattern_cache_.hits()));
  pattern.set("misses", Json(pattern_cache_.misses()));
  result.set("pattern_cache", std::move(pattern));

  {
    const std::lock_guard<std::mutex> lock(usage_mutex_);
    Json engines = Json::object();
    for (const auto& [name, usage] : usage_) {
      Json u = Json::object();
      u.set("runs", Json(usage.runs));
      u.set("wall_ms", Json(usage.wall_seconds * 1e3));
      engines.set(name, std::move(u));
    }
    result.set("engines", std::move(engines));
  }

  if (request.body.find("session") != nullptr) {
    const std::shared_ptr<Session> session_ptr = resolve_session(request);
    Session& session = *session_ptr;
    const std::lock_guard<std::mutex> lock(session.mutex);
    Json s = Json::object();
    s.set("name", Json(session.display_name));
    if (session.is_hier()) {
      const netlist::HierDesign& design = session.hier_analyzer->design();
      s.set("hier", Json(true));
      s.set("blocks", Json(design.blocks().size()));
      s.set("instances", Json(design.instances().size()));
      s.set("expanded_gates", Json(design.expanded_gate_count()));
      s.set("cache_entries", Json(session.hier_cache.size()));
    } else {
      s.set("nodes", Json(session.design().node_count()));
      s.set("gates", Json(session.design().gate_count()));
      s.set("cache_entries", Json(session.cache.size()));
      s.set("eco_edits", Json(session.eco_edits));
      s.set("eco_version", Json(session.eco_version));
      s.set("nodes_reevaluated",
            Json(session.incremental ? session.incremental->nodes_reevaluated() : 0));
    }
    s.set("analyses", Json(session.analyses));
    s.set("cache_hits", Json(session.cache_hits));
    s.set("queries", Json(session.queries));
    result.set("session", std::move(s));
  } else {
    Json keys = Json::array();
    for (const std::string& key : store_.keys()) keys.push_back(Json(key));
    result.set("session_keys", std::move(keys));
  }
  return Response::success(request.id, std::move(result));
}

Response AnalysisService::handle_unload(const Request& request) {
  const Json* key = request.body.find("session");
  if (key == nullptr || !key->is_string()) {
    fail(ErrorCode::BadRequest, "missing string field 'session'");
  }
  if (!store_.unload(key->as_string())) {
    fail(ErrorCode::UnknownSession, "no session '" + key->as_string() + "'");
  }
  Json result = Json::object();
  result.set("unloaded", Json(key->as_string()));
  result.set("sessions", Json(store_.size()));
  return Response::success(request.id, std::move(result));
}

Response AnalysisService::handle_shutdown(const Request& request) {
  shutdown_.store(true, std::memory_order_release);
  Json result = Json::object();
  result.set("stopping", Json(true));
  result.set("requests", Json(requests_.load(std::memory_order_relaxed)));
  return Response::success(request.id, std::move(result));
}

void AnalysisService::record_engine_run(Engine engine, double seconds) {
  const std::lock_guard<std::mutex> lock(usage_mutex_);
  EngineUsage& usage = usage_[std::string(to_string(engine))];
  ++usage.runs;
  usage.wall_seconds += seconds;
}

}  // namespace spsta::service
