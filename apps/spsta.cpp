// spsta — one-shot CLI client for the analysis service.
//
// Drives exactly the same JSON-lines protocol as spsta_serviced, but
// in-process: it builds the request lines a daemon client would send,
// executes them on an in-process service, and prints the response lines.
// The service sits on the unified Analyzer API (spsta_api.hpp): each
// loaded design keeps one Analyzer — and with it one compiled analysis
// plan — warm across the requests of an invocation.
//
//   spsta run s298 --engine=ssta                 load + analyze a builtin
//   spsta run netlist.bench --engine=mc --runs=2000 --seed=7
//   spsta query s27 --node=G17                   per-node statistics
//   spsta script session.jsonl                   raw protocol lines ( - = stdin)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "netlist/bench_io.hpp"
#include "netlist/generator.hpp"
#include "netlist/hier_bench_io.hpp"
#include "obs/metrics.hpp"
#include "service/daemon.hpp"
#include "service/json.hpp"
#include "service/service.hpp"
#include "service/transport/client.hpp"
#include "spsta_api.hpp"

namespace {

using spsta::service::AnalysisService;
using spsta::service::Json;
using spsta::service::Response;
namespace transport = spsta::service::transport;

/// Ceiling on one overload-retry sleep, whatever the server hints.
constexpr double kRetryCapMs = 1000.0;

int usage(std::FILE* to) {
  std::fprintf(
      to,
      "spsta — one-shot client for the spsta analysis service\n"
      "  spsta run <circuit|file> [--engine=E] [--threads=N] [--runs=N] [--seed=N]\n"
      "  spsta query <circuit|file> (--node=NAME | --path) [--engine=E]\n"
      "              [--density=rise|fall]   full arrival density (spsta_numeric)\n"
      "  spsta script <file.jsonl | ->\n"
      "  --connect=HOST:PORT  send the same protocol lines to a daemon started\n"
      "                  with spsta_serviced --listen instead of in-process\n"
      "  --binary        with --connect: length-prefixed binary frames; bulk\n"
      "                  payloads (densities) arrive as raw f64 sidecar frames\n"
      "  --retry[=N]     with --connect: resubmit on 'overloaded' responses,\n"
      "                  sleeping the server's capped retry_after_ms hint,\n"
      "                  up to N times per request (default 8)\n"
      "  spsta gen --out=FILE [--gates=N] [--blocks=N] [--block-gates=N]\n"
      "            [--block-inputs=N] [--block-outputs=N] [--block-depth=N]\n"
      "            [--block-dffs=N] [--width=N] [--seed=N] [--random-wiring]\n"
      "            [--flat-out=FILE]   emit a hierarchical .hbench design\n"
      "                               (and optionally its flattened .bench)\n"
      "  --metrics       dump the metrics registry (stage timers, counters)\n"
      "                  to stderr after the command finishes\n"
      "Engines: spsta_moment (default) spsta_numeric canonical ssta mc.\n"
      "<circuit> is a builtin name (s27, s208..s1238); <file> is\n"
      ".bench/.v/.hbench (hierarchical designs analyze by block-model\n"
      "composition, not flattening).\n");
  return to == stdout ? 0 : 2;
}

/// True for the builtin circuit names the service accepts.
bool is_builtin_circuit(const std::string& name) {
  return !name.empty() && name[0] == 's' &&
         name.find('.') == std::string::npos &&
         name.find('/') == std::string::npos;
}

Json load_request(const std::string& target) {
  Json req = Json::object();
  req.set("id", Json("load"));
  req.set("cmd", Json("load"));
  if (is_builtin_circuit(target)) {
    req.set("circuit", Json(target));
  } else {
    req.set("path", Json(target));
  }
  return req;
}

/// The session key from a load response ("" on failure).
std::string session_of(const Response& response) {
  if (!response.ok) return "";
  const Json* key = response.body.find("session");
  return key != nullptr && key->is_string() ? key->as_string() : "";
}

/// session_of over a raw response line (socket mode).
std::string session_of_line(const std::string& line) {
  try {
    const Json doc = Json::parse(line);
    const Json* result = doc.find("result");
    if (result == nullptr) return "";
    const Json* key = result->find("session");
    return key != nullptr && key->is_string() ? key->as_string() : "";
  } catch (const std::exception&) {
    return "";
  }
}

/// The `overloaded` retry hint of a response line, clamped to
/// [1, kRetryCapMs] ms; nullopt when the response is anything else.
std::optional<double> overloaded_retry_ms(const std::string& line) {
  try {
    const Json doc = Json::parse(line);
    const Json* ok = doc.find("ok");
    if (ok == nullptr || !ok->is_bool() || ok->as_bool()) return std::nullopt;
    const Json* error = doc.find("error");
    if (error == nullptr) return std::nullopt;
    const Json* code = error->find("code");
    if (code == nullptr || !code->is_string() ||
        code->as_string() != "overloaded") {
      return std::nullopt;
    }
    double hint = 1.0;
    if (const Json* ms = error->find("retry_after_ms");
        ms != nullptr && ms->is_number()) {
      hint = ms->as_number();
    }
    return std::clamp(hint, 1.0, kRetryCapMs);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

struct RetryStats {
  std::uint64_t retried = 0;
  std::uint64_t gave_up = 0;
};

/// One synchronous request over the socket, resubmitting on `overloaded`
/// responses (sleeping the server's capped retry_after_ms hint) up to
/// \p max_retries times. nullopt = the connection died.
std::optional<transport::ClientReply> socket_request(
    transport::SocketClient& client, const std::string& line,
    unsigned max_retries, RetryStats& stats) {
  for (unsigned attempt = 0;; ++attempt) {
    if (!client.send(line)) return std::nullopt;
    std::optional<transport::ClientReply> reply = client.recv();
    if (!reply) return std::nullopt;
    const std::optional<double> hint = overloaded_retry_ms(reply->line);
    if (!hint) return reply;
    if (attempt >= max_retries) {
      if (max_retries > 0) ++stats.gave_up;
      return reply;
    }
    ++stats.retried;
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(*hint));
  }
}

/// Prints one received reply: the protocol line on stdout, a summary of
/// any binary waveform sidecars on stderr (stdout stays pure protocol).
void print_reply(const transport::ClientReply& reply) {
  std::printf("%s\n", reply.line.c_str());
  for (const std::vector<double>& w : reply.waveforms) {
    std::fprintf(stderr, "# waveform sidecar: %zu f64 samples\n", w.size());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  bool dump_metrics = false;
  std::string connect_spec;
  bool binary_frames = false;
  unsigned max_retries = 0;
  for (auto it = args.begin(); it != args.end();) {
    if (*it == "--metrics") {
      dump_metrics = true;
      it = args.erase(it);
    } else if (it->rfind("--connect=", 0) == 0) {
      connect_spec = it->substr(10);
      it = args.erase(it);
    } else if (*it == "--binary") {
      binary_frames = true;
      it = args.erase(it);
    } else if (*it == "--retry" || it->rfind("--retry=", 0) == 0) {
      max_retries = *it == "--retry"
                        ? 8u
                        : static_cast<unsigned>(std::stoul(it->substr(8)));
      it = args.erase(it);
    } else {
      ++it;
    }
  }
  RetryStats retry_stats;
  transport::SocketClient client;
  // Connects up front (any mode): run/query/script all speak the same
  // protocol, so they all work over a socket exactly as in-process.
  if (!connect_spec.empty()) {
    const auto spec = transport::parse_host_port(connect_spec);
    if (!spec) {
      std::fprintf(stderr, "bad --connect spec '%s' (want HOST:PORT)\n",
                   connect_spec.c_str());
      return 2;
    }
    if (!client.connect(spec->host, spec->port, binary_frames)) {
      std::fprintf(stderr, "cannot connect to %s: %s\n", connect_spec.c_str(),
                   client.error().c_str());
      return 1;
    }
  } else if (binary_frames) {
    std::fprintf(stderr, "--binary needs --connect (frames are a socket mode)\n");
    return 2;
  }
  // Dumps the registry (stage timers, cache counters, spans) once the
  // command has run; stdout stays pure protocol lines.
  const auto finish = [&](int code) {
    if (max_retries > 0 && !connect_spec.empty()) {
      std::fprintf(stderr, "retries: %llu resubmitted, %llu gave up\n",
                   static_cast<unsigned long long>(retry_stats.retried),
                   static_cast<unsigned long long>(retry_stats.gave_up));
    }
    if (dump_metrics) {
      std::fprintf(stderr, "%s\n", spsta::service::metrics_json().dump().c_str());
    }
    return code;
  };
  if (args.empty() || args[0] == "--help" || args[0] == "-h") {
    return usage(args.empty() ? stderr : stdout);
  }
  const std::string mode = args[0];

  if (mode == "script") {
    if (args.size() != 2) return usage(stderr);
    std::ifstream file;
    std::istream* in = &std::cin;
    if (args[1] != "-") {
      file.open(args[1]);
      if (!file) {
        std::fprintf(stderr, "cannot open %s\n", args[1].c_str());
        return 1;
      }
      in = &file;
    }
    if (!connect_spec.empty()) {
      // Socket script: one request per line, replies in order. Overload
      // retries are transparent — the script sees only final answers.
      std::string line;
      while (std::getline(*in, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
        const auto reply = socket_request(client, line, max_retries, retry_stats);
        if (!reply) {
          std::fprintf(stderr, "connection lost: %s\n", client.error().c_str());
          return finish(1);
        }
        print_reply(*reply);
      }
      client.finish_sending();
      return finish(0);
    }
    AnalysisService service;
    spsta::service::serve(*in, std::cout, service, {});
    return finish(0);
  }

  if (mode == "gen") {
    // Deterministic hierarchical design generation: same flags, same bytes,
    // at any thread count — the size sweep's input producer.
    spsta::netlist::HierGeneratorSpec spec;
    std::string out_path, flat_path;
    for (std::size_t i = 1; i < args.size(); ++i) {
      const std::string& a = args[i];
      const auto number = [&](const char* prefix) -> std::size_t {
        return static_cast<std::size_t>(std::stoull(a.substr(std::string(prefix).size())));
      };
      try {
        if (a.rfind("--out=", 0) == 0) out_path = a.substr(6);
        else if (a.rfind("--flat-out=", 0) == 0) flat_path = a.substr(11);
        else if (a.rfind("--gates=", 0) == 0) spec.total_gates = number("--gates=");
        else if (a.rfind("--blocks=", 0) == 0) spec.unique_blocks = number("--blocks=");
        else if (a.rfind("--block-gates=", 0) == 0) spec.block_gates = number("--block-gates=");
        else if (a.rfind("--block-inputs=", 0) == 0) spec.block_inputs = number("--block-inputs=");
        else if (a.rfind("--block-outputs=", 0) == 0) spec.block_outputs = number("--block-outputs=");
        else if (a.rfind("--block-depth=", 0) == 0) spec.block_depth = number("--block-depth=");
        else if (a.rfind("--block-dffs=", 0) == 0) spec.block_dffs = number("--block-dffs=");
        else if (a.rfind("--width=", 0) == 0) spec.width = number("--width=");
        else if (a.rfind("--seed=", 0) == 0) spec.seed = number("--seed=");
        else if (a == "--random-wiring") spec.uniform_wiring = false;
        else {
          std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
          return usage(stderr);
        }
      } catch (const std::exception&) {
        std::fprintf(stderr, "numeric option could not be parsed: '%s'\n", a.c_str());
        return 2;
      }
    }
    if (out_path.empty()) {
      std::fprintf(stderr, "gen needs --out=FILE\n");
      return usage(stderr);
    }
    try {
      const spsta::netlist::HierDesign design = spsta::netlist::generate_hier_circuit(spec);
      {
        std::ofstream out(out_path, std::ios::binary);
        if (!out) {
          std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
          return 1;
        }
        spsta::netlist::write_hier_bench(design, out);
      }
      std::fprintf(stderr, "wrote %s: %zu blocks, %zu instances, %zu expanded gates\n",
                   out_path.c_str(), design.blocks().size(), design.instances().size(),
                   design.expanded_gate_count());
      if (!flat_path.empty()) {
        std::ofstream out(flat_path, std::ios::binary);
        if (!out) {
          std::fprintf(stderr, "cannot open %s\n", flat_path.c_str());
          return 1;
        }
        spsta::netlist::write_bench(design.flatten(), out);
        std::fprintf(stderr, "wrote %s (flattened)\n", flat_path.c_str());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "gen failed: %s\n", e.what());
      return 1;
    }
    return finish(0);
  }

  if (mode != "run" && mode != "query") return usage(stderr);
  if (args.size() < 2) return usage(stderr);
  const std::string target = args[1];

  std::string engine = "spsta_moment", node, threads, runs, seed, density;
  bool path_query = false;
  for (std::size_t i = 2; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto value = [&](const char* prefix) -> std::string {
      return a.substr(std::string(prefix).size());
    };
    if (a.rfind("--engine=", 0) == 0) {
      engine = value("--engine=");
      // Client-side validation against the unified API's engine registry,
      // so a typo fails before any design is loaded.
      if (!spsta::parse_engine(engine)) {
        std::fprintf(stderr, "unknown engine '%s'\n", engine.c_str());
        return usage(stderr);
      }
    }
    else if (a.rfind("--node=", 0) == 0) node = value("--node=");
    else if (a.rfind("--density=", 0) == 0) density = value("--density=");
    else if (a.rfind("--threads=", 0) == 0) threads = value("--threads=");
    else if (a.rfind("--runs=", 0) == 0) runs = value("--runs=");
    else if (a.rfind("--seed=", 0) == 0) seed = value("--seed=");
    else if (a == "--path") path_query = true;
    else {
      std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
      return usage(stderr);
    }
  }

  // The command line a daemon client would send after the load.
  const auto build_command = [&](const std::string& session) {
    Json req = Json::object();
    req.set("id", Json(mode));
    req.set("cmd", Json(mode == "run" ? "analyze" : "query"));
    req.set("session", Json(session));
    req.set("engine", Json(engine));
    if (mode == "query") {
      if (path_query || node.empty()) {
        req.set("path", node.empty() ? Json(true) : Json(node));
      } else {
        req.set("node", Json(node));
      }
      if (!density.empty()) req.set("density", Json(density));
    }
    Json params = Json::object();
    if (!threads.empty()) params.set("threads", Json(std::stod(threads)));
    if (!runs.empty()) params.set("runs", Json(std::stod(runs)));
    if (!seed.empty()) params.set("seed", Json(std::stod(seed)));
    if (!params.as_object().empty()) req.set("params", params);
    return req;
  };

  // Two-phase: load first (to learn the session key), then the command —
  // the same two lines a daemon client would pipe in. With --connect the
  // identical lines go over the socket instead of in-process.
  if (!connect_spec.empty()) {
    const auto loaded = socket_request(client, load_request(target).dump(),
                                       max_retries, retry_stats);
    if (!loaded) {
      std::fprintf(stderr, "connection lost: %s\n", client.error().c_str());
      return finish(1);
    }
    print_reply(*loaded);
    const std::string session = session_of_line(loaded->line);
    if (session.empty()) return finish(1);
    std::string command;
    try {
      command = build_command(session).dump();
    } catch (const std::exception&) {
      std::fprintf(stderr, "numeric option could not be parsed\n");
      return finish(2);
    }
    const auto reply = socket_request(client, command, max_retries, retry_stats);
    if (!reply) {
      std::fprintf(stderr, "connection lost: %s\n", client.error().c_str());
      return finish(1);
    }
    print_reply(*reply);
    client.finish_sending();
    const bool ok = reply->line.find("\"ok\":true") != std::string::npos;
    return finish(ok ? 0 : 1);
  }

  AnalysisService service;
  const Response loaded = service.execute_line(load_request(target).dump());
  std::printf("%s\n", loaded.to_line().c_str());
  const std::string session = session_of(loaded);
  if (session.empty()) return finish(1);

  Json req;
  try {
    req = build_command(session);
  } catch (const std::exception&) {
    std::fprintf(stderr, "numeric option could not be parsed\n");
    return finish(2);
  }
  const Response response = service.execute_line(req.dump());
  std::printf("%s\n", response.to_line().c_str());
  return finish(response.ok ? 0 : 1);
}
