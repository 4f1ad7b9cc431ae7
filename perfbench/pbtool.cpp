// pbtool — the benchmark's in-process side.
//
//   pbtool gen --workload=W --seed=N --out=DIR
//       Writes the workload's designs (.bench / .v / .hbench text) and
//       DIR/manifest.json. The daemon only ever sees these files' text.
//   pbtool oracle --spec=FILE --out=FILE
//       Answers computed in-process through the library's public API
//       (fresh Analyzer runs, a flattened hierarchy)
//       that the client compares against the daemon's replies.
//   pbtool layers --spec=FILE --out=FILE
//       Replays a workload's operations in-process and times the calls
//       into each module's public functions (the per-layer metrics).
//   pbtool info
//       Prints the SIMD tier the numeric kernels dispatch to.
//
// Spec and output files are JSON; numbers are written shortest-round-trip
// so the client can compare them bitwise with the daemon's replies.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/compiled_design.hpp"
#include "core/incremental_spsta.hpp"
#include "hier/hier_analyzer.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/generator.hpp"
#include "netlist/hier_bench_io.hpp"
#include "netlist/iscas89.hpp"
#include "netlist/verilog_io.hpp"
#include "obs/metrics.hpp"
#include "service/frame.hpp"
#include "service/json.hpp"
#include "service/service.hpp"
#include "spsta_api.hpp"
#include "stats/conv_kernels.hpp"
#include "stats/simd.hpp"
#include "stats/workspace.hpp"

namespace {

using spsta::service::Json;
using spsta::netlist::NodeId;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << text;
}

const Json& field(const Json& j, std::string_view key) {
  const Json* v = j.find(key);
  if (v == nullptr) throw std::runtime_error("spec is missing '" + std::string(key) + "'");
  return *v;
}

double num(const Json& j, std::string_view key) { return field(j, key).as_number(); }
const std::string& str(const Json& j, std::string_view key) {
  return field(j, key).as_string();
}

// ---------------------------------------------------------------- gen

struct DesignOut {
  std::string name;
  std::string file;
  std::string format;  // bench | verilog | hier
  std::size_t gates = 0;
  std::vector<std::string> gate_names;
};

Json manifest_row(const DesignOut& d) {
  Json row = Json::object();
  row.set("name", Json(d.name));
  row.set("file", Json(d.file));
  row.set("format", Json(d.format));
  row.set("gates", Json(d.gates));
  Json names = Json::array();
  for (const std::string& n : d.gate_names) names.push_back(Json(n));
  row.set("gate_names", std::move(names));
  return row;
}

DesignOut flat_design(const spsta::netlist::Netlist& design, const std::string& name,
                      const std::string& dir, const std::string& format) {
  DesignOut out;
  out.name = name;
  out.format = format;
  out.file = name + (format == "verilog" ? ".v" : ".bench");
  out.gates = design.gate_count();
  for (NodeId id = 0; id < design.node_count(); ++id) {
    if (spsta::netlist::is_combinational(design.node(id).type)) {
      out.gate_names.push_back(design.node(id).name);
    }
  }
  write_file(dir + "/" + out.file, format == "verilog"
                                       ? spsta::netlist::write_verilog(design)
                                       : spsta::netlist::write_bench(design));
  return out;
}

spsta::netlist::Netlist generated(const std::string& name, std::size_t gates,
                                  std::size_t depth, bool xor_rich, std::uint64_t seed) {
  spsta::netlist::GeneratorSpec spec;
  spec.name = name;
  spec.num_inputs = 32 + gates / 200;
  spec.num_outputs = 16 + gates / 400;
  spec.num_dffs = 8 + gates / 500;
  spec.num_gates = gates;
  spec.target_depth = depth;
  spec.seed = seed;
  if (xor_rich) {
    spec.weight_xor = 2.0;
    spec.weight_xnor = 1.0;
  }
  return spsta::netlist::generate_circuit(spec);
}

int cmd_gen(const std::string& workload, std::uint64_t seed, const std::string& dir) {
  std::vector<DesignOut> designs;
  const std::uint64_t base = seed * 7919 + 17;
  if (workload == "signoff") {
    designs.push_back(flat_design(spsta::netlist::make_s27(), "s27", dir, "bench"));
    for (const std::string_view name : spsta::netlist::paper_circuit_names()) {
      designs.push_back(flat_design(spsta::netlist::make_paper_circuit(name),
                                    std::string(name), dir, "bench"));
    }
    designs.push_back(flat_design(generated("g2k", 2000, 24, true, base + 1), "g2k", dir, "bench"));
    const spsta::netlist::Netlist g5k = generated("g5k", 5000, 32, false, base + 2);
    designs.push_back(flat_design(g5k, "g5k", dir, "bench"));
    designs.push_back(flat_design(g5k, "g5k_v", dir, "verilog"));
    designs.push_back(flat_design(generated("g10k", 10000, 40, true, base + 3), "g10k", dir, "bench"));
    designs.push_back(flat_design(generated("g20k", 20000, 48, false, base + 4), "g20k", dir, "bench"));
    spsta::netlist::HierGeneratorSpec hs;
    hs.name = "h20k";
    hs.total_gates = 20000;
    hs.unique_blocks = 4;
    hs.block_gates = 400;
    hs.seed = base + 5;
    const spsta::netlist::HierDesign h = spsta::netlist::generate_hier_circuit(hs);
    DesignOut d;
    d.name = "h20k";
    d.file = "h20k.hbench";
    d.format = "hier";
    d.gates = h.expanded_gate_count();
    write_file(dir + "/" + d.file, spsta::netlist::write_hier_bench(h));
    designs.push_back(std::move(d));
  } else if (workload == "eco_sizing") {
    designs.push_back(flat_design(generated("e12k", 12000, 40, true, base + 11), "e12k", dir, "bench"));
  } else {
    throw std::runtime_error("unknown workload '" + workload + "'");
  }
  Json rows = Json::array();
  for (const DesignOut& d : designs) rows.push_back(manifest_row(d));
  Json manifest = Json::object();
  manifest.set("workload", Json(workload));
  manifest.set("seed", Json(seed));
  manifest.set("designs", std::move(rows));
  write_file(dir + "/manifest.json", manifest.dump() + "\n");
  return 0;
}


// ---------------------------------------------------------------- oracle

Json direction(double p, double mean, double stddev) {
  Json j = Json::object();
  j.set("p", Json(p));
  j.set("mean", Json(mean));
  j.set("std", Json(stddev));
  return j;
}

Json probs_json(const spsta::netlist::FourValueProbs& probs) {
  Json j = Json::object();
  j.set("p0", Json(probs.p0));
  j.set("p1", Json(probs.p1));
  j.set("pr", Json(probs.pr));
  j.set("pf", Json(probs.pf));
  return j;
}

Json top_json(const spsta::core::NodeTop& top) {
  Json j = Json::object();
  j.set("probs", probs_json(top.probs));
  j.set("rise", direction(top.rise.mass, top.rise.arrival.mean, top.rise.arrival.stddev()));
  j.set("fall", direction(top.fall.mass, top.fall.arrival.mean, top.fall.arrival.stddev()));
  return j;
}

/// The state one node reports, in the shape the service renders it.
Json node_json(const spsta::AnalysisResult& result, NodeId id) {
  if (const auto* m = std::get_if<spsta::core::SpstaResult>(&result)) {
    return top_json(m->node.at(id));
  }
  if (const auto* s = std::get_if<spsta::ssta::SstaResult>(&result)) {
    const auto& a = s->arrival.at(id);
    Json j = Json::object();
    j.set("rise", direction(1.0, a.rise.mean, a.rise.stddev()));
    j.set("fall", direction(1.0, a.fall.mean, a.fall.stddev()));
    return j;
  }
  throw std::runtime_error("node_json: unsupported engine result");
}

spsta::netlist::Netlist load_flat(const Json& d) {
  const std::string text = read_file(str(d, "file"));
  return str(d, "format") == "verilog" ? spsta::netlist::parse_verilog(text)
                                       : spsta::netlist::parse_bench(text);
}

void apply_edits(spsta::Analyzer& analyzer, const Json& edits) {
  const auto& design = analyzer.design();
  for (const Json& e : edits.as_array()) {
    const NodeId id = design.find(str(e, "node"));
    if (id == spsta::netlist::kInvalidNode) throw std::runtime_error("unknown node " + str(e, "node"));
    const double sd = num(e, "std");
    analyzer.set_delay(id, spsta::stats::Gaussian{num(e, "mean"), sd * sd});
  }
}

/// Moment-engine endpoints of a hierarchy's flattening (unit delays,
/// scenario I): the composition contract's reference.
Json oracle_hier_flat(const Json& spec) {
  Json out = Json::object();
  for (const Json& d : field(spec, "designs").as_array()) {
    const spsta::netlist::HierDesign h = spsta::netlist::parse_hier_bench(read_file(str(d, "file")));
    spsta::Analyzer flat(h.flatten());
    spsta::AnalysisRequest req;
    req.engine = spsta::Engine::SpstaMoment;
    req.threads = 1;
    const spsta::AnalysisReport report = flat.run(req);
    Json rows = Json::object();
    for (const std::string& signal : h.top_outputs()) {
      std::string name = signal;
      if (const std::size_t dot = name.find('.'); dot != std::string::npos) name[dot] = '/';
      const NodeId id = flat.design().find(name);
      if (id == spsta::netlist::kInvalidNode) throw std::runtime_error("no flat node " + name);
      rows.set(signal, node_json(report.result, id));
    }
    out.set(str(d, "name"), std::move(rows));
  }
  return out;
}

/// Fresh Analyzer runs over explicit delay states. Each state applies
/// `base` then its own edits to a freshly parsed design, and reports the
/// requested engines at every timing endpoint.
Json oracle_fresh(const Json& spec) {
  const Json& design = field(spec, "design");
  Json states = Json::array();
  for (const Json& state : field(spec, "states").as_array()) {
    spsta::Analyzer analyzer(load_flat(design));
    apply_edits(analyzer, field(spec, "base"));
    apply_edits(analyzer, state);
    const std::vector<NodeId> ids = analyzer.design().timing_endpoints();
    Json engines = Json::object();
    for (const Json& e : field(spec, "engines").as_array()) {
      spsta::AnalysisRequest req;
      req.engine = *spsta::parse_engine(e.as_string());
      req.threads = 1;
      const spsta::AnalysisReport report = analyzer.run(req);
      Json rows = Json::object();
      for (const NodeId id : ids) rows.set(analyzer.design().node(id).name, node_json(report.result, id));
      engines.set(e.as_string(), std::move(rows));
    }
    states.push_back(std::move(engines));
  }
  Json out = Json::object();
  out.set("states", std::move(states));
  return out;
}

int cmd_oracle(const std::string& spec_path, const std::string& out_path) {
  const Json spec = Json::parse(read_file(spec_path));
  const std::string& kind = str(spec, "kind");
  Json out;
  if (kind == "hier_flat") out = oracle_hier_flat(spec);
  else if (kind == "fresh") out = oracle_fresh(spec);
  else throw std::runtime_error("unknown oracle kind '" + kind + "'");
  write_file(out_path, out.dump() + "\n");
  return 0;
}

// ---------------------------------------------------------------- layers

/// Median of \p xs (0 for an empty list).
double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// Median wall time of \p reps calls of \p fn, in seconds.
template <typename Fn>
double time_median(int reps, Fn&& fn) {
  std::vector<double> xs;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    xs.push_back(seconds_since(t0));
  }
  return median(std::move(xs));
}

struct Flat {
  std::string name;
  std::string format;
  std::unique_ptr<spsta::Analyzer> analyzer;
  double kgates = 0.0;
};

class Layers {
 public:
  explicit Layers(const Json& spec) : spec_(spec) {}

  Json run() {
    parsers();
    engines();
    conv_microbench();
    monte_carlo();
    hierarchy();
    incremental();
    service();
    Json out = Json::object();
    out.set("metrics", std::move(metrics_));
    out.set("execute_ms", std::move(execute_ms_));
    return out;
  }

 private:
  void set(const std::string& name, double value, const char* unit) {
    Json pair = Json::array();
    pair.push_back(Json(value));
    pair.push_back(Json(unit));
    metrics_.set(name, std::move(pair));
  }

  /// netlist: every design text through its parser; formats the workload
  /// lacks are measured on a rendering of its largest flat design (or a
  /// small generated hierarchy) so every parser is always measured.
  void parsers() {
    double bench_s = 0, bench_kg = 0, ver_s = 0, ver_kg = 0, hb_s = 0, hb_kg = 0;
    for (const Json& d : field(spec_, "designs").as_array()) {
      const std::string text = read_file(str(d, "file"));
      const std::string& format = str(d, "format");
      const double kg = num(d, "gates") / 1000.0;
      if (format == "hier") {
        hbench_ = text;
        hb_s += time_median(3, [&] { (void)spsta::netlist::parse_hier_bench(text); });
        hb_kg += kg;
        continue;
      }
      Flat f;
      f.name = str(d, "name");
      f.format = format;
      f.kgates = kg;
      if (format == "verilog") {
        ver_s += time_median(3, [&] { (void)spsta::netlist::parse_verilog(text); });
        ver_kg += kg;
      } else {
        bench_s += time_median(3, [&] { (void)spsta::netlist::parse_bench(text); });
        bench_kg += kg;
      }
      f.analyzer = std::make_unique<spsta::Analyzer>(
          format == "verilog" ? spsta::netlist::parse_verilog(text) : spsta::netlist::parse_bench(text));
      if (const Json* edits = d.find("edits")) apply_edits(*f.analyzer, *edits);
      flats_.push_back(std::move(f));
    }
    Flat& big = largest();
    if (ver_kg == 0) {
      const std::string text = spsta::netlist::write_verilog(big.analyzer->design());
      ver_s = time_median(3, [&] { (void)spsta::netlist::parse_verilog(text); });
      ver_kg = big.kgates;
    }
    if (hbench_.empty()) {
      spsta::netlist::HierGeneratorSpec hs;
      hs.total_gates = 4000;
      hs.seed = static_cast<std::uint64_t>(num(spec_, "seed"));
      hbench_ = spsta::netlist::write_hier_bench(spsta::netlist::generate_hier_circuit(hs));
      hb_kg = 4.0;
      hb_s = time_median(3, [&] { (void)spsta::netlist::parse_hier_bench(hbench_); });
    }
    set("netlist.parse_bench_us_per_kgate", 1e6 * bench_s / bench_kg, "us/kgate");
    set("netlist.parse_verilog_us_per_kgate", 1e6 * ver_s / ver_kg, "us/kgate");
    set("netlist.parse_hbench_us_per_kgate", 1e6 * hb_s / hb_kg, "us/kgate");
  }

  Flat& largest() {
    return *std::max_element(flats_.begin(), flats_.end(),
                             [](const Flat& a, const Flat& b) { return a.kgates < b.kgates; });
  }

  spsta::AnalysisRequest request(spsta::Engine engine) const {
    spsta::AnalysisRequest req;
    req.engine = engine;
    req.threads = 1;
    if (engine == spsta::Engine::SpstaNumeric) {
      req.grid_dt = num(spec_, "grid_dt");
      req.max_grid_points = static_cast<std::size_t>(num(spec_, "max_grid_points"));
    }
    return req;
  }

  spsta::core::SpstaOptions grid_options() const {
    spsta::core::SpstaOptions o;
    o.grid_dt = num(spec_, "grid_dt");
    o.max_grid_points = static_cast<std::size_t>(num(spec_, "max_grid_points"));
    return o;
  }

  /// core / ssta / stats: plan compile, kernel precompute and every engine
  /// over each annotated flat design (moment, canonical and SSTA warm;
  /// numeric as the daemon runs it after a fresh load).
  void engines() {
    double kg = 0, compile_s = 0, kernels_s = 0, moment_s = 0, canonical_s = 0, ssta_s = 0,
           numeric_s = 0, computed_bytes = 0;
    std::uint64_t fft = 0, direct = 0;
    const std::vector<spsta::netlist::SourceStats> sources{spsta::netlist::scenario_I()};
    for (Flat& f : flats_) {
      const auto& design = f.analyzer->design();
      const auto& delays = f.analyzer->delays();
      kg += f.kgates;
      compile_s += time_median(3, [&] { spsta::core::CompiledDesign plan(design, delays); });
      std::size_t grid_n = 0;
      std::vector<double> ks;
      for (int rep = 0; rep < 3; ++rep) {
        const spsta::core::CompiledDesign plan(design, delays);
        const auto grid = plan.grid_for(sources, grid_options());
        grid_n = grid.n;
        const auto t0 = Clock::now();
        (void)plan.delay_kernels(grid.dt, grid.n);
        ks.push_back(seconds_since(t0));
      }
      kernels_s += median(std::move(ks));
      for (const auto& [engine, total] :
           {std::pair{spsta::Engine::SpstaMoment, &moment_s},
            std::pair{spsta::Engine::Canonical, &canonical_s},
            std::pair{spsta::Engine::Ssta, &ssta_s}}) {
        (void)f.analyzer->run(request(engine));
        *total += time_median(3, [&] { (void)f.analyzer->run(request(engine)); });
      }
      const auto before = spsta::obs::registry().snapshot();
      const auto t0 = Clock::now();
      (void)f.analyzer->run(request(spsta::Engine::SpstaNumeric));
      numeric_s += seconds_since(t0);
      const auto after = spsta::obs::registry().snapshot();
      const std::uint64_t calls_fft = after.counter_value("stats.conv.fft") - before.counter_value("stats.conv.fft");
      const std::uint64_t calls_direct =
          after.counter_value("stats.conv.direct") - before.counter_value("stats.conv.direct");
      fft += calls_fft;
      direct += calls_direct;
      // Computed, not measured: each call reads a source column and a
      // kernel and writes a destination column of grid_n doubles.
      computed_bytes += static_cast<double>(calls_fft + calls_direct) * 3.0 * 8.0 *
                        static_cast<double>(grid_n);
    }
    set("core.compile_ms_per_kgate", 1e3 * compile_s / kg, "ms/kgate");
    set("core.delay_kernels_ms_per_kgate", 1e3 * kernels_s / kg, "ms/kgate");
    set("core.moment_ms_per_kgate", 1e3 * moment_s / kg, "ms/kgate");
    set("core.canonical_ms_per_kgate", 1e3 * canonical_s / kg, "ms/kgate");
    set("ssta.ms_per_kgate", 1e3 * ssta_s / kg, "ms/kgate");
    set("core.numeric_ms_per_kgate", 1e3 * numeric_s / kg, "ms/kgate");
    set("stats.conv_fft_calls", static_cast<double>(fft), "count");
    set("stats.conv_direct_calls", static_cast<double>(direct), "count");
    set("stats.conv_computed_mb", computed_bytes / (1 << 20), "MiB");
  }

  /// stats: batched two-column Delay convolutions with the largest
  /// design's own kernels at the workload's grid.
  void conv_microbench() {
    Flat& big = largest();
    const spsta::core::CompiledDesign& plan = big.analyzer->plan();
    const std::vector<spsta::netlist::SourceStats> sources{spsta::netlist::scenario_I()};
    const auto grid = plan.grid_for(sources, grid_options());
    const auto set_ptr = plan.delay_kernels(grid.dt, grid.n);
    std::vector<double> src(grid.n), d0(grid.n), d1(grid.n);
    for (std::size_t i = 0; i < grid.n; ++i) {
      const double x = (static_cast<double>(i) - 0.3 * static_cast<double>(grid.n)) / 20.0;
      src[i] = std::exp(-0.5 * x * x);
    }
    std::vector<NodeId> ids;
    for (NodeId id = 0; id < big.analyzer->design().node_count() && ids.size() < 256; ++id) {
      if (plan.combinational(id)) ids.push_back(id);
    }
    spsta::stats::Workspace& ws = spsta::stats::Workspace::local();
    const auto pass = [&] {
      for (const NodeId id : ids) {
        spsta::stats::ConvExec ex;
        ex.form = spsta::stats::ConvExec::Form::Delay;
        ex.cols = 2;
        ex.src[0] = src;
        ex.src[1] = src;
        ex.dst[0] = d0;
        ex.dst[1] = d1;
        ex.kernel[0] = &set_ptr->rise(id);
        ex.kernel[1] = &set_ptr->fall(id);
        ex.ws = &ws;
        spsta::stats::conv_execute(ex);
      }
    };
    pass();
    const double s = time_median(5, pass);
    set("stats.conv_ns_per_point",
        1e9 * s / (static_cast<double>(ids.size()) * 2.0 * static_cast<double>(grid.n)), "ns");
  }

  /// mc: the workload's Monte Carlo designs at its run count.
  void monte_carlo() {
    const auto runs = static_cast<std::uint64_t>(num(spec_, "mc_runs"));
    double s = 0, gate_runs = 0;
    std::vector<std::string> names;
    for (const Json& n : field(spec_, "mc_designs").as_array()) names.push_back(n.as_string());
    for (Flat& f : flats_) {
      if (std::find(names.begin(), names.end(), f.name) == names.end()) continue;
      spsta::AnalysisRequest req = request(spsta::Engine::Mc);
      req.runs = runs;
      req.seed = 1;
      const auto t0 = Clock::now();
      (void)f.analyzer->run(req);
      s += seconds_since(t0);
      gate_runs += 1000.0 * f.kgates * static_cast<double>(runs);
    }
    set("mc.ns_per_gate_run", 1e9 * s / gate_runs, "ns");
  }

  /// hier: composition of the workload's hierarchy (or the generated
  /// one) through a private model cache: a cold run (extraction and
  /// composition, timed) and a warm one (all cache hits).
  void hierarchy() {
    spsta::hier::HierAnalyzer h(spsta::netlist::parse_hier_bench(hbench_));
    const spsta::AnalysisRequest req = request(spsta::Engine::SpstaMoment);
    const auto t0 = Clock::now();
    const spsta::hier::HierReport cold = h.run(req);
    set("hier.compose_ms", 1e3 * seconds_since(t0), "ms");
    const spsta::hier::HierReport warm = h.run(req);
    set("hier.models_extracted", static_cast<double>(cold.models_extracted), "count");
    const double instances = static_cast<double>(h.design().instances().size());
    set("hier.model_cache_hit_ratio", static_cast<double>(warm.model_cache_hits) / instances, "ratio");
  }

  /// Recorded request lines: (group, line).
  std::vector<std::pair<std::string, std::string>> lines() {
    std::vector<std::pair<std::string, std::string>> out;
    std::istringstream in(read_file(str(spec_, "lines")));
    std::string row;
    while (std::getline(in, row)) {
      if (row.empty()) continue;
      const Json j = Json::parse(row);
      out.emplace_back(str(j, "group"), str(j, "line"));
    }
    return out;
  }

  /// core incremental: every recorded set_delay (commit or probe) replayed
  /// on IncrementalSpsta over its session's design.
  void incremental() {
    struct Sess {
      std::unique_ptr<spsta::Analyzer> analyzer;
      std::unique_ptr<spsta::core::IncrementalSpsta> inc;
    };
    std::map<std::string, Sess> sessions;
    const std::vector<spsta::netlist::SourceStats> sources{spsta::netlist::scenario_I()};
    std::vector<double> probe_s, commit_s;
    double cone = 0, settled = 0, commit_cone = 0;
    const auto edits_of = [](const Json& req, const spsta::netlist::Netlist& design) {
      std::vector<spsta::core::IncrementalSpsta::EcoEdit> edits;
      const auto add = [&](const Json& e) {
        const double sd = num(e, "std");
        edits.push_back(spsta::core::IncrementalSpsta::EcoEdit::delay_edit(
            design.find(str(e, "node")), spsta::stats::Gaussian{num(e, "mean"), sd * sd}));
      };
      if (const Json* list = req.find("edits")) {
        for (const Json& e : list->as_array()) add(e);
      } else {
        add(req);
      }
      return edits;
    };
    for (const auto& [group, line] : lines()) {
      const Json req = Json::parse(line);
      const std::string& cmd = str(req, "cmd");
      if (cmd == "load" && str(req, "format") != "hier") {
        const std::string& text = str(req, "text");
        const std::string key =
            spsta::service::hash_key(spsta::service::load_content_hash(str(req, "format"), text));
        Sess s;
        s.analyzer = std::make_unique<spsta::Analyzer>(
            str(req, "format") == "verilog" ? spsta::netlist::parse_verilog(text)
                                            : spsta::netlist::parse_bench(text));
        s.inc = std::make_unique<spsta::core::IncrementalSpsta>(s.analyzer->plan(), sources, 0.0);
        sessions[key] = std::move(s);
        continue;
      }
      if (cmd != "set_delay") continue;
      auto it = sessions.find(str(req, "session"));
      if (it == sessions.end()) continue;
      auto& inc = *it->second.inc;
      const auto& design = it->second.analyzer->design();
      const auto edits = edits_of(req, design);
      const Json* probe = req.find("probe");
      if (probe != nullptr && probe->as_bool()) {
        std::vector<NodeId> targets;
        if (const Json* nodes = req.find("nodes")) {
          for (const Json& n : nodes->as_array()) targets.push_back(design.find(n.as_string()));
        } else {
          targets = design.timing_endpoints();
        }
        const auto t0 = Clock::now();
        const auto result = inc.probe(edits, targets);
        probe_s.push_back(seconds_since(t0));
        cone += static_cast<double>(result.stats.cone_size);
        settled += static_cast<double>(result.stats.settled_early);
      } else {
        const auto t0 = Clock::now();
        inc.begin_eco();
        for (const auto& e : edits) inc.set_delay(e.node, e.delay);
        const auto stats = inc.commit();
        commit_s.push_back(seconds_since(t0));
        cone += static_cast<double>(stats.cone_size);
        commit_cone += static_cast<double>(stats.cone_size);
        settled += static_cast<double>(stats.settled_early);
      }
    }
    if (probe_s.empty()) {
      // No probes in this workload: reference probes of single gates on
      // its largest design, so the layer is always measured.
      Flat& big = largest();
      spsta::core::IncrementalSpsta inc(big.analyzer->plan(), sources, 0.0);
      const auto& design = big.analyzer->design();
      const std::vector<NodeId> targets = design.timing_endpoints();
      for (NodeId id = 0, n = 0; id < design.node_count() && n < 32; id += 97) {
        if (!big.analyzer->plan().combinational(id)) continue;
        const spsta::core::IncrementalSpsta::EcoEdit edit =
            spsta::core::IncrementalSpsta::EcoEdit::delay_edit(id, spsta::stats::Gaussian{1.1, 0.04});
        const auto t0 = Clock::now();
        (void)inc.probe(std::span(&edit, 1), targets);
        probe_s.push_back(seconds_since(t0));
        ++n;
      }
    }
    set("incremental.probe_ms", 1e3 * median(probe_s), "ms");
    set("incremental.commit_ms", 1e3 * median(commit_s), "ms");
    set("incremental.cone_nodes_per_commit",
        commit_s.empty() ? 0.0 : commit_cone / static_cast<double>(commit_s.size()), "nodes");
    set("incremental.settled_early_ratio", cone > 0 ? settled / cone : 0.0, "ratio");
  }

  /// service: the recorded lines through AnalysisService::execute_line in
  /// order (execute time per group), and the JSON and frame codecs over
  /// those requests and their responses.
  void service() {
    spsta::service::AnalysisService svc;
    std::map<std::string, std::vector<double>> exec;
    std::vector<std::string> texts;
    std::vector<std::vector<double>> waveforms;
    for (const auto& [group, line] : lines()) {
      const auto t0 = Clock::now();
      const spsta::service::Response r = svc.execute_line(line);
      exec[group].push_back(seconds_since(t0));
      texts.push_back(line);
      texts.push_back(r.to_line());
      if (const Json* stats = r.body.find("stats")) {
        if (const Json* d = stats->find("density")) {
          std::vector<double> w;
          for (const Json& v : field(*d, "samples").as_array()) w.push_back(v.as_number());
          waveforms.push_back(std::move(w));
        }
      }
    }
    for (const auto& [group, xs] : exec) execute_ms_.set(group, Json(1e3 * median(xs)));

    double bytes = 0, parse_s = 0, dump_s = 0;
    std::vector<Json> docs;
    for (const std::string& t : texts) bytes += static_cast<double>(t.size());
    parse_s = time_median(3, [&] {
      docs.clear();
      for (const std::string& t : texts) docs.push_back(Json::parse(t));
    });
    dump_s = time_median(3, [&] {
      for (const Json& j : docs) (void)j.dump();
    });
    set("service.json_parse_us_per_kb", 1e6 * parse_s / (bytes / 1024.0), "us/KiB");
    set("service.json_dump_us_per_kb", 1e6 * dump_s / (bytes / 1024.0), "us/KiB");

    double frame_bytes = 0;
    const double codec_s = time_median(3, [&] {
      std::string wire;
      for (std::size_t i = 1; i < texts.size(); i += 2) {
        spsta::service::append_frame(wire, spsta::service::FrameKind::Json, texts[i]);
      }
      for (const auto& w : waveforms) spsta::service::append_waveform_frame(wire, w);
      spsta::service::FrameDecoder decoder;
      decoder.feed(wire);
      spsta::service::Frame frame;
      while (decoder.next(frame) == spsta::service::FrameDecoder::Status::Ready) {
        if (frame.kind == spsta::service::FrameKind::Waveform) {
          (void)spsta::service::decode_waveform(frame.payload);
        }
      }
      frame_bytes = static_cast<double>(wire.size());
    });
    set("service.frame_codec_us_per_mb", 1e6 * codec_s / (frame_bytes / (1 << 20)), "us/MiB");
  }

  const Json& spec_;
  Json metrics_ = Json::object();
  Json execute_ms_ = Json::object();
  std::vector<Flat> flats_;
  std::string hbench_;
};

int cmd_layers(const std::string& spec_path, const std::string& out_path) {
  const Json spec = Json::parse(read_file(spec_path));
  write_file(out_path, Layers(spec).run().dump() + "\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: pbtool gen|oracle|layers --key=value...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  std::string workload, out, spec;
  std::uint64_t seed = 1;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* key) -> const char* {
      const std::size_t n = std::strlen(key);
      return arg.compare(0, n, key) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--workload=")) workload = v;
    else if (const char* v = value("--seed=")) seed = std::stoull(v);
    else if (const char* v = value("--out=")) out = v;
    else if (const char* v = value("--spec=")) spec = v;
    else {
      std::fprintf(stderr, "pbtool: unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  try {
    if (cmd == "gen") return cmd_gen(workload, seed, out);
    if (cmd == "oracle") return cmd_oracle(spec, out);
    if (cmd == "layers") return cmd_layers(spec, out);
    if (cmd == "info") {
      std::printf("{\"simd_tier\":\"%s\"}\n", spsta::stats::simd::tier_name());
      return 0;
    }
    std::fprintf(stderr, "pbtool: unknown command '%s'\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pbtool %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
