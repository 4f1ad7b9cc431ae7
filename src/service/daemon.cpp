#include "service/daemon.hpp"

#include <istream>
#include <memory>
#include <ostream>
#include <string>

#include "obs/trace.hpp"
#include "service/ordered_writer.hpp"
#include "service/worker_pool.hpp"

namespace spsta::service {

namespace {

/// True when the line holds anything beyond whitespace (blank lines are
/// ignored rather than answered, so interactive use stays pleasant).
bool has_content(const std::string& line) {
  for (const char c : line) {
    if (c != ' ' && c != '\t' && c != '\r') return true;
  }
  return false;
}

}  // namespace

ServeReport serve(std::istream& in, std::ostream& out, AnalysisService& service,
                  const ServeOptions& options) {
  const std::unique_ptr<obs::TraceLog> trace =
      options.trace_path.empty() ? nullptr
                                 : std::make_unique<obs::TraceLog>(options.trace_path);
  // One stream is one client: one shard unless asked for more.
  WorkerPool pool(service,
                  {options.workers == 0 ? 1u : options.workers, options.queue_capacity});
  // From here on only the writer thread touches `out`: untie `in`, or
  // every read would flush `out` from this thread.
  std::ostream* const tied = in.tie(nullptr);
  ServeReport report;
  {
    OrderedWriter writer(
        [&out](std::string_view wire) {
          out.write(wire.data(), static_cast<std::streamsize>(wire.size()));
          out.flush();
          return out.good();
        },
        // At most queue_capacity replies outstanding: a script piped in
        // faster than it runs pauses the reader before any shard queue is
        // full, so none of its requests is shed as `overloaded`.
        /*frames=*/false, pool.queue_capacity(), trace.get());
    // An admitted shutdown closes the pool's admission, so no line after
    // it is read.
    std::string line;
    while (pool.accepting() && std::getline(in, line)) {
      if (!has_content(line)) continue;
      ++report.requests;
      if (!writer.push([&] { return pool.submit(std::move(line)); })) break;
    }
  }  // the writer returns once every reply is written
  in.tie(tied);
  report.shutdown = service.shutdown_requested();
  return report;
}

}  // namespace spsta::service
