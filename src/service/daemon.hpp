/// \file daemon.hpp
/// The JSON-lines serve loop shared by `spsta_serviced` (over real
/// stdin/stdout) and the in-process client / tests (over string streams).
///
/// Reads one request per line, submits it to a WorkerPool and pushes the
/// reply-to-be into an OrderedWriter, which writes one response line per
/// request, in request order, as each completes — the same runtime the
/// socket transport uses. Returns after a `shutdown` request (no later
/// line is read) or at end of input, once every reply is written. No
/// input can make it throw.

#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "service/service.hpp"

namespace spsta::service {

/// The runtime settings every transport shares (the socket server's
/// options embed one).
struct ServeOptions {
  /// When non-empty, append one JSON trace line per served request
  /// (trace_id, cmd, ok, queue/execute/serialize ms) to this file.
  std::string trace_path{};

  /// Worker shards (DESIGN.md §13). 0 picks the transport's default: one
  /// on stdio, where one stream is one client and every request then runs
  /// in arrival order; one per hardware thread on sockets. More shards run
  /// requests on different designs concurrently; requests on one design
  /// stay FIFO through affinity routing.
  unsigned workers = 0;
  /// Per-shard queue bound. A full queue sheds socket requests with
  /// `overloaded`; the stdio loop pauses reading before it fills one.
  std::size_t queue_capacity = 256;
};

struct ServeReport {
  std::uint64_t requests = 0;
  bool shutdown = false;  ///< true when stopped by a shutdown request
};

/// Serves requests from \p in to \p out until shutdown or EOF.
ServeReport serve(std::istream& in, std::ostream& out, AnalysisService& service,
                  const ServeOptions& options = {});

}  // namespace spsta::service
