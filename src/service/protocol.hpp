/// \file protocol.hpp
/// The JSON-lines request/response protocol of the analysis service.
///
/// One request per line, one response line per request, always in request
/// order. A request is a JSON object:
///
///   {"id": 7, "cmd": "analyze", "session": "9f..", "engine": "ssta",
///    "params": {"threads": 4}, "deadline_ms": 250}
///
/// `id` (number or string) is echoed verbatim; `deadline_ms` is a
/// relative deadline from enqueue, enforced by the worker pool.
/// Responses are {"id":..,"ok":true,"result":{..}} or
/// {"id":..,"ok":false,"error":{"code":"..","message":".."}} — a
/// malformed request yields an error response, never a dead daemon.
///
/// Commands: ping, load, analyze, query, set_delay, set_source, stats,
/// unload, shutdown (DESIGN.md §9 has the full grammar).

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "service/json.hpp"

namespace spsta::service {

/// Structured error categories of the protocol.
enum class ErrorCode {
  ParseError,        ///< line is not a valid JSON object
  BadRequest,        ///< object lacks a usable cmd / malformed envelope
  UnknownCommand,    ///< cmd is not in the table
  UnknownSession,    ///< session key not loaded
  UnknownNode,       ///< node name / id not in the design
  UnknownEngine,     ///< engine name not in the table
  BadParams,         ///< command parameters missing or out of range
  DeadlineExceeded,  ///< request expired before execution
  Overloaded,        ///< admission control shed the request (retry later)
  IoError,           ///< file could not be read
  InternalError,     ///< unexpected exception (caught, daemon stays up)
};

/// Hard cap on one request line. A longer line is answered with a
/// structured bad_request instead of being parsed — backpressure against
/// a runaway (or hostile) client long before the JSON parser allocates.
/// Generous: inline `text` netlist payloads of every supported circuit
/// size fit with orders of magnitude to spare.
inline constexpr std::size_t kMaxRequestBytes = 8u << 20;

/// Wire name of an error code (e.g. "unknown_session").
[[nodiscard]] std::string_view to_string(ErrorCode code) noexcept;

/// A parsed request envelope. `body` is the full request object; command
/// handlers read their parameters from it.
struct Request {
  Json id;                  ///< null when the client sent none
  std::string cmd;
  Json body;                ///< the whole request object
  double deadline_ms = -1;  ///< relative deadline; < 0 means none
  /// Deadline origin. parse_request stamps "now"; the worker pool
  /// overwrites it with the wire-arrival time so queue wait counts against
  /// the deadline.
  std::chrono::steady_clock::time_point enqueued = std::chrono::steady_clock::now();
  /// True when the request arrived on a binary-frame connection
  /// (DESIGN.md §15): handlers may move bulk f64 payloads into
  /// Response::waveforms instead of inlining them as JSON arrays. Set by
  /// the socket transport only; the stdio path leaves it false.
  bool binary_frames = false;

  /// Milliseconds since `enqueued`.
  [[nodiscard]] double age_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - enqueued)
        .count();
  }
  /// True when the deadline has lapsed. Checked at dequeue AND re-checked
  /// by heavy handlers after they acquire the session mutex: a request that
  /// sat behind same-session contention is shed, not silently run late.
  [[nodiscard]] bool expired() const {
    return deadline_ms >= 0 && age_ms() > deadline_ms;
  }
};

/// Per-request observability span, filled by the worker pool. Not
/// part of any cache key — purely descriptive, never result-affecting.
struct RequestSpan {
  std::uint64_t trace_id = 0;  ///< 0 = unassigned (direct execute path)
  std::string cmd;             ///< command ("" for envelope errors)
  double queue_ms = 0.0;       ///< enqueue -> execution start
  double execute_ms = 0.0;     ///< handler wall-clock
};

/// One response line.
struct Response {
  Json id;
  bool ok = false;
  Json body;  ///< result object (ok) or error object (!ok)
  RequestSpan span;  ///< tracing metadata (trace_id echoed on the wire)
  /// Bulk f64 sidecars for binary-frame connections: filled only when the
  /// producing request had binary_frames set. The body then carries
  /// `"waveform_frames": N` and each entry is shipped as one WAVEFORM
  /// frame right after the JSON response frame, in order. Always empty on
  /// the JSON-lines path (to_line() does not serialize sidecars).
  std::vector<std::vector<double>> waveforms;

  [[nodiscard]] static Response success(Json id, Json result);
  [[nodiscard]] static Response failure(Json id, ErrorCode code, std::string message);

  /// The response as one JSON line (no trailing newline). When the span
  /// carries a trace id it is echoed as `"trace_id":"t-<n>"`. A non-finite
  /// number anywhere in the body degrades to a structured internal_error
  /// line — never an invalid document, never a fake zero.
  [[nodiscard]] std::string to_line() const;
  /// Error code of a failure response ("" for successes).
  [[nodiscard]] std::string_view error_code() const;
};

/// Parses one request line. Returns the Request, or a ready error
/// Response when the line is not a valid request envelope (invalid JSON,
/// not an object, missing/empty cmd, bad id or deadline type).
[[nodiscard]] std::variant<Request, Response> parse_request(std::string_view line);

}  // namespace spsta::service
