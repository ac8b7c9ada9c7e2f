// The entk-serve wire protocol: newline-delimited JSON frames.
//
// One request per line, one reply per line. Requests are JSON objects
// with a "verb" member; replies always carry "ok" (true/false) and,
// on failure, a machine-readable "error" code plus a human "reason":
//
//   -> {"verb":"SUBMIT","tenant":"alice","workload":"pattern = bag\n..."}
//   <- {"ok":true,"id":7,"state":"QUEUED"}
//   -> {"verb":"STATUS","id":7}
//   <- {"ok":true,"id":7,"state":"RUNNING","units_done":12,...}
//   -> {"verb":"CANCEL","id":7}
//   -> {"verb":"RESULTS","id":7}
//   -> {"verb":"STATS"}
//   -> {"verb":"SHUTDOWN"}
//
// Error codes: BAD_REQUEST (malformed frame/JSON/fields), REJECTED
// (admission control shed the submission), QUOTA (per-tenant limit),
// NOT_FOUND (unknown workload id), UNAVAILABLE (service shutting
// down). See docs/SERVICE.md for the full spec.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.hpp"
#include "serve/json.hpp"

namespace entk::serve {

/// Hard cap on one request line, newline included. The listener
/// rejects longer lines before parsing (oversized-frame shedding).
inline constexpr std::size_t kMaxLineBytes = 1 << 20;

/// Depth cap handed to the JSON parser for untrusted request frames.
inline constexpr std::size_t kRequestMaxDepth = 16;

enum class Verb {
  kSubmit,
  kStatus,
  kCancel,
  kResults,
  kStats,
  kShutdown,
};

/// One parsed request frame.
struct Request {
  Verb verb = Verb::kStats;
  std::string tenant;    ///< SUBMIT: owning tenant (required).
  std::string name;      ///< SUBMIT: session name (optional).
  std::string workload;  ///< SUBMIT: workload-file text (required).
  std::uint64_t id = 0;  ///< STATUS / CANCEL / RESULTS.
};

/// Parses one request line (without the trailing newline). Every
/// failure is a kInvalidArgument whose message becomes the
/// BAD_REQUEST reason on the wire.
Result<Request> parse_request(std::string_view line);

/// One-line error reply: {"ok":false,"error":CODE,"reason":...}.
std::string error_reply(std::string_view code, std::string_view reason);

/// Maps a service Status to its wire error code (REJECTED, QUOTA,
/// NOT_FOUND, BAD_REQUEST, UNAVAILABLE, INTERNAL).
const char* error_code_for(const Status& status);

/// Serializes a reply body, stamping "ok":true first.
std::string ok_reply(Json body);

}  // namespace entk::serve
