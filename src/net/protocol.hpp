// Request/response envelopes for the networked design-query protocol.
//
// Every frame on the wire is one JSON object (until binary mode is
// negotiated — see below). Client → server:
//
//   {"id":"r0","kind":"hello","wire":"binary"}
//   {"id":"r1","kind":"query","query":{...DesignQuery...}}
//   {"id":"r2","kind":"stats"}
//
// `id` is a client-chosen tag (non-empty string, <= 256 bytes) echoed back
// verbatim on the response, so any number of requests may be in flight on
// one connection and answered out of order. Server → client:
//
//   {"id":"r1","status":"ok","response":{...DesignResponse...}}
//   {"id":"r2","status":"ok","stats":{...server stats snapshot...}}
//   {"id":"r3","status":"rejected","reason":"overloaded","queue_depth":N}
//   {"id":"" ,"status":"error","error":"<descriptive message>"}
//
// A "rejected" status is backpressure, not failure: the query was well-
// formed but the server declined to queue it (reason "overloaded" when the
// pending-query quota is full, "draining" during graceful shutdown) — the
// client may retry later. An "error" status means the frame itself was
// unusable; when the id could not be recovered from the broken frame it is
// the empty string.
//
// The payload members ("response"/"stats") are spliced into the envelope
// as raw pre-serialized JSON and can be extracted back *byte-exactly* with
// extract_raw_member — so a response that crossed the wire compares
// byte-identical against serve::to_json of an in-process answer.
//
// Wire-mode negotiation: a client that wants the MCB1 binary mode sends
// `{"id":..,"kind":"hello","wire":"binary"}` as the FIRST request on the
// connection (a hello after any query/stats request is an error). The
// server answers in text with `{"id":..,"status":"ok","wire":"binary"}`
// when it accepts (both sides then switch: each sends the 4-byte "MCB1"
// stream preamble once, and every subsequent frame is a
// robust::frame_record carrying a binary envelope), or with
// `"wire":"text"` when binary is disabled — the connection simply stays
// in text mode, so a binary-capable client talking to a text-only server
// degrades transparently. A text client never sends hello and is
// unaffected.
//
// Binary envelopes (encode_binary_request / parse_binary_wire_response)
// carry the same information as the JSON ones: a version byte, a kind or
// status byte, the id, and the payload — a serve/binary_codec document
// for queries and responses, the stats JSON text for stats (stats are a
// diagnostic surface, not a hot path). The response body is a contiguous
// suffix of the envelope, so the server splices pre-encoded (and cached)
// response bytes straight into the frame.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "serve/binary_codec.hpp"
#include "serve/service.hpp"

namespace metacore::net {

/// Upper bound on request-id length; longer ids are a malformed request.
inline constexpr std::size_t kMaxRequestIdBytes = 256;

enum class RequestKind : int { Query = 0, Stats = 1, Hello = 2 };

struct Request {
  std::string id;
  RequestKind kind = RequestKind::Query;
  serve::DesignQuery query;  ///< meaningful only when kind == Query
  std::string wire;          ///< requested mode ("text"/"binary"), Hello only
};

/// Canonical encoding (stable field order, round-trip doubles).
std::string to_json(const Request& request);

/// Parses and validates one request frame. Throws std::runtime_error with
/// a descriptive message on malformed JSON, a missing/over-long/empty id,
/// an unknown kind, or a missing/invalid query document.
Request parse_request(const std::string& json);

/// Best-effort id recovery from a frame that failed parse_request, so the
/// error response can still be correlated; "" when unrecoverable.
std::string best_effort_request_id(const std::string& json);

/// The two parts of a text query frame in the exact layout to_json(Request)
/// writes: {"id":"<id>","kind":"query","query":<rest>}.
struct QueryFrameSplit {
  std::string_view id;    ///< 1..kMaxRequestIdBytes bytes, no '"' or '\\'
  std::string_view rest;  ///< everything between "query": and the final '}'
};

/// Splits `frame` when it has exactly that layout: no whitespace, members
/// in that order, an id without escapes that parse_request would accept,
/// and '}' as the last byte. Anything else is nullopt (the frame is not
/// judged, only not split). For a split frame, whether parse_request
/// succeeds and the query it yields depend on `rest` alone, and the
/// request id is `id` verbatim: the prefix is fixed, valid JSON, and
/// members after the first "id"/"kind"/"query" are never read.
std::optional<QueryFrameSplit> split_query_frame(std::string_view frame);

/// Response-envelope builders (see the grammar above).
std::string make_design_response(const std::string& id,
                                 const std::string& response_json);
std::string make_stats_response(const std::string& id,
                                const std::string& stats_json);
std::string make_rejected_response(const std::string& id,
                                   const std::string& reason,
                                   std::size_t queue_depth);
std::string make_error_response(const std::string& id,
                                const std::string& message);
/// The text reply to a hello: {"id":..,"status":"ok","wire":"binary"|"text"}.
std::string make_hello_response(const std::string& id,
                                const std::string& wire);

/// One parsed server → client envelope.
struct WireResponse {
  std::string id;
  std::string status;  ///< "ok" | "rejected" | "error"
  std::string reason;  ///< rejection reason or error message; "" when ok
  std::size_t queue_depth = 0;  ///< populated on "rejected"
  /// Raw JSON text of the "response" member, byte-exact as serialized by
  /// the server; "" when the envelope carried none. For a binary envelope
  /// this is the decoded DesignResponse re-serialized through the
  /// canonical writer — byte-identical to the text-mode answer, which is
  /// how the lossless-round-trip pin works.
  std::string response_json;
  /// Raw JSON text of the "stats" member; "" when absent.
  std::string stats_json;
  /// The "wire" member of a hello reply; "" otherwise.
  std::string wire;

  bool ok() const noexcept { return status == "ok"; }
  bool rejected() const noexcept { return status == "rejected"; }
};

WireResponse parse_wire_response(const std::string& json);

// --- MCB1 binary envelopes (negotiated mode) -----------------------------
//
// Request:  version u8, kind u8 (0 = query, 1 = stats), id string,
//           [DesignQuery document] (kind 0 only, runs to the end).
// Response: version u8, status u8 (0 = ok+response, 1 = ok+stats,
//           2 = rejected, 3 = error), id string, then per status:
//           0 → DesignResponse document (contiguous suffix — spliceable),
//           1 → stats JSON string, 2 → reason string + queue-depth varint,
//           3 → message string.

std::string encode_binary_request(const Request& request);
/// Throws std::runtime_error (descriptive) on malformed bytes, a bad
/// version, an unknown kind, an invalid id, or a broken query document.
Request decode_binary_request(std::string_view bytes);

/// Best-effort id recovery from a binary frame that failed
/// decode_binary_request; "" when unrecoverable.
std::string best_effort_binary_request_id(std::string_view bytes);

/// Binary response-envelope builders; `response_bytes` is a pre-encoded
/// serve::encode_binary(DesignResponse) document appended verbatim.
std::string make_binary_design_response(const std::string& id,
                                        std::string_view response_bytes);
std::string make_binary_stats_response(const std::string& id,
                                       const std::string& stats_json);
std::string make_binary_rejected_response(const std::string& id,
                                          const std::string& reason,
                                          std::size_t queue_depth);
std::string make_binary_error_response(const std::string& id,
                                       const std::string& message);

/// Decodes a binary envelope into the same WireResponse shape as text
/// mode: an ok+response envelope has its body decoded and re-serialized
/// into `response_json` via the canonical writer.
WireResponse parse_binary_wire_response(std::string_view bytes);

/// Returns the raw text of top-level member `key` in JSON object `json`
/// (exactly the bytes of its value, braces to braces), or "" when absent.
/// Tracks strings/escapes, so brace characters inside string values do not
/// confuse it. Throws std::runtime_error when `json` is not an object.
std::string extract_raw_member(const std::string& json,
                               const std::string& key);

}  // namespace metacore::net
