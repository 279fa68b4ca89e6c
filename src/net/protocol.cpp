#include "net/protocol.hpp"

#include <cctype>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "robust/json.hpp"

namespace metacore::net {

namespace {

using robust::JsonValue;

constexpr const char* kWhat = "request";

std::size_t skip_ws(const std::string& s, std::size_t i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  return i;
}

/// Advances past the JSON string whose opening quote is at `i`; returns
/// the index one past the closing quote. Throws on an unterminated string.
std::size_t skip_string(const std::string& s, std::size_t i) {
  ++i;  // opening quote
  while (i < s.size()) {
    if (s[i] == '\\') {
      i += 2;
    } else if (s[i] == '"') {
      return i + 1;
    } else {
      ++i;
    }
  }
  throw std::runtime_error("json scan: unterminated string");
}

/// Advances past one JSON value starting at `i` (object, array, string, or
/// bare literal); returns the index one past its last byte.
std::size_t skip_value(const std::string& s, std::size_t i) {
  i = skip_ws(s, i);
  if (i >= s.size()) throw std::runtime_error("json scan: truncated value");
  const char c = s[i];
  if (c == '"') return skip_string(s, i);
  if (c == '{' || c == '[') {
    int depth = 0;
    while (i < s.size()) {
      const char d = s[i];
      if (d == '"') {
        i = skip_string(s, i);
        continue;
      }
      if (d == '{' || d == '[') ++depth;
      if (d == '}' || d == ']') {
        --depth;
        if (depth == 0) return i + 1;
      }
      ++i;
    }
    throw std::runtime_error("json scan: unbalanced braces");
  }
  // Bare literal (number, true/false/null, inf/nan): runs to the next
  // structural character.
  while (i < s.size() && s[i] != ',' && s[i] != '}' && s[i] != ']' &&
         !std::isspace(static_cast<unsigned char>(s[i]))) {
    ++i;
  }
  return i;
}

}  // namespace

std::string extract_raw_member(const std::string& json,
                               const std::string& key) {
  std::size_t i = skip_ws(json, 0);
  if (i >= json.size() || json[i] != '{') {
    throw std::runtime_error("json scan: document is not an object");
  }
  ++i;
  for (;;) {
    i = skip_ws(json, i);
    if (i < json.size() && json[i] == '}') return "";
    if (i >= json.size() || json[i] != '"') {
      throw std::runtime_error("json scan: expected member key");
    }
    const std::size_t key_start = i + 1;
    i = skip_string(json, i);
    const std::string raw_key =
        json.substr(key_start, i - 1 - key_start);  // raw, escapes kept
    i = skip_ws(json, i);
    if (i >= json.size() || json[i] != ':') {
      throw std::runtime_error("json scan: expected ':' after member key");
    }
    const std::size_t value_start = skip_ws(json, i + 1);
    const std::size_t value_end = skip_value(json, value_start);
    if (raw_key == key) {
      return json.substr(value_start, value_end - value_start);
    }
    i = skip_ws(json, value_end);
    if (i < json.size() && json[i] == ',') {
      ++i;
      continue;
    }
    if (i < json.size() && json[i] == '}') return "";
    throw std::runtime_error("json scan: expected ',' or '}' after member");
  }
}

std::string to_json(const Request& request) {
  std::ostringstream os;
  os << "{\"id\":";
  robust::write_escaped(os, request.id);
  os << ",\"kind\":\""
     << (request.kind == RequestKind::Query
             ? "query"
             : request.kind == RequestKind::Stats ? "stats" : "hello")
     << '"';
  if (request.kind == RequestKind::Query) {
    os << ",\"query\":" << serve::to_json(request.query);
  } else if (request.kind == RequestKind::Hello) {
    os << ",\"wire\":";
    robust::write_escaped(os, request.wire);
  }
  os << '}';
  return os.str();
}

Request parse_request(const std::string& json) {
  const JsonValue doc = robust::parse_json(json, kWhat);
  if (doc.type != JsonValue::Type::Object) {
    throw std::runtime_error(std::string(kWhat) +
                             ": frame must be a JSON object");
  }
  Request request;
  const JsonValue& id = robust::require(doc, "id", JsonValue::Type::String,
                                        kWhat);
  if (id.string.empty()) {
    throw std::runtime_error(std::string(kWhat) +
                             ": 'id' must be a non-empty string");
  }
  if (id.string.size() > kMaxRequestIdBytes) {
    throw std::runtime_error(std::string(kWhat) + ": 'id' exceeds " +
                             std::to_string(kMaxRequestIdBytes) + " bytes");
  }
  request.id = id.string;
  const JsonValue& kind = robust::require(doc, "kind",
                                          JsonValue::Type::String, kWhat);
  if (kind.string == "query") {
    request.kind = RequestKind::Query;
    const JsonValue* query = doc.find("query");
    if (!query || query->type != JsonValue::Type::Object) {
      throw std::runtime_error(
          std::string(kWhat) +
          ": kind \"query\" requires a 'query' object member");
    }
    request.query = serve::parse_design_query(*query);
  } else if (kind.string == "stats") {
    request.kind = RequestKind::Stats;
  } else if (kind.string == "hello") {
    request.kind = RequestKind::Hello;
    const JsonValue& wire = robust::require(doc, "wire",
                                            JsonValue::Type::String, kWhat);
    if (wire.string != "text" && wire.string != "binary") {
      throw std::runtime_error(std::string(kWhat) +
                               ": 'wire' must be \"text\" or \"binary\"");
    }
    request.wire = wire.string;
  } else {
    throw std::runtime_error(
        std::string(kWhat) +
        ": 'kind' must be \"query\", \"stats\", or \"hello\"");
  }
  return request;
}

std::string best_effort_request_id(const std::string& json) {
  try {
    const JsonValue doc = robust::parse_json(json, kWhat);
    const JsonValue* id = doc.find("id");
    if (id && id->type == JsonValue::Type::String &&
        !id->string.empty() && id->string.size() <= kMaxRequestIdBytes) {
      return id->string;
    }
  } catch (...) {
    // Unrecoverable frame: the error response carries an empty id.
  }
  return {};
}

std::optional<QueryFrameSplit> split_query_frame(std::string_view frame) {
  constexpr std::string_view kHead = "{\"id\":\"";
  constexpr std::string_view kMiddle = "\",\"kind\":\"query\",\"query\":";
  if (!frame.starts_with(kHead) || !frame.ends_with('}')) return std::nullopt;
  // The id runs to the first quote or backslash, looked for no further
  // than one byte past the longest id allowed.
  const std::size_t id_end =
      frame.substr(0, kHead.size() + kMaxRequestIdBytes + 1)
          .find_first_of("\"\\", kHead.size());
  if (id_end == std::string_view::npos || frame[id_end] != '"') {
    return std::nullopt;
  }
  const std::size_t id_size = id_end - kHead.size();
  if (id_size == 0 || id_size > kMaxRequestIdBytes) return std::nullopt;
  if (frame.substr(id_end).substr(0, kMiddle.size()) != kMiddle) {
    return std::nullopt;
  }
  // kMiddle ends in ':' and the frame in '}', so the rest is well-defined
  // (possibly empty).
  const std::size_t rest_begin = id_end + kMiddle.size();
  return QueryFrameSplit{
      frame.substr(kHead.size(), id_size),
      frame.substr(rest_begin, frame.size() - 1 - rest_begin)};
}

namespace {

std::string envelope_prefix(const std::string& id, const char* status) {
  std::ostringstream os;
  os << "{\"id\":";
  robust::write_escaped(os, id);
  os << ",\"status\":\"" << status << '"';
  return os.str();
}

}  // namespace

std::string make_design_response(const std::string& id,
                                 const std::string& response_json) {
  return envelope_prefix(id, "ok") + ",\"response\":" + response_json + "}";
}

std::string make_stats_response(const std::string& id,
                                const std::string& stats_json) {
  return envelope_prefix(id, "ok") + ",\"stats\":" + stats_json + "}";
}

std::string make_rejected_response(const std::string& id,
                                   const std::string& reason,
                                   std::size_t queue_depth) {
  std::ostringstream os;
  os << envelope_prefix(id, "rejected") << ",\"reason\":";
  robust::write_escaped(os, reason);
  os << ",\"queue_depth\":" << queue_depth << '}';
  return os.str();
}

std::string make_error_response(const std::string& id,
                                const std::string& message) {
  std::ostringstream os;
  os << envelope_prefix(id, "error") << ",\"error\":";
  robust::write_escaped(os, message);
  os << '}';
  return os.str();
}

std::string make_hello_response(const std::string& id,
                                const std::string& wire) {
  std::ostringstream os;
  os << envelope_prefix(id, "ok") << ",\"wire\":";
  robust::write_escaped(os, wire);
  os << '}';
  return os.str();
}

WireResponse parse_wire_response(const std::string& json) {
  constexpr const char* what = "response";
  const JsonValue doc = robust::parse_json(json, what);
  if (doc.type != JsonValue::Type::Object) {
    throw std::runtime_error(std::string(what) +
                             ": frame must be a JSON object");
  }
  WireResponse response;
  response.id =
      robust::require(doc, "id", JsonValue::Type::String, what).string;
  response.status =
      robust::require(doc, "status", JsonValue::Type::String, what).string;
  if (response.status != "ok" && response.status != "rejected" &&
      response.status != "error") {
    throw std::runtime_error(std::string(what) + ": unknown status '" +
                             response.status + "'");
  }
  if (const JsonValue* reason = doc.find("reason")) {
    if (reason->type == JsonValue::Type::String) {
      response.reason = reason->string;
    }
  }
  if (const JsonValue* error = doc.find("error")) {
    if (error->type == JsonValue::Type::String) response.reason = error->string;
  }
  if (const JsonValue* depth = doc.find("queue_depth")) {
    if (depth->type == JsonValue::Type::Number && depth->number >= 0) {
      response.queue_depth = static_cast<std::size_t>(depth->number);
    }
  }
  if (const JsonValue* wire = doc.find("wire")) {
    if (wire->type == JsonValue::Type::String) response.wire = wire->string;
  }
  response.response_json = extract_raw_member(json, "response");
  response.stats_json = extract_raw_member(json, "stats");
  return response;
}

namespace {

using serve::bincode::Reader;

constexpr std::uint8_t kBinKindQuery = 0;
constexpr std::uint8_t kBinKindStats = 1;

constexpr std::uint8_t kBinStatusResponse = 0;
constexpr std::uint8_t kBinStatusStats = 1;
constexpr std::uint8_t kBinStatusRejected = 2;
constexpr std::uint8_t kBinStatusError = 3;

/// Shared prefix of every binary envelope: version byte, tag byte, id.
std::string binary_envelope_prefix(std::uint8_t tag, const std::string& id) {
  std::string out;
  serve::bincode::put_u8(out, serve::kBinaryCodecVersion);
  serve::bincode::put_u8(out, tag);
  serve::bincode::put_string(out, id);
  return out;
}

/// Reads and validates the version + tag + id prefix of an envelope.
std::pair<std::uint8_t, std::string> read_binary_prefix(Reader& r) {
  const std::uint8_t version = r.u8();
  if (version != serve::kBinaryCodecVersion) {
    r.fail("unsupported binary envelope version " + std::to_string(version));
  }
  const std::uint8_t tag = r.u8();
  std::string id = r.string();
  return {tag, std::move(id)};
}

}  // namespace

std::string encode_binary_request(const Request& request) {
  if (request.kind == RequestKind::Hello) {
    throw std::logic_error("hello is negotiated in text mode only");
  }
  std::string out = binary_envelope_prefix(
      request.kind == RequestKind::Query ? kBinKindQuery : kBinKindStats,
      request.id);
  if (request.kind == RequestKind::Query) {
    out += serve::encode_binary(request.query);
  }
  return out;
}

Request decode_binary_request(std::string_view bytes) {
  Reader r{bytes, "binary request"};
  auto [kind, id] = read_binary_prefix(r);
  if (id.empty()) r.fail("'id' must be a non-empty string");
  if (id.size() > kMaxRequestIdBytes) {
    r.fail("'id' exceeds " + std::to_string(kMaxRequestIdBytes) + " bytes");
  }
  Request request;
  request.id = std::move(id);
  if (kind == kBinKindQuery) {
    request.kind = RequestKind::Query;
    request.query =
        serve::decode_design_query(bytes.substr(r.pos));
  } else if (kind == kBinKindStats) {
    request.kind = RequestKind::Stats;
    if (!r.done()) r.fail("trailing bytes after a stats request");
  } else {
    r.fail("unknown request kind " + std::to_string(kind));
  }
  return request;
}

std::string best_effort_binary_request_id(std::string_view bytes) {
  try {
    Reader r{bytes, "binary request"};
    auto [kind, id] = read_binary_prefix(r);
    (void)kind;
    if (!id.empty() && id.size() <= kMaxRequestIdBytes) return id;
  } catch (...) {
    // Unrecoverable frame: the error response carries an empty id.
  }
  return {};
}

std::string make_binary_design_response(const std::string& id,
                                        std::string_view response_bytes) {
  std::string out = binary_envelope_prefix(kBinStatusResponse, id);
  out.append(response_bytes.data(), response_bytes.size());
  return out;
}

std::string make_binary_stats_response(const std::string& id,
                                       const std::string& stats_json) {
  std::string out = binary_envelope_prefix(kBinStatusStats, id);
  serve::bincode::put_string(out, stats_json);
  return out;
}

std::string make_binary_rejected_response(const std::string& id,
                                          const std::string& reason,
                                          std::size_t queue_depth) {
  std::string out = binary_envelope_prefix(kBinStatusRejected, id);
  serve::bincode::put_string(out, reason);
  serve::bincode::put_varint(out, queue_depth);
  return out;
}

std::string make_binary_error_response(const std::string& id,
                                       const std::string& message) {
  std::string out = binary_envelope_prefix(kBinStatusError, id);
  serve::bincode::put_string(out, message);
  return out;
}

WireResponse parse_binary_wire_response(std::string_view bytes) {
  Reader r{bytes, "binary response"};
  auto [status, id] = read_binary_prefix(r);
  WireResponse response;
  response.id = std::move(id);
  switch (status) {
    case kBinStatusResponse: {
      response.status = "ok";
      const serve::DesignResponse decoded =
          serve::decode_design_response(bytes.substr(r.pos));
      response.response_json = serve::to_json(decoded);
      return response;
    }
    case kBinStatusStats:
      response.status = "ok";
      response.stats_json = r.string();
      break;
    case kBinStatusRejected:
      response.status = "rejected";
      response.reason = r.string();
      response.queue_depth = static_cast<std::size_t>(r.varint());
      break;
    case kBinStatusError:
      response.status = "error";
      response.reason = r.string();
      break;
    default:
      r.fail("unknown response status " + std::to_string(status));
  }
  if (!r.done()) r.fail("trailing bytes after the envelope");
  return response;
}

}  // namespace metacore::net
