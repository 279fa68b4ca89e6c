// Minimal JSON machinery shared by the persistence and wire layers (the
// evaluation store and design-query service in serve/, the query protocol
// in net/): a recursive-descent reader covering objects, arrays, strings,
// booleans, and numbers — including the bare non-finite tokens inf/-inf/nan,
// a deliberate, documented superset of JSON our own writers emit — plus the
// matching write helpers (escaped strings, round-trip doubles), as
// appenders to a std::string and as ostream writers.
#pragma once

#include <charconv>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace metacore::robust {

struct JsonValue {
  enum class Type { Null, Bool, Number, String, Array, Object };
  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// Object member lookup; nullptr when absent (or not an object).
  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// Parses one complete JSON document. Throws std::runtime_error on
/// malformed input or trailing content; `what` prefixes the error message
/// so callers can attribute failures ("store", "query", ...).
JsonValue parse_json(const std::string& text, const std::string& what);

/// Member access with schema checking: throws std::runtime_error (prefixed
/// with `what`) when `key` is absent or has the wrong type.
const JsonValue& require(const JsonValue& obj, const std::string& key,
                         JsonValue::Type type, const std::string& what);

/// require() for non-negative integer-valued numbers (counters, sizes).
std::size_t require_count(const JsonValue& obj, const std::string& key,
                          const std::string& what);

/// Appends `s` as a JSON string literal, escaping quotes, backslashes, and
/// control characters (other bytes, high bytes included, pass through).
void append_escaped(std::string& out, std::string_view s);

/// Appends a double with round-trip (%.17g) precision; non-finite values
/// use the bare tokens inf/-inf/nan that parse_json reads back (every NaN
/// is "nan", whatever its sign or payload).
void append_double(std::string& out, double v);

/// Appends an integer in decimal, as an ostream writes it.
template <class Int>
void append_int(std::string& out, Int v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/// append_escaped and append_double for ostream writers.
void write_escaped(std::ostream& os, const std::string& s);
void write_double(std::ostream& os, double v);

/// Appends `v` exactly as printf's "%.17g" (and an ostream at precision
/// 17) writes it, non-finite spellings included ("inf", "-nan"): the format
/// of the persisted evaluator fingerprints.
void append_g17(std::string& out, double v);

}  // namespace metacore::robust
