#include "robust/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace metacore::robust {

namespace {

class Parser {
 public:
  Parser(const std::string& text, const std::string& what)
      : text_(text), what_(what) {}

  JsonValue parse() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw std::runtime_error(what_ + ": parse error at byte " +
                             std::to_string(pos_) + ": " + msg);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_token(const char* token) {
    const std::size_t len = std::char_traits<char>::length(token);
    if (text_.compare(pos_, len, token) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue v;
        v.type = JsonValue::Type::String;
        v.string = parse_string();
        return v;
      }
      default: break;
    }
    JsonValue v;
    if (consume_token("true")) {
      v.type = JsonValue::Type::Bool;
      v.boolean = true;
      return v;
    }
    if (consume_token("false")) {
      v.type = JsonValue::Type::Bool;
      v.boolean = false;
      return v;
    }
    if (consume_token("null")) return v;
    // Number, including the writer's non-finite tokens.
    v.type = JsonValue::Type::Number;
    if (consume_token("nan")) {
      v.number = std::nan("");
      return v;
    }
    if (consume_token("inf")) {
      v.number = HUGE_VAL;
      return v;
    }
    if (consume_token("-inf")) {
      v.number = -HUGE_VAL;
      return v;
    }
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    v.number = std::strtod(start, &end);
    if (end == start) fail("malformed value");
    pos_ += static_cast<std::size_t>(end - start);
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // The writers only escape control characters, so a single byte
          // suffices; reject anything wider rather than mis-decode it.
          if (code > 0x7F) fail("unsupported \\u escape above 0x7F");
          out += static_cast<char>(code);
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_object() {
    JsonValue v;
    v.type = JsonValue::Type::Object;
    expect('{');
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    JsonValue v;
    v.type = JsonValue::Type::Array;
    expect('[');
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  const std::string& text_;
  const std::string& what_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(const std::string& text, const std::string& what) {
  return Parser(text, what).parse();
}

const JsonValue& require(const JsonValue& obj, const std::string& key,
                         JsonValue::Type type, const std::string& what) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) {
    throw std::runtime_error(what + ": missing field \"" + key + "\"");
  }
  if (v->type != type) {
    throw std::runtime_error(what + ": field \"" + key +
                             "\" has the wrong type");
  }
  return *v;
}

std::size_t require_count(const JsonValue& obj, const std::string& key,
                          const std::string& what) {
  const double n = require(obj, key, JsonValue::Type::Number, what).number;
  if (!(n >= 0.0) || n != std::floor(n)) {
    throw std::runtime_error(what + ": field \"" + key +
                             "\" is not a non-negative integer");
  }
  return static_cast<std::size_t>(n);
}

namespace {

/// Formats `v` as write_double/append_double spell it; returns the end.
char* format_double(char (&buf)[32], double v) {
  if (std::isnan(v)) return std::copy_n("nan", 3, buf);
  if (std::isinf(v)) {
    return v > 0 ? std::copy_n("inf", 3, buf) : std::copy_n("-inf", 4, buf);
  }
  // Specified to produce exactly printf's "%.17g", without the format
  // parsing and locale machinery.
  return std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general,
                       17)
      .ptr;
}

}  // namespace

void write_escaped(std::ostream& os, const std::string& s) {
  thread_local std::string buf;
  buf.clear();
  append_escaped(buf, s);
  os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

void write_double(std::ostream& os, double v) {
  char buf[32];
  os.write(buf, format_double(buf, v) - buf);
}

void append_escaped(std::string& out, std::string_view s) {
  // Runs of bytes that need no escape go out in one append each.
  const char* run = s.data();
  const char* const end = s.data() + s.size();
  const auto flush_until = [&](const char* p) {  // p: the byte to escape
    out.append(run, p);
    run = p + 1;
  };
  out += '"';
  for (const char* p = run; p != end; ++p) {
    const char c = *p;
    switch (c) {
      case '"': flush_until(p); out.append("\\\"", 2); break;
      case '\\': flush_until(p); out.append("\\\\", 2); break;
      case '\n': flush_until(p); out.append("\\n", 2); break;
      case '\r': flush_until(p); out.append("\\r", 2); break;
      case '\t': flush_until(p); out.append("\\t", 2); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          flush_until(p);
          static constexpr char kHex[] = "0123456789abcdef";
          const char esc[6] = {'\\', 'u', '0', '0', kHex[(c >> 4) & 0xF],
                               kHex[c & 0xF]};
          out.append(esc, sizeof(esc));
        }
    }
  }
  out.append(run, end);
  out += '"';
}

void append_double(std::string& out, double v) {
  char buf[32];
  out.append(buf, format_double(buf, v));
}

void append_g17(std::string& out, double v) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v,
                                       std::chars_format::general, 17);
  out.append(buf, end);
}

}  // namespace metacore::robust
