#include "serve/binary_codec.hpp"

#include <cstring>
#include <map>
#include <stdexcept>
#include <vector>

namespace metacore::serve {

namespace bincode {

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80u) {
    out.push_back(static_cast<char>((v & 0x7Fu) | 0x80u));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

void put_zigzag(std::string& out, std::int64_t v) {
  put_varint(out, (static_cast<std::uint64_t>(v) << 1) ^
                      static_cast<std::uint64_t>(v >> 63));
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  // Packed: drop low-order zero bytes of the bit image and lead with the
  // count of bytes kept. Quantized grid values (0.5, 3.0, ...) have
  // all-zero mantissa tails and pack to 2-3 bytes; a full-entropy double
  // costs one extra byte. Bit-exact either way, NaN payloads included.
  int zeros = 0;
  while (zeros < 8 && ((bits >> (8 * zeros)) & 0xFFu) == 0) ++zeros;
  put_u8(out, static_cast<std::uint8_t>(8 - zeros));
  for (int i = zeros; i < 8; ++i) {
    out.push_back(static_cast<char>((bits >> (8 * i)) & 0xFFu));
  }
}

void put_string(std::string& out, std::string_view s) {
  put_varint(out, s.size());
  out.append(s);
}

void Reader::fail(const std::string& message) const {
  throw std::runtime_error(std::string(what) + ": " + message);
}

void Reader::need(std::size_t n) const {
  if (remaining() < n) fail("truncated document");
}

std::uint8_t Reader::u8() {
  need(1);
  return static_cast<std::uint8_t>(data[pos++]);
}

std::uint64_t Reader::varint() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const std::uint8_t byte = u8();
    v |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0) return v;
  }
  fail("varint too long");
}

std::int64_t Reader::zigzag() {
  const std::uint64_t v = varint();
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1u) + 1u));
}

double Reader::f64() {
  const std::uint8_t n = u8();
  if (n > 8) fail("bad packed-f64 length");
  need(n);
  std::uint64_t bits = 0;
  for (std::uint8_t i = 0; i < n; ++i) {
    bits |= static_cast<std::uint64_t>(
                static_cast<std::uint8_t>(data[pos + i]))
            << (8 * (8 - n + i));
  }
  pos += n;
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string Reader::string() {
  const std::uint64_t n = varint();
  need(n);
  std::string s(data.substr(pos, n));
  pos += n;
  return s;
}

}  // namespace bincode

namespace {

using bincode::Reader;

constexpr const char* kQueryWhat = "binary query";
constexpr const char* kResponseWhat = "binary response";

// Grid indices are small non-negative integers in practice, so zigzag
// varints encode most of them in one byte where a fixed i32 spends four.
void put_i32_array(std::string& out, const std::vector<int>& v) {
  bincode::put_varint(out, v.size());
  for (const int x : v) bincode::put_zigzag(out, x);
}

std::vector<int> get_i32_array(Reader& r) {
  const std::uint64_t n = r.varint();
  r.need(n);  // each element consumes >= 1 byte
  std::vector<int> v(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    v[i] = static_cast<int>(r.zigzag());
  }
  return v;
}

void put_f64_array(std::string& out, const std::vector<double>& v) {
  bincode::put_varint(out, v.size());
  for (const double x : v) bincode::put_f64(out, x);
}

std::vector<double> get_f64_array(Reader& r) {
  const std::uint64_t n = r.varint();
  r.need(n);  // each packed f64 consumes >= 1 byte
  std::vector<double> v(n);
  for (std::uint64_t i = 0; i < n; ++i) v[i] = r.f64();
  return v;
}

/// Deduplicating string table for the per-point repeated strings (metric
/// names, failure reasons). Built in deterministic traversal order so equal
/// responses encode to equal bytes.
struct StringTable {
  std::vector<std::string_view> entries;
  std::map<std::string_view, std::uint64_t> index;

  std::uint64_t intern(std::string_view s) {
    auto [it, inserted] = index.emplace(s, entries.size());
    if (inserted) entries.push_back(s);
    return it->second;
  }
};

void collect_point_strings(const search::EvaluatedPoint& pt,
                           StringTable& table) {
  table.intern(pt.eval.failure_reason);
  for (const auto& [name, value] : pt.eval.metrics) table.intern(name);
}

void put_point(std::string& out, const search::EvaluatedPoint& pt,
               StringTable& table) {
  put_i32_array(out, pt.indices);
  put_f64_array(out, pt.values);
  bincode::put_zigzag(out, pt.fidelity);
  bincode::put_u8(out, pt.eval.feasible ? 1 : 0);
  bincode::put_f64(out, pt.eval.confidence_weight);
  bincode::put_varint(out, table.intern(pt.eval.failure_reason));
  bincode::put_varint(out, pt.eval.metrics.size());
  for (const auto& [name, value] : pt.eval.metrics) {
    bincode::put_varint(out, table.intern(name));
    bincode::put_f64(out, value);
  }
}

search::EvaluatedPoint get_point(Reader& r,
                                 const std::vector<std::string>& table) {
  const auto lookup = [&](std::uint64_t idx) -> const std::string& {
    if (idx >= table.size()) r.fail("string-table index out of range");
    return table[idx];
  };
  search::EvaluatedPoint pt;
  pt.indices = get_i32_array(r);
  pt.values = get_f64_array(r);
  pt.fidelity = static_cast<int>(r.zigzag());
  pt.eval.feasible = r.u8() != 0;
  pt.eval.confidence_weight = r.f64();
  pt.eval.failure_reason = lookup(r.varint());
  const std::uint64_t n_metrics = r.varint();
  r.need(n_metrics);  // each metric consumes >= 2 bytes
  search::MetricMap::container_type metrics;
  metrics.reserve(n_metrics);
  for (std::uint64_t i = 0; i < n_metrics; ++i) {
    const std::string& name = lookup(r.varint());
    metrics.emplace_back(name, r.f64());
  }
  // A repeated name keeps its first value (the encoder never repeats one).
  pt.eval.metrics = search::MetricMap::build(
      std::move(metrics), search::MetricMap::Duplicates::KeepFirst);
  return pt;
}

void check_version(Reader& r) {
  const std::uint8_t version = r.u8();
  if (version != kBinaryCodecVersion) {
    r.fail("unsupported codec version " + std::to_string(version));
  }
}

}  // namespace

std::string encode_binary(const DesignQuery& query) {
  std::string out;
  bincode::put_u8(out, kBinaryCodecVersion);
  bincode::put_u8(out, query.kind == QueryKind::Viterbi ? 0 : 1);
  bincode::put_f64(out, query.target_ber);
  bincode::put_f64(out, query.esn0_db);
  bincode::put_f64(out, query.throughput_mbps);
  bincode::put_f64(out, query.sample_period_us);
  bincode::put_zigzag(out, query.ber_shards);
  bincode::put_zigzag(out, query.ber_lanes);
  bincode::put_zigzag(out, query.budget.initial_points_per_dim);
  bincode::put_zigzag(out, query.budget.max_resolution);
  bincode::put_zigzag(out, query.budget.regions_per_level);
  bincode::put_varint(out, query.budget.max_evaluations);
  bincode::put_string(out, query.minimize);
  bincode::put_varint(out, query.constraints.size());
  for (const search::Constraint& c : query.constraints) {
    bincode::put_u8(
        out, c.kind == search::Constraint::Kind::UpperBound ? 0 : 1);
    bincode::put_string(out, c.metric);
    bincode::put_f64(out, c.bound);
  }
  bincode::put_u8(out, query.archive_only ? 1 : 0);
  return out;
}

DesignQuery decode_design_query(std::string_view bytes) {
  Reader r{bytes, kQueryWhat};
  check_version(r);
  DesignQuery query;
  const std::uint8_t kind = r.u8();
  if (kind > 1) r.fail("unknown query kind tag");
  query.kind = kind == 0 ? QueryKind::Viterbi : QueryKind::Iir;
  query.target_ber = r.f64();
  query.esn0_db = r.f64();
  query.throughput_mbps = r.f64();
  query.sample_period_us = r.f64();
  query.ber_shards = static_cast<int>(r.zigzag());
  query.ber_lanes = static_cast<int>(r.zigzag());
  query.budget.initial_points_per_dim = static_cast<int>(r.zigzag());
  query.budget.max_resolution = static_cast<int>(r.zigzag());
  query.budget.regions_per_level = static_cast<int>(r.zigzag());
  query.budget.max_evaluations = static_cast<std::size_t>(r.varint());
  query.minimize = r.string();
  const std::uint64_t n_constraints = r.varint();
  r.need(n_constraints);  // each constraint consumes >= 3 bytes
  for (std::uint64_t i = 0; i < n_constraints; ++i) {
    search::Constraint c;
    const std::uint8_t ckind = r.u8();
    if (ckind > 1) r.fail("unknown constraint kind tag");
    c.kind = ckind == 0 ? search::Constraint::Kind::UpperBound
                        : search::Constraint::Kind::LowerBound;
    c.metric = r.string();
    c.bound = r.f64();
    query.constraints.push_back(std::move(c));
  }
  query.archive_only = r.u8() != 0;
  if (!r.done()) r.fail("trailing bytes after document");
  return query;
}

std::string encode_binary(const DesignResponse& response) {
  // Pass 1: intern the per-point strings in traversal order (best first,
  // then the front) so the table is deterministic.
  StringTable table;
  collect_point_strings(response.best, table);
  for (const search::EvaluatedPoint& pt : response.front) {
    collect_point_strings(pt, table);
  }

  std::string out;
  bincode::put_u8(out, kBinaryCodecVersion);
  bincode::put_varint(out, table.entries.size());
  for (const std::string_view s : table.entries) bincode::put_string(out, s);
  bincode::put_u8(out, static_cast<std::uint8_t>(
                           (response.feasible ? 1u : 0u) |
                           (response.from_archive ? 2u : 0u) |
                           (response.store_degraded ? 4u : 0u)));
  bincode::put_varint(out, response.evaluations);
  bincode::put_varint(out, response.cache_hits);
  bincode::put_varint(out, response.store_hits);
  bincode::put_varint(out, response.divergent_duplicates);
  bincode::put_string(out, response.front_x);
  bincode::put_string(out, response.front_y);
  put_point(out, response.best, table);
  bincode::put_varint(out, response.front.size());
  for (const search::EvaluatedPoint& pt : response.front) {
    put_point(out, pt, table);
  }
  bincode::put_string(out, response.summary);
  return out;
}

DesignResponse decode_design_response(std::string_view bytes) {
  Reader r{bytes, kResponseWhat};
  check_version(r);
  const std::uint64_t n_strings = r.varint();
  r.need(n_strings);  // each table entry consumes >= 1 byte
  std::vector<std::string> table;
  table.reserve(n_strings);
  for (std::uint64_t i = 0; i < n_strings; ++i) table.push_back(r.string());

  DesignResponse response;
  const std::uint8_t flags = r.u8();
  response.feasible = (flags & 1u) != 0;
  response.from_archive = (flags & 2u) != 0;
  response.store_degraded = (flags & 4u) != 0;
  response.evaluations = static_cast<std::size_t>(r.varint());
  response.cache_hits = static_cast<std::size_t>(r.varint());
  response.store_hits = static_cast<std::size_t>(r.varint());
  response.divergent_duplicates = static_cast<std::size_t>(r.varint());
  response.front_x = r.string();
  response.front_y = r.string();
  response.best = get_point(r, table);
  const std::uint64_t n_front = r.varint();
  r.need(n_front);  // each point consumes >= 7 bytes
  response.front.reserve(n_front);
  for (std::uint64_t i = 0; i < n_front; ++i) {
    response.front.push_back(get_point(r, table));
  }
  response.summary = r.string();
  if (!r.done()) r.fail("trailing bytes after document");
  return response;
}

}  // namespace metacore::serve
