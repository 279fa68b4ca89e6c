#include "serve/store.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <compare>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <ranges>
#include <set>
#include <span>
#include <stdexcept>
#include <utility>

#include "robust/failpoint.hpp"
#include "robust/json.hpp"

namespace metacore::serve {

namespace {

constexpr const char* kKind = "metacore-evaluation-store";
constexpr const char* kWhat = "store";
constexpr std::size_t kMaxSkipReasons = 100;

void note_skip(StoreStats& stats, std::string reason) {
  ++stats.skipped_records;
  if (stats.skip_reasons.size() < kMaxSkipReasons) {
    stats.skip_reasons.push_back(std::move(reason));
  } else if (stats.skip_reasons.size() == kMaxSkipReasons) {
    stats.skip_reasons.push_back("(further skip reasons elided)");
  }
}

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// A sorted metric-name list, shared by every record that reports exactly
/// these names (most of one evaluator's evaluations do).
using MetricNames = std::vector<std::string>;

/// The interned list equal to `names`. Lists live for the process (one per
/// distinct name set ever stored), so a record holds a plain pointer and
/// two records share a list iff their names match.
const MetricNames* intern_metric_list(MetricNames names) {
  static std::mutex mutex;
  static auto* interned = new std::set<MetricNames>;  // never freed
  std::lock_guard<std::mutex> lock(mutex);
  return &*interned->insert(std::move(names)).first;
}

/// The interned copy of the name list `names` (a sized range of strings or
/// string views, in metric order). One set serves record() and both load
/// parsers, so records from any of them share a list iff their names match.
template <typename Names>
const MetricNames* intern_metric_names(const Names& names) {
  // Fast path: consecutive records almost always share their names.
  thread_local const MetricNames* last = nullptr;
  if (last != nullptr && std::ranges::equal(*last, names)) return last;
  MetricNames list;
  list.reserve(std::ranges::size(names));
  for (const auto& name : names) list.emplace_back(name);
  last = intern_metric_list(std::move(list));
  return last;
}

/// One stored evaluation, packed: the metric values in name order next to
/// a pointer to their interned names, instead of a std::map node per
/// metric. Bit-exact: unpack(pack(e)) reproduces every field of e.
struct PackedEval {
  const MetricNames* names = nullptr;
  std::vector<double> values;  ///< values[i] is metric (*names)[i]
  std::string failure_reason;
  double confidence_weight = 1.0;
  bool feasible = true;
};

PackedEval pack(const search::Evaluation& eval) {
  PackedEval packed;
  packed.names = intern_metric_names(std::views::keys(eval.metrics));
  packed.values.reserve(eval.metrics.size());
  for (const auto& [name, value] : eval.metrics) packed.values.push_back(value);
  packed.failure_reason = eval.failure_reason;
  packed.confidence_weight = eval.confidence_weight;
  packed.feasible = eval.feasible;
  return packed;
}

PackedEval pack(const detail::StorePayload& payload) {
  PackedEval packed;
  packed.names = intern_metric_names(payload.metric_names);
  packed.values = payload.metric_values;
  packed.failure_reason = payload.failure_reason;
  packed.confidence_weight = payload.confidence_weight;
  packed.feasible = payload.feasible;
  return packed;
}

search::Evaluation unpack(const PackedEval& packed) {
  search::Evaluation eval;
  eval.feasible = packed.feasible;
  eval.metrics.reserve(packed.values.size());
  for (std::size_t i = 0; i < packed.values.size(); ++i) {
    eval.metrics.emplace_hint(eval.metrics.end(), (*packed.names)[i],
                              packed.values[i]);
  }
  eval.confidence_weight = packed.confidence_weight;
  eval.failure_reason = packed.failure_reason;
  return eval;
}

/// Bit-exact evaluation identity: the "duplicates are identical by
/// construction" invariant, checked instead of assumed.
bool eval_equal(const PackedEval& a, const PackedEval& b) {
  return a.feasible == b.feasible && a.failure_reason == b.failure_reason &&
         bits_equal(a.confidence_weight, b.confidence_weight) &&
         a.names == b.names &&
         std::equal(a.values.begin(), a.values.end(), b.values.begin(),
                    b.values.end(), bits_equal);
}

/// A record's key inside its evaluator scope.
struct PointKey {
  std::vector<int> indices;
  int fidelity = 0;
};

/// A borrowed PointKey, for lookups that must not copy the indices.
struct PointRef {
  std::span<const int> indices;
  int fidelity = 0;
};

/// Indices lexicographically, then fidelity: the order of the historical
/// (fingerprint, indices, fidelity) tuple key within one fingerprint.
/// Transparent, so a PointRef finds a PointKey.
struct PointLess {
  using is_transparent = void;

  static PointRef ref(const PointKey& key) {
    return {key.indices, key.fidelity};
  }
  static PointRef ref(PointRef key) { return key; }

  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    const PointRef x = ref(a);
    const PointRef y = ref(b);
    const auto order = std::lexicographical_compare_three_way(
        x.indices.begin(), x.indices.end(), y.indices.begin(),
        y.indices.end());
    return order != 0 ? order < 0 : x.fidelity < y.fidelity;
  }
};

using Scope = std::map<PointKey, PackedEval, PointLess>;

}  // namespace

/// Records in memory: evaluator fingerprint (held once per scope) ->
/// (indices, fidelity) -> packed evaluation. Iteration visits keys in the
/// historical (fingerprint, indices, fidelity) order, so snapshots keep
/// their bytes.
struct detail::EntryTable {
  std::map<std::string, Scope, std::less<>> scopes;
  std::size_t size = 0;  ///< records over all scopes

  const Scope* scope(std::string_view fingerprint) const {
    const auto it = scopes.find(fingerprint);
    return it == scopes.end() ? nullptr : &it->second;
  }

  const PackedEval* find(std::string_view fingerprint,
                         std::span<const int> indices, int fidelity) const {
    const Scope* points = scope(fingerprint);
    if (points == nullptr) return nullptr;
    const auto it = points->find(PointRef{indices, fidelity});
    return it == points->end() ? nullptr : &it->second;
  }

  /// The scope of `fingerprint` with its key, created empty if absent.
  std::pair<const std::string, Scope>& scope_slot(
      std::string_view fingerprint) {
    auto it = scopes.find(fingerprint);
    if (it == scopes.end()) {
      it = scopes.emplace(std::string(fingerprint), Scope{}).first;
    }
    return *it;
  }

  /// The record under the key and whether this call created it (empty,
  /// for the caller to fill) because the key was not held yet.
  std::pair<PackedEval*, bool> slot(std::string_view fingerprint,
                                    std::span<const int> indices,
                                    int fidelity) {
    return point_slot(scope_slot(fingerprint).second, indices, fidelity);
  }

  /// slot() within an already looked-up scope of this table.
  std::pair<PackedEval*, bool> point_slot(Scope& points,
                                          std::span<const int> indices,
                                          int fidelity) {
    const PointRef key{indices, fidelity};
    auto it = points.lower_bound(key);
    if (it != points.end() && !PointLess{}(key, it->first)) {
      return {&it->second, false};
    }
    it = points.emplace_hint(
        it, PointKey{{indices.begin(), indices.end()}, fidelity},
        PackedEval{});
    ++size;
    return {&it->second, true};
  }
};

namespace {

using detail::EntryTable;

std::size_t file_size_of(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::size_t>(size);
}

/// Parses a JSON object in the write_eval_record schema. Throws
/// std::runtime_error (prefixed with `what`) on a missing or mistyped
/// field.
EvalRecord parse_eval_record(const robust::JsonValue& obj,
                             const std::string& what) {
  using robust::JsonValue;
  using robust::require;
  if (obj.type != JsonValue::Type::Object) {
    throw std::runtime_error(what + ": evaluation record is not an object");
  }
  EvalRecord rec;
  const JsonValue& indices =
      require(obj, "indices", JsonValue::Type::Array, what);
  rec.indices.reserve(indices.array.size());
  for (const JsonValue& idx : indices.array) {
    if (idx.type != JsonValue::Type::Number) {
      throw std::runtime_error(what + ": non-numeric grid index");
    }
    rec.indices.push_back(static_cast<int>(std::llround(idx.number)));
  }
  rec.fidelity = static_cast<int>(std::llround(
      require(obj, "fidelity", JsonValue::Type::Number, what).number));
  rec.eval.feasible =
      require(obj, "feasible", JsonValue::Type::Bool, what).boolean;
  rec.eval.confidence_weight =
      require(obj, "confidence_weight", JsonValue::Type::Number, what).number;
  rec.eval.failure_reason =
      require(obj, "failure_reason", JsonValue::Type::String, what).string;
  const JsonValue& metrics =
      require(obj, "metrics", JsonValue::Type::Object, what);
  search::MetricMap::container_type entries;
  entries.reserve(metrics.object.size());
  for (const auto& [name, value] : metrics.object) {
    if (value.type != JsonValue::Type::Number) {
      throw std::runtime_error(what + ": non-numeric metric \"" + name +
                               "\"");
    }
    entries.emplace_back(name, value.number);
  }
  // A repeated name keeps its last value in document order.
  rec.eval.metrics = search::MetricMap::build(
      std::move(entries), search::MetricMap::Duplicates::KeepLast);
  return rec;
}

std::string payload_for(const std::string& fingerprint,
                        const std::vector<int>& indices, int fidelity,
                        const search::Evaluation& eval) {
  std::string out;
  out.reserve(32 + fingerprint.size() + eval_record_size_hint(indices, eval));
  out += "{\"fingerprint\":";
  robust::append_escaped(out, fingerprint);
  out += ",\"record\":";
  write_eval_record(out, indices, fidelity, eval);
  out += '}';
  return out;
}

/// Cursor over one payload for parse_payload_direct: each step consumes
/// exactly what the writer puts at that point, or fails.
class PayloadCursor {
 public:
  explicit PayloadCursor(std::string_view text)
      : at_(text.data()), end_(text.data() + text.size()) {}

  bool done() const { return at_ == end_; }

  bool next(char c) {
    if (at_ == end_ || *at_ != c) return false;
    ++at_;
    return true;
  }

  bool literal(std::string_view token) {
    if (static_cast<std::size_t>(end_ - at_) < token.size() ||
        std::memcmp(at_, token.data(), token.size()) != 0) {
      return false;
    }
    at_ += token.size();
    return true;
  }

  /// A string literal without escapes, as a view of its bytes.
  bool string(std::string_view& out) {
    if (!next('"')) return false;
    const std::size_t left = static_cast<std::size_t>(end_ - at_);
    const auto* close = static_cast<const char*>(std::memchr(at_, '"', left));
    if (close == nullptr) return false;
    const std::size_t size = static_cast<std::size_t>(close - at_);
    if (std::memchr(at_, '\\', size) != nullptr) return false;
    out = std::string_view(at_, size);
    at_ = close + 1;
    return true;
  }

  bool integer(int& out) {
    const auto [stop, ec] = std::from_chars(at_, end_, out);
    if (ec != std::errc{}) return false;
    at_ = stop;
    return true;
  }

  /// A double as write_double spells it, read to the value parse_json
  /// gives: correctly rounded like strtod, non-finite tokens mapped alike.
  bool number(double& out) {
    const char* digit = at_ != end_ && *at_ == '-' ? at_ + 1 : at_;
    if (digit != end_ && *digit >= '0' && *digit <= '9') {
      // Out of range (1e400, 1e-400) is declined: strtod saturates or
      // flushes those, and the general path keeps that behaviour.
      const auto [stop, ec] = std::from_chars(at_, end_, out);
      if (ec != std::errc{}) return false;
      at_ = stop;
      return true;
    }
    // Only the writer's own non-finite tokens: from_chars would also take
    // spellings (infinity, -nan, NAN) that parse_json reads differently or
    // not at all.
    if (literal("nan")) {
      out = std::nan("");
      return true;
    }
    if (literal("inf")) {
      out = HUGE_VAL;
      return true;
    }
    if (literal("-inf")) {
      out = -HUGE_VAL;
      return true;
    }
    return false;
  }

 private:
  const char* at_;
  const char* end_;
};

/// One journal file replayed into memory: entries, load accounting, and
/// what the load decided about the file's future.
struct FileLoad {
  EntryTable entries;
  StoreStats stats;          // journal_records / duplicates / skips / tail
  bool fresh_start = false;  ///< the file starts empty (absent or header-torn)
  /// The scope of the last merged record (a node of `entries`): journals
  /// hold each scope's records in runs, so it is looked up once per run.
  std::pair<const std::string, Scope>* last_scope = nullptr;
};

void merge_record(FileLoad& load, std::string_view fingerprint,
                  std::span<const int> indices, int fidelity,
                  PackedEval packed) {
  ++load.stats.journal_records;
  if (load.last_scope == nullptr || load.last_scope->first != fingerprint) {
    load.last_scope = &load.entries.scope_slot(fingerprint);
  }
  auto [entry, inserted] =
      load.entries.point_slot(load.last_scope->second, indices, fidelity);
  if (inserted) {
    *entry = std::move(packed);
    return;
  }
  ++load.stats.duplicate_records;
  if (!eval_equal(*entry, packed)) {
    ++load.stats.divergent_duplicates;
  }
}

void load_framed(FileLoad& load, const std::string& path,
                 const std::string& text) {
  robust::JournalReadResult framed =
      robust::read_journal_text(text, std::string(kWhat) + ": " + path);
  if (framed.header.kind != kKind) {
    throw std::runtime_error("store: " + path +
                             " is not a metacore evaluation store");
  }
  if (framed.header.kind_version != kStoreVersion) {
    throw std::runtime_error(
        "store: " + path + " has unsupported version " +
        std::to_string(framed.header.kind_version) +
        " (this build reads version " + std::to_string(kStoreVersion) + ")");
  }
  load.stats.recovered_bytes = framed.recovered_tail_bytes;
  load.stats.skipped_records = framed.skipped_records;
  load.stats.skip_reasons = std::move(framed.skip_reasons);

  detail::StorePayload direct;
  for (std::size_t i = 0; i < framed.records.size(); ++i) {
    const std::string& payload = framed.records[i];
    if (detail::parse_payload_direct(payload, direct)) {
      merge_record(load, direct.fingerprint, direct.indices, direct.fidelity,
                   pack(direct));
      continue;
    }
    std::pair<std::string, EvalRecord> entry;
    try {
      entry = detail::parse_payload_json(payload);
    } catch (const std::runtime_error& e) {
      // CRC-clean but unparseable: a writer bug or schema drift, not bit
      // rot. Skipped with a reason like any other damaged record.
      note_skip(load.stats, "store: record " + std::to_string(i + 1) +
                                " is checksum-clean but failed to parse: " +
                                e.what());
      continue;
    }
    const EvalRecord& rec = entry.second;
    merge_record(load, entry.first, rec.indices, rec.fidelity,
                 pack(rec.eval));
  }
}

/// The whole file at `path` in one sized read; empty when the file cannot
/// be opened (absent: a fresh store). A short read or a stream error
/// throws robust::JournalIoError naming the path — replayed, a partial
/// read would look like a crashed tail, and the recovery rewrite would
/// drop every record past it.
std::string read_journal_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) {
    throw robust::JournalIoError("store: cannot read " + path + ": " +
                                 ec.message());
  }
  std::string text(static_cast<std::size_t>(size), '\0');
  // An injected I/O error stands in for a read that stops halfway.
  const bool cut_short = robust::failpoint("store.journal.read").io_error;
  in.read(text.data(),
          static_cast<std::streamsize>(cut_short ? size / 2 : size));
  const auto got = static_cast<std::uintmax_t>(in.gcount());
  if (got != size) {
    throw robust::JournalIoError("store: short read of " + path + ": " +
                                 std::to_string(got) + " of " +
                                 std::to_string(size) + " bytes");
  }
  return text;
}

/// Replays one journal at `path` (absent file => fresh). Throws
/// robust::JournalIoError when the file cannot be read whole, and
/// std::runtime_error on header-level problems.
FileLoad load_journal_file(const std::string& path) {
  FileLoad load;
  const std::string text = read_journal_bytes(path);

  if (text.empty()) {
    load.fresh_start = true;
    return load;
  }
  if (text.find('\n') == std::string::npos) {
    // Only an unterminated fragment: a crash while writing the very first
    // (header) line. Nothing is lost by starting fresh.
    load.stats.recovered_bytes = text.size();
    load.fresh_start = true;
    return load;
  }

  if (!robust::looks_like_journal(text)) {
    throw std::runtime_error("store: " + path +
                             " is not a metacore evaluation store");
  }
  load_framed(load, path, text);
  return load;
}

std::string snapshot_text(const EntryTable& entries) {
  std::string text = robust::journal_header_line(
      robust::JournalHeader{kKind, kStoreVersion});
  for (const auto& [fingerprint, points] : entries.scopes) {
    for (const auto& [key, packed] : points) {
      text += robust::frame_record(
          payload_for(fingerprint, key.indices, key.fidelity, unpack(packed)));
    }
  }
  return text;
}

}  // namespace

void write_eval_record(std::string& out, const std::vector<int>& indices,
                       int fidelity, const search::Evaluation& eval) {
  out += "{\"indices\":[";
  for (std::size_t d = 0; d < indices.size(); ++d) {
    if (d) out += ',';
    robust::append_int(out, indices[d]);
  }
  out += "],\"fidelity\":";
  robust::append_int(out, fidelity);
  out += eval.feasible ? ",\"feasible\":true" : ",\"feasible\":false";
  out += ",\"confidence_weight\":";
  robust::append_double(out, eval.confidence_weight);
  out += ",\"failure_reason\":";
  robust::append_escaped(out, eval.failure_reason);
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : eval.metrics) {
    if (!first) out += ',';
    first = false;
    robust::append_escaped(out, name);
    out += ':';
    robust::append_double(out, value);
  }
  out += "}}";
}

std::size_t eval_record_size_hint(const std::vector<int>& indices,
                                  const search::Evaluation& eval) {
  // The fixed keys and punctuation, then at most 12 bytes per index and
  // 24 per double plus each name's quotes, colon and comma.
  std::size_t n = 112 + 12 * indices.size() + eval.failure_reason.size();
  for (const auto& [name, value] : eval.metrics) n += name.size() + 28;
  return n;
}

namespace detail {

bool parse_payload_direct(std::string_view payload, StorePayload& out) {
  PayloadCursor in(payload);
  out.indices.clear();
  out.metric_names.clear();
  out.metric_values.clear();
  if (!in.literal("{\"fingerprint\":") || !in.string(out.fingerprint) ||
      !in.literal(",\"record\":{\"indices\":[")) {
    return false;
  }
  if (!in.next(']')) {
    do {
      int index = 0;
      if (!in.integer(index)) return false;
      out.indices.push_back(index);
    } while (in.next(','));
    if (!in.next(']')) return false;
  }
  if (!in.literal(",\"fidelity\":") || !in.integer(out.fidelity) ||
      !in.literal(",\"feasible\":")) {
    return false;
  }
  if (in.literal("true")) {
    out.feasible = true;
  } else if (in.literal("false")) {
    out.feasible = false;
  } else {
    return false;
  }
  if (!in.literal(",\"confidence_weight\":") ||
      !in.number(out.confidence_weight) ||
      !in.literal(",\"failure_reason\":") ||
      !in.string(out.failure_reason) || !in.literal(",\"metrics\":{")) {
    return false;
  }
  if (!in.next('}')) {
    do {
      std::string_view name;
      double value = 0.0;
      if (!in.string(name) || !in.next(':') || !in.number(value)) {
        return false;
      }
      // Strictly ascending is the writer's std::map order; it also rules
      // out a repeated name, which parse_payload_json would resolve.
      if (!out.metric_names.empty() && !(out.metric_names.back() < name)) {
        return false;
      }
      out.metric_names.push_back(name);
      out.metric_values.push_back(value);
    } while (in.next(','));
    if (!in.next('}')) return false;
  }
  return in.literal("}}") && in.done();
}

std::pair<std::string, EvalRecord> parse_payload_json(
    const std::string& payload) {
  const robust::JsonValue entry = robust::parse_json(payload, kWhat);
  std::string fingerprint =
      robust::require(entry, "fingerprint", robust::JsonValue::Type::String,
                      kWhat)
          .string;
  EvalRecord rec = parse_eval_record(
      robust::require(entry, "record", robust::JsonValue::Type::Object,
                      kWhat),
      kWhat);
  return {std::move(fingerprint), std::move(rec)};
}

}  // namespace detail

std::uint64_t fingerprint_hash(std::string_view fingerprint) noexcept {
  // FNV-1a, 64-bit: stable pure byte arithmetic — the dispatch worker
  // assignment must not change across runs, builds, or hosts.
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : fingerprint) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

StoreConfig StoreConfig::from_env() {
  StoreConfig config;
  config.durability = robust::DurabilityConfig::from_env();
  return config;
}

EvaluationStore::EvaluationStore(std::string path, StoreConfig config)
    : path_(std::move(path)), config_(config) {
  if (path_.empty()) {
    throw std::invalid_argument("store: path must be non-empty");
  }
  // Older builds could spread a store over <path>.d/shard-NN.journal
  // files. Opening around them would start cold without their
  // evaluations, so the directory is refused whole, before anything at
  // `path` is touched.
  const std::string shard_dir = path_ + ".d";
  std::error_code ec;
  if (std::filesystem::is_directory(shard_dir, ec)) {
    throw std::runtime_error(
        "store: " + shard_dir +
        " is a sharded store layout, which this build does not read (an "
        "older build opened at one shard merges it into " +
        path_ + ")");
  }

  // A stale .tmp can only be the residue of a crash between snapshot write
  // and rename; the journal itself is authoritative.
  std::remove((path_ + ".tmp").c_str());

  FileLoad load = load_journal_file(path_);
  entries_ = std::make_unique<EntryTable>(std::move(load.entries));
  stats_ = std::move(load.stats);

  // Recovery rewrites (damage, crash tails) are unconditional — they
  // restore the on-disk invariants. Pure duplicate bloat compacts only past
  // the configured dead-record ratio, so a long-lived server's journal
  // stays bounded without rewriting on every restart.
  const std::size_t dead = stats_.duplicate_records + stats_.skipped_records;
  const std::size_t total = dead + entries_->size;
  const bool damaged = stats_.skipped_records > 0 || stats_.recovered_bytes > 0;
  const bool bloated =
      dead > 0 && config_.auto_compact_dead_ratio > 0.0 && total > 0 &&
      static_cast<double>(dead) >=
          config_.auto_compact_dead_ratio * static_cast<double>(total);
  if (damaged || bloated) {
    compact_locked();  // recovery/bounded-growth rewrite
  } else {
    open_writer(load.fresh_start);
  }
}

EvaluationStore::~EvaluationStore() = default;

void EvaluationStore::open_writer(bool truncate) {
  writer_ = std::make_unique<robust::JournalWriter>(
      path_, robust::JournalHeader{kKind, kStoreVersion}, config_.durability,
      truncate, "store.journal");
}

std::size_t EvaluationStore::compact_locked() {
  const std::size_t bytes_before = file_size_of(path_);
  const std::string text = snapshot_text(*entries_);
  if (writer_) {
    stats_.io_retries += writer_->io_retries();
    try {
      writer_->close();
    } catch (const robust::JournalIoError&) {
      // The journal is about to be replaced wholesale; a failed drain of
      // the old fd is moot.
    }
    writer_.reset();
  }
  try {
    robust::atomic_replace_file(path_, text, config_.durability,
                                "store.compact", kWhat);
  } catch (const robust::JournalIoError&) {
    // Snapshot failed before the rename: the old journal is intact. Try
    // to resume appending to it; if even that fails, degrade.
    try {
      open_writer(false);
    } catch (const robust::JournalIoError&) {
      degraded_ = true;
    }
    throw;
  }
  open_writer(false);
  degraded_ = false;  // a fresh, complete journal restores durability
  generation_.fetch_add(1, std::memory_order_relaxed);
  ++stats_.compactions;
  stats_.compaction_bytes_before = bytes_before;
  stats_.compaction_bytes_after = text.size();
  return bytes_before > text.size() ? bytes_before - text.size() : 0;
}

std::size_t EvaluationStore::compact() {
  std::unique_lock lock(mutex_);
  return compact_locked();
}

std::optional<search::Evaluation> EvaluationStore::lookup(
    const std::string& fingerprint, const std::vector<int>& indices,
    int fidelity) {
  std::shared_lock lock(mutex_);
  const PackedEval* entry = entries_->find(fingerprint, indices, fidelity);
  if (entry == nullptr) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return unpack(*entry);
}

bool EvaluationStore::contains(std::string_view fingerprint,
                               const std::vector<int>& indices,
                               int fidelity) const {
  std::shared_lock lock(mutex_);
  return entries_->find(fingerprint, indices, fidelity) != nullptr;
}

void EvaluationStore::record(const std::string& fingerprint,
                             const std::vector<int>& indices, int fidelity,
                             const search::Evaluation& eval) {
  std::unique_lock lock(mutex_, std::try_to_lock);
  if (!lock.owns_lock()) {
    // How often a writer had to wait behind another thread: the signal
    // for sizing the server's dispatch workers.
    contention_.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
  }
  auto [entry, inserted] = entries_->slot(fingerprint, indices, fidelity);
  if (!inserted) {
    // First write wins; a duplicate that is NOT bit-identical is a
    // determinism regression upstream — count it instead of masking it.
    if (!eval_equal(*entry, pack(eval))) {
      ++stats_.divergent_duplicates;
    }
    return;
  }
  *entry = pack(eval);
  generation_.fetch_add(1, std::memory_order_relaxed);
  if (degraded_ || !writer_) {
    ++stats_.dropped_writes;
    return;
  }
  try {
    writer_->append(payload_for(fingerprint, indices, fidelity, eval));
  } catch (const robust::JournalIoError&) {
    // Terminal append failure (the retries are inside the writer): flip
    // to degraded read-only mode. The entry stays in memory so the search
    // keeps its result; only persistence is lost — callers see it in
    // stats() rather than as a failed query.
    degraded_ = true;
    ++stats_.dropped_writes;
    stats_.io_retries += writer_->io_retries();
    try {
      writer_->close();
    } catch (...) {
    }
    writer_.reset();
    return;
  }
  ++stats_.appends;
}

std::uint64_t EvaluationStore::generation() const {
  return generation_.load(std::memory_order_relaxed);
}

std::size_t EvaluationStore::size() const {
  std::shared_lock lock(mutex_);
  return entries_->size;
}

std::vector<std::tuple<std::vector<int>, int, search::Evaluation>>
EvaluationStore::entries_for(const std::string& fingerprint) const {
  std::shared_lock lock(mutex_);
  std::vector<std::tuple<std::vector<int>, int, search::Evaluation>> out;
  const Scope* points = entries_->scope(fingerprint);
  if (points == nullptr) return out;
  out.reserve(points->size());
  for (const auto& [key, packed] : *points) {
    out.emplace_back(key.indices, key.fidelity, unpack(packed));
  }
  return out;
}

bool EvaluationStore::degraded() const {
  std::shared_lock lock(mutex_);
  return degraded_;
}

std::size_t EvaluationStore::divergent_duplicates() const {
  std::shared_lock lock(mutex_);
  return stats_.divergent_duplicates;
}

StoreStats EvaluationStore::stats() const {
  std::shared_lock lock(mutex_);
  StoreStats out = stats_;
  out.live_entries = entries_->size;
  if (writer_) out.io_retries += writer_->io_retries();
  out.degraded = degraded_;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.lock_contention = contention_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace metacore::serve
