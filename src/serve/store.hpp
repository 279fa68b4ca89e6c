// Persistent, content-addressed evaluation store: the substrate that makes
// MetaCore cost evaluations reusable *across* runs, searches, and service
// queries. Storage is an append-only record journal (robust/journal.hpp) —
// a self-identifying header line followed by one CRC32C-guarded,
// length-prefixed frame per evaluation, keyed by (evaluator fingerprint,
// grid indices, fidelity). Payloads are JSON in the write_eval_record
// schema below, so stored doubles round-trip bit-exactly. Open reads the
// journal with one sized read and parses every payload the
// writer produced with a direct parser (detail::parse_payload_direct);
// anything else goes through the general JSON path, which alone decides
// what is accepted or skipped and with which reason.
//
// The store is also how a search resumes: a search killed mid-run has
// recorded every level it finished, and a rerun over the reopened store
// absorbs those levels without evaluator calls, walking the same
// trajectory to the same result.
//
// Layout: one journal at `path`, byte-compatible with every v2 store ever
// written. A `path`.d/ directory is the sharded layout older builds could
// write; open refuses it with an error naming the directory and leaves its
// bytes alone, so its evaluations are never silently missing from a store
// that opens cold.
//
// Durability and recovery:
//  * Appends go through a pluggable durability policy (none | flush |
//    fsync-every-N | fsync-on-close; METACORE_DURABILITY overrides), so a
//    deployment chooses its crash window. A crash can only ever leave one
//    incomplete frame at the tail of the journal; load drops it silently —
//    no completed evaluation is lost.
//  * Every frame carries its own CRC32C: mid-file damage (bit rot, torn
//    sectors) is skipped per record with a counted, descriptive reason in
//    stats() instead of poisoning the whole journal. Header-level problems
//    (foreign file, unsupported version) reject the store.
//  * Snapshot + compaction: compact() rewrites the live set as a
//    checksummed snapshot via tmp file + fsync + atomic rename; it runs
//    automatically at open when the dead-record ratio (duplicates +
//    damage) crosses StoreConfig::auto_compact_dead_ratio, so a long-lived
//    server's journal stays bounded.
//  * Degraded read-only mode: when an append fails terminally (disk gone
//    bad mid-run, after bounded retries), the store keeps serving lookups
//    and absorbing records in memory but stops journaling; stats() reports
//    degraded=true and the dropped-write count, and a successful compact()
//    re-establishes the journal.
//
// Crash points: every journal write/fsync/rename boundary consults a named
// fail point ("store.journal.*", "store.compact.*"; robust/failpoint.hpp),
// so the crash-matrix tests enumerate byte-exact kill points.
//
// Concurrency discipline: any number of concurrent readers (lookup), one
// writer at a time (record) — enforced in-process with a shared mutex;
// blocked writer acquisitions are counted in StoreStats::lock_contention.
// Cross-process single-writer discipline is the caller's contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <atomic>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "robust/journal.hpp"
#include "search/store.hpp"

namespace metacore::serve {

/// Framed-journal store schema ("kind_version" in the header). Version 1
/// was a pre-CRC JSONL format; a file in it is rejected, not read.
inline constexpr int kStoreVersion = 2;

/// One stored evaluation: the grid indices of the point, the fidelity it
/// was evaluated at, and the full result.
struct EvalRecord {
  std::vector<int> indices;
  int fidelity = 0;
  search::Evaluation eval;
};

/// Appends one evaluation record (grid indices, fidelity, evaluation) to
/// `out` as one JSON object: the record schema of the store's journal
/// frames (which add the evaluator fingerprint around it) and of the
/// service's response points. Doubles are written with round-trip
/// precision and non-finite values as the bare tokens inf/-inf/nan
/// (robust/json.hpp), so the store reads every field back bit-exactly.
void write_eval_record(std::string& out, const std::vector<int>& indices,
                       int fidelity, const search::Evaluation& eval);

/// Bytes write_eval_record appends for this record when no string needs an
/// escape, give or take a few: a size to reserve before writing it.
std::size_t eval_record_size_hint(const std::vector<int>& indices,
                                  const search::Evaluation& eval);

namespace detail {

/// One journal payload in the store's own layout, parsed in place: strings
/// are views into the payload bytes, metric names are in ascending order.
/// The buffers are reused from one parse to the next.
struct StorePayload {
  std::string_view fingerprint;
  std::vector<int> indices;
  int fidelity = 0;
  bool feasible = true;
  double confidence_weight = 1.0;
  std::string_view failure_reason;
  std::vector<std::string_view> metric_names;
  std::vector<double> metric_values;  ///< metric_values[i] is metric_names[i]
};

/// The load path's direct parser. Accepts exactly the bytes the store's
/// writer emits:
///   {"fingerprint":"…","record":{"indices":[…],"fidelity":N,
///    "feasible":true|false,"confidence_weight":X,"failure_reason":"…",
///    "metrics":{…}}}
/// with no whitespace, strings without escapes, strictly ascending metric
/// names, integers and doubles in std::from_chars syntax (plus the bare
/// tokens nan/inf/-inf, read as parse_json reads them), and nothing after
/// the closing brace. Returns false ("not mine") on any other byte, and
/// `out` is then unspecified; the caller falls back to
/// parse_payload_json. Whenever it returns true, parse_payload_json
/// accepts the same bytes and yields bit-identical fields.
bool parse_payload_direct(std::string_view payload, StorePayload& out);

/// The general path for payloads the direct parser declines:
/// robust::parse_json plus the record schema check. Returns the
/// fingerprint and the record; throws std::runtime_error (prefixed
/// "store") on a payload that is not an evaluation record.
std::pair<std::string, EvalRecord> parse_payload_json(
    const std::string& payload);

/// The store's records in memory (defined in store.cpp).
struct EntryTable;

}  // namespace detail

/// Stable 64-bit FNV-1a over the fingerprint bytes: the routing hash the
/// networked server takes modulo its worker count to assign an evaluator
/// scope to a dispatch worker. Stable across runs, builds, and hosts by
/// construction (pure byte arithmetic).
std::uint64_t fingerprint_hash(std::string_view fingerprint) noexcept;

/// Load + traffic accounting; all counters are since open.
struct StoreStats {
  std::size_t live_entries = 0;      ///< distinct keys held after load
  std::size_t journal_records = 0;   ///< intact record frames parsed at load
  std::size_t duplicate_records = 0; ///< duplicate-key frames dropped at load
  std::size_t skipped_records = 0;   ///< damaged frames skipped at load
  std::size_t recovered_bytes = 0;   ///< crashed-append tails dropped at load
  std::size_t hits = 0;              ///< lookup() found the key
  std::size_t misses = 0;            ///< lookup() did not
  std::size_t appends = 0;           ///< record() journal appends
  /// record() calls (or load-time duplicates) whose key already existed
  /// with a *different* evaluation — a determinism regression that
  /// first-write-wins would otherwise silently mask.
  std::size_t divergent_duplicates = 0;
  std::size_t dropped_writes = 0;    ///< records not journaled (degraded)
  std::size_t io_retries = 0;        ///< transient write failures retried
  std::size_t compactions = 0;       ///< snapshot rewrites since open
  std::size_t compaction_bytes_before = 0;  ///< journal size before last one
  std::size_t compaction_bytes_after = 0;   ///< ... and after
  bool degraded = false;             ///< the journal was lost mid-run
  /// One descriptive reason per skipped record (capped), e.g. the CRC
  /// mismatch and offset.
  std::vector<std::string> skip_reasons;
  /// record() writer-lock acquisitions that found the lock held and had
  /// to block: how often one dispatch worker's append waited on another's.
  std::size_t lock_contention = 0;
};

struct StoreConfig {
  /// Append durability; defaults to the process-wide policy
  /// (METACORE_DURABILITY, else flush).
  robust::DurabilityConfig durability{};
  /// Auto-compaction trigger at open: rewrite the journal when
  /// dead / (dead + live) >= ratio, dead = duplicate + skipped records.
  /// <= 0 disables ratio-triggered compaction (recovery rewrites for
  /// damage/tails still happen).
  double auto_compact_dead_ratio = 0.25;

  /// durability from METACORE_DURABILITY; throws std::invalid_argument on
  /// a malformed value.
  static StoreConfig from_env();
};

class EvaluationStore final : public search::EvaluationStoreBase {
 public:
  /// Opens (creating if absent) the store at `path`, replaying its journal
  /// into memory with tail recovery, per-record damage skipping, and
  /// ratio-triggered compaction as described above. Throws
  /// std::runtime_error naming the path on I/O failure, a file that is not
  /// a framed journal of this kind (a v1 store included; the file is left
  /// untouched), a version mismatch, or a `path`.d/ sharded-layout
  /// directory (left untouched too).
  explicit EvaluationStore(std::string path,
                           StoreConfig config = StoreConfig::from_env());
  ~EvaluationStore() override;  // out-of-line: EntryTable is incomplete here

  /// Thread-safe; concurrent lookups proceed in parallel.
  std::optional<search::Evaluation> lookup(const std::string& fingerprint,
                                           const std::vector<int>& indices,
                                           int fidelity) override;

  /// True when the key is held. Thread-safe like lookup(), but neither
  /// copies the evaluation nor counts as a hit or miss.
  bool contains(std::string_view fingerprint, const std::vector<int>& indices,
                int fidelity) const;

  /// Thread-safe; writers are serialized. A key already present is left
  /// untouched (first write wins); a duplicate whose evaluation *differs*
  /// bumps divergent_duplicates. In degraded mode the entry is kept in
  /// memory (searches keep working) and counted as a dropped write.
  void record(const std::string& fingerprint, const std::vector<int>& indices,
              int fidelity, const search::Evaluation& eval) override;

  /// Number of distinct keys currently held.
  std::size_t size() const;

  /// Entries recorded under `fingerprint`, as (indices, fidelity, eval)
  /// tuples in deterministic key order — the warm-start seed for Pareto
  /// archives.
  std::vector<std::tuple<std::vector<int>, int, search::Evaluation>>
  entries_for(const std::string& fingerprint) const;

  /// Rewrites the journal as a compacted snapshot of the live set (tmp
  /// file + fsync + atomic rename), dropping dead records; re-establishes
  /// journaling after degraded mode. Returns bytes reclaimed. Throws
  /// robust::JournalIoError when the rewrite fails.
  std::size_t compact();

  /// True once an append has failed terminally: lookups and in-memory
  /// recording still work, the journal does not grow.
  bool degraded() const;

  /// Mutation generation of the store: bumped on every new-key record()
  /// (journaled or in-memory) and every compaction. A serialized-response
  /// cache entry stamped with the generation observed around its search is
  /// valid exactly while this number holds still — any append or rewrite
  /// that could change what a repeat query would answer advances it.
  std::uint64_t generation() const;

  std::size_t divergent_duplicates() const override;

  StoreStats stats() const;

  const std::string& path() const { return path_; }

 private:
  void open_writer(bool truncate);
  std::size_t compact_locked();

  std::string path_;
  StoreConfig config_;
  mutable std::shared_mutex mutex_;
  std::unique_ptr<detail::EntryTable> entries_;
  std::unique_ptr<robust::JournalWriter> writer_;
  bool degraded_ = false;
  StoreStats stats_;  // hits, misses and contention live in the atomics
  mutable std::atomic<std::size_t> hits_{0};
  mutable std::atomic<std::size_t> misses_{0};
  std::atomic<std::size_t> contention_{0};
  /// See generation(). Written under the writer lock, read lock-free by
  /// the response-cache validity check.
  std::atomic<std::uint64_t> generation_{0};
};

}  // namespace metacore::serve
