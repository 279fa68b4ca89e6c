// The MetaCore design-query service: a long-lived engine that answers
// "find me the cheapest Viterbi/IIR configuration meeting these
// requirements" queries on top of the multiresolution search, the
// persistent evaluation store, and an incremental Pareto archive.
//
//  * Queries are JSON-serializable round-trip (parse_design_query /
//    to_json), so the service can be driven from files, sockets, or any
//    transport a deployment puts in front of it.
//  * Identical in-flight queries are coalesced: concurrent submits of the
//    same canonical query share one search, and every waiter receives a
//    byte-identical copy of its response.
//  * Batches fan independent queries out across the exec thread pool
//    (submit_batch); duplicates inside a batch are deduplicated up front
//    so responses are byte-identical at any METACORE_THREADS.
//  * Every completed search feeds a per-evaluator Pareto archive;
//    constraint-only queries (DesignQuery::archive_only) are answered
//    directly from it — chosen point, metrics, and the front slice —
//    without launching a search. With a store attached, the archive
//    keeps only points the store does not hold; answers merge the two.
//  * With a persistent store attached, repeat queries (same evaluator
//    fingerprint) are served with near-zero evaluator calls: the search
//    replays its trajectory out of the store.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/iir_metacore.hpp"
#include "core/viterbi_metacore.hpp"
#include "search/multires_search.hpp"
#include "serve/store.hpp"

namespace metacore::robust {
struct JsonValue;  // robust/json.hpp
}  // namespace metacore::robust

namespace metacore::serve {

enum class QueryKind : int { Viterbi = 0, Iir = 1 };

std::string to_string(QueryKind kind);

/// Search-budget knobs a query may carry (the trajectory-shaping subset of
/// search::SearchConfig; everything else keeps MetaCore defaults).
struct QueryBudget {
  int initial_points_per_dim = 3;
  int max_resolution = 1;
  int regions_per_level = 3;
  std::size_t max_evaluations = 160;
};

/// One design request. For Viterbi queries the requirement fields mirror
/// core::ViterbiRequirements; IIR queries parameterize the paper's
/// Section 5.3 bandpass (core::paper_bandpass_requirements) by sample
/// period. `constraints`, when non-empty, REPLACE the metacore's default
/// constraint set (so a constraint-only query can relax or retighten
/// bounds over the same evaluator scope); `minimize` overrides the
/// objective metric when non-empty. With `archive_only` set the query is
/// answered from the accumulated Pareto archive without searching.
struct DesignQuery {
  QueryKind kind = QueryKind::Viterbi;

  // Viterbi requirements (used when kind == Viterbi).
  double target_ber = 1e-4;
  double esn0_db = 1.0;
  double throughput_mbps = 1.0;
  int ber_shards = 8;
  /// SIMD lane cap for the frame-parallel BER decoders (0 = auto; see
  /// BerRunConfig::lanes). Throughput-only: results and the evaluator
  /// fingerprint are lane-invariant, so two queries differing only here
  /// share store entries — but NOT the coalescing key, which hashes the
  /// canonical JSON below.
  int ber_lanes = 0;

  // IIR requirements (used when kind == Iir).
  double sample_period_us = 1.0;

  QueryBudget budget{};
  std::string minimize;                       ///< empty = metacore default
  std::vector<search::Constraint> constraints;  ///< empty = metacore default
  bool archive_only = false;
};

/// Canonical JSON encodings: field order is fixed and doubles are written
/// with round-trip precision, so equal queries encode to equal bytes (the
/// coalescing key) and every query/response round-trips exactly.
std::string to_json(const DesignQuery& query);
DesignQuery parse_design_query(const std::string& json);
/// The same, from an already parsed document (the wire protocol parses a
/// request frame once and hands its "query" member here).
DesignQuery parse_design_query(const robust::JsonValue& doc);

/// The query's evaluator scope: which store entries and which Pareto
/// archive it reads and feeds. Cheap (constructing a metacore runs no
/// simulation) — this is the routing key the server's dispatch worker pool
/// hashes (fingerprint_hash) to keep same-scope work ordered while
/// distinct scopes run concurrently.
std::string query_fingerprint(const DesignQuery& query);

struct DesignResponse {
  bool feasible = false;
  bool from_archive = false;
  /// The chosen design point (indices, values, evaluation, fidelity).
  search::EvaluatedPoint best{};
  /// Search accounting (all zero for archive answers).
  std::size_t evaluations = 0;
  std::size_t cache_hits = 0;
  std::size_t store_hits = 0;
  /// Store keys this query re-derived with a *different* evaluation —
  /// upstream determinism drift (see StoreStats::divergent_duplicates).
  std::size_t divergent_duplicates = 0;
  /// True when the attached store is in degraded read-only mode (journal
  /// lost mid-run): the answer is still valid, but the evaluations behind
  /// it were not persisted. Also noted in `summary`.
  bool store_degraded = false;
  /// The Pareto front slice over (front_x, front_y), both minimized;
  /// for archive answers, restricted to constraint-satisfying points.
  std::string front_x, front_y;
  std::vector<search::EvaluatedPoint> front;
  std::string summary;
};

std::string to_json(const DesignResponse& response);

/// The wire encodings a response can be serialized into: canonical text
/// JSON (the default wire mode) and the MCB1 binary form
/// (serve/binary_codec.hpp). Used as the per-encoding key of the
/// serialized-response cache below.
enum class WireEncoding : int { Json = 0, Binary = 1 };

struct ServiceStats {
  std::size_t queries = 0;           ///< submits (batch entries included)
  std::size_t searches_launched = 0; ///< searches actually executed
  std::size_t coalesced = 0;         ///< submits served by another's search
  std::size_t archive_answers = 0;   ///< answered from the Pareto archive
  // Cumulative per-search accounting summed over every executed search
  // (coalesced waiters share the leader's search, so they add nothing):
  std::size_t evaluations = 0;       ///< evaluator calls across searches
  std::size_t cache_hits = 0;        ///< in-search cache reuse
  std::size_t store_hits = 0;        ///< answers replayed from the store
  // Serialized-response cache (submit_encoded): repeats of an identical
  // query whose evaluator scope has not changed are answered as cached
  // pre-encoded bytes — zero re-search, zero re-serialization.
  std::size_t response_cache_hits = 0;
  std::size_t response_cache_misses = 0;
  /// Cached entries discarded because the store/archive generation moved
  /// (append, compaction, migration) between caching and the repeat.
  std::size_t response_cache_invalidations = 0;
};

/// Canonical JSON of the service counters — the `stats` query kind of the
/// wire protocol embeds this document (field set documented in DESIGN.md).
std::string to_json(const ServiceStats& stats);

struct ServiceConfig {
  /// Path of the persistent evaluation store; empty = no persistence
  /// (in-run coalescing and archives still work).
  std::string store_path;
  /// Share an already-open store instead (takes precedence over
  /// store_path).
  std::shared_ptr<EvaluationStore> store;
  /// Entry cap of the serialized-response cache (0 disables it). The env
  /// override METACORE_RESPONSE_CACHE, when set, wins over this value.
  std::size_t response_cache_capacity = 256;
};

class DesignService {
 public:
  explicit DesignService(ServiceConfig config = {});

  /// Blocking: answers the query, coalescing with any identical in-flight
  /// submit. Safe to call concurrently from any number of threads.
  DesignResponse submit(const DesignQuery& query);

  /// Fans the batch out across the exec thread pool. Identical queries
  /// are deduplicated up front (each unique query runs once; duplicates
  /// count as coalesced), so the response vector is byte-identical at any
  /// thread count.
  std::vector<DesignResponse> submit_batch(
      const std::vector<DesignQuery>& queries);

  /// The serving hot path: answers the query as encoded response-body
  /// bytes (canonical JSON or MCB1 binary), consulting the
  /// serialized-response cache first. A repeat of an identical query whose
  /// evaluator scope held still (same store + archive generation) is
  /// answered from the cached bytes with zero re-search and zero
  /// re-serialization; the networked server splices them straight into the
  /// response frame. Entries are stamped with the generation observed
  /// around their run and only cached when the run itself left the scope
  /// unchanged — so a cached answer is always byte-identical to what a
  /// fresh submit() would produce right now.
  std::shared_ptr<const std::string> submit_encoded(const DesignQuery& query,
                                                    WireEncoding encoding);

  struct EncodedQuery {
    DesignQuery query;
    WireEncoding encoding = WireEncoding::Json;
    /// to_json(query) when the caller already computed it; empty =
    /// computed here.
    std::string key;
    /// query_fingerprint(query) when the caller already computed it (the
    /// server routes by it); empty = computed here.
    std::string fingerprint;
  };

  /// Batch form of submit_encoded: deduplicates identical (query,
  /// encoding) pairs, groups by evaluator fingerprint (same-scope queries
  /// run sequentially in batch order), and fans the groups out across the
  /// exec thread pool — same determinism contract as submit_batch.
  std::vector<std::shared_ptr<const std::string>> submit_batch_encoded(
      const std::vector<EncodedQuery>& items);

  /// The read-only fast path of submit_encoded, for a caller that holds
  /// the query's canonical key (to_json) and evaluator fingerprint: the
  /// cached bytes when the entry is valid for the scope's current
  /// generation and already holds this encoding, counted exactly like a
  /// submit_encoded hit. nullptr otherwise, with nothing counted, filled
  /// or dropped: submit_encoded then does the real work.
  std::shared_ptr<const std::string> lookup_encoded(
      const std::string& key, const std::string& fingerprint,
      WireEncoding encoding);

  /// Entries currently held by the serialized-response cache.
  std::size_t response_cache_size() const;

  /// The cache's entry cap after the METACORE_RESPONSE_CACHE override (0 =
  /// the cache is off).
  std::size_t response_cache_capacity() const noexcept {
    return cache_capacity_;
  }

  ServiceStats stats() const;

  /// Stats snapshot as one JSON object: the ServiceStats counters plus a
  /// "store" member (entry/hit/append/degraded accounting from the
  /// attached store, or {"attached":false} without persistence). This is
  /// what the networked `stats` query kind returns — no side channel.
  std::string stats_json() const;

  /// The attached store (nullptr when running without persistence).
  std::shared_ptr<EvaluationStore> store() const { return store_; }

  /// Distinct evaluated points an archive answer for the query's
  /// evaluator scope draws on: the store's entries plus the in-memory
  /// archive.
  std::size_t archive_size(const DesignQuery& query) const;

 private:
  struct InFlight;

  /// (store generation, archive generation) for one evaluator
  /// scope — the validity stamp of a serialized-response cache entry.
  using Generation = std::pair<std::uint64_t, std::uint64_t>;

  struct CachedResponse {
    Generation gen{};
    DesignResponse response;
    /// Lazily filled per encoding, indexed by WireEncoding.
    std::shared_ptr<const std::string> encoded[2];
  };

  /// submit() with the coalescing key to_json(query) already computed.
  DesignResponse submit(const DesignQuery& query, const std::string& key);
  /// submit_encoded() for a query whose key and evaluator fingerprint are
  /// already computed.
  std::shared_ptr<const std::string> submit_encoded(
      const DesignQuery& query, WireEncoding encoding, const std::string& key,
      const std::string& fingerprint);

  /// Executes the query for real (search or archive answer).
  DesignResponse run_query(const DesignQuery& query);
  DesignResponse answer_from_archive(const DesignQuery& query);
  void absorb_history(const std::string& fingerprint,
                      const std::vector<search::EvaluatedPoint>& history);
  Generation current_generation(const std::string& fingerprint) const;
  /// Counts one query answered from the serialized-response cache.
  void count_cache_hit();

  std::shared_ptr<EvaluationStore> store_;
  std::size_t cache_capacity_ = 0;

  mutable std::mutex cache_mutex_;
  std::map<std::string, CachedResponse> response_cache_;
  /// Insertion order for FIFO eviction: every cached key exactly once,
  /// oldest first (an invalidation removes the key too).
  std::deque<std::string> cache_fifo_;

  std::mutex registry_mutex_;
  std::map<std::string, std::shared_ptr<InFlight>> in_flight_;

  mutable std::mutex stats_mutex_;
  ServiceStats stats_;

  /// Per-evaluator-fingerprint archives: every distinct point any search
  /// evaluated that the attached store does not hold (all of them without
  /// a store), highest fidelity per point, keyed by grid indices.
  mutable std::shared_mutex archive_mutex_;
  std::map<std::string, std::map<std::vector<int>, search::EvaluatedPoint>>
      archives_;
  /// Bumped whenever absorb_history actually changes a scope's archive —
  /// the in-memory half of the cache-validity generation.
  std::map<std::string, std::uint64_t> archive_generation_;
};

}  // namespace metacore::serve
