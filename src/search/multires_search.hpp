// The multiresolution design-space search of Section 4.4 / Figure 6:
// evaluate a sparse grid, identify promising regions using interpolation
// (smooth metrics) and Bayesian BER prediction (probabilistic metrics),
// then recurse on those regions with a finer grid and higher simulation
// fidelity, up to a maximum resolution.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "robust/counters.hpp"
#include "robust/guarded_evaluator.hpp"
#include "search/objective.hpp"
#include "search/parameter.hpp"
#include "search/predictor.hpp"
#include "search/store.hpp"

namespace metacore::search {

struct SearchConfig {
  /// Grid density of the initial sparse pass; the total initial evaluation
  /// count is capped (the paper evaluates "up to 256 instances").
  int initial_points_per_dim = 3;
  int max_initial_evaluations = 256;
  /// Number of refinement levels after the initial grid (Figure 6's
  /// MAX_SEARCH_RESOLUTION).
  int max_resolution = 3;
  /// Promising regions refined per level (Refine_Grid output size).
  int regions_per_level = 4;
  int refined_points_per_dim = 3;
  /// Hard evaluation budget across all levels.
  std::size_t max_evaluations = 5000;
  /// Name of the probabilistic metric guarded by the Bayesian predictor
  /// (empty = none). Must appear as an UpperBound constraint to guide
  /// pruning.
  std::string probabilistic_metric;
  /// Regions whose probability of meeting the probabilistic constraint
  /// falls below this are pruned without refinement.
  double probability_keep_threshold = 0.05;
  /// Fault tolerance: when true (the default), the evaluator runs inside a
  /// robust::GuardedEvaluator — thrown or NaN/Inf-metric evaluations become
  /// infeasible points with a recorded failure reason (and transient faults
  /// are retried deterministically) instead of aborting the whole search.
  /// With a well-behaved evaluator the guard is a pure pass-through, so
  /// results are bit-identical either way.
  bool guard_evaluations = true;
  /// Retry policy for transient evaluation faults (guarded mode only).
  robust::RetryPolicy retry{};
  /// Persistent cross-run evaluation store (serve::EvaluationStore or any
  /// other EvaluationStoreBase). When set, every cache miss first consults
  /// the store under `store_fingerprint` — a hit is absorbed without
  /// invoking the evaluator (counted in SearchResult::store_hits) — and
  /// every level's fresh evaluations are recorded back once the level's
  /// batch completes. Because stored evaluations round-trip bit-exactly and
  /// the absorb order is unchanged, a warm store reproduces the cold
  /// search's trajectory and result exactly. This is also how a killed
  /// search resumes: rerun it over the reopened store, and the levels it
  /// finished replay without evaluator calls. The fingerprint scopes
  /// entries to an evaluator, not to a search configuration, so searches
  /// with different configurations share the store and each still returns
  /// its own cold result.
  std::shared_ptr<EvaluationStoreBase> store;
  /// Content fingerprint of the evaluator (requirements + design space +
  /// measurement definition). Required when `store` is set; the MetaCore
  /// entry points (core::ViterbiMetaCore::search / IirMetaCore::search)
  /// fill it in automatically.
  std::string store_fingerprint;
};

struct EvaluatedPoint {
  std::vector<int> indices;
  std::vector<double> values;
  Evaluation eval;
  int fidelity = 0;
};

struct SearchResult {
  bool found_feasible = false;
  EvaluatedPoint best{};
  /// Budget-consuming evaluations absorbed by the search: every level
  /// cache miss, whether satisfied by the evaluator or by a persistent-store
  /// hit — identical for cold and warm runs of the same search (actual
  /// evaluator invocations = evaluations - store_hits).
  std::size_t evaluations = 0;
  /// Level grid points satisfied by the in-run evaluation cache (points
  /// revisited across levels/fidelities); these never consume budget.
  std::size_t cache_hits = 0;
  /// Cache misses satisfied by SearchConfig::store instead of the
  /// evaluator. Run-local diagnostic: a cold run reports 0, a warm rerun
  /// reports (up to) the cold run's evaluation count.
  std::size_t store_hits = 0;
  /// Store keys this run tried to record that already existed with a
  /// *different* evaluation (delta of the store's counter across run()):
  /// evidence of evaluator non-determinism or a stale store. 0 without a
  /// store.
  std::size_t divergent_duplicates = 0;
  int levels_executed = 0;
  /// Every distinct point evaluated (highest-fidelity result per point) —
  /// the population behind the paper's "average case" comparisons.
  std::vector<EvaluatedPoint> history;
  /// Failure/retry accounting from the guarded evaluator during this run
  /// (all zero when guarding is disabled or nothing failed). Like
  /// `store_hits` it is run-local: evaluations replayed from the store keep
  /// their failure_reason but are not counted again.
  robust::FailureCounters failures;
};

/// The search engine. Each level collects its uncached grid points and fans
/// them out across the exec thread pool (METACORE_THREADS), merging results
/// back into the cache and predictors in grid-index order — the search
/// trajectory and SearchResult are therefore bit-identical at any thread
/// count. The evaluator must be safe to call concurrently from multiple
/// threads (the MetaCore evaluators are: they build all simulation state
/// per call).
class MultiresolutionSearch {
 public:
  MultiresolutionSearch(DesignSpace space, Objective objective,
                        EvaluateFn evaluate, SearchConfig config = {});

  SearchResult run();

 private:
  struct Region {
    /// Inclusive index range per dimension.
    std::vector<std::pair<int, int>> ranges;
  };

  std::vector<std::vector<int>> sample_grid(const Region& region,
                                            int points_per_dim,
                                            std::size_t cap) const;
  /// Best cached evaluation at fidelity >= `fidelity`, or nullptr.
  const Evaluation* cached_evaluation(const std::vector<int>& indices,
                                      int fidelity) const;
  /// Records a fresh evaluation: cache insert, pending predictor evidence,
  /// counter.
  void absorb_evaluation(const std::vector<int>& indices, int fidelity,
                         Evaluation eval, SearchResult& result);
  /// Hands the pending evidence to the BER predictor in absorb order.
  void flush_evidence();
  void search_region(const Region& region, int resolution,
                     SearchResult& result);
  Region region_around(const std::vector<int>& center,
                       const std::vector<std::vector<int>>& grid,
                       const Region& parent) const;

  DesignSpace space_;
  Objective objective_;
  EvaluateFn evaluate_;
  SearchConfig config_;
  /// Wraps evaluate_ when config_.guard_evaluations is set.
  std::optional<robust::GuardedEvaluator> guard_;

  std::map<std::vector<int>, std::map<int, Evaluation>> cache_;
  /// Rank of the running SearchResult::best under objective_.
  RankKey best_key_;
  BerPredictor ber_predictor_;
  /// BER evidence absorbed since the last scoring pass. Only refinement
  /// scoring reads the predictor, so evidence waits here and is added, in
  /// absorb order, right before a level scores; a search whose remaining
  /// levels never score (the last level, or max_resolution 0) pays nothing
  /// for it. `indices` points at the cache key, which std::map keeps stable.
  struct PendingEvidence {
    const std::vector<int>* indices;
    double ber;
    double trials;
  };
  std::vector<PendingEvidence> pending_evidence_;
  double probabilistic_bound_ = 0.0;
  bool has_probabilistic_ = false;
};

/// Exhaustive full-factorial baseline at a fixed fidelity — the comparison
/// point for the greedy-vs-exhaustive ablation. Throws std::invalid_argument
/// when the space exceeds `max_points`.
SearchResult exhaustive_search(const DesignSpace& space,
                               const Objective& objective,
                               const EvaluateFn& evaluate, int fidelity,
                               std::size_t max_points = 2'000'000);

/// Final verification pass: re-evaluates the `top_k` best points of a
/// finished search at `fidelity` (typically higher than the search used)
/// and re-selects the winner — the "longer simulation times" refinement
/// the paper applies to surviving candidates. Returns the updated result;
/// `result.evaluations` grows by the re-evaluations performed. When
/// `store` is non-null, re-evaluations consult and feed it under
/// `store_fingerprint` exactly like the search proper (hits land in
/// `result.store_hits`), so a warm store also covers the verification
/// pass.
SearchResult verify_top_candidates(SearchResult result,
                                   const DesignSpace& space,
                                   const Objective& objective,
                                   const EvaluateFn& evaluate, int top_k,
                                   int fidelity,
                                   EvaluationStoreBase* store = nullptr,
                                   const std::string& store_fingerprint = {});

}  // namespace metacore::search
