#include "search/multires_search.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>

#include "exec/thread_pool.hpp"

namespace metacore::search {

MultiresolutionSearch::MultiresolutionSearch(DesignSpace space,
                                             Objective objective,
                                             EvaluateFn evaluate,
                                             SearchConfig config)
    : space_(std::move(space)),
      objective_(std::move(objective)),
      evaluate_(std::move(evaluate)),
      config_(config) {
  if (!evaluate_) {
    throw std::invalid_argument("MultiresolutionSearch: null evaluator");
  }
  if (config_.initial_points_per_dim < 1) {
    throw std::invalid_argument(
        "MultiresolutionSearch: initial_points_per_dim must be >= 1 (got " +
        std::to_string(config_.initial_points_per_dim) + ")");
  }
  if (config_.max_initial_evaluations < 1) {
    throw std::invalid_argument(
        "MultiresolutionSearch: max_initial_evaluations must be >= 1 (got " +
        std::to_string(config_.max_initial_evaluations) + ")");
  }
  if (config_.max_resolution < 0) {
    throw std::invalid_argument(
        "MultiresolutionSearch: max_resolution must be >= 0 (got " +
        std::to_string(config_.max_resolution) + ")");
  }
  if (config_.regions_per_level < 1) {
    throw std::invalid_argument(
        "MultiresolutionSearch: regions_per_level must be >= 1 (got " +
        std::to_string(config_.regions_per_level) + ")");
  }
  if (config_.refined_points_per_dim < 2) {
    throw std::invalid_argument(
        "MultiresolutionSearch: refined_points_per_dim must be >= 2 (got " +
        std::to_string(config_.refined_points_per_dim) + ")");
  }
  if (config_.max_evaluations == 0) {
    throw std::invalid_argument(
        "MultiresolutionSearch: max_evaluations must be > 0");
  }
  if (config_.store && config_.store_fingerprint.empty()) {
    throw std::invalid_argument(
        "MultiresolutionSearch: store_fingerprint must identify the "
        "evaluator when a persistent store is attached");
  }
  if (config_.guard_evaluations) {
    guard_.emplace(evaluate_, config_.retry);
  }
  if (!config_.probabilistic_metric.empty()) {
    for (const auto& c : objective_.constraints) {
      if (c.metric == config_.probabilistic_metric &&
          c.kind == Constraint::Kind::UpperBound) {
        has_probabilistic_ = true;
        probabilistic_bound_ = c.bound;
        break;
      }
    }
  }
}

std::vector<std::vector<int>> MultiresolutionSearch::sample_grid(
    const Region& region, int points_per_dim, std::size_t cap) const {
  const std::size_t dims = space_.dimensions();
  std::vector<std::vector<int>> per_dim(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    const auto [lo, hi] = region.ranges[d];
    const int span = hi - lo;
    const int k = std::min(points_per_dim, span + 1);
    std::set<int> picks;
    if (k == 1) {
      picks.insert(lo + span / 2);
    } else {
      for (int i = 0; i < k; ++i) {
        picks.insert(lo + (span * i) / (k - 1));
      }
    }
    per_dim[d].assign(picks.begin(), picks.end());
  }
  // Respect the evaluation cap by thinning the densest dimensions first.
  auto total = [&] {
    std::size_t t = 1;
    for (const auto& v : per_dim) {
      if (t > cap * 4) return t;  // avoid overflow; already way over
      t *= v.size();
    }
    return t;
  };
  while (total() > cap) {
    // Thin the densest dimension; among ties prefer the *last* one so that
    // dimensions listed first (by convention the most influential, e.g. K
    // before M for the Viterbi space) keep their midpoints longest.
    auto densest = per_dim.begin();
    for (auto it = per_dim.begin(); it != per_dim.end(); ++it) {
      if (it->size() >= densest->size()) densest = it;
    }
    if (densest->size() <= 1) break;
    // Drop every other interior point, keeping the endpoints.
    std::vector<int> thinned;
    for (std::size_t i = 0; i < densest->size(); ++i) {
      if (i == 0 || i + 1 == densest->size() || i % 2 == 0) {
        thinned.push_back((*densest)[i]);
      }
    }
    if (thinned.size() == densest->size()) thinned.pop_back();
    *densest = std::move(thinned);
  }

  // Cartesian product.
  std::vector<std::vector<int>> grid;
  std::vector<std::size_t> cursor(dims, 0);
  while (true) {
    std::vector<int> point(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      point[d] = per_dim[d][cursor[d]];
    }
    grid.push_back(std::move(point));
    std::size_t d = 0;
    while (d < dims && ++cursor[d] == per_dim[d].size()) {
      cursor[d] = 0;
      ++d;
    }
    if (d == dims) break;
  }
  return grid;
}

const Evaluation* MultiresolutionSearch::cached_evaluation(
    const std::vector<int>& indices, int fidelity) const {
  const auto entry = cache_.find(indices);
  if (entry == cache_.end()) return nullptr;
  // A higher-fidelity result supersedes lower ones.
  const auto it = entry->second.lower_bound(fidelity);
  return it == entry->second.end() ? nullptr : &it->second;
}

void MultiresolutionSearch::absorb_evaluation(const std::vector<int>& indices,
                                              int fidelity, Evaluation eval,
                                              SearchResult& result) {
  ++result.evaluations;
  const auto entry = cache_.try_emplace(indices).first;
  if (has_probabilistic_ && eval.has_metric(config_.probabilistic_metric)) {
    // Checked on arrival, so bad evidence stops the search here whether or
    // not a later level ever reads it.
    const double ber = eval.metric(config_.probabilistic_metric);
    const double trials = std::max(1.0, eval.confidence_weight);
    BerPredictor::check_evidence(ber, trials);
    pending_evidence_.push_back({&entry->first, ber, trials});
  }
  entry->second.emplace(fidelity, std::move(eval));
}

void MultiresolutionSearch::flush_evidence() {
  for (const PendingEvidence& e : pending_evidence_) {
    ber_predictor_.add(space_.normalized(*e.indices), e.ber, e.trials);
  }
  pending_evidence_.clear();
}

MultiresolutionSearch::Region MultiresolutionSearch::region_around(
    const std::vector<int>& center, const std::vector<std::vector<int>>& grid,
    const Region& parent) const {
  // Per dimension: the interval between the sampled grid coordinates
  // adjacent to the center.
  const std::size_t dims = space_.dimensions();
  Region out;
  out.ranges.resize(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    std::set<int> coords;
    for (const auto& p : grid) coords.insert(p[d]);
    int lo = parent.ranges[d].first;
    int hi = parent.ranges[d].second;
    auto it = coords.find(center[d]);
    if (it != coords.end()) {
      // Halve toward the sampled neighbors so each level genuinely narrows:
      // the subregion spans from the midpoint to the previous sample to the
      // midpoint to the next sample.
      if (it != coords.begin()) {
        lo = std::max(lo, (*std::prev(it) + *it + 1) / 2);
      }
      if (std::next(it) != coords.end()) {
        hi = std::min(hi, (*it + *std::next(it)) / 2);
      }
    }
    lo = std::min(lo, center[d]);
    hi = std::max(hi, center[d]);
    out.ranges[d] = {lo, hi};
  }
  return out;
}

void MultiresolutionSearch::search_region(const Region& region, int resolution,
                                          SearchResult& result) {
  if (result.evaluations >= config_.max_evaluations) return;
  const auto cap = static_cast<std::size_t>(config_.max_initial_evaluations);
  const int ppd = resolution == 0 ? config_.initial_points_per_dim
                                  : config_.refined_points_per_dim;
  const std::vector<std::vector<int>> grid = sample_grid(region, ppd, cap);
  result.levels_executed = std::max(result.levels_executed, resolution + 1);

  // Batch evaluation, phase 1: walk the grid in index order replaying the
  // serial budget rule — a point enters the level only while the evaluation
  // budget is unspent, and only cache misses consume budget. This fixes the
  // exact work-set up front, independent of how it is later scheduled.
  std::vector<std::size_t> admitted;  // grid indices this level will score
  std::vector<std::size_t> misses;    // subset needing a fresh evaluation
  std::size_t planned_evals = result.evaluations;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (planned_evals >= config_.max_evaluations) break;
    admitted.push_back(i);
    if (cached_evaluation(grid[i], resolution) == nullptr) {
      misses.push_back(i);
      ++planned_evals;
    }
  }
  result.cache_hits += admitted.size() - misses.size();

  // Phase 2: fan the cache misses out across the thread pool. The evaluator
  // must be safe to call concurrently (the MetaCore evaluators build all
  // their simulation state per call). Results land in a dense index-ordered
  // buffer, so scheduling order cannot leak into anything downstream.
  // Misses covered by the persistent store are absorbed straight from it,
  // which is what turns a repeat or resumed search against a warm store
  // into near-zero evaluator calls.
  std::vector<Evaluation> fresh(misses.size());
  std::vector<std::size_t> live;  // misses the store cannot satisfy
  live.reserve(misses.size());
  for (std::size_t j = 0; j < misses.size(); ++j) {
    if (config_.store) {
      auto hit = config_.store->lookup(config_.store_fingerprint,
                                       grid[misses[j]], resolution);
      if (hit) {
        fresh[j] = std::move(*hit);
        ++result.store_hits;
        continue;
      }
    }
    live.push_back(j);
  }
  exec::parallel_for(live.size(), [&](std::size_t k) {
    const std::size_t j = live[k];
    const std::vector<double> values = space_.values_at(grid[misses[j]]);
    fresh[j] =
        guard_ ? (*guard_)(values, resolution) : evaluate_(values, resolution);
  });
  // Feed the store in grid order so its append journal is deterministic.
  if (config_.store) {
    for (const std::size_t j : live) {
      config_.store->record(config_.store_fingerprint, grid[misses[j]],
                            resolution, fresh[j]);
    }
  }

  // Phase 3: merge in grid order — cache inserts, predictor evidence, and
  // the evaluation counter all advance deterministically. (Relative to the
  // historical fully-serial loop, the Bayesian predictor now sees the whole
  // level's evidence before any of the level's points are scored, which
  // only sharpens the pruning decisions below.)
  for (std::size_t j = 0; j < misses.size(); ++j) {
    absorb_evaluation(grid[misses[j]], resolution, std::move(fresh[j]),
                      result);
  }

  // Phase 4: track the global best over the admitted points in grid order,
  // exactly as the serial loop did. Scoring only chooses the regions to
  // refine, so the last level stops here.
  for (const std::size_t i : admitted) {
    const std::vector<int>& indices = grid[i];
    const Evaluation& eval = *cached_evaluation(indices, resolution);
    const RankKey key = objective_.rank_key(eval);
    if (result.best.indices.empty() || Objective::better(key, best_key_)) {
      result.best = {indices, space_.values_at(indices), eval, resolution};
      result.found_feasible = key.feasible;
      best_key_ = key;
    }
  }
  if (resolution >= config_.max_resolution) return;

  // Score for refinement: objective metric deflated by the probability of
  // meeting the probabilistic constraint near the point.
  if (has_probabilistic_) flush_evidence();
  struct Scored {
    const std::vector<int>* indices;
    double score;
  };
  std::vector<Scored> scored;
  for (const std::size_t i : admitted) {
    const std::vector<int>& indices = grid[i];
    const Evaluation& eval = *cached_evaluation(indices, resolution);
    if (!eval.feasible) continue;
    double prob = 1.0;
    if (has_probabilistic_) {
      prob = ber_predictor_.probability_below(space_.normalized(indices),
                                              probabilistic_bound_);
      if (prob < config_.probability_keep_threshold) continue;
    }
    double metric = std::numeric_limits<double>::infinity();
    if (!objective_.minimize.empty() && eval.has_metric(objective_.minimize)) {
      metric = eval.metric(objective_.minimize);
    }
    // All deterministic constraints must hold for the region to be worth
    // refining; probabilistic ones are handled by `prob`.
    bool deterministic_ok = true;
    for (const auto& c : objective_.constraints) {
      if (c.metric == config_.probabilistic_metric) continue;
      if (!c.satisfied(eval)) {
        deterministic_ok = false;
        break;
      }
    }
    if (!deterministic_ok) continue;
    scored.push_back({&indices, metric / std::max(prob, 1e-6)});
  }

  if (scored.empty()) return;

  std::sort(scored.begin(), scored.end(),
            [](const Scored& a, const Scored& b) { return a.score < b.score; });

  int refined = 0;
  std::vector<Region> chosen;
  for (const auto& s : scored) {
    if (refined >= config_.regions_per_level) break;
    Region sub = region_around(*s.indices, grid, region);
    // Skip regions identical to an already-chosen one.
    bool duplicate = false;
    for (const auto& c : chosen) {
      if (c.ranges == sub.ranges) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    chosen.push_back(sub);
    ++refined;
  }
  for (const auto& sub : chosen) {
    search_region(sub, resolution + 1, result);
  }
}

SearchResult MultiresolutionSearch::run() {
  SearchResult result;
  const std::size_t divergent_before =
      config_.store ? config_.store->divergent_duplicates() : 0;
  Region full;
  full.ranges.reserve(space_.dimensions());
  for (const auto& p : space_.parameters()) {
    full.ranges.push_back({0, static_cast<int>(p.values.size()) - 1});
  }
  search_region(full, 0, result);
  if (guard_) result.failures = guard_->counters();
  if (config_.store) {
    result.divergent_duplicates =
        config_.store->divergent_duplicates() - divergent_before;
  }

  // Final history: the best-fidelity evaluation of each distinct point.
  result.history.reserve(cache_.size());
  for (const auto& [indices, by_fidelity] : cache_) {
    const auto& [fid, eval] = *by_fidelity.rbegin();
    result.history.push_back(
        {indices, space_.values_at(indices), eval, fid});
  }
  return result;
}

SearchResult exhaustive_search(const DesignSpace& space,
                               const Objective& objective,
                               const EvaluateFn& evaluate, int fidelity,
                               std::size_t max_points) {
  if (space.size() > max_points) {
    throw std::invalid_argument(
        "exhaustive_search: design space exceeds the point budget");
  }
  SearchResult result;
  const std::size_t dims = space.dimensions();

  // Enumerate the full factorial up front, then fan the evaluations out
  // across the pool; the best-point reduction walks enumeration order, so
  // ties resolve exactly as the historical serial loop did.
  std::vector<std::vector<int>> points;
  points.reserve(space.size());
  std::vector<int> cursor(dims, 0);
  while (true) {
    points.push_back(cursor);
    std::size_t d = 0;
    while (d < dims) {
      if (++cursor[d] <
          static_cast<int>(space.parameters()[d].values.size())) {
        break;
      }
      cursor[d] = 0;
      ++d;
    }
    if (d == dims) break;
  }

  result.history.resize(points.size());
  exec::parallel_for(points.size(), [&](std::size_t i) {
    const std::vector<double> values = space.values_at(points[i]);
    Evaluation eval = evaluate(values, fidelity);
    result.history[i] =
        EvaluatedPoint{std::move(points[i]), values, std::move(eval), fidelity};
  });
  result.evaluations = result.history.size();
  RankKey best_key;
  for (const auto& point : result.history) {
    const RankKey key = objective.rank_key(point.eval);
    if (result.best.indices.empty() || Objective::better(key, best_key)) {
      result.best = point;
      result.found_feasible = key.feasible;
      best_key = key;
    }
  }
  result.levels_executed = 1;
  return result;
}

SearchResult verify_top_candidates(SearchResult result,
                                   const DesignSpace& space,
                                   const Objective& objective,
                                   const EvaluateFn& evaluate, int top_k,
                                   int fidelity, EvaluationStoreBase* store,
                                   const std::string& store_fingerprint) {
  if (top_k < 1) {
    throw std::invalid_argument("verify_top_candidates: top_k must be >= 1");
  }
  if (store != nullptr && store_fingerprint.empty()) {
    throw std::invalid_argument(
        "verify_top_candidates: store_fingerprint must identify the "
        "evaluator when a persistent store is attached");
  }
  const std::size_t divergent_before =
      store != nullptr ? store->divergent_duplicates() : 0;
  // Re-evaluations use the candidates' stored values directly; the space
  // parameter documents (and future-proofs) the coordinate system.
  (void)space;
  // Store-aware re-evaluation: consult the persistent store first, record
  // fresh results back. `result.evaluations` counts store hits exactly
  // like the search proper, so warm and cold runs report the same count.
  const auto evaluate_at = [&](const std::vector<int>& indices,
                               const std::vector<double>& values) {
    if (store != nullptr) {
      auto hit = store->lookup(store_fingerprint, indices, fidelity);
      if (hit) {
        ++result.store_hits;
        return std::move(*hit);
      }
    }
    Evaluation eval = evaluate(values, fidelity);
    if (store != nullptr) {
      store->record(store_fingerprint, indices, fidelity, eval);
    }
    return eval;
  };
  // Rank each point once; the sort then compares keys. Every comparison
  // has the outcome better() would give, so the permutation is the same.
  struct Ranked {
    RankKey key;
    const EvaluatedPoint* point;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(result.history.size());
  for (const auto& p : result.history) {
    ranked.push_back({objective.rank_key(p.eval), &p});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const Ranked& a, const Ranked& b) {
              return Objective::better(a.key, b.key);
            });

  // Walk the ranked list, re-verifying candidates at high fidelity, until
  // a few have been *confirmed* feasible (noisy screening estimates put
  // lucky-but-bad points at the top; they must not exhaust the budget).
  constexpr int kStopAfterConfirmed = 3;
  bool have_best = false;
  int confirmed = 0;
  EvaluatedPoint best;
  RankKey best_key;
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    if (static_cast<int>(i) >= top_k && confirmed > 0) break;
    if (static_cast<int>(i) >= 4 * top_k) break;  // give up eventually
    const EvaluatedPoint* cand = ranked[i].point;
    const bool reevaluate = cand->fidelity < fidelity;
    Evaluation fresh;
    RankKey key = ranked[i].key;
    if (reevaluate) {
      fresh = evaluate_at(cand->indices, cand->values);
      key = objective.rank_key(fresh);
      ++result.evaluations;
    }
    if (!have_best || Objective::better(key, best_key)) {
      best = {cand->indices, cand->values, {}, fidelity};
      best.eval = reevaluate ? std::move(fresh) : Evaluation(cand->eval);
      best_key = key;
      have_best = true;
    }
    if (key.feasible && ++confirmed >= kStopAfterConfirmed) break;
  }
  if (have_best) {
    result.best = std::move(best);
    result.found_feasible = best_key.feasible;
  }
  if (store != nullptr) {
    result.divergent_duplicates +=
        store->divergent_duplicates() - divergent_before;
  }
  return result;
}

}  // namespace metacore::search
