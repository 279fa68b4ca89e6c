// Objective functions and constraints (component (ii) of the MetaCore
// approach): named metrics produced by an evaluation, bound constraints on
// them, and a single metric to minimize — e.g. "minimize area subject to
// BER <= target and throughput >= target" for the Viterbi MetaCore.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "search/metric_map.hpp"

namespace metacore::search {

/// The result of evaluating one design point at some fidelity. `metrics`
/// hold named quantities ("ber", "area_mm2", ...); `feasible` covers
/// intrinsic failures (e.g. no hardware configuration meets throughput).
struct Evaluation {
  bool feasible = true;
  MetricMap metrics;
  /// For probabilistic metrics: how much evidence backs them (e.g. bits
  /// simulated); used by the Bayesian predictor to weight observations.
  double confidence_weight = 1.0;
  /// Non-empty when a guarded evaluator (robust::GuardedEvaluator)
  /// converted a failure into this infeasible evaluation: "<kind>:
  /// <message>", e.g. "non-convergence: schedule_block: scheduler failed to
  /// converge". Empty for ordinary evaluations.
  std::string failure_reason;

  double metric(std::string_view name) const;
  bool has_metric(std::string_view name) const;
};

/// Evaluation callback. `point` holds one value per design-space dimension;
/// `fidelity` scales simulation effort (0 = cheapest screening run; each
/// additional level buys longer, more accurate simulation — the paper's
/// "more accurate simulation results (longer run times)").
using EvaluateFn =
    std::function<Evaluation(const std::vector<double>& point, int fidelity)>;

struct Constraint {
  enum class Kind { UpperBound, LowerBound } kind = Kind::UpperBound;
  std::string metric;
  double bound = 0.0;

  bool satisfied(const Evaluation& eval) const;
  /// Signed violation (<= 0 when satisfied), normalized by the bound.
  double violation(const Evaluation& eval) const;
};

/// Where one evaluation ranks under an Objective: everything better()
/// looks at, computed once, so a sort or a running best compares numbers
/// instead of looking metrics up again on every comparison.
struct RankKey {
  bool feasible = false;  ///< Objective::feasible
  /// Summed in constraint order: max(0, violation) per constraint, plus
  /// 1e9 when the evaluation itself is infeasible. Compared only between
  /// two infeasible keys (0 for feasible ones).
  double violation = 0.0;
  bool has_value = false;  ///< the minimized metric is present
  double value = 0.0;      ///< its value (0 when absent)
};

struct Objective {
  std::string minimize;  ///< metric to minimize among feasible points
  std::vector<Constraint> constraints;

  bool feasible(const Evaluation& eval) const;

  RankKey rank_key(const Evaluation& eval) const;

  /// The order: feasibility first, then total constraint violation, then
  /// the objective metric (a point that has it beats one that does not).
  /// Returns true when `a` is better.
  static bool better(const RankKey& a, const RankKey& b);
  bool better(const Evaluation& a, const Evaluation& b) const {
    return better(rank_key(a), rank_key(b));
  }
};

}  // namespace metacore::search
