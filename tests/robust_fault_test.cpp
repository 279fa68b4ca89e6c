// Fault-injection matrix for the guarded multiresolution search: every
// failure kind, serial and parallel, with deterministic injection — the
// search must complete, account for every injected fault, and stay
// bit-identical across thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"
#include "robust/fault_injection.hpp"
#include "search/multires_search.hpp"
#include "util/rng.hpp"

namespace metacore {
namespace {

/// Deterministic synthetic landscape: a smooth bowl plus a point-keyed
/// pseudo-random BER-like metric (same shape as the exec_pool determinism
/// tests, so fault-free behavior is well understood).
search::EvaluateFn synthetic_eval(std::atomic<std::size_t>* calls) {
  return [calls](const std::vector<double>& point, int fidelity) {
    if (calls) calls->fetch_add(1);
    double v = 0.0;
    for (std::size_t d = 0; d < point.size(); ++d) {
      const double diff = point[d] - 0.5;
      v += diff * diff;
    }
    search::Evaluation e;
    e.metrics["cost"] = v + 0.01 * fidelity;
    const double noise =
        static_cast<double>(util::CounterRng::at(
            17, static_cast<std::uint64_t>(std::llround(v * 1e9)))) /
        static_cast<double>(std::numeric_limits<std::uint64_t>::max());
    e.metrics["ber"] = std::pow(10.0, -2.0 - 3.0 * noise - v);
    e.confidence_weight = 10'000.0;
    return e;
  };
}

search::DesignSpace synthetic_space() {
  std::vector<search::ParameterDef> params;
  for (int d = 0; d < 3; ++d) {
    search::ParameterDef p;
    p.name = "x" + std::to_string(d);
    for (int i = 0; i < 9; ++i) p.values.push_back(i / 8.0);
    p.correlation = search::Correlation::Smooth;
    params.push_back(p);
  }
  return search::DesignSpace(params);
}

search::Objective synthetic_objective() {
  search::Objective obj;
  obj.minimize = "cost";
  obj.constraints.push_back(
      {search::Constraint::Kind::UpperBound, "ber", 1e-3});
  return obj;
}

search::SearchConfig small_config() {
  search::SearchConfig config;
  config.max_resolution = 2;
  config.regions_per_level = 3;
  config.probabilistic_metric = "ber";
  return config;
}

struct InjectedRun {
  search::SearchResult result;
  robust::FaultInjectionCounts injected;
  std::size_t evaluator_calls = 0;
};

InjectedRun run_with_injection(const robust::FaultInjectionConfig& faults,
                               std::size_t threads) {
  exec::ThreadPool::set_global_threads(threads);
  std::atomic<std::size_t> calls{0};
  robust::FaultInjector injector(synthetic_eval(&calls), faults);
  search::MultiresolutionSearch engine(synthetic_space(),
                                       synthetic_objective(), injector.fn(),
                                       small_config());
  InjectedRun run;
  run.result = engine.run();
  run.injected = injector.counts();
  run.evaluator_calls = calls.load();
  exec::ThreadPool::set_global_threads(1);
  return run;
}

void expect_same_result(const search::SearchResult& a,
                        const search::SearchResult& b) {
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.found_feasible, b.found_feasible);
  EXPECT_EQ(a.best.indices, b.best.indices);
  EXPECT_EQ(a.best.eval.metrics, b.best.eval.metrics);
  EXPECT_EQ(a.failures, b.failures);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t p = 0; p < a.history.size(); ++p) {
    EXPECT_EQ(a.history[p].indices, b.history[p].indices);
    EXPECT_EQ(a.history[p].eval.metrics, b.history[p].eval.metrics);
    EXPECT_EQ(a.history[p].eval.failure_reason,
              b.history[p].eval.failure_reason);
  }
}

TEST(FaultMatrix, EveryKindSurvivesAndIsAccountedAtAnyThreadCount) {
  struct KindCase {
    const char* name;
    robust::FaultInjectionConfig faults;
  };
  std::vector<KindCase> cases(4);
  cases[0] = {"invalid_point", {}};
  cases[0].faults.invalid_point = 0.1;
  cases[1] = {"non_convergence", {}};
  cases[1].faults.non_convergence = 0.1;
  cases[2] = {"non_finite", {}};
  cases[2].faults.non_finite = 0.1;
  cases[3] = {"transient", {}};
  cases[3].faults.transient = 0.1;

  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<InjectedRun> runs;
    for (const std::size_t threads : {1u, 2u, 8u}) {
      runs.push_back(run_with_injection(c.faults, threads));
    }
    const auto& ref = runs[0];
    EXPECT_GT(ref.result.evaluations, 0u);
    EXPECT_GT(ref.injected.total(), 0u)
        << "injector never fired; the matrix tests nothing";

    // Guard counters must match the injector's record exactly.
    const auto& f = ref.result.failures;
    EXPECT_EQ(f.invalid_point, ref.injected.invalid_point);
    EXPECT_EQ(f.non_convergence, ref.injected.non_convergence);
    EXPECT_EQ(f.non_finite, ref.injected.non_finite);
    EXPECT_EQ(f.transient_faults, ref.injected.transient);
    // Terminal kinds fail exactly once per fault; transients fail only when
    // retries are exhausted (every non-final-attempt transient is retried).
    EXPECT_EQ(f.failed_evaluations,
              ref.injected.invalid_point + ref.injected.non_convergence +
                  ref.injected.non_finite +
                  (ref.injected.transient - f.retries));

    // Identical faults, trajectory, and accounting at 2 and 8 threads.
    for (std::size_t i = 1; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].injected, ref.injected);
      expect_same_result(runs[i].result, ref.result);
    }
  }
}

TEST(FaultMatrix, TenPercentTransientRateCompletesWithAccurateCounters) {
  robust::FaultInjectionConfig faults;
  faults.transient = 0.10;
  const auto run = run_with_injection(faults, 8);
  EXPECT_GT(run.result.evaluations, 0u);
  EXPECT_GT(run.injected.transient, 0u);
  const auto& f = run.result.failures;
  EXPECT_EQ(f.transient_faults, run.injected.transient);
  EXPECT_EQ(f.retries + f.failed_evaluations, run.injected.transient);
  // Every retried-and-cleared evaluation is a recovery.
  EXPECT_GT(f.recovered, 0u);
  // The inner evaluator runs once per attempt the injector lets through:
  // total attempts (evaluations + retries) minus intercepted ones (fired
  // transients), which reduces to evaluations - failed_evaluations.
  EXPECT_EQ(run.evaluator_calls,
            run.result.evaluations - f.failed_evaluations);
}

TEST(FaultMatrix, WinnerUnchangedWhenFaultsOnlyHitInfeasiblePoints) {
  // Fault exactly the points that violate the BER constraint in the
  // fault-free landscape. Those points are never scored for refinement and
  // never win, so converting them from constraint-infeasible to
  // failed-infeasible must leave the trajectory and the winner untouched.
  // (The config deliberately has no probabilistic metric: region scoring
  // then depends only on constraint-feasible points, which faults never
  // touch here.)
  auto config = small_config();
  config.probabilistic_metric.clear();
  const auto clean_fn = synthetic_eval(nullptr);
  const auto violates_ber = [clean_fn](const std::vector<double>& point) {
    return clean_fn(point, 0).metrics.at("ber") > 1e-3;
  };

  exec::ThreadPool::set_global_threads(4);
  search::MultiresolutionSearch clean_engine(synthetic_space(),
                                             synthetic_objective(), clean_fn,
                                             config);
  const auto clean = clean_engine.run();
  ASSERT_TRUE(clean.found_feasible);

  auto faulty = [&](const std::vector<double>& point, int fidelity) {
    if (violates_ber(point)) {
      throw robust::EvalException(robust::EvalErrorKind::InvalidPoint,
                                  "constraint-violating point faulted");
    }
    return clean_fn(point, fidelity);
  };
  search::MultiresolutionSearch faulty_engine(synthetic_space(),
                                              synthetic_objective(), faulty,
                                              config);
  const auto faulted = faulty_engine.run();
  exec::ThreadPool::set_global_threads(1);

  EXPECT_GT(faulted.failures.invalid_point, 0u);
  ASSERT_TRUE(faulted.found_feasible);
  EXPECT_EQ(faulted.evaluations, clean.evaluations);
  EXPECT_EQ(faulted.best.indices, clean.best.indices);
  EXPECT_EQ(faulted.best.eval.metrics, clean.best.eval.metrics);
}

}  // namespace
}  // namespace metacore
