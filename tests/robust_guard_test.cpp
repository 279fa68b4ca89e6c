// Tests for the fault-tolerant evaluation layer: error classification and
// GuardedEvaluator retry/quarantine/conversion semantics.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "robust/error.hpp"
#include "robust/guarded_evaluator.hpp"

namespace metacore {
namespace {

search::Evaluation ok_eval(double cost) {
  search::Evaluation e;
  e.metrics["cost"] = cost;
  return e;
}

robust::EvalError classify(const std::exception_ptr& ep) {
  try {
    std::rethrow_exception(ep);
  } catch (...) {
    return robust::classify_current_exception();
  }
}

TEST(EvalError, ClassifiesStandardExceptionTypes) {
  using Kind = robust::EvalErrorKind;
  EXPECT_EQ(classify(std::make_exception_ptr(std::invalid_argument("x"))).kind,
            Kind::InvalidPoint);
  EXPECT_EQ(classify(std::make_exception_ptr(std::domain_error("x"))).kind,
            Kind::InvalidPoint);
  EXPECT_EQ(classify(std::make_exception_ptr(std::out_of_range("x"))).kind,
            Kind::InvalidPoint);
  EXPECT_EQ(classify(std::make_exception_ptr(std::runtime_error("x"))).kind,
            Kind::InvalidPoint);
  // The schedulers throw std::logic_error when they fail to converge.
  EXPECT_EQ(classify(std::make_exception_ptr(std::logic_error("x"))).kind,
            Kind::NonConvergence);
  EXPECT_EQ(classify(std::make_exception_ptr(42)).kind, Kind::NonConvergence);
  // EvalException reports its own kind and message.
  const auto err = classify(std::make_exception_ptr(
      robust::EvalException(Kind::InjectedTransient, "blip")));
  EXPECT_EQ(err.kind, Kind::InjectedTransient);
  EXPECT_EQ(err.message, "blip");
}

TEST(EvalError, KindNamesAreStable) {
  using Kind = robust::EvalErrorKind;
  EXPECT_STREQ(robust::to_string(Kind::InvalidPoint), "invalid-point");
  EXPECT_STREQ(robust::to_string(Kind::NonConvergence), "non-convergence");
  EXPECT_STREQ(robust::to_string(Kind::NonFiniteMetric), "non-finite-metric");
  EXPECT_STREQ(robust::to_string(Kind::InjectedTransient),
               "injected-transient");
  EXPECT_TRUE(robust::is_transient(Kind::InjectedTransient));
  EXPECT_FALSE(robust::is_transient(Kind::InvalidPoint));
  EXPECT_FALSE(robust::is_transient(Kind::NonConvergence));
  EXPECT_FALSE(robust::is_transient(Kind::NonFiniteMetric));
}

TEST(GuardedEvaluator, PassesThroughCleanEvaluations) {
  robust::GuardedEvaluator guard(
      [](const std::vector<double>& point, int fidelity) {
        return ok_eval(point[0] + fidelity);
      });
  const auto eval = guard({2.5}, 3);
  EXPECT_TRUE(eval.feasible);
  EXPECT_EQ(eval.metrics.at("cost"), 5.5);
  EXPECT_TRUE(eval.failure_reason.empty());
  EXPECT_EQ(guard.counters(), robust::FailureCounters{});
}

TEST(GuardedEvaluator, RejectsInvalidConstruction) {
  EXPECT_THROW(robust::GuardedEvaluator(nullptr), std::invalid_argument);
  EXPECT_THROW(
      robust::GuardedEvaluator(
          [](const std::vector<double>&, int) { return ok_eval(0.0); },
          robust::RetryPolicy{0}),
      std::invalid_argument);
}

TEST(GuardedEvaluator, ConvertsTerminalFailuresToInfeasible) {
  robust::GuardedEvaluator guard(
      [](const std::vector<double>&, int) -> search::Evaluation {
        throw std::invalid_argument("degenerate corner");
      });
  const auto eval = guard({0.0}, 0);
  EXPECT_FALSE(eval.feasible);
  EXPECT_TRUE(eval.metrics.empty());
  EXPECT_EQ(eval.failure_reason, "invalid-point: degenerate corner");
  const auto c = guard.counters();
  EXPECT_EQ(c.invalid_point, 1u);
  EXPECT_EQ(c.failed_evaluations, 1u);
  EXPECT_EQ(c.retries, 0u);  // deterministic failures are not retried
}

TEST(GuardedEvaluator, RetriesTransientFaultsDeterministically) {
  // Fails on attempts 0 and 1, succeeds on attempt 2: with max_attempts = 3
  // the guard recovers; the attempt number must be visible to the evaluator.
  auto flaky = [](const std::vector<double>& point, int) {
    if (robust::current_attempt() < 2) {
      throw robust::EvalException(robust::EvalErrorKind::InjectedTransient,
                                  "blip");
    }
    return ok_eval(point[0]);
  };
  robust::GuardedEvaluator guard(flaky, robust::RetryPolicy{3});
  const auto eval = guard({7.0}, 0);
  EXPECT_TRUE(eval.feasible);
  EXPECT_EQ(eval.metrics.at("cost"), 7.0);
  auto c = guard.counters();
  EXPECT_EQ(c.transient_faults, 2u);
  EXPECT_EQ(c.retries, 2u);
  EXPECT_EQ(c.recovered, 1u);
  EXPECT_EQ(c.failed_evaluations, 0u);

  // One attempt fewer and the same fault sequence becomes terminal.
  robust::GuardedEvaluator strict(flaky, robust::RetryPolicy{2});
  const auto failed = strict({7.0}, 0);
  EXPECT_FALSE(failed.feasible);
  EXPECT_EQ(failed.failure_reason, "injected-transient: blip");
  c = strict.counters();
  EXPECT_EQ(c.transient_faults, 2u);
  EXPECT_EQ(c.retries, 1u);
  EXPECT_EQ(c.recovered, 0u);
  EXPECT_EQ(c.failed_evaluations, 1u);
}

TEST(GuardedEvaluator, QuarantinesNonFiniteMetrics) {
  robust::GuardedEvaluator guard(
      [](const std::vector<double>&, int) {
        search::Evaluation e;
        e.metrics["cost"] = 1.0;
        e.metrics["ber"] = std::numeric_limits<double>::quiet_NaN();
        e.metrics["area"] = std::numeric_limits<double>::infinity();
        return e;
      });
  const auto eval = guard({1.0}, 0);
  EXPECT_FALSE(eval.feasible);
  // Finite metrics survive; NaN/Inf never reach downstream predictors.
  EXPECT_EQ(eval.metrics.count("cost"), 1u);
  EXPECT_EQ(eval.metrics.count("ber"), 0u);
  EXPECT_EQ(eval.metrics.count("area"), 0u);
  EXPECT_NE(eval.failure_reason.find("non-finite-metric"), std::string::npos);
  EXPECT_NE(eval.failure_reason.find("ber"), std::string::npos);
  EXPECT_NE(eval.failure_reason.find("area"), std::string::npos);
  const auto c = guard.counters();
  EXPECT_EQ(c.non_finite, 1u);
  EXPECT_EQ(c.failed_evaluations, 1u);
}

TEST(GuardedEvaluator, AttemptNumberResetsBetweenEvaluations) {
  std::vector<int> attempts;
  robust::GuardedEvaluator guard(
      [&](const std::vector<double>&, int) {
        attempts.push_back(robust::current_attempt());
        return ok_eval(0.0);
      });
  guard({1.0}, 0);
  guard({2.0}, 0);
  EXPECT_EQ(attempts, (std::vector<int>{0, 0}));
  EXPECT_EQ(robust::current_attempt(), 0);
}

}  // namespace
}  // namespace metacore
