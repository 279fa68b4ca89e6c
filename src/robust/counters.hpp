// Failure accounting for the fault-tolerant evaluation layer (src/robust/):
// a plain counter struct shared by GuardedEvaluator, SearchResult, and the
// search report. Kept dependency-free so every layer can
// pass it around by value.
#pragma once

#include <cstddef>

namespace metacore::robust {

/// Counts of evaluation failures observed by a GuardedEvaluator. Every
/// terminal failure (an evaluation converted into an infeasible result) is
/// tallied both under its kind and in `failed_evaluations`; transient
/// faults that a retry cleared end up in `recovered` instead.
struct FailureCounters {
  std::size_t invalid_point = 0;    ///< terminal invalid-point failures
  std::size_t non_convergence = 0;  ///< terminal non-convergence failures
  std::size_t non_finite = 0;       ///< evaluations quarantined for NaN/Inf metrics
  std::size_t transient_faults = 0; ///< individual transient throws observed
  std::size_t retries = 0;          ///< re-invocations after a transient fault
  std::size_t recovered = 0;        ///< evaluations that succeeded after retrying
  std::size_t failed_evaluations = 0;  ///< evaluations converted to infeasible

  /// Total individual fault events (not evaluations): terminal failures by
  /// kind plus every transient throw, recovered or not.
  std::size_t total_faults() const noexcept {
    return invalid_point + non_convergence + non_finite + transient_faults;
  }

  FailureCounters& operator+=(const FailureCounters& other) noexcept {
    invalid_point += other.invalid_point;
    non_convergence += other.non_convergence;
    non_finite += other.non_finite;
    transient_faults += other.transient_faults;
    retries += other.retries;
    recovered += other.recovered;
    failed_evaluations += other.failed_evaluations;
    return *this;
  }

  friend FailureCounters operator+(FailureCounters a,
                                   const FailureCounters& b) noexcept {
    a += b;
    return a;
  }

  friend bool operator==(const FailureCounters&,
                         const FailureCounters&) = default;
};

}  // namespace metacore::robust
