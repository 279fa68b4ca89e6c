// Error taxonomy for cost-engine evaluations. The engines fail in a small
// number of recognizable ways — degenerate corners of the design space throw
// std::invalid_argument/std::domain_error from validation, the VLIW and
// synthesis list schedulers throw std::logic_error on non-convergence, and
// fault injection produces deliberately transient errors — and the search
// treats each kind differently (retry vs quarantine vs record-and-skip).
#pragma once

#include <stdexcept>
#include <string>

namespace metacore::robust {

enum class EvalErrorKind {
  InvalidPoint,       ///< degenerate design point rejected by validation
  NonConvergence,     ///< an iterative engine exceeded its iteration bound
  NonFiniteMetric,    ///< the evaluation produced NaN/Inf metrics
  InjectedTransient,  ///< deliberately injected transient fault (tests/ablations)
};

/// Stable kebab-case names, used in failure reasons (which the evaluation
/// store persists verbatim).
const char* to_string(EvalErrorKind kind) noexcept;

/// Only transient kinds are worth retrying: the engines are deterministic,
/// so a genuine invalid-point or non-convergence failure repeats verbatim
/// on every attempt.
constexpr bool is_transient(EvalErrorKind kind) noexcept {
  return kind == EvalErrorKind::InjectedTransient;
}

/// A classified evaluation failure.
struct EvalError {
  EvalErrorKind kind = EvalErrorKind::NonConvergence;
  std::string message;
};

/// Exception that carries its own classification. Thrown by fault injectors
/// and available to evaluators that know their failure kind precisely.
class EvalException : public std::runtime_error {
 public:
  EvalException(EvalErrorKind kind, const std::string& message)
      : std::runtime_error(message), kind_(kind) {}

  EvalErrorKind kind() const noexcept { return kind_; }

 private:
  EvalErrorKind kind_;
};

/// Classifies the exception currently being handled (call from inside a
/// catch block). EvalException reports its own kind; validation errors
/// (std::invalid_argument, std::domain_error, std::out_of_range) and other
/// std::runtime_errors — the engines use those for degenerate inputs like
/// unstable transfer functions — map to InvalidPoint; std::logic_error (the
/// schedulers' non-convergence guards) maps to NonConvergence, as does any
/// unrecognized exception.
EvalError classify_current_exception();

}  // namespace metacore::robust
