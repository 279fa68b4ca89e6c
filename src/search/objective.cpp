#include "search/objective.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace metacore::search {

double Evaluation::metric(std::string_view name) const {
  const auto it = metrics.find(name);
  if (it == metrics.end()) {
    throw std::invalid_argument("Evaluation: missing metric '" +
                                std::string(name) + "'");
  }
  return it->second;
}

bool Evaluation::has_metric(std::string_view name) const {
  return metrics.find(name) != metrics.end();
}

bool Constraint::satisfied(const Evaluation& eval) const {
  return violation(eval) <= 0.0;
}

double Constraint::violation(const Evaluation& eval) const {
  const auto it = eval.metrics.find(metric);
  if (it == eval.metrics.end()) return 1.0;  // unknown counts as violated
  const double value = it->second;
  const double scale = bound != 0.0 ? std::abs(bound) : 1.0;
  switch (kind) {
    case Kind::UpperBound:
      return (value - bound) / scale;
    case Kind::LowerBound:
      return (bound - value) / scale;
  }
  return 1.0;
}

bool Objective::feasible(const Evaluation& eval) const {
  if (!eval.feasible) return false;
  for (const auto& c : constraints) {
    if (!c.satisfied(eval)) return false;
  }
  return true;
}

RankKey Objective::rank_key(const Evaluation& eval) const {
  RankKey key;
  key.feasible = eval.feasible;
  double violation = eval.feasible ? 0.0 : 1e9;
  for (const auto& c : constraints) {
    const double v = c.violation(eval);
    if (!(v <= 0.0)) key.feasible = false;  // Constraint::satisfied
    violation += std::max(0.0, v);
  }
  if (!key.feasible) key.violation = violation;
  if (!minimize.empty()) {
    const auto it = eval.metrics.find(minimize);
    if (it != eval.metrics.end()) {
      key.has_value = true;
      key.value = it->second;
    }
  }
  return key;
}

bool Objective::better(const RankKey& a, const RankKey& b) {
  if (a.feasible != b.feasible) return a.feasible;
  if (!a.feasible) return a.violation < b.violation;
  if (!a.has_value || !b.has_value) return a.has_value;
  return a.value < b.value;
}

}  // namespace metacore::search
