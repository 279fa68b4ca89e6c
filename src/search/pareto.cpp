#include "search/pareto.hpp"

#include <algorithm>
#include <limits>

namespace metacore::search {

std::vector<EvaluatedPoint> pareto_front(
    const std::vector<EvaluatedPoint>& history, const std::string& metric_x,
    const std::string& metric_y) {
  // Each candidate's two metrics are looked up once; the sort compares
  // the stored values.
  struct Candidate {
    double x, y;
    const EvaluatedPoint* point;
  };
  std::vector<Candidate> candidates;
  for (const auto& p : history) {
    if (!p.eval.feasible) continue;
    const auto x = p.eval.metrics.find(metric_x);
    const auto y = p.eval.metrics.find(metric_y);
    if (x == p.eval.metrics.end() || y == p.eval.metrics.end()) continue;
    candidates.push_back({x->second, y->second, &p});
  }
  // Metric ties are broken by grid indices (lowest wins): the order is
  // total, so the staircase below — which keeps exactly one point per
  // coincident (x, y) — deduplicates deterministically regardless of
  // history order or std::sort's handling of equivalent elements.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.x != b.x) return a.x < b.x;
              if (a.y != b.y) return a.y < b.y;
              return a.point->indices < b.point->indices;
            });
  std::vector<EvaluatedPoint> front;
  double best_y = std::numeric_limits<double>::infinity();
  for (const Candidate& c : candidates) {
    if (c.y < best_y) {
      front.push_back(*c.point);
      best_y = c.y;
    }
  }
  return front;
}

double hypervolume_2d(const std::vector<EvaluatedPoint>& front,
                      const std::string& metric_x, const std::string& metric_y,
                      double ref_x, double ref_y) {
  // `front` need not be pre-filtered; re-derive the staircase, then sweep
  // it left to right: each point covers [x_i, min(next_x, ref_x)) in x and
  // [y_i, ref_y) in y (minimization convention).
  const std::vector<EvaluatedPoint> staircase =
      pareto_front(front, metric_x, metric_y);
  double volume = 0.0;
  for (std::size_t i = 0; i < staircase.size(); ++i) {
    const double x = staircase[i].eval.metric(metric_x);
    const double y = staircase[i].eval.metric(metric_y);
    if (x >= ref_x || y >= ref_y) continue;
    double next_x = ref_x;
    for (std::size_t j = i + 1; j < staircase.size(); ++j) {
      const double xj = staircase[j].eval.metric(metric_x);
      const double yj = staircase[j].eval.metric(metric_y);
      if (xj >= ref_x || yj >= ref_y) continue;
      next_x = xj;
      break;
    }
    volume += (std::min(next_x, ref_x) - x) * (ref_y - y);
  }
  return volume;
}

}  // namespace metacore::search
