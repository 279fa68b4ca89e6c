// Tests for objective/constraint evaluation and ordering, and for the
// flat metric record: MetricMap against a std::map reference under seeded
// operation sequences, and the rank-once sorts of verify_top_candidates
// and pareto_front against references that compare evaluations directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "search/multires_search.hpp"
#include "search/objective.hpp"
#include "search/pareto.hpp"
#include "util/rng.hpp"

namespace metacore::search {
namespace {

Evaluation make_eval(double ber, double area, bool feasible = true) {
  Evaluation e;
  e.feasible = feasible;
  e.metrics["ber"] = ber;
  e.metrics["area"] = area;
  return e;
}

Objective area_under_ber(double ber_bound) {
  Objective obj;
  obj.minimize = "area";
  obj.constraints.push_back(
      {Constraint::Kind::UpperBound, "ber", ber_bound});
  return obj;
}

TEST(Evaluation, MetricAccess) {
  const Evaluation e = make_eval(1e-3, 2.0);
  EXPECT_DOUBLE_EQ(e.metric("ber"), 1e-3);
  EXPECT_TRUE(e.has_metric("area"));
  EXPECT_FALSE(e.has_metric("latency"));
  EXPECT_THROW(e.metric("latency"), std::invalid_argument);
}

TEST(Constraint, UpperBoundSatisfaction) {
  const Constraint c{Constraint::Kind::UpperBound, "ber", 1e-3};
  EXPECT_TRUE(c.satisfied(make_eval(1e-4, 1.0)));
  EXPECT_TRUE(c.satisfied(make_eval(1e-3, 1.0)));
  EXPECT_FALSE(c.satisfied(make_eval(2e-3, 1.0)));
  EXPECT_LT(c.violation(make_eval(1e-4, 1.0)), 0.0);
  EXPECT_GT(c.violation(make_eval(2e-3, 1.0)), 0.0);
}

TEST(Constraint, LowerBoundSatisfaction) {
  const Constraint c{Constraint::Kind::LowerBound, "area", 1.0};
  EXPECT_TRUE(c.satisfied(make_eval(0.0, 2.0)));
  EXPECT_FALSE(c.satisfied(make_eval(0.0, 0.5)));
}

TEST(Constraint, MissingMetricCountsAsViolated) {
  const Constraint c{Constraint::Kind::UpperBound, "latency", 5.0};
  EXPECT_FALSE(c.satisfied(make_eval(0.0, 1.0)));
}

TEST(Objective, FeasibilityRequiresAllConstraintsAndIntrinsicFlag) {
  const Objective obj = area_under_ber(1e-3);
  EXPECT_TRUE(obj.feasible(make_eval(1e-4, 1.0)));
  EXPECT_FALSE(obj.feasible(make_eval(1e-2, 1.0)));
  EXPECT_FALSE(obj.feasible(make_eval(1e-4, 1.0, /*feasible=*/false)));
}

TEST(Objective, BetterPrefersFeasible) {
  const Objective obj = area_under_ber(1e-3);
  const auto feasible_big = make_eval(1e-4, 100.0);
  const auto infeasible_small = make_eval(1e-2, 0.1);
  EXPECT_TRUE(obj.better(feasible_big, infeasible_small));
  EXPECT_FALSE(obj.better(infeasible_small, feasible_big));
}

TEST(Objective, BetterComparesObjectiveAmongFeasible) {
  const Objective obj = area_under_ber(1e-3);
  EXPECT_TRUE(obj.better(make_eval(1e-4, 1.0), make_eval(1e-4, 2.0)));
  EXPECT_FALSE(obj.better(make_eval(1e-4, 2.0), make_eval(1e-4, 1.0)));
}

TEST(Objective, BetterComparesViolationAmongInfeasible) {
  const Objective obj = area_under_ber(1e-3);
  const auto slightly_off = make_eval(1.5e-3, 1.0);
  const auto badly_off = make_eval(1e-1, 1.0);
  EXPECT_TRUE(obj.better(slightly_off, badly_off));
  EXPECT_FALSE(obj.better(badly_off, slightly_off));
}

TEST(Objective, EmptyMinimizeComparesOnlyFeasibility) {
  Objective obj;
  obj.constraints.push_back({Constraint::Kind::UpperBound, "ber", 1e-3});
  EXPECT_FALSE(obj.better(make_eval(1e-4, 1.0), make_eval(1e-4, 2.0)));
  EXPECT_TRUE(obj.better(make_eval(1e-4, 5.0), make_eval(1.0, 1.0)));
}

// --- MetricMap parity -------------------------------------------------------

using Reference = std::map<std::string, double>;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Names that stress the order: empty, prefixes, upper before lower case,
/// bytes >= 0x80 (which sort last, as unsigned), and names too long for
/// the small-string buffer.
const std::vector<std::string>& name_pool() {
  static const std::vector<std::string> pool = {
      "",    "a",   "ab",  "abc", "b",   "B",  "Z",    "ber", "ber_observed",
      "\x7f", "\xc3\xa9", "required_clock_mhz", "required_clock_mhz_long_name",
      "area_mm2", "cores"};
  return pool;
}

double pick_value(util::CounterRng& rng) {
  switch (rng() % 8) {
    case 0: return std::numeric_limits<double>::quiet_NaN();
    case 1: return std::numeric_limits<double>::infinity();
    case 2: return -std::numeric_limits<double>::infinity();
    case 3: return -0.0;
    default:
      return static_cast<double>(static_cast<std::int64_t>(rng() % 2001) -
                                 1000) /
             7.0;
  }
}

void expect_same(const MetricMap& got, const Reference& want,
                 const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  auto g = got.begin();
  for (const auto& [name, value] : want) {
    EXPECT_EQ(g->first, name) << label;
    EXPECT_EQ(bits(g->second), bits(value)) << label << " " << name;
    ++g;
  }
}

TEST(MetricMapParity, SeededOperationSequencesMatchStdMap) {
  const auto& names = name_pool();
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    util::CounterRng rng(seed);
    MetricMap a, b;
    Reference ra, rb;
    for (int step = 0; step < 400; ++step) {
      const bool on_b = rng() % 4 == 0;
      MetricMap& m = on_b ? b : a;
      Reference& r = on_b ? rb : ra;
      const std::string& name = names[rng() % names.size()];
      const std::string label = "seed " + std::to_string(seed) + " step " +
                                std::to_string(step) + " name '" + name + "'";
      switch (rng() % 9) {
        case 0:
        case 1: {  // emplace keeps the held value
          const double v = pick_value(rng);
          const auto [it, inserted] = m.emplace(name, v);
          const auto [rit, rinserted] = r.emplace(name, v);
          EXPECT_EQ(inserted, rinserted) << label;
          EXPECT_EQ(it->first, rit->first) << label;
          EXPECT_EQ(bits(it->second), bits(rit->second)) << label;
          break;
        }
        case 2:
        case 3: {  // operator[] overwrites
          const double v = pick_value(rng);
          m[name] = v;
          r[name] = v;
          break;
        }
        case 4: {  // operator[] read inserts 0.0
          EXPECT_EQ(bits(m[name]), bits(r[name])) << label;
          break;
        }
        case 5: {  // erase by iterator
          const auto it = m.find(name);
          const auto rit = r.find(name);
          ASSERT_EQ(it == m.end(), rit == r.end()) << label;
          if (it != m.end()) {
            const auto next = m.erase(it);
            const auto rnext = r.erase(rit);
            ASSERT_EQ(next == m.end(), rnext == r.end()) << label;
            if (next != m.end()) {
              EXPECT_EQ(next->first, rnext->first) << label;
            }
          }
          break;
        }
        case 6:
        case 7: {  // find / count / at
          EXPECT_EQ(m.count(name), r.count(name)) << label;
          const auto it = m.find(name);
          ASSERT_EQ(it == m.end(), r.find(name) == r.end()) << label;
          if (it == m.end()) {
            EXPECT_THROW((void)m.at(name), std::out_of_range) << label;
          } else {
            EXPECT_EQ(bits(m.at(name)), bits(r.at(name))) << label;
          }
          break;
        }
        case 8:  // == (NaN values compare unequal, as in std::map)
          EXPECT_EQ(a == b, ra == rb) << label;
          EXPECT_EQ(a == a, ra == ra) << label;
          break;
      }
      expect_same(m, r, label);
    }
  }
}

TEST(MetricMapParity, InitializerListKeepsTheFirstOfRepeatedNames) {
  const MetricMap m = {{"b", 1.0}, {"a", 2.0}, {"b", 3.0}, {"", 4.0}};
  const Reference r = {{"b", 1.0}, {"a", 2.0}, {"b", 3.0}, {"", 4.0}};
  expect_same(m, r, "initializer list");
  Evaluation e;
  e.metrics = {{"z", 1.0}, {"y", 2.0}};
  expect_same(e.metrics, Reference{{"y", 2.0}, {"z", 1.0}}, "assignment");
}

TEST(MetricMapParity, EmplaceHintKeepsTheOrderWhateverTheHint) {
  MetricMap m;
  m.emplace_hint(m.end(), "b", 1.0);
  m.emplace_hint(m.end(), "a", 2.0);    // wrong hint: still sorted
  m.emplace_hint(m.begin(), "b", 9.0);  // held: untouched
  m.emplace_hint(m.begin(), "c", 3.0);  // wrong hint again
  expect_same(m, Reference{{"a", 2.0}, {"b", 1.0}, {"c", 3.0}}, "hint");
}

TEST(MetricMapParity, BulkBuildMatchesSequentialInsertionFirstAndLast) {
  const auto& names = name_pool();
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    util::CounterRng rng(1000 + seed);
    const std::size_t n = rng() % 40;
    MetricMap::container_type entries;
    Reference keep_first, keep_last;
    for (std::size_t i = 0; i < n; ++i) {
      const std::string& name = names[rng() % names.size()];
      const double v = pick_value(rng);
      entries.emplace_back(name, v);
      keep_first.emplace(name, v);
      keep_last[name] = v;
    }
    const std::string label = "seed " + std::to_string(seed);
    expect_same(MetricMap::build(entries, MetricMap::Duplicates::KeepFirst),
                keep_first, label + " keep-first");
    expect_same(MetricMap::build(entries, MetricMap::Duplicates::KeepLast),
                keep_last, label + " keep-last");
  }
}

// --- rank keys ----------------------------------------------------------------

/// The comparison better() made before rank keys: feasibility, then total
/// violation, then the minimized metric, each looked up per call.
bool reference_better(const Objective& obj, const Evaluation& a,
                      const Evaluation& b) {
  const bool fa = obj.feasible(a);
  const bool fb = obj.feasible(b);
  if (fa != fb) return fa;
  if (!fa) {
    double va = a.feasible ? 0.0 : 1e9;
    double vb = b.feasible ? 0.0 : 1e9;
    for (const auto& c : obj.constraints) {
      va += std::max(0.0, c.violation(a));
      vb += std::max(0.0, c.violation(b));
    }
    return va < vb;
  }
  if (obj.minimize.empty()) return false;
  if (!a.has_metric(obj.minimize) || !b.has_metric(obj.minimize)) {
    return a.has_metric(obj.minimize);
  }
  return a.metric(obj.minimize) < b.metric(obj.minimize);
}

Objective ranked_objective() {
  Objective obj;
  obj.minimize = "area";
  obj.constraints.push_back({Constraint::Kind::UpperBound, "ber", 1e-3});
  obj.constraints.push_back({Constraint::Kind::LowerBound, "mbps", 2.0});
  return obj;
}

/// A seeded evaluation over few distinct values (so ties are common), with
/// missing metrics and intrinsically infeasible points.
Evaluation seeded_eval(util::CounterRng& rng) {
  Evaluation e;
  e.feasible = rng() % 7 != 0;
  static const double areas[] = {1.0, 2.0, 2.0, 3.5, 0.5};
  static const double bers[] = {1e-5, 1e-4, 1e-3, 2e-3, 1e-1};
  static const double rates[] = {1.0, 2.0, 4.0};
  if (rng() % 6 != 0) e.metrics["area"] = areas[rng() % 5];
  if (rng() % 6 != 0) e.metrics["ber"] = bers[rng() % 5];
  if (rng() % 5 != 0) e.metrics["mbps"] = rates[rng() % 3];
  return e;
}

std::vector<EvaluatedPoint> seeded_history(std::uint64_t seed,
                                           std::size_t n) {
  util::CounterRng rng(seed);
  std::vector<EvaluatedPoint> history;
  for (std::size_t i = 0; i < n; ++i) {
    EvaluatedPoint p;
    p.indices = {static_cast<int>(rng() % 4), static_cast<int>(rng() % 4)};
    p.values = {static_cast<double>(p.indices[0]),
                static_cast<double>(p.indices[1])};
    p.fidelity = static_cast<int>(rng() % 3);
    p.eval = seeded_eval(rng);
    history.push_back(std::move(p));
  }
  return history;
}

TEST(RankKeyParity, BetterOnKeysMatchesTheDirectComparison) {
  for (const Objective& obj :
       {ranked_objective(), Objective{"", ranked_objective().constraints},
        Objective{"area", {}}}) {
    const auto history = seeded_history(7, 120);
    for (const auto& a : history) {
      const RankKey ka = obj.rank_key(a.eval);
      EXPECT_EQ(ka.feasible, obj.feasible(a.eval));
      for (const auto& b : history) {
        ASSERT_EQ(Objective::better(ka, obj.rank_key(b.eval)),
                  reference_better(obj, a.eval, b.eval));
      }
    }
    // Same outcomes, so std::sort yields the same permutation.
    std::vector<const EvaluatedPoint*> want;
    std::vector<std::pair<RankKey, const EvaluatedPoint*>> got;
    for (const auto& p : history) {
      want.push_back(&p);
      got.emplace_back(obj.rank_key(p.eval), &p);
    }
    std::sort(want.begin(), want.end(),
              [&](const EvaluatedPoint* a, const EvaluatedPoint* b) {
                return reference_better(obj, a->eval, b->eval);
              });
    std::sort(got.begin(), got.end(), [](const auto& a, const auto& b) {
      return Objective::better(a.first, b.first);
    });
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].second, want[i]) << "rank " << i;
    }
  }
}

/// verify_top_candidates as it was written before rank keys, with
/// reference_better and no store.
SearchResult reference_verify(SearchResult result, const Objective& obj,
                              const EvaluateFn& evaluate, int top_k,
                              int fidelity) {
  std::vector<const EvaluatedPoint*> ranked;
  for (const auto& p : result.history) ranked.push_back(&p);
  std::sort(ranked.begin(), ranked.end(),
            [&](const EvaluatedPoint* a, const EvaluatedPoint* b) {
              return reference_better(obj, a->eval, b->eval);
            });
  bool have_best = false;
  int confirmed = 0;
  EvaluatedPoint best;
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    if (static_cast<int>(i) >= top_k && confirmed > 0) break;
    if (static_cast<int>(i) >= 4 * top_k) break;
    const EvaluatedPoint* cand = ranked[i];
    Evaluation eval = cand->fidelity >= fidelity
                          ? cand->eval
                          : evaluate(cand->values, fidelity);
    if (cand->fidelity < fidelity) ++result.evaluations;
    const bool feasible = obj.feasible(eval);
    if (!have_best || reference_better(obj, eval, best.eval)) {
      best = {cand->indices, cand->values, std::move(eval), fidelity};
      have_best = true;
    }
    if (feasible && ++confirmed >= 3) break;
  }
  if (have_best) {
    result.best = std::move(best);
    result.found_feasible = obj.feasible(result.best.eval);
  }
  return result;
}

TEST(RankKeyParity, VerifyTopCandidatesMatchesTheReference) {
  const DesignSpace space({{"x", {0, 1, 2, 3}}, {"y", {0, 1, 2, 3}}});
  const Objective obj = ranked_objective();
  // Re-evaluation is a pure function of the point, with its own ties.
  const EvaluateFn evaluate = [](const std::vector<double>& v, int fidelity) {
    util::CounterRng rng(static_cast<std::uint64_t>(v[0] * 4 + v[1]) * 7 +
                         static_cast<std::uint64_t>(fidelity));
    return seeded_eval(rng);
  };
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    SearchResult result;
    result.history = seeded_history(100 + seed, 1 + seed % 40);
    const int top_k = 1 + static_cast<int>(seed % 5);
    const int fidelity = 1 + static_cast<int>(seed % 2);
    const SearchResult got =
        verify_top_candidates(result, space, obj, evaluate, top_k, fidelity);
    const SearchResult want =
        reference_verify(result, obj, evaluate, top_k, fidelity);
    const std::string label = "seed " + std::to_string(seed);
    EXPECT_EQ(got.best.indices, want.best.indices) << label;
    EXPECT_EQ(got.best.eval.metrics, want.best.eval.metrics) << label;
    EXPECT_EQ(got.best.eval.feasible, want.best.eval.feasible) << label;
    EXPECT_EQ(got.found_feasible, want.found_feasible) << label;
    EXPECT_EQ(got.evaluations, want.evaluations) << label;
  }
}

/// pareto_front as it was written before it stored each point's metrics.
std::vector<EvaluatedPoint> reference_front(
    const std::vector<EvaluatedPoint>& history, const std::string& mx,
    const std::string& my) {
  std::vector<const EvaluatedPoint*> candidates;
  for (const auto& p : history) {
    if (p.eval.feasible && p.eval.has_metric(mx) && p.eval.has_metric(my)) {
      candidates.push_back(&p);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [&](const EvaluatedPoint* a, const EvaluatedPoint* b) {
              const double ax = a->eval.metric(mx);
              const double bx = b->eval.metric(mx);
              if (ax != bx) return ax < bx;
              const double ay = a->eval.metric(my);
              const double by = b->eval.metric(my);
              if (ay != by) return ay < by;
              return a->indices < b->indices;
            });
  std::vector<EvaluatedPoint> front;
  double best_y = std::numeric_limits<double>::infinity();
  for (const EvaluatedPoint* p : candidates) {
    const double y = p->eval.metric(my);
    if (y < best_y) {
      front.push_back(*p);
      best_y = y;
    }
  }
  return front;
}

TEST(RankKeyParity, ParetoFrontMatchesTheReference) {
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    const auto history = seeded_history(5000 + seed, seed % 60);
    for (const auto& [mx, my] : {std::pair<std::string, std::string>{
                                     "area", "ber"},
                                 {"ber", "area"},
                                 {"area", "area"},
                                 {"area", "missing"}}) {
      const auto got = pareto_front(history, mx, my);
      const auto want = reference_front(history, mx, my);
      ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].indices, want[i].indices) << "seed " << seed;
        EXPECT_EQ(got[i].eval.metrics, want[i].eval.metrics);
      }
    }
  }
}

}  // namespace
}  // namespace metacore::search
