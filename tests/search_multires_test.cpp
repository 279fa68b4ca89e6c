// Tests for the multiresolution search engine on synthetic landscapes where
// the global optimum is known.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <stdexcept>
#include <tuple>

#include "robust/error.hpp"
#include "robust/guarded_evaluator.hpp"
#include "robust/json.hpp"
#include "search/multires_search.hpp"
#include "serve/store.hpp"
#include "util/rng.hpp"

namespace metacore::search {
namespace {

/// Dense 1D..3D quadratic bowl: minimum at a known grid point.
DesignSpace bowl_space(int dims, int points) {
  std::vector<ParameterDef> params;
  for (int d = 0; d < dims; ++d) {
    ParameterDef p;
    p.name = "x" + std::to_string(d);
    for (int i = 0; i < points; ++i) {
      p.values.push_back(static_cast<double>(i) / (points - 1));
    }
    p.correlation = Correlation::Smooth;
    params.push_back(p);
  }
  return DesignSpace(params);
}

// The count is atomic: evaluators run concurrently on the exec pool.
EvaluateFn bowl_eval(std::vector<double> optimum,
                     std::atomic<std::size_t>* count = nullptr) {
  return [optimum, count](const std::vector<double>& point, int) {
    if (count) count->fetch_add(1);
    double v = 0.0;
    for (std::size_t d = 0; d < point.size(); ++d) {
      const double diff = point[d] - optimum[d];
      v += diff * diff;
    }
    Evaluation e;
    e.metrics["cost"] = v;
    return e;
  };
}

Objective minimize_cost() {
  Objective obj;
  obj.minimize = "cost";
  return obj;
}

TEST(MultiresolutionSearch, FindsBowlMinimum) {
  const DesignSpace space = bowl_space(2, 33);
  const std::vector<double> optimum{0.40625, 0.59375};  // on the grid
  SearchConfig config;
  config.initial_points_per_dim = 3;
  config.max_resolution = 5;
  config.regions_per_level = 2;
  MultiresolutionSearch engine(space, minimize_cost(), bowl_eval(optimum),
                               config);
  const SearchResult result = engine.run();
  ASSERT_TRUE(result.found_feasible);
  EXPECT_NEAR(result.best.values[0], optimum[0], 1.0 / 32.0);
  EXPECT_NEAR(result.best.values[1], optimum[1], 1.0 / 32.0);
}

TEST(MultiresolutionSearch, UsesFarFewerEvaluationsThanExhaustive) {
  const DesignSpace space = bowl_space(3, 17);  // 4913 points
  const std::vector<double> optimum{0.25, 0.75, 0.5};
  std::atomic<std::size_t> calls{0};
  SearchConfig config;
  config.max_resolution = 4;
  config.regions_per_level = 2;
  MultiresolutionSearch engine(space, minimize_cost(),
                               bowl_eval(optimum, &calls), config);
  const SearchResult result = engine.run();
  ASSERT_TRUE(result.found_feasible);
  EXPECT_LT(result.evaluations, space.size() / 4);
  EXPECT_LT(result.best.eval.metric("cost"), 0.02);
}

TEST(MultiresolutionSearch, MatchesExhaustiveOnSmallSpace) {
  const DesignSpace space = bowl_space(2, 9);
  const std::vector<double> optimum{0.375, 0.625};
  SearchConfig config;
  config.max_resolution = 4;
  config.regions_per_level = 3;
  MultiresolutionSearch engine(space, minimize_cost(), bowl_eval(optimum),
                               config);
  const SearchResult multires = engine.run();
  const SearchResult exhaustive =
      exhaustive_search(space, minimize_cost(), bowl_eval(optimum), 0);
  ASSERT_TRUE(multires.found_feasible);
  EXPECT_NEAR(multires.best.eval.metric("cost"),
              exhaustive.best.eval.metric("cost"), 1e-12);
}

TEST(MultiresolutionSearch, RespectsEvaluationBudget) {
  const DesignSpace space = bowl_space(3, 33);
  SearchConfig config;
  config.max_evaluations = 40;
  config.max_resolution = 6;
  MultiresolutionSearch engine(space, minimize_cost(),
                               bowl_eval({0.5, 0.5, 0.5}), config);
  const SearchResult result = engine.run();
  EXPECT_LE(result.evaluations, 40u);
}

TEST(MultiresolutionSearch, HandlesConstraints) {
  // Minimize x subject to y >= 0.5 (lower bound): optimum at x=0, y>=0.5.
  const DesignSpace space = bowl_space(2, 17);
  Objective obj;
  obj.minimize = "x";
  obj.constraints.push_back({Constraint::Kind::LowerBound, "y", 0.5});
  auto eval = [](const std::vector<double>& point, int) {
    Evaluation e;
    e.metrics["x"] = point[0];
    e.metrics["y"] = point[1];
    return e;
  };
  SearchConfig config;
  config.max_resolution = 4;
  MultiresolutionSearch engine(space, obj, eval, config);
  const SearchResult result = engine.run();
  ASSERT_TRUE(result.found_feasible);
  EXPECT_NEAR(result.best.values[0], 0.0, 1e-9);
  EXPECT_GE(result.best.values[1], 0.5);
}

TEST(MultiresolutionSearch, ProbabilisticConstraintPrunesButConverges) {
  // "ber" falls exponentially along x; feasible region is x >= ~0.6.
  const DesignSpace space = bowl_space(1, 33);
  Objective obj;
  obj.minimize = "area";
  obj.constraints.push_back({Constraint::Kind::UpperBound, "ber", 1e-3});
  auto eval = [](const std::vector<double>& point, int) {
    Evaluation e;
    e.metrics["ber"] = std::pow(10.0, -5.0 * point[0]);  // 1 .. 1e-5
    e.metrics["area"] = 1.0 + 10.0 * point[0];           // grows with x
    e.confidence_weight = 1e6;
    return e;
  };
  SearchConfig config;
  config.max_resolution = 5;
  config.probabilistic_metric = "ber";
  MultiresolutionSearch engine(space, obj, eval, config);
  const SearchResult result = engine.run();
  ASSERT_TRUE(result.found_feasible);
  // Optimum: smallest x with 10^(-5x) <= 1e-3, i.e. x = 0.6.
  EXPECT_NEAR(result.best.values[0], 0.6, 0.07);
}

TEST(MultiresolutionSearch, HistoryHasDistinctPoints) {
  const DesignSpace space = bowl_space(2, 9);
  SearchConfig config;
  config.max_resolution = 3;
  MultiresolutionSearch engine(space, minimize_cost(),
                               bowl_eval({0.5, 0.5}), config);
  const SearchResult result = engine.run();
  std::set<std::vector<int>> seen;
  for (const auto& p : result.history) {
    EXPECT_TRUE(seen.insert(p.indices).second) << "duplicate history entry";
  }
}

TEST(MultiresolutionSearch, RejectsBadConfig) {
  const DesignSpace space = bowl_space(1, 5);
  SearchConfig config;
  config.refined_points_per_dim = 1;
  EXPECT_THROW(MultiresolutionSearch(space, minimize_cost(),
                                     bowl_eval({0.5}), config),
               std::invalid_argument);
  EXPECT_THROW(MultiresolutionSearch(space, minimize_cost(), nullptr, {}),
               std::invalid_argument);
}

TEST(MultiresolutionSearch, BadConfigMessagesNameFieldAndValue) {
  const DesignSpace space = bowl_space(1, 5);
  const auto expect_message = [&](SearchConfig config,
                                  const std::string& needle) {
    try {
      MultiresolutionSearch(space, minimize_cost(), bowl_eval({0.5}), config);
      FAIL() << "expected std::invalid_argument mentioning " << needle;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "message was: " << e.what();
    }
  };
  SearchConfig config;
  config.initial_points_per_dim = 0;
  expect_message(config, "initial_points_per_dim must be >= 1 (got 0)");
  config = {};
  config.max_initial_evaluations = -3;
  expect_message(config, "max_initial_evaluations must be >= 1 (got -3)");
  config = {};
  config.max_resolution = -1;
  expect_message(config, "max_resolution must be >= 0 (got -1)");
  config = {};
  config.regions_per_level = 0;
  expect_message(config, "regions_per_level must be >= 1 (got 0)");
  config = {};
  config.refined_points_per_dim = 1;
  expect_message(config, "refined_points_per_dim must be >= 2 (got 1)");
  config = {};
  config.max_evaluations = 0;
  expect_message(config, "max_evaluations must be > 0");
  config = {};
  config.retry.max_attempts = 0;  // surfaced by the guarded evaluator
  EXPECT_THROW(MultiresolutionSearch(space, minimize_cost(),
                                     bowl_eval({0.5}), config),
               std::invalid_argument);
}

TEST(MultiresolutionSearch, GuardDisabledMatchesGuardedOnCleanEvaluator) {
  // The guard must be a pure pass-through when nothing fails.
  const DesignSpace space = bowl_space(2, 9);
  SearchConfig guarded;
  SearchConfig unguarded;
  unguarded.guard_evaluations = false;
  MultiresolutionSearch a(space, minimize_cost(), bowl_eval({0.4, 0.6}),
                          guarded);
  MultiresolutionSearch b(space, minimize_cost(), bowl_eval({0.4, 0.6}),
                          unguarded);
  const SearchResult ra = a.run();
  const SearchResult rb = b.run();
  EXPECT_EQ(ra.evaluations, rb.evaluations);
  EXPECT_EQ(ra.best.indices, rb.best.indices);
  EXPECT_EQ(ra.best.eval.metrics, rb.best.eval.metrics);
  EXPECT_EQ(ra.failures, robust::FailureCounters{});
  EXPECT_EQ(rb.failures, robust::FailureCounters{});
}

TEST(ExhaustiveSearch, VisitsEveryPoint) {
  const DesignSpace space = bowl_space(2, 5);
  std::atomic<std::size_t> calls{0};
  const SearchResult result = exhaustive_search(
      space, minimize_cost(), bowl_eval({0.5, 0.5}, &calls), 0);
  EXPECT_EQ(calls, 25u);
  EXPECT_EQ(result.evaluations, 25u);
  EXPECT_EQ(result.history.size(), 25u);
}

TEST(ExhaustiveSearch, RejectsHugeSpaces) {
  const DesignSpace space = bowl_space(3, 201);
  EXPECT_THROW(
      exhaustive_search(space, minimize_cost(), bowl_eval({0.5, 0.5, 0.5}), 0,
                        /*max_points=*/1000),
      std::invalid_argument);
}

TEST(VerifyTopCandidates, CorrectsNoisyWinner) {
  // Fidelity 0 lies about the best point; fidelity 1 tells the truth. The
  // verification pass must demote the liar.
  const DesignSpace space = bowl_space(1, 11);
  Objective obj;
  obj.minimize = "area";
  obj.constraints.push_back({Constraint::Kind::UpperBound, "ber", 1e-3});
  auto eval = [](const std::vector<double>& point, int fidelity) {
    Evaluation e;
    const bool cheat_zone = point[0] < 0.35;
    // Low fidelity reports the cheat zone as meeting BER; high fidelity
    // reveals it does not. Points >= 0.6 genuinely meet it.
    if (fidelity == 0 && cheat_zone) {
      e.metrics["ber"] = 1e-6;
    } else {
      e.metrics["ber"] = point[0] >= 0.6 ? 1e-5 : 1e-1;
    }
    e.metrics["area"] = 1.0 + point[0];
    return e;
  };
  SearchConfig config;
  config.max_resolution = 2;
  MultiresolutionSearch engine(space, obj, eval, config);
  SearchResult result = engine.run();
  // The noisy search may or may not fall for the cheat zone; verification
  // must land on a genuinely feasible point regardless.
  result = verify_top_candidates(std::move(result), space, obj, eval, 5, 1);
  ASSERT_TRUE(result.found_feasible);
  EXPECT_GE(result.best.values[0], 0.6);
}

// ---------------------------------------------------------------------------
// SearchParity: whole-SearchResult digests of seeded searches that carry a
// Bayesian-guarded "ber" metric, a deterministic throughput constraint and a
// failure mix (invalid points, non-convergence, NaN metrics, transient faults
// cleared by a retry, and infeasible results with a failure reason). The
// digests were taken from a search that scored its last level and fed the
// BER predictor on every absorb, so they pin that skipping the one and
// deferring the other leave every result byte-for-byte the same.

/// 3-D space with uneven dimension sizes so grids and regions are ragged.
DesignSpace parity_space() {
  std::vector<ParameterDef> params(3);
  params[0].name = "x";
  for (int i = 0; i < 17; ++i) params[0].values.push_back(i / 16.0);
  params[1].name = "depth";
  for (int i = 3; i <= 11; ++i) params[1].values.push_back(i);
  params[2].name = "width";
  for (int i = 0; i < 12; ++i) {
    params[2].values.push_back(0.5 * (1 << (i / 3)) + i);
  }
  return DesignSpace(params);
}

/// A pure function of (seed, point, fidelity, stream): the point's values
/// are hashed through the counter RNG, so evaluations repeat exactly on any
/// thread and in any order.
double parity_uniform(std::uint64_t seed, const std::vector<double>& point,
                      int fidelity, std::uint64_t stream) {
  std::uint64_t key = util::substream_key(seed, stream);
  for (const double v : point) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    key = util::CounterRng::at(key, bits);
  }
  key = util::CounterRng::at(key, static_cast<std::uint64_t>(fidelity));
  return static_cast<double>(key >> 11) * 0x1.0p-53;
}

EvaluateFn parity_evaluator(std::uint64_t seed) {
  return [seed](const std::vector<double>& point, int fidelity) {
    // The failure kind depends on the point alone, so every fidelity of a
    // failing point fails the same way.
    const double fail = parity_uniform(seed, point, 0, 1);
    if (fail < 0.04) throw std::invalid_argument("degenerate corner");
    if (fail < 0.06) throw std::logic_error("schedule did not converge");
    if (fail < 0.10 && robust::current_attempt() == 0) {
      throw robust::EvalException(robust::EvalErrorKind::InjectedTransient,
                                  "flaky \"link\"");
    }
    Evaluation e;
    const double x = point[0], depth = point[1], width = point[2];
    const double noise = parity_uniform(seed, point, fidelity, 2) - 0.5;
    e.metrics["area"] = 1.0 + 3.0 * x + 0.2 * depth + 0.05 * width +
                        0.1 * parity_uniform(seed, point, 0, 3);
    e.metrics["ber"] =
        std::pow(10.0, -(1.0 + 4.0 * x + 0.2 * depth) + noise / (1 + fidelity));
    e.metrics["throughput"] = 2.0 * width / depth;
    e.confidence_weight = 1000.0 * (1 << fidelity);
    if (fail >= 0.10 && fail < 0.12) {
      e.metrics["ber"] = std::numeric_limits<double>::quiet_NaN();
    } else if (fail >= 0.12 && fail < 0.15) {
      e.feasible = false;
      e.failure_reason = "invalid-point: tab\there \"quoted\" \\ back";
    }
    return e;
  };
}

Objective parity_objective() {
  Objective obj;
  obj.minimize = "area";
  obj.constraints.push_back({Constraint::Kind::UpperBound, "ber", 1e-3});
  obj.constraints.push_back({Constraint::Kind::LowerBound, "throughput", 0.8});
  return obj;
}

struct ParityCase {
  int max_resolution;
  int regions_per_level;
  std::size_t max_evaluations;
};

std::vector<ParityCase> parity_cases() {
  std::vector<ParityCase> cases;
  for (const int res : {0, 1, 3}) {
    for (const int regions : {1, 2, 3}) {
      for (const std::size_t budget : {std::size_t{70}, std::size_t{400}}) {
        cases.push_back({res, regions, budget});
      }
    }
  }
  return cases;
}

SearchConfig parity_config(const ParityCase& c) {
  SearchConfig config;
  config.max_resolution = c.max_resolution;
  config.regions_per_level = c.regions_per_level;
  config.max_evaluations = c.max_evaluations;
  config.probabilistic_metric = "ber";
  return config;
}

void append_point(std::string& out, const EvaluatedPoint& p) {
  out += "values=";
  for (const double v : p.values) {
    robust::append_g17(out, v);
    out += ',';
  }
  serve::write_eval_record(out, p.indices, p.fidelity, p.eval);
  out += '\n';
}

/// FNV-1a over every byte of the result a caller can read, bar the
/// run-local store_hits, divergent_duplicates and failure counters.
std::uint64_t parity_digest(const SearchResult& r) {
  std::string text = r.found_feasible ? "feasible\n" : "infeasible\n";
  append_point(text, r.best);
  text += "evaluations=" + std::to_string(r.evaluations) +
          " cache_hits=" + std::to_string(r.cache_hits) +
          " levels=" + std::to_string(r.levels_executed) + '\n';
  for (const EvaluatedPoint& p : r.history) append_point(text, p);
  return serve::fingerprint_hash(text);
}

/// In-memory EvaluationStoreBase for the warm-replay half of the oracle.
class MapStore final : public EvaluationStoreBase {
 public:
  std::optional<Evaluation> lookup(const std::string& fingerprint,
                                   const std::vector<int>& indices,
                                   int fidelity) override {
    const auto it = entries_.find({fingerprint, indices, fidelity});
    if (it == entries_.end()) return std::nullopt;
    return it->second;
  }
  void record(const std::string& fingerprint, const std::vector<int>& indices,
              int fidelity, const Evaluation& eval) override {
    entries_.emplace(std::make_tuple(fingerprint, indices, fidelity), eval);
  }

 private:
  std::map<std::tuple<std::string, std::vector<int>, int>, Evaluation>
      entries_;
};

// Digests per (seed, case), in parity_cases() order.
constexpr std::uint64_t kParityDigests[2][18] = {
    {
     0xbd941548bcf46866ull, 0xbd941548bcf46866ull, 0xbd941548bcf46866ull,
     0xbd941548bcf46866ull, 0xbd941548bcf46866ull, 0xbd941548bcf46866ull,
     0xef2469ea8297619eull, 0xef2469ea8297619eull, 0x59a804c25126b32bull,
     0x4887d5480716fcdeull, 0x59a804c25126b32bull, 0x5ec11f81a721b1e4ull,
     0x7d87467cab275778ull, 0x7d87467cab275778ull, 0xd0f110b038c1b46eull,
     0xfc412e7a3f2b3245ull, 0x77e73087e1a58877ull, 0x9b0702cf7865e4dfull,
    },
    {
     0xfd9ea1efa60203c8ull, 0xfd9ea1efa60203c8ull, 0xfd9ea1efa60203c8ull,
     0xfd9ea1efa60203c8ull, 0xfd9ea1efa60203c8ull, 0xfd9ea1efa60203c8ull,
     0x71146bb6e4ad1cc4ull, 0x71146bb6e4ad1cc4ull, 0xe62cb076270036f4ull,
     0x4e192d890b0dd82eull, 0xe62cb076270036f4ull, 0x116e7dc3f53d9af2ull,
     0xa118115ce52dea4full, 0xa118115ce52dea4full, 0x326e8ce07f33300cull,
     0x492571d2bd539007ull, 0xc310ab478b708ae3ull, 0x708fccc0cea95eb6ull,
    },
};

std::string parity_name(std::uint64_t seed, const ParityCase& c) {
  return "seed " + std::to_string(seed) + " max_resolution " +
         std::to_string(c.max_resolution) + " regions " +
         std::to_string(c.regions_per_level) + " max_evaluations " +
         std::to_string(c.max_evaluations);
}

TEST(SearchParity, ColdSearchesMatchThePinnedDigests) {
  const DesignSpace space = parity_space();
  const auto cases = parity_cases();
  std::size_t failed_evaluations = 0, recovered = 0;
  std::string actual;
  for (std::uint64_t seed : {1u, 2u}) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      SCOPED_TRACE(parity_name(seed, cases[i]));
      MultiresolutionSearch engine(space, parity_objective(),
                                   parity_evaluator(seed),
                                   parity_config(cases[i]));
      const SearchResult result = engine.run();
      failed_evaluations += result.failures.failed_evaluations;
      recovered += result.failures.recovered;
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%016llxull,",
                    static_cast<unsigned long long>(parity_digest(result)));
      actual += hex;
      EXPECT_EQ(parity_digest(result), kParityDigests[seed - 1][i]);
    }
    actual += '\n';
  }
  // The failure mix really reaches the search.
  EXPECT_GT(failed_evaluations, 0u);
  EXPECT_GT(recovered, 0u);
  if (HasFailure()) ADD_FAILURE() << "actual digests:\n" << actual;
}

TEST(SearchParity, WarmReplaysMatchThePinnedDigestsWithoutEvaluatorCalls) {
  const DesignSpace space = parity_space();
  const auto cases = parity_cases();
  for (std::uint64_t seed : {1u, 2u}) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      SCOPED_TRACE(parity_name(seed, cases[i]));
      auto store = std::make_shared<MapStore>();
      SearchConfig config = parity_config(cases[i]);
      config.store = store;
      config.store_fingerprint = "parity-" + std::to_string(seed);
      MultiresolutionSearch cold(space, parity_objective(),
                                 parity_evaluator(seed), config);
      const SearchResult first = cold.run();
      std::atomic<std::size_t> calls{0};
      const EvaluateFn inner = parity_evaluator(seed);
      MultiresolutionSearch warm(
          space, parity_objective(),
          [&](const std::vector<double>& point, int fidelity) {
            calls.fetch_add(1);
            return inner(point, fidelity);
          },
          config);
      const SearchResult replay = warm.run();
      EXPECT_EQ(calls.load(), 0u);
      EXPECT_EQ(replay.store_hits, replay.evaluations);
      EXPECT_EQ(parity_digest(first), kParityDigests[seed - 1][i]);
      EXPECT_EQ(parity_digest(replay), kParityDigests[seed - 1][i]);
    }
  }
}

}  // namespace
}  // namespace metacore::search
