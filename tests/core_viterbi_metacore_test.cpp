// Tests for the Viterbi MetaCore: parameter-space mapping, evaluation, and
// a small end-to-end search.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <string>

#include "core/viterbi_metacore.hpp"

namespace metacore::core {
namespace {

ViterbiRequirements easy_requirements() {
  ViterbiRequirements req;
  req.target_ber = 1e-2;
  req.esn0_db = 2.0;
  req.throughput_mbps = 1.0;
  return req;
}

// Point layout: K, L_mult, G, R1, R2, Q, N, M_frac.
TEST(ViterbiMetaCore, DecodePointHard) {
  ViterbiMetaCore core(easy_requirements());
  const auto spec = core.decode_point({5, 4, 0, 1, 3, 1, 1, 0.0});
  EXPECT_EQ(spec.kind, comm::DecoderKind::Hard);
  EXPECT_EQ(spec.code.constraint_length, 5);
  EXPECT_EQ(spec.traceback_depth, 20);
}

TEST(ViterbiMetaCore, DecodePointSoft) {
  ViterbiMetaCore core(easy_requirements());
  const auto spec = core.decode_point({7, 5, 0, 3, 4, 1, 1, 0.0});
  EXPECT_EQ(spec.kind, comm::DecoderKind::Soft);
  EXPECT_EQ(spec.high_res_bits, 3);  // single-resolution runs at R1
  EXPECT_EQ(spec.code.generators_octal(), "171,133");
}

TEST(ViterbiMetaCore, DecodePointMultires) {
  ViterbiMetaCore core(easy_requirements());
  const auto spec = core.decode_point({5, 5, 0, 1, 3, 1, 1, 0.25});
  EXPECT_EQ(spec.kind, comm::DecoderKind::Multires);
  EXPECT_EQ(spec.low_res_bits, 1);
  EXPECT_EQ(spec.high_res_bits, 3);
  EXPECT_EQ(spec.num_high_res_paths, 4);  // 0.25 * 16 states
}

TEST(ViterbiMetaCore, DecodePointRepairsDegenerateCombos) {
  ViterbiMetaCore core(easy_requirements());
  // R2 < R1 in multires mode: repaired to R2 = R1.
  const auto spec = core.decode_point({5, 5, 0, 3, 2, 1, 1, 0.5});
  EXPECT_EQ(spec.high_res_bits, 3);
  // N > M: clamped.
  const auto spec2 = core.decode_point({5, 5, 0, 1, 3, 1, 4, 0.125});
  EXPECT_EQ(spec2.num_high_res_paths, 2);
  EXPECT_LE(spec2.normalization_terms, spec2.num_high_res_paths);
}

TEST(ViterbiMetaCore, DesignSpaceHasEightDimensions) {
  ViterbiMetaCore core(easy_requirements());
  const auto space = core.design_space();
  EXPECT_EQ(space.dimensions(), 8u);
  // Fixed G and N collapse to singletons, per the paper's speed-up.
  EXPECT_EQ(space.parameters()[2].values.size(), 1u);
  EXPECT_EQ(space.parameters()[6].values.size(), 1u);

  ViterbiRequirements open = easy_requirements();
  open.fix_polynomial = false;
  open.fix_normalization = false;
  const auto wide = ViterbiMetaCore(open).design_space();
  EXPECT_GT(wide.parameters()[2].values.size(), 1u);
  EXPECT_GT(wide.parameters()[6].values.size(), 1u);
}

TEST(ViterbiMetaCore, RecommendedBerConfigScalesWithTarget) {
  const auto tight = ViterbiMetaCore::recommended_ber_config(1e-5);
  const auto loose = ViterbiMetaCore::recommended_ber_config(1e-2);
  EXPECT_GT(tight.max_bits, loose.max_bits);
}

TEST(ViterbiMetaCore, EvaluateProducesCoupledMetrics) {
  ViterbiMetaCore core(easy_requirements());
  const auto eval = core.evaluate({5, 4, 0, 1, 3, 1, 1, 0.25}, 0);
  ASSERT_TRUE(eval.feasible);
  EXPECT_TRUE(eval.has_metric("ber"));
  EXPECT_TRUE(eval.has_metric("area_mm2"));
  EXPECT_TRUE(eval.has_metric("cycles_per_bit"));
  EXPECT_GT(eval.metric("area_mm2"), 0.0);
  EXPECT_GT(eval.confidence_weight, 1000.0);
}

TEST(ViterbiMetaCore, CertifiedBerHasRuleOfThreeFloor) {
  // At Es/N0 = 8 dB a K=7 soft decoder sees no errors in a short run; the
  // certified BER must still be bounded below by ~3/bits.
  ViterbiRequirements req = easy_requirements();
  req.esn0_db = 8.0;
  comm::BerRunConfig ber;
  ber.max_bits = 20'000;
  ber.min_bits = 20'000;
  ViterbiMetaCore core(req, ber);
  const auto eval = core.evaluate({7, 5, 0, 3, 4, 1, 1, 0.0}, 0);
  EXPECT_GE(eval.metric("ber"), 3.0 / 20'000 * 0.99);
  EXPECT_DOUBLE_EQ(eval.metric("ber_observed"), 0.0);
}

TEST(ViterbiMetaCore, ObjectiveMinimizesAreaUnderBer) {
  ViterbiMetaCore core(easy_requirements());
  const auto obj = core.objective();
  EXPECT_EQ(obj.minimize, "area_mm2");
  ASSERT_EQ(obj.constraints.size(), 1u);
  EXPECT_EQ(obj.constraints[0].metric, "ber");
}

TEST(ViterbiMetaCore, SmallSearchFindsFeasibleDesign) {
  // Loose requirements so a tiny budget suffices.
  ViterbiRequirements req = easy_requirements();
  comm::BerRunConfig ber;
  ber.max_bits = 12'000;
  ber.min_bits = 8'000;
  ber.max_errors = 200;
  ViterbiMetaCore core(req, ber);
  search::SearchConfig config;
  config.max_resolution = 1;
  config.regions_per_level = 2;
  config.max_evaluations = 80;
  const auto result = core.search(config);
  EXPECT_TRUE(result.found_feasible);
  EXPECT_GT(result.evaluations, 10u);
  const auto spec = core.decode_point(result.best.values);
  EXPECT_GE(spec.code.constraint_length, 3);
}

TEST(ViterbiMetaCore, RejectsBadRequirements) {
  ViterbiRequirements req = easy_requirements();
  req.target_ber = 0.0;
  EXPECT_THROW(ViterbiMetaCore{req}, std::invalid_argument);
  req = easy_requirements();
  req.throughput_mbps = -1.0;
  EXPECT_THROW(ViterbiMetaCore{req}, std::invalid_argument);
}

TEST(ViterbiMetaCore, RejectsWrongPointArity) {
  ViterbiMetaCore core(easy_requirements());
  EXPECT_THROW(core.decode_point({1, 2, 3}), std::invalid_argument);
}

/// The fingerprint as it was first written, through an ostream at
/// precision 17. Fingerprints are the persisted store's scope keys, so every
/// later implementation must reproduce these bytes exactly.
std::string stream_fingerprint(const ViterbiRequirements& req,
                               const comm::BerRunConfig& ber) {
  std::ostringstream os;
  os.precision(17);
  os << "viterbi|ber=" << req.target_ber << "|esn0=" << req.esn0_db
     << "|mbps=" << req.throughput_mbps << "|fixG=" << req.fix_polynomial
     << "|fixN=" << req.fix_normalization << "|shards=" << req.ber_shards
     << "|tech=" << req.tech.base_feature_um << ',' << req.tech.feature_um
     << ',' << req.tech.base_clock_mhz << "|sim=" << ber.max_bits << ','
     << ber.min_bits << ',' << ber.max_errors << ',' << ber.seed << ','
     << ber.decision_ber << ',' << ber.shards;
  return os.str();
}

/// Any double: hand-picked edges, raw bit patterns (NaN payloads, signed
/// zeros, subnormals), and short decimals.
double edge_double(std::mt19937_64& rng) {
  static const double kEdges[] = {
      0.0, -0.0, 1.0, -1.0, 0.1, 1e-4, 0.35, 81.0, 1e16, 1e17, 1e300,
      -1e-300, 9007199254740993.0, DBL_MIN, -DBL_MIN, DBL_TRUE_MIN, DBL_MAX,
      -DBL_MAX, DBL_EPSILON, std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN()};
  switch (rng() % 4) {
    case 0:
      return kEdges[rng() % std::size(kEdges)];
    case 1:
      return std::bit_cast<double>(rng());
    case 2:
      return std::uniform_real_distribution<double>(-1e6, 1e6)(rng);
    default:
      return static_cast<double>(static_cast<std::int64_t>(rng() % 2000001) -
                                 1000000) /
             1000.0;
  }
}

/// A double in (0, limit_bits) by bit pattern: every positive subnormal and
/// normal below the bound is reachable.
double positive_below(std::mt19937_64& rng, std::uint64_t limit_bits) {
  return std::bit_cast<double>(1 + rng() % (limit_bits - 1));
}

TEST(ViterbiMetaCore, FingerprintBytesMatchTheStreamFormatting) {
  // A literal pin: the default-budget fingerprint of the easy requirements.
  const ViterbiMetaCore easy(easy_requirements());
  EXPECT_EQ(easy.evaluation_fingerprint(),
            "viterbi|ber=0.01|esn0=2|mbps=1|fixG=1|fixN=1|shards=8|"
            "tech=0.34999999999999998,0.34999999999999998,81|"
            "sim=10000,8000,100,12648430,0,1");

  std::mt19937_64 rng(20011018);
  constexpr std::uint64_t kOneBits = 0x3FF0000000000000ull;  // 1.0
  constexpr std::uint64_t kInfBits = 0x7FF0000000000001ull;  // past +inf
  for (int i = 0; i < 100000; ++i) {
    ViterbiRequirements req;
    req.target_ber = positive_below(rng, kOneBits);  // (0, 1)
    req.esn0_db = edge_double(rng);
    req.throughput_mbps = positive_below(rng, kInfBits);  // (0, +inf]
    req.tech.base_feature_um = edge_double(rng);
    req.tech.feature_um = edge_double(rng);
    req.tech.base_clock_mhz = edge_double(rng);
    req.fix_polynomial = (rng() & 1) != 0;
    req.fix_normalization = (rng() & 1) != 0;
    req.ber_shards = static_cast<int>(static_cast<std::uint32_t>(rng()));
    req.ber_lanes = static_cast<int>(rng() % 64);
    comm::BerRunConfig ber;
    ber.max_bits = rng() >> (rng() % 64);
    ber.min_bits = rng() >> (rng() % 64);
    ber.max_errors = rng() >> (rng() % 64);
    ber.seed = rng();
    ber.decision_ber = edge_double(rng);
    ber.shards = static_cast<int>(static_cast<std::uint32_t>(rng()));
    const ViterbiMetaCore core(req, ber);
    ASSERT_EQ(core.evaluation_fingerprint(), stream_fingerprint(req, ber))
        << "case " << i;
  }
}

TEST(Describe, FormatsSpecAndArea) {
  comm::DecoderSpec spec;
  spec.code = comm::best_rate_half_code(5);
  spec.traceback_depth = 25;
  spec.kind = comm::DecoderKind::Soft;
  spec.high_res_bits = 3;
  const std::string text = describe(spec, 1.23);
  EXPECT_NE(text.find("35,23"), std::string::npos);
  EXPECT_NE(text.find("1.23"), std::string::npos);
}

}  // namespace
}  // namespace metacore::core
