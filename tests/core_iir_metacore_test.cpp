// Tests for the IIR MetaCore: the paper's validation example.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/iir_metacore.hpp"

namespace metacore::core {
namespace {

TEST(IirMetaCore, PaperRequirementsMatchSection53) {
  const auto req = paper_bandpass_requirements(1.0);
  EXPECT_EQ(req.filter.band, dsp::BandType::Bandpass);
  EXPECT_EQ(req.filter.family, dsp::FilterFamily::Elliptic);
  EXPECT_NEAR(req.filter.pass_lo, 0.411111, 1e-9);
  EXPECT_NEAR(req.filter.pass_hi, 0.466667, 1e-9);
  EXPECT_NEAR(req.filter.passband_ripple_db, 0.1382, 1e-3);
  EXPECT_NEAR(req.filter.stopband_atten_db, 36.04, 0.01);
  // HYPER-era technology default.
  EXPECT_NEAR(req.tech.feature_um, 1.2, 1e-12);
}

TEST(IirMetaCore, StructureEnumeration) {
  EXPECT_EQ(IirMetaCore::structure_at(0), dsp::StructureKind::DirectForm1);
  EXPECT_EQ(IirMetaCore::structure_at(5), dsp::StructureKind::LatticeLadder);
  EXPECT_THROW(IirMetaCore::structure_at(6), std::invalid_argument);
  EXPECT_THROW(IirMetaCore::structure_at(-1), std::invalid_argument);
}

TEST(IirMetaCore, DesignSpaceDimensions) {
  IirMetaCore core(paper_bandpass_requirements(1.0));
  const auto space = core.design_space();
  EXPECT_EQ(space.dimensions(), 5u);
  EXPECT_EQ(space.parameters()[0].values.size(),
            dsp::all_structures().size());
  EXPECT_GT(space.size(), 100u);
}

TEST(IirMetaCore, EvaluateGoodPointIsFeasible) {
  IirMetaCore core(paper_bandpass_requirements(2.0));
  // Parallel structure, minimum order, 14 bits, 0.7 ripple fraction.
  const auto eval = core.evaluate({4, 0, 14, 0.7, 3}, 0);
  ASSERT_TRUE(eval.feasible);
  EXPECT_TRUE(eval.has_metric("area_mm2"));
  EXPECT_LE(eval.metric("passband_ripple_db"),
            core.requirements().filter.passband_ripple_db * 1.5);
  EXPECT_GT(eval.metric("area_mm2"), 0.1);
}

TEST(IirMetaCore, TinyWordLengthViolatesSpec) {
  IirMetaCore core(paper_bandpass_requirements(2.0));
  // 8-bit direct form I: unstable or far out of spec.
  const auto eval = core.evaluate({0, 0, 8, 1.0, 3}, 0);
  const auto obj = core.objective();
  EXPECT_FALSE(obj.feasible(eval));
}

TEST(IirMetaCore, LadderInfeasibleAtVeryTightPeriod) {
  IirMetaCore core(paper_bandpass_requirements(0.2));
  const auto eval = core.evaluate({5, 0, 12, 0.7, 3}, 0);
  EXPECT_FALSE(eval.feasible);
}

TEST(IirMetaCore, SearchFindsSpecMeetingDesign) {
  IirMetaCore core(paper_bandpass_requirements(1.0));
  search::SearchConfig config;
  config.max_resolution = 2;
  config.regions_per_level = 3;
  config.max_evaluations = 300;
  const auto result = core.search(config);
  ASSERT_TRUE(result.found_feasible);
  const auto& eval = result.best.eval;
  EXPECT_LE(eval.metric("passband_ripple_db"),
            core.requirements().filter.passband_ripple_db + 1e-9);
  EXPECT_LE(eval.metric("stopband_gain_db"),
            -core.requirements().filter.stopband_atten_db + 1e-9);
  // The chosen structure should not be a raw direct form (word-length cost).
  const auto structure = IirMetaCore::structure_at(
      static_cast<int>(result.best.values[0]));
  EXPECT_NE(structure, dsp::StructureKind::DirectForm1);
}

TEST(IirMetaCore, BestFeasibleBelowAverageFeasible) {
  // The headline Table 4 property: the optimized design is far below the
  // average evaluated candidate.
  IirMetaCore core(paper_bandpass_requirements(1.0));
  search::SearchConfig config;
  config.max_resolution = 1;
  config.max_evaluations = 150;
  const auto result = core.search(config);
  ASSERT_TRUE(result.found_feasible);
  double sum = 0.0;
  int n = 0;
  for (const auto& p : result.history) {
    if (p.eval.feasible && p.eval.has_metric("area_mm2")) {
      sum += p.eval.metric("area_mm2");
      ++n;
    }
  }
  ASSERT_GT(n, 5);
  EXPECT_LT(result.best.eval.metric("area_mm2"), sum / n);
}

TEST(IirMetaCore, RejectsBadRequirements) {
  auto req = paper_bandpass_requirements(1.0);
  req.sample_period_us = 0.0;
  EXPECT_THROW(IirMetaCore{req}, std::invalid_argument);
  req = paper_bandpass_requirements(1.0);
  req.filter.pass_lo = 0.9;
  EXPECT_THROW(IirMetaCore{req}, std::invalid_argument);
}

TEST(IirMetaCore, RejectsWrongPointArity) {
  IirMetaCore core(paper_bandpass_requirements(1.0));
  EXPECT_THROW(core.evaluate({0, 0}, 0), std::invalid_argument);
}

TEST(IirMetaCore, FamilyDimensionFixedByDefault) {
  IirMetaCore fixed(paper_bandpass_requirements(1.0));
  EXPECT_EQ(fixed.design_space().parameters()[4].values.size(), 1u);
  auto req = paper_bandpass_requirements(1.0);
  req.explore_family = true;
  IirMetaCore open(req);
  EXPECT_EQ(open.design_space().parameters()[4].values.size(), 4u);
}

TEST(IirMetaCore, FamilyExplorationEvaluatesChebyshev) {
  auto req = paper_bandpass_requirements(2.0);
  req.explore_family = true;
  IirMetaCore core(req);
  // Chebyshev-I, minimum order, 14 bits, full ripple budget.
  const auto eval = core.evaluate({4, 0, 14, 0.7, 1}, 0);
  EXPECT_TRUE(eval.feasible);
  EXPECT_TRUE(eval.has_metric("area_mm2"));
}

/// The fingerprint as it was first written, through an ostream at
/// precision 17. Fingerprints are the persisted store's scope keys, so every
/// later implementation must reproduce these bytes exactly.
std::string stream_fingerprint(const IirRequirements& req) {
  const dsp::FilterSpec& f = req.filter;
  std::ostringstream os;
  os.precision(17);
  os << "iir|band=" << static_cast<int>(f.band)
     << "|family=" << static_cast<int>(f.family) << "|edges=" << f.pass_lo
     << ',' << f.pass_hi << ',' << f.stop_lo << ',' << f.stop_hi
     << "|ripple=" << f.passband_ripple_db << "|atten=" << f.stopband_atten_db
     << "|order=" << f.order_override << "|period=" << req.sample_period_us
     << "|tech=" << req.tech.base_feature_um << ',' << req.tech.feature_um
     << ',' << req.tech.base_clock_mhz << "|explore=" << req.explore_family;
  return os.str();
}

/// Any double: hand-picked edges, raw bit patterns (NaN payloads, signed
/// zeros, subnormals), and short decimals.
double edge_double(std::mt19937_64& rng) {
  static const double kEdges[] = {
      0.0, -0.0, 1.0, -1.0, 0.1, 0.411111, 1e16, 1e17, 1e300, -1e-300,
      9007199254740993.0, DBL_MIN, DBL_TRUE_MIN, DBL_MAX, -DBL_MAX,
      DBL_EPSILON, std::numeric_limits<double>::infinity(),
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

/// A double in (0, limit_bits) by bit pattern.
double positive_below(std::mt19937_64& rng, std::uint64_t limit_bits) {
  return std::bit_cast<double>(1 + rng() % (limit_bits - 1));
}

TEST(IirMetaCore, FingerprintBytesMatchTheStreamFormatting) {
  // A literal pin: the paper's Section 5.3 bandpass at a 1 us period.
  const IirMetaCore paper(paper_bandpass_requirements(1.0));
  EXPECT_EQ(paper.evaluation_fingerprint(),
            "iir|band=2|family=3|edges=0.411111,0.466667,0.3487015,"
            "0.49444399999999999|ripple=0.13817393155410324|"
            "atten=36.036979368608669|order=0|period=1|"
            "tech=0.34999999999999998,1.2,81|explore=0");

  std::mt19937_64 rng(20011018);
  constexpr std::uint64_t kOneBits = 0x3FF0000000000000ull;  // 1.0
  constexpr std::uint64_t kInfBits = 0x7FF0000000000001ull;  // past +inf
  int checked = 0;
  for (int i = 0; i < 50000; ++i) {
    IirRequirements req;
    dsp::FilterSpec& f = req.filter;
    // Four increasing band edges in (0, 1), assigned to satisfy the band
    // type's ordering; edges a band type ignores take any double.
    double v[4];
    for (double& x : v) x = positive_below(rng, kOneBits);
    std::sort(v, v + 4);
    f.band = static_cast<dsp::BandType>(rng() % 4);
    switch (f.band) {
      case dsp::BandType::Lowpass:
        f.pass_lo = edge_double(rng), f.stop_lo = edge_double(rng);
        f.pass_hi = v[0], f.stop_hi = v[1];
        break;
      case dsp::BandType::Highpass:
        f.stop_lo = v[0], f.pass_lo = v[1];
        f.pass_hi = edge_double(rng), f.stop_hi = edge_double(rng);
        break;
      case dsp::BandType::Bandpass:
        f.stop_lo = v[0], f.pass_lo = v[1], f.pass_hi = v[2], f.stop_hi = v[3];
        break;
      case dsp::BandType::Bandstop:
        f.pass_lo = v[0], f.stop_lo = v[1], f.stop_hi = v[2], f.pass_hi = v[3];
        break;
    }
    f.family = static_cast<dsp::FilterFamily>(rng() % 4);
    f.passband_ripple_db = positive_below(rng, kInfBits);
    f.stopband_atten_db = positive_below(rng, kInfBits);
    f.order_override = static_cast<int>(rng() % 25);  // validate()'s range
    req.sample_period_us = positive_below(rng, kInfBits);
    req.tech.base_feature_um = edge_double(rng);
    req.tech.feature_um = edge_double(rng);
    req.tech.base_clock_mhz = edge_double(rng);
    req.explore_family = (rng() & 1) != 0;
    std::string got;
    try {
      got = IirMetaCore(req).evaluation_fingerprint();
    } catch (const std::invalid_argument&) {
      continue;  // a spec validate() refuses has no fingerprint
    }
    ++checked;
    ASSERT_EQ(got, stream_fingerprint(req)) << "case " << i;
  }
  EXPECT_GT(checked, 40000);
}

}  // namespace
}  // namespace metacore::core
