#include "core/viterbi_metacore.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "robust/json.hpp"

namespace metacore::core {

namespace {

using comm::DecoderKind;
using comm::DecoderSpec;
using comm::QuantizationMethod;

constexpr int kDimK = 0;
constexpr int kDimLMult = 1;
constexpr int kDimG = 2;
constexpr int kDimR1 = 3;
constexpr int kDimR2 = 4;
constexpr int kDimQ = 5;
constexpr int kDimN = 6;
constexpr int kDimMFrac = 7;

}  // namespace

ViterbiMetaCore::ViterbiMetaCore(ViterbiRequirements requirements,
                                 comm::BerRunConfig ber_base)
    : requirements_(requirements), ber_base_(ber_base) {
  if (requirements_.target_ber <= 0.0 || requirements_.target_ber >= 1.0) {
    throw std::invalid_argument("ViterbiMetaCore: BER target out of (0, 1)");
  }
  if (requirements_.throughput_mbps <= 0.0) {
    throw std::invalid_argument("ViterbiMetaCore: throughput must be positive");
  }
}

ViterbiMetaCore::ViterbiMetaCore(ViterbiRequirements requirements)
    : ViterbiMetaCore(requirements,
                      recommended_ber_config(requirements.target_ber)) {}

comm::BerRunConfig ViterbiMetaCore::recommended_ber_config(double target_ber) {
  comm::BerRunConfig cfg;
  const double wanted = 20.0 / std::max(target_ber, 1e-9);
  cfg.max_bits = static_cast<std::uint64_t>(
      std::clamp(wanted, 10'000.0, 400'000.0));
  cfg.min_bits = 8'000;
  // A point that is clearly failing accumulates errors fast and stops early.
  cfg.max_errors = 100;
  return cfg;
}

search::DesignSpace ViterbiMetaCore::design_space() const {
  using search::Correlation;
  using search::ParameterDef;
  std::vector<ParameterDef> params(8);
  params[kDimK] = {"K", {3, 4, 5, 6, 7, 8, 9}, false, Correlation::Monotonic};
  params[kDimLMult] = {"L_mult", {2, 3, 4, 5, 6, 7}, false,
                       Correlation::Smooth};
  params[kDimG] = {"G",
                   requirements_.fix_polynomial
                       ? std::vector<double>{0}
                       : std::vector<double>{0, 1},
                   false, Correlation::NonCorrelated};
  params[kDimR1] = {"R1", {1, 2, 3}, false, Correlation::Monotonic};
  params[kDimR2] = {"R2", {2, 3, 4, 5}, false, Correlation::Monotonic};
  params[kDimQ] = {"Q", {0, 1}, false, Correlation::NonCorrelated};
  params[kDimN] = {"N",
                   requirements_.fix_normalization
                       ? std::vector<double>{1}
                       : std::vector<double>{1, 2, 3, 4},
                   false, Correlation::Smooth};
  params[kDimMFrac] = {"M_frac", {0.0, 0.125, 0.25, 0.5, 1.0}, false,
                       Correlation::Monotonic};
  return search::DesignSpace(std::move(params));
}

DecoderSpec ViterbiMetaCore::decode_point(
    const std::vector<double>& point) const {
  if (point.size() != 8) {
    throw std::invalid_argument("ViterbiMetaCore: point must have 8 values");
  }
  const int k = static_cast<int>(std::lround(point[kDimK]));
  const int l_mult = static_cast<int>(std::lround(point[kDimLMult]));
  const int g_variant = static_cast<int>(std::lround(point[kDimG]));
  const int r1 = static_cast<int>(std::lround(point[kDimR1]));
  int r2 = static_cast<int>(std::lround(point[kDimR2]));
  const int q = static_cast<int>(std::lround(point[kDimQ]));
  int n_norm = static_cast<int>(std::lround(point[kDimN]));
  const double m_frac = point[kDimMFrac];

  DecoderSpec spec;
  const auto candidates = comm::candidate_rate_half_codes(k);
  spec.code = candidates[static_cast<std::size_t>(
      std::min<int>(g_variant, static_cast<int>(candidates.size()) - 1))];
  spec.traceback_depth = l_mult * k;
  spec.quantization =
      q == 0 ? QuantizationMethod::FixedSoft : QuantizationMethod::AdaptiveSoft;

  if (m_frac <= 0.0) {
    // Single-resolution decoding at R1 bits.
    if (r1 <= 1) {
      spec.kind = DecoderKind::Hard;
    } else {
      spec.kind = DecoderKind::Soft;
      spec.high_res_bits = r1;
    }
  } else {
    spec.kind = DecoderKind::Multires;
    spec.low_res_bits = r1;
    spec.high_res_bits = std::max(r1, r2);
    const int states = spec.code.num_states();
    spec.num_high_res_paths = std::clamp(
        static_cast<int>(std::lround(m_frac * states)), 1, states);
    spec.normalization_terms = std::clamp(n_norm, 1, spec.num_high_res_paths);
  }
  return spec;
}

search::Objective ViterbiMetaCore::objective() const {
  search::Objective obj;
  obj.minimize = "area_mm2";
  obj.constraints.push_back({search::Constraint::Kind::UpperBound, "ber",
                             requirements_.target_ber});
  return obj;
}

search::Evaluation ViterbiMetaCore::evaluate(const std::vector<double>& point,
                                             int fidelity) const {
  const DecoderSpec spec = decode_point(point);

  comm::BerRunConfig ber_cfg = ber_base_;
  // Decision-directed simulation: points clearly passing or failing the
  // requirement stop as soon as the confidence interval separates.
  if (ber_cfg.decision_ber == 0.0) {
    ber_cfg.decision_ber = requirements_.target_ber;
  }
  if (ber_cfg.shards == 1) {
    ber_cfg.shards = std::max(1, requirements_.ber_shards);
  }
  // Lane cap is throughput-only (lane-invariant results), so it rides along
  // unconditionally and stays out of evaluation_fingerprint().
  ber_cfg.lanes = std::max(0, requirements_.ber_lanes);
  const double scale = std::pow(4.0, std::max(0, fidelity));
  // The 2M-bit ceiling keeps even the deepest verification runs tractable.
  ber_cfg.max_bits = static_cast<std::uint64_t>(
      std::min(ber_cfg.max_bits * scale, 2'000'000.0));
  ber_cfg.min_bits = static_cast<std::uint64_t>(
      std::min(ber_cfg.min_bits * scale, 500'000.0));
  const comm::BerPoint ber =
      comm::measure_ber(spec, requirements_.esn0_db, ber_cfg);

  cost::ViterbiCostQuery query;
  query.spec = spec;
  query.throughput_mbps = requirements_.throughput_mbps;
  query.tech = requirements_.tech;
  const cost::ViterbiCostResult cost = cost::evaluate_viterbi_cost(query);

  search::Evaluation eval;
  eval.feasible = cost.feasible;
  eval.confidence_weight = static_cast<double>(ber.errors.trials);
  // Certified BER: a finite simulation can only demonstrate rates down to
  // ~3/trials (the rule of three) — without this floor a short zero-error
  // run would "certify" any target, including the paper's infeasible
  // 1e-9 row.
  const double floor_ber =
      3.0 / static_cast<double>(std::max<std::uint64_t>(ber.errors.trials, 1));
  eval.metrics["ber"] = std::max(ber.ber(), floor_ber);
  eval.metrics["ber_observed"] = ber.ber();
  if (cost.feasible) {
    eval.metrics["area_mm2"] = cost.area_mm2;
    eval.metrics["cycles_per_bit"] = cost.cycles_per_bit;
    eval.metrics["required_clock_mhz"] = cost.required_clock_mhz;
    eval.metrics["cores"] = cost.cores;
    eval.metrics["datapath_bits"] = cost.datapath_bits;
  }
  return eval;
}

search::EvaluateFn ViterbiMetaCore::evaluator() const {
  return [this](const std::vector<double>& point, int fidelity) {
    return evaluate(point, fidelity);
  };
}

std::string ViterbiMetaCore::evaluation_fingerprint() const {
  // The persisted store's scope key: these bytes must never change (the
  // core tests pin them against the original precision-17 ostream form).
  using robust::append_g17;
  std::string fp;
  fp.reserve(192);
  fp += "viterbi|ber=";
  append_g17(fp, requirements_.target_ber);
  fp += "|esn0=";
  append_g17(fp, requirements_.esn0_db);
  fp += "|mbps=";
  append_g17(fp, requirements_.throughput_mbps);
  fp += "|fixG=";
  fp += requirements_.fix_polynomial ? '1' : '0';
  fp += "|fixN=";
  fp += requirements_.fix_normalization ? '1' : '0';
  fp += "|shards=";
  fp += std::to_string(requirements_.ber_shards);
  fp += "|tech=";
  append_g17(fp, requirements_.tech.base_feature_um);
  fp += ',';
  append_g17(fp, requirements_.tech.feature_um);
  fp += ',';
  append_g17(fp, requirements_.tech.base_clock_mhz);
  fp += "|sim=";
  fp += std::to_string(ber_base_.max_bits);
  fp += ',';
  fp += std::to_string(ber_base_.min_bits);
  fp += ',';
  fp += std::to_string(ber_base_.max_errors);
  fp += ',';
  fp += std::to_string(ber_base_.seed);
  fp += ',';
  append_g17(fp, ber_base_.decision_ber);
  fp += ',';
  fp += std::to_string(ber_base_.shards);
  return fp;
}

search::SearchResult ViterbiMetaCore::search(
    search::SearchConfig config) const {
  config.probabilistic_metric = "ber";
  if (config.store && config.store_fingerprint.empty()) {
    config.store_fingerprint = evaluation_fingerprint();
  }
  search::MultiresolutionSearch engine(design_space(), objective(),
                                       evaluator(), config);
  search::SearchResult result = engine.run();
  // Final pass at one fidelity level above the deepest search level: the
  // BER estimates that picked the winner are noisy, so the few surviving
  // candidates get the long-simulation treatment before selection.
  return search::verify_top_candidates(std::move(result), design_space(),
                                       objective(), evaluator(), 5,
                                       config.max_resolution + 1,
                                       config.store.get(),
                                       config.store_fingerprint);
}

std::string describe(const comm::DecoderSpec& spec, double area_mm2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " area=%.2f mm^2", area_mm2);
  return spec.label() + " G=" + spec.code.generators_octal() + buf;
}

}  // namespace metacore::core
