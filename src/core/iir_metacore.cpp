#include "core/iir_metacore.hpp"

#include <cmath>
#include <stdexcept>

#include "robust/json.hpp"

namespace metacore::core {

namespace {

constexpr int kDimStructure = 0;
constexpr int kDimExtraOrder = 1;
constexpr int kDimWordBits = 2;
constexpr int kDimRippleFraction = 3;
constexpr int kDimFamily = 4;

}  // namespace

IirRequirements paper_bandpass_requirements(double sample_period_us) {
  IirRequirements req;
  req.filter.band = dsp::BandType::Bandpass;
  req.filter.family = dsp::FilterFamily::Elliptic;
  req.filter.pass_lo = 0.411111;
  req.filter.pass_hi = 0.466667;
  req.filter.stop_lo = 0.3487015;
  req.filter.stop_hi = 0.494444;
  req.filter.passband_ripple_db =
      dsp::passband_ripple_db_from_eps(0.015782);
  req.filter.stopband_atten_db =
      dsp::stopband_atten_db_from_eps(0.0157816);
  req.sample_period_us = sample_period_us;
  return req;
}

IirMetaCore::IirMetaCore(IirRequirements requirements)
    : requirements_(requirements) {
  requirements_.filter.validate();
  if (requirements_.sample_period_us <= 0.0) {
    throw std::invalid_argument("IirMetaCore: sample period must be positive");
  }
}

dsp::StructureKind IirMetaCore::structure_at(int index) {
  const auto all = dsp::all_structures();
  if (index < 0 || static_cast<std::size_t>(index) >= all.size()) {
    throw std::invalid_argument("IirMetaCore: structure index out of range");
  }
  return all[static_cast<std::size_t>(index)];
}

search::DesignSpace IirMetaCore::design_space() const {
  using search::Correlation;
  using search::ParameterDef;
  std::vector<ParameterDef> params(5);
  std::vector<double> structures;
  for (std::size_t i = 0; i < dsp::all_structures().size(); ++i) {
    structures.push_back(static_cast<double>(i));
  }
  params[kDimStructure] = {"structure", structures, false,
                           Correlation::NonCorrelated};
  params[kDimExtraOrder] = {"extra_order", {0, 1, 2}, false,
                            Correlation::Monotonic};
  params[kDimWordBits] = {"word_bits",
                          {8, 9, 10, 11, 12, 14, 16, 18, 20, 22, 24},
                          false, Correlation::Monotonic};
  params[kDimRippleFraction] = {"ripple_fraction", {0.4, 0.7, 1.0}, true,
                                Correlation::Smooth};
  // Approximation family: fixed to the requirement's family unless the
  // user opted into exploring it (algorithm selection, [Pot99]).
  params[kDimFamily] = {
      "family",
      requirements_.explore_family
          ? std::vector<double>{0, 1, 2, 3}
          : std::vector<double>{
                static_cast<double>(requirements_.filter.family)},
      false, Correlation::NonCorrelated};
  return search::DesignSpace(std::move(params));
}

search::Objective IirMetaCore::objective() const {
  search::Objective obj;
  obj.minimize = "area_mm2";
  obj.constraints.push_back({search::Constraint::Kind::UpperBound,
                             "passband_ripple_db",
                             requirements_.filter.passband_ripple_db});
  obj.constraints.push_back({search::Constraint::Kind::UpperBound,
                             "stopband_gain_db",
                             -requirements_.filter.stopband_atten_db});
  return obj;
}

const dsp::DesignedFilter& IirMetaCore::designed(dsp::FilterFamily family,
                                                 double ripple_fraction,
                                                 int extra_order) const {
  const int frac_key = static_cast<int>(std::lround(ripple_fraction * 100));
  const auto key =
      std::make_tuple(static_cast<int>(family), frac_key, extra_order);
  {
    std::lock_guard<std::mutex> lock(design_mutex_);
    const auto it = design_cache_.find(key);
    if (it != design_cache_.end()) return it->second;
  }

  dsp::FilterSpec spec = requirements_.filter;
  spec.family = family;
  // Allocate only a fraction of the ripple budget to the nominal design;
  // the remainder absorbs coefficient quantization error.
  spec.passband_ripple_db *= ripple_fraction;
  // Stopband margin scales the same way (extra attenuation designed in).
  spec.stopband_atten_db += -20.0 * std::log10(ripple_fraction);
  dsp::DesignedFilter base = dsp::design_filter(spec);
  if (extra_order > 0) {
    spec.order_override = base.prototype_order + extra_order;
    base = dsp::design_filter(spec);
  }
  // Another thread may have designed the same filter meanwhile; the
  // designs are identical and the first one stays.
  std::lock_guard<std::mutex> lock(design_mutex_);
  return design_cache_.emplace(key, std::move(base)).first->second;
}

search::Evaluation IirMetaCore::evaluate(const std::vector<double>& point,
                                         int fidelity) const {
  if (point.size() != 5) {
    throw std::invalid_argument("IirMetaCore: point must have 5 values");
  }
  const auto structure =
      structure_at(static_cast<int>(std::lround(point[kDimStructure])));
  const int extra_order = static_cast<int>(std::lround(point[kDimExtraOrder]));
  const int word_bits = static_cast<int>(std::lround(point[kDimWordBits]));
  const double ripple_fraction = point[kDimRippleFraction];
  const auto family =
      static_cast<dsp::FilterFamily>(std::lround(point[kDimFamily]));

  search::Evaluation eval;
  const dsp::DesignedFilter* design = nullptr;
  std::unique_ptr<dsp::Realization> quantized;
  try {
    design = &designed(family, ripple_fraction, extra_order);
    const auto realization = dsp::realize(design->zpk, structure);
    quantized = realization->quantized(word_bits);
  } catch (const std::exception&) {
    // Degenerate decomposition (e.g. repeated poles in parallel form) or
    // an unstable lattice conversion: the point is simply infeasible.
    eval.feasible = false;
    return eval;
  }

  const dsp::TransferFunction tf = quantized->effective_tf();
  if (!tf.is_stable()) {
    eval.feasible = false;
    eval.metrics["stable"] = 0.0;
    return eval;
  }
  const int grid = 128 << std::min(fidelity, 4);
  const dsp::BandMetrics metrics = dsp::measure_bandpass(
      tf, requirements_.filter.pass_lo, requirements_.filter.pass_hi,
      requirements_.filter.stop_lo, requirements_.filter.stop_hi, grid);

  synth::IirCostQuery query;
  query.structure = structure;
  query.order = tf.order();
  query.word_bits = word_bits;
  query.sample_period_us = requirements_.sample_period_us;
  query.tech = requirements_.tech;
  const synth::IirCostResult cost = synth::evaluate_iir_cost(query);

  eval.feasible = cost.feasible;
  eval.metrics["stable"] = 1.0;
  eval.metrics["passband_ripple_db"] = metrics.passband_ripple_db;
  eval.metrics["stopband_gain_db"] = metrics.max_stopband_gain_db;
  eval.metrics["bandwidth_3db"] = metrics.bandwidth_3db;
  if (cost.feasible) {
    eval.metrics["area_mm2"] = cost.area_mm2;
    eval.metrics["latency_us"] = cost.latency_us;
    eval.metrics["throughput_period_us"] = cost.throughput_period_us;
    eval.metrics["multipliers"] = cost.allocation.multipliers;
    eval.metrics["alus"] = cost.allocation.alus;
    eval.metrics["registers"] = cost.registers;
  }
  return eval;
}

search::EvaluateFn IirMetaCore::evaluator() const {
  return [this](const std::vector<double>& point, int fidelity) {
    return evaluate(point, fidelity);
  };
}

std::string IirMetaCore::evaluation_fingerprint() const {
  // The persisted store's scope key: these bytes must never change (the
  // core tests pin them against the original precision-17 ostream form).
  using robust::append_g17;
  const dsp::FilterSpec& f = requirements_.filter;
  std::string fp;
  fp.reserve(224);
  fp += "iir|band=";
  fp += std::to_string(static_cast<int>(f.band));
  fp += "|family=";
  fp += std::to_string(static_cast<int>(f.family));
  fp += "|edges=";
  append_g17(fp, f.pass_lo);
  fp += ',';
  append_g17(fp, f.pass_hi);
  fp += ',';
  append_g17(fp, f.stop_lo);
  fp += ',';
  append_g17(fp, f.stop_hi);
  fp += "|ripple=";
  append_g17(fp, f.passband_ripple_db);
  fp += "|atten=";
  append_g17(fp, f.stopband_atten_db);
  fp += "|order=";
  fp += std::to_string(f.order_override);
  fp += "|period=";
  append_g17(fp, requirements_.sample_period_us);
  fp += "|tech=";
  append_g17(fp, requirements_.tech.base_feature_um);
  fp += ',';
  append_g17(fp, requirements_.tech.feature_um);
  fp += ',';
  append_g17(fp, requirements_.tech.base_clock_mhz);
  fp += "|explore=";
  fp += requirements_.explore_family ? '1' : '0';
  return fp;
}

search::SearchResult IirMetaCore::search(search::SearchConfig config) const {
  if (config.store && config.store_fingerprint.empty()) {
    config.store_fingerprint = evaluation_fingerprint();
  }
  search::MultiresolutionSearch engine(design_space(), objective(),
                                       evaluator(), config);
  return engine.run();
}

}  // namespace metacore::core
