// The IIR MetaCore: the paper's validation example (Sections 4.5 and 5.3).
// Degrees of freedom: topological structure, number of stages (prototype
// order above the minimum), word length, and the passband-ripple allocation
// between design margin and quantization margin. Performance is measured
// from the (quantized-coefficient) frequency response; area/throughput/
// latency come from the HYPER-substitute synthesis estimator.
#pragma once

#include <map>
#include <mutex>
#include <string>

#include "dsp/design.hpp"
#include "dsp/structures.hpp"
#include "search/multires_search.hpp"
#include "synth/area.hpp"

namespace metacore::core {

struct IirRequirements {
  dsp::FilterSpec filter{};        ///< band edges + ripple/attenuation spec
  double sample_period_us = 1.0;   ///< required throughput (Table 4 axis)
  cost::TechnologyParams tech = synth::hyper_era_technology();
  /// When true, the approximation family (Butterworth/Chebyshev/elliptic)
  /// becomes a search dimension — algorithm selection in the sense of
  /// [Pot99], which the paper cites as the closest prior approach. When
  /// false (default, matching Section 5.3) the family in `filter` is fixed.
  bool explore_family = false;
};

/// The paper's Section 5.3 bandpass specification.
IirRequirements paper_bandpass_requirements(double sample_period_us);

class IirMetaCore {
 public:
  explicit IirMetaCore(IirRequirements requirements);

  const IirRequirements& requirements() const { return requirements_; }

  /// Dimensions: structure (enumeration), extra stages (prototype order
  /// above minimum), word length, ripple design fraction, and the
  /// approximation family (a singleton unless explore_family is set).
  search::DesignSpace design_space() const;

  search::Objective objective() const;

  search::Evaluation evaluate(const std::vector<double>& point,
                              int fidelity) const;

  search::EvaluateFn evaluator() const;

  /// Stable content fingerprint of this metacore's evaluator (filter spec,
  /// throughput requirement, technology, family exploration) — the
  /// persistence scope for serve::EvaluationStore entries and Pareto
  /// archives; see ViterbiMetaCore::evaluation_fingerprint.
  std::string evaluation_fingerprint() const;

  /// When `config.store` is set and `config.store_fingerprint` is empty,
  /// the fingerprint is filled in from evaluation_fingerprint().
  search::SearchResult search(search::SearchConfig config = {}) const;

  /// The structure encoded at design-space position `index`.
  static dsp::StructureKind structure_at(int index);

 private:
  /// Designs (and caches) the filter for a (family, ripple fraction, extra
  /// order) combination; shared by every structure/word-length evaluation.
  const dsp::DesignedFilter& designed(dsp::FilterFamily family,
                                      double ripple_fraction,
                                      int extra_order) const;

  IirRequirements requirements_;
  /// Guards design_cache_: a search evaluates points on several pool
  /// threads at once. Entries are never erased, so a returned reference
  /// stays valid after the lock is released.
  mutable std::mutex design_mutex_;
  mutable std::map<std::tuple<int, int, int>, dsp::DesignedFilter>
      design_cache_;
};

}  // namespace metacore::core
