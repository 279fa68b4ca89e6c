// Metric prediction between evaluated grid points (Section 4.4): smooth
// metrics (area, throughput) are interpolated; the probabilistic BER metric
// gets a Bayesian treatment — observed values act as evidence whose weight
// decays with distance, yielding a posterior mean and uncertainty that the
// search converts into "probability this point meets the BER constraint".
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace metacore::search {

/// Inverse-distance-weighted kernel regressor for smooth metrics on
/// normalized [0,1]^d coordinates. Exact at evaluated points.
class SmoothEstimator {
 public:
  void add(std::vector<double> coords, double value);

  /// Shepard interpolation with p=2; returns 0 with no observations.
  double predict(std::span<const double> coords) const;

  std::size_t observations() const { return coords_.size(); }

 private:
  std::vector<std::vector<double>> coords_;
  std::vector<double> values_;
};

/// Bayesian predictor for log10(BER). Each observation carries an evidence
/// weight (bits simulated); the posterior at a query point combines
/// neighbor observations with weights w_i = evidence_i * k(d_i), giving a
/// precision-weighted mean and a variance that grows with distance from
/// the evidence — the conditional-probability neighborhood model of the
/// paper's Refine_Grid step.
class BerPredictor {
 public:
  /// `ber` is clamped to [1e-12, 1]; `trials` is the number of decoded bits
  /// backing the estimate.
  void add(std::vector<double> coords, double ber, double trials);

  /// The checks add() applies to `ber` and `trials`, with its messages:
  /// throws std::invalid_argument on a non-finite value or non-positive
  /// evidence. Lets a caller that defers add() still reject bad evidence
  /// when it arrives.
  static void check_evidence(double ber, double trials);

  struct Prediction {
    double log10_mean = 0.0;
    double log10_sigma = 1.0;
  };
  Prediction predict(std::span<const double> coords) const;

  /// Posterior probability that BER at `coords` is below `threshold`
  /// (Gaussian posterior on log10 BER). With no evidence returns 0.5.
  double probability_below(std::span<const double> coords,
                           double threshold) const;

  std::size_t observations() const { return coords_.size(); }

 private:
  std::vector<std::vector<double>> coords_;
  std::vector<double> log_ber_;
  std::vector<double> log1p_evidence_;  ///< log1p(trials), the weight scale
};

}  // namespace metacore::search
