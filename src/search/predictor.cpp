#include "search/predictor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace metacore::search {

namespace {

double sq_distance(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("predictor: coordinate dimension mismatch");
  }
  double d2 = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    d2 += d * d;
  }
  return d2;
}

/// Standard normal CDF.
double phi(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

/// Evidence must be finite: a single NaN/Inf observation would poison every
/// later prediction through the weighted sums (NaN propagates; Inf collapses
/// all weight onto one point), so reject it at the door with the offender
/// named.
void check_finite_coords(const char* who, const std::vector<double>& coords) {
  for (std::size_t i = 0; i < coords.size(); ++i) {
    if (!std::isfinite(coords[i])) {
      throw std::invalid_argument(std::string(who) +
                                  ": non-finite coordinate at dimension " +
                                  std::to_string(i));
    }
  }
}

}  // namespace

void SmoothEstimator::add(std::vector<double> coords, double value) {
  check_finite_coords("SmoothEstimator::add", coords);
  if (!std::isfinite(value)) {
    throw std::invalid_argument("SmoothEstimator::add: non-finite value");
  }
  coords_.push_back(std::move(coords));
  values_.push_back(value);
}

double SmoothEstimator::predict(std::span<const double> coords) const {
  if (coords_.empty()) return 0.0;
  double wsum = 0.0, vsum = 0.0;
  for (std::size_t i = 0; i < coords_.size(); ++i) {
    const double d2 = sq_distance(coords_[i], coords);
    if (d2 < 1e-18) return values_[i];  // exact at evaluated points
    const double w = 1.0 / d2;
    wsum += w;
    vsum += w * values_[i];
  }
  return vsum / wsum;
}

void BerPredictor::add(std::vector<double> coords, double ber, double trials) {
  check_finite_coords("BerPredictor::add", coords);
  check_evidence(ber, trials);
  coords_.push_back(std::move(coords));
  log_ber_.push_back(std::log10(std::clamp(ber, 1e-12, 1.0)));
  log1p_evidence_.push_back(std::log1p(trials));
}

void BerPredictor::check_evidence(double ber, double trials) {
  if (!std::isfinite(ber)) {
    throw std::invalid_argument("BerPredictor::add: non-finite BER");
  }
  if (trials <= 0.0) {
    throw std::invalid_argument("BerPredictor: non-positive evidence");
  }
  if (!std::isfinite(trials)) {
    throw std::invalid_argument("BerPredictor::add: non-finite evidence");
  }
}

BerPredictor::Prediction BerPredictor::predict(
    std::span<const double> coords) const {
  Prediction p;
  if (coords_.empty()) {
    p.log10_sigma = 3.0;  // essentially uninformative
    return p;
  }
  // Gaussian kernel on distance, scaled by the evidence weight. The
  // length-scale is set to a quarter of the normalized cube diagonal so a
  // handful of grid neighbors dominate each prediction.
  const double length_scale =
      0.25 * std::sqrt(static_cast<double>(coords.size()));
  // Each weight is computed once and reused by the variance pass; the
  // scratch buffer is per thread, so concurrent predictions never share it.
  thread_local std::vector<double> weights;
  weights.resize(coords_.size());
  double wsum = 0.0, mean = 0.0;
  double min_d2 = 1e300;
  for (std::size_t i = 0; i < coords_.size(); ++i) {
    const double d2 = sq_distance(coords_[i], coords);
    min_d2 = std::min(min_d2, d2);
    const double w = log1p_evidence_[i] *
                     std::exp(-d2 / (2.0 * length_scale * length_scale));
    weights[i] = w;
    wsum += w;
    mean += w * log_ber_[i];
  }
  if (wsum <= 0.0) {
    p.log10_sigma = 3.0;
    return p;
  }
  mean /= wsum;
  double var = 0.0;
  for (std::size_t i = 0; i < coords_.size(); ++i) {
    const double diff = log_ber_[i] - mean;
    var += weights[i] * diff * diff;
  }
  var = var / wsum;
  // Epistemic floor: even with consistent neighbors, uncertainty grows with
  // distance to the nearest evidence.
  const double distance_sigma = std::sqrt(min_d2) / length_scale * 0.5;
  p.log10_mean = mean;
  p.log10_sigma = std::sqrt(var + 0.04) + distance_sigma;
  return p;
}

double BerPredictor::probability_below(std::span<const double> coords,
                                       double threshold) const {
  if (coords_.empty()) return 0.5;
  const Prediction p = predict(coords);
  const double log_thr = std::log10(std::clamp(threshold, 1e-12, 1.0));
  return phi((log_thr - p.log10_mean) / p.log10_sigma);
}

}  // namespace metacore::search
