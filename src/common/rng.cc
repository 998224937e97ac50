#include "common/rng.h"

#include <cmath>
#include <limits>

namespace seep {

double Rng::NextExponential(double mean) {
  // Inverse-CDF sampling; clamp the uniform away from 0 to avoid log(0).
  double u = NextDouble();
  if (u < 1e-300) u = 1e-300;
  return -mean * std::log(u);
}

ZipfDistribution::ZipfDistribution(uint64_t n, double s)
    : n_(n),
      s_(s),
      e_(1.0 - s),
      log_form_(std::abs(1.0 - s) < 1e-12),
      h_n_(HIntegral(static_cast<double>(n) + 0.5)),
      h_half_(HIntegral(0.5)),
      accept_(n, std::numeric_limits<double>::quiet_NaN()) {
  SEEP_CHECK_GT(n, 0u);
  // Sample has no squeeze test (accept k at once if k - x <= HIntegral(1.5)
  // - H(1)): for s >= 0 its right side is at most -0.5, and k = floor(x +
  // 0.5) keeps k - x above -0.5 (short of the clamp at n, which only a
  // uniform within rounding of its top end reaches), so it never holds.
  SEEP_CHECK_GE(s, 0.0);
}

double ZipfDistribution::HIntegral(double x) const {
  if (log_form_) return std::log(x);
  return (std::pow(x, e_) - 1.0) / e_;
}

double ZipfDistribution::HIntegralInverse(double y) const {
  if (log_form_) return std::exp(y);
  return std::pow(1.0 + e_ * y, 1.0 / e_);
}

double ZipfDistribution::H(double x) const { return std::pow(x, -s_); }

uint64_t ZipfDistribution::Sample(Rng* rng) const {
  if (n_ == 1) return 0;
  // Ranks 1..n, returned zero-based.
  while (true) {
    const double u = h_half_ + rng->NextDouble() * (h_n_ - h_half_);
    const double x = HIntegralInverse(u);
    double k = std::floor(x + 0.5);
    if (k < 1.0) k = 1.0;
    if (k > static_cast<double>(n_)) k = static_cast<double>(n_);
    const auto rank = static_cast<uint64_t>(k) - 1;
    double& bound = accept_[rank];
    if (std::isnan(bound)) bound = HIntegral(k + 0.5) - H(k);
    if (u >= bound) return rank;
  }
}

}  // namespace seep
