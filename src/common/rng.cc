#include "common/rng.h"

#include <cmath>

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
      h_x1_(HIntegral(1.5) - H(1.0)),
      h_n_(HIntegral(static_cast<double>(n) + 0.5)),
      h_half_(HIntegral(0.5)) {
  SEEP_CHECK_GT(n, 0u);
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
    if (k - x <= h_x1_ || u >= HIntegral(k + 0.5) - H(k)) {
      return static_cast<uint64_t>(k) - 1;
    }
  }
}

}  // namespace seep
