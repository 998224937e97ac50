#ifndef SEEP_COMMON_RNG_H_
#define SEEP_COMMON_RNG_H_

#include <cstdint>
#include <vector>

#include "common/macros.h"

namespace seep {

/// Deterministic pseudo-random number generator (xoshiro256**), seeded via
/// SplitMix64. Every source of randomness in the library draws from an Rng
/// whose seed flows from the top-level configuration, so a (config, seed)
/// pair fully determines a run.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    // SplitMix64 expansion of the seed into the xoshiro state, as recommended
    // by the xoshiro authors to avoid correlated low-entropy states.
    uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9E3779B97F4A7C15ull;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      s = z ^ (z >> 31);
    }
  }

  /// Uniform 64-bit value.
  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). `bound` must be > 0.
  uint64_t NextBounded(uint64_t bound) {
    SEEP_CHECK_GT(bound, 0u);
    // Rejection-free multiply-shift mapping (Lemire); slight modulo bias is
    // acceptable for workload generation.
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double NextDouble(double lo, double hi) {
    return lo + (hi - lo) * NextDouble();
  }

  /// Exponentially distributed value with the given mean.
  double NextExponential(double mean);

  /// Creates an independent child generator; used to give each simulated
  /// entity its own stream so entity creation order does not perturb others.
  Rng Fork() { return Rng(Next() ^ 0xA5A5A5A5DEADBEEFull); }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

/// Zipf-distributed integers in [0, n) with skew parameter `s` >= 0, drawn
/// by the rejection-inversion method of Hörmann & Derflinger (1996). A draw
/// inverts one uniform to a candidate rank k (one pow, or one exp at s = 1)
/// and accepts k when the uniform reaches k's bound HIntegral(k + 0.5) - H(k).
/// The bound depends on the rank alone, so Sample computes it by that
/// expression on the rank's first draw and reads it from a table of n
/// doubles afterwards: the draws are bit-identical to recomputing it, and a
/// distribution pays the bound's two calls once per rank it draws, not once
/// per draw.
/// n = 1 always yields 0 and consumes no randomness.
class ZipfDistribution {
 public:
  ZipfDistribution(uint64_t n, double s);

  uint64_t Sample(Rng* rng) const;

 private:
  double HIntegral(double x) const;
  double HIntegralInverse(double y) const;
  double H(double x) const;

  // Declaration order matters: the h_* constants are initialised from the
  // members above them.
  uint64_t n_;
  double s_;
  double e_;       // 1 - s
  bool log_form_;  // s == 1: the integral of x^-s is log x
  double h_n_;     // HIntegral(n + 0.5)
  double h_half_;  // HIntegral(0.5)
  // Rank k's acceptance bound at [k - 1]; NaN until k is first drawn.
  // Filled lazily, as ProcessingState sorts, so Sample stays const.
  mutable std::vector<double> accept_;
};

}  // namespace seep

#endif  // SEEP_COMMON_RNG_H_
