// Unit tests for the common substrate: Status/Result, deterministic RNG,
// statistics accumulators, hashing and time conversion.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <utility>

#include "common/hash.h"
#include "common/macros.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/time.h"

namespace seep {
namespace {

// ------------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("no such operator");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "no such operator");
  EXPECT_EQ(s.ToString(), "NotFound: no such operator");
}

TEST(StatusTest, CopyAndMovePreserveState) {
  Status s = Status::Corruption("bad frame");
  Status copy = s;
  EXPECT_TRUE(copy.IsCorruption());
  EXPECT_EQ(copy.message(), "bad frame");
  Status moved = std::move(s);
  EXPECT_TRUE(moved.IsCorruption());
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kAborted); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

// ------------------------------------------------------------------- Result

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 7);
  EXPECT_EQ(*r, 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto doubled = [](int v) -> Result<int> {
    SEEP_ASSIGN_OR_RETURN(int parsed, ParsePositive(v));
    return parsed * 2;
  };
  EXPECT_EQ(doubled(4).value(), 8);
  EXPECT_FALSE(doubled(-4).ok());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

// ---------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(RngTest, ZipfInRangeAndSkewed) {
  Rng rng(13);
  const uint64_t n = 100;
  const ZipfDistribution zipf(n, 1.0);
  std::vector<int> counts(n, 0);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t v = zipf.Sample(&rng);
    ASSERT_LT(v, n);
    ++counts[v];
  }
  // Rank 0 clearly dominates rank 9, which dominates rank 99.
  EXPECT_GT(counts[0], counts[9] * 3);
  EXPECT_GT(counts[9], counts[99]);
}

TEST(RngTest, ZipfSingleElement) {
  Rng rng(1);
  EXPECT_EQ(ZipfDistribution(1, 1.0).Sample(&rng), 0u);
}

// The sampler as it was written before its (n, s) constants were cached:
// every draw recomputes them. ZipfDistribution must reproduce its draws bit
// for bit, or every word-count and top-k input (and every figure built on
// them) would change.
uint64_t ReferenceZipf(Rng* rng, uint64_t n, double s) {
  if (n == 1) return 0;
  const double e = 1.0 - s;
  auto h_integral = [&](double x) {
    if (std::abs(e) < 1e-12) return std::log(x);
    return (std::pow(x, e) - 1.0) / e;
  };
  auto h_integral_inverse = [&](double y) {
    if (std::abs(e) < 1e-12) return std::exp(y);
    return std::pow(1.0 + e * y, 1.0 / e);
  };
  auto h = [&](double x) { return std::pow(x, -s); };
  const double h_x1 = h_integral(1.5) - h(1.0);
  const double h_n = h_integral(static_cast<double>(n) + 0.5);
  const double h_half = h_integral(0.5);
  while (true) {
    const double u = h_half + rng->NextDouble() * (h_n - h_half);
    const double x = h_integral_inverse(u);
    double k = std::floor(x + 0.5);
    if (k < 1.0) k = 1.0;
    if (k > static_cast<double>(n)) k = static_cast<double>(n);
    if (k - x <= h_x1 || u >= h_integral(k + 0.5) - h(k)) {
      return static_cast<uint64_t>(k) - 1;
    }
  }
}

TEST(RngTest, ZipfMatchesPerCallFormulaBitForBit) {
  // s = 1 takes the log/exp branch, the others the pow branch; n = 1 must
  // return 0 without consuming randomness, so the streams stay aligned.
  const std::pair<uint64_t, double> cases[] = {
      {300, 1.0},   // the top-k source
      {1000, 0.9},  // the word-count source
      {100000, 0.9},
      {50, 1.5},
      {7, 0.2},
      {2, 0.9},
      {1000, 0.0},  // uniform: s = 0 is the smallest skew accepted
      {1, 0.9},
      {1, 1.0},
  };
  for (const auto& [n, s] : cases) {
    SCOPED_TRACE("n=" + std::to_string(n) + " s=" + std::to_string(s));
    const ZipfDistribution zipf(n, s);
    Rng fast(77), reference(77);
    for (int i = 0; i < 100000; ++i) {
      ASSERT_EQ(zipf.Sample(&fast), ReferenceZipf(&reference, n, s));
    }
    EXPECT_EQ(fast.Next(), reference.Next());
  }
}

TEST(RngDeathTest, ZipfRejectsNegativeSkew) {
  EXPECT_DEATH(ZipfDistribution(10, -0.1), "s >= 0");
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

// -------------------------------------------------------------------- Stats

TEST(SampleDistributionTest, ExactPercentilesSmall) {
  SampleDistribution d;
  for (int i = 1; i <= 100; ++i) d.Add(i);
  EXPECT_DOUBLE_EQ(d.Percentile(0), 1);
  EXPECT_DOUBLE_EQ(d.Percentile(100), 100);
  EXPECT_NEAR(d.Median(), 50.5, 0.01);
  EXPECT_NEAR(d.Percentile(95), 95, 1.0);
  EXPECT_DOUBLE_EQ(d.Mean(), 50.5);
  EXPECT_EQ(d.count(), 100u);
  EXPECT_EQ(d.Min(), 1);
  EXPECT_EQ(d.Max(), 100);
}

TEST(SampleDistributionTest, EmptyReturnsZero) {
  SampleDistribution d;
  EXPECT_EQ(d.Percentile(50), 0);
  EXPECT_EQ(d.Mean(), 0);
  EXPECT_TRUE(d.empty());
}

TEST(SampleDistributionTest, ReservoirApproximatesUniform) {
  SampleDistribution d(/*max_samples=*/1000, /*seed=*/3);
  for (int i = 0; i < 100000; ++i) d.Add(i % 1000);
  EXPECT_NEAR(d.Median(), 500, 60);
  EXPECT_EQ(d.count(), 100000u);
}

TEST(SampleDistributionTest, ClearResets) {
  SampleDistribution d;
  d.Add(5);
  d.Clear();
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.Max(), 0);
}

TEST(TimeSeriesTest, BucketedAverages) {
  TimeSeries ts;
  ts.Add(0, 10);
  ts.Add(kMicrosPerSecond / 2, 20);
  ts.Add(kMicrosPerSecond + 1, 30);
  const auto buckets = ts.Bucketed(kMicrosPerSecond);
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_DOUBLE_EQ(buckets[0].value, 15);
  EXPECT_DOUBLE_EQ(buckets[1].value, 30);
}

TEST(TimeSeriesTest, MaxAndLast) {
  TimeSeries ts;
  EXPECT_EQ(ts.Last(-1), -1);
  ts.Add(0, 3);
  ts.Add(1, 9);
  ts.Add(2, 4);
  EXPECT_EQ(ts.Max(), 9);
  EXPECT_EQ(ts.Last(), 4);
}

TEST(RateCounterTest, RatesPerSecondScales) {
  RateCounter rc(kMicrosPerSecond);
  rc.Add(0, 5);
  rc.Add(kMicrosPerSecond / 2, 5);
  rc.Add(3 * kMicrosPerSecond, 7);
  const auto rates = rc.RatesPerSecond();
  ASSERT_EQ(rates.size(), 4u);
  EXPECT_DOUBLE_EQ(rates[0].value, 10);
  EXPECT_DOUBLE_EQ(rates[1].value, 0);
  EXPECT_DOUBLE_EQ(rates[3].value, 7);
  EXPECT_EQ(rc.total(), 17u);
}

TEST(RateCounterTest, SubSecondBuckets) {
  RateCounter rc(kMicrosPerSecond / 10);  // 100 ms buckets
  rc.Add(0, 1);
  const auto rates = rc.RatesPerSecond();
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_DOUBLE_EQ(rates[0].value, 10);  // 1 tuple per 100 ms = 10/s
}

// --------------------------------------------------------------------- Hash

TEST(HashTest, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(Mix64(1), Mix64(1));
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 1000; ++i) seen.insert(Mix64(i));
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(HashTest, HashBytesDistinguishesStrings) {
  EXPECT_NE(HashBytes("cat"), HashBytes("dog"));
  EXPECT_EQ(HashBytes("cat"), HashBytes("cat"));
  EXPECT_NE(HashBytes(""), HashBytes("a"));
}

TEST(HashTest, CombineOrderSensitive) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

// --------------------------------------------------------------------- Time

TEST(TimeTest, Conversions) {
  EXPECT_EQ(SecondsToSim(1.5), 1'500'000);
  EXPECT_DOUBLE_EQ(SimToSeconds(2'500'000), 2.5);
  EXPECT_EQ(MillisToSim(2.5), 2'500);
  EXPECT_DOUBLE_EQ(SimToMillis(1'500), 1.5);
}

}  // namespace
}  // namespace seep
