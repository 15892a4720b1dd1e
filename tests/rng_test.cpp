#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <stdexcept>
#include <vector>

#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "stats/descriptive.hpp"

namespace rng = fepia::rng;
namespace stats = fepia::stats;

TEST(RngXoshiro, DeterministicFromSeed) {
  rng::Xoshiro256StarStar a(123);
  rng::Xoshiro256StarStar b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngXoshiro, DifferentSeedsDiverge) {
  rng::Xoshiro256StarStar a(1);
  rng::Xoshiro256StarStar b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngXoshiro, SubstreamsAreIndependentOfDrawOrder) {
  rng::Xoshiro256StarStar base(99);
  auto s1 = base.substream(0);
  auto s2 = base.substream(1);
  // Substreams must not collide with each other for many draws.
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (s1() == s2()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(RngXoshiro, SubstreamsMatchSubstreamByIndex) {
  // The estimator builds its chunk generators one jump apart, before
  // the parallel phase; each must be the substream(k) it replaces.
  const rng::Xoshiro256StarStar base(0x5EEDD1CEull);
  const std::vector<rng::Xoshiro256StarStar> streams = base.substreams(128);
  ASSERT_EQ(streams.size(), 128u);
  for (const unsigned k : {0u, 1u, 127u}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    EXPECT_TRUE(streams[k] == base.substream(k));
  }
  EXPECT_TRUE(base.substreams(0).empty());
}

TEST(RngDistributions, Uniform01InRange) {
  rng::Xoshiro256StarStar g(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng::uniform01(g);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngDistributions, UniformMeanConverges) {
  rng::Xoshiro256StarStar g(6);
  std::vector<double> xs;
  xs.reserve(20000);
  for (int i = 0; i < 20000; ++i) xs.push_back(rng::uniform(g, 2.0, 6.0));
  EXPECT_NEAR(stats::mean(xs), 4.0, 0.05);
  EXPECT_THROW((void)rng::uniform(g, 3.0, 1.0), std::invalid_argument);
}

TEST(RngDistributions, UniformIndexCoversRangeUniformly) {
  rng::Xoshiro256StarStar g(7);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 50000; ++i) {
    const std::size_t k = rng::uniformIndex(g, 2, 6);
    ASSERT_GE(k, 2u);
    ASSERT_LE(k, 6u);
    ++counts[k - 2];
  }
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
  EXPECT_THROW((void)rng::uniformIndex(g, 4, 2), std::invalid_argument);
}

TEST(RngDistributions, NormalMomentsConverge) {
  rng::Xoshiro256StarStar g(8);
  std::vector<double> xs;
  xs.reserve(50000);
  for (int i = 0; i < 50000; ++i) xs.push_back(rng::normal(g, 3.0, 2.0));
  EXPECT_NEAR(stats::mean(xs), 3.0, 0.05);
  EXPECT_NEAR(stats::stddev(xs), 2.0, 0.05);
  EXPECT_THROW((void)rng::normal(g, 0.0, -1.0), std::invalid_argument);
}

TEST(RngDistributions, ExponentialMeanIsInverseRate) {
  rng::Xoshiro256StarStar g(9);
  std::vector<double> xs;
  xs.reserve(50000);
  for (int i = 0; i < 50000; ++i) xs.push_back(rng::exponential(g, 0.5));
  EXPECT_NEAR(stats::mean(xs), 2.0, 0.06);
  for (double x : xs) EXPECT_GE(x, 0.0);
  EXPECT_THROW((void)rng::exponential(g, 0.0), std::invalid_argument);
}

TEST(RngDistributions, GammaMomentsShapeAboveOne) {
  rng::Xoshiro256StarStar g(10);
  const double shape = 4.0, scale = 0.5;
  std::vector<double> xs;
  xs.reserve(50000);
  for (int i = 0; i < 50000; ++i) xs.push_back(rng::gamma(g, shape, scale));
  EXPECT_NEAR(stats::mean(xs), shape * scale, 0.03);
  EXPECT_NEAR(stats::variance(xs), shape * scale * scale, 0.05);
}

TEST(RngDistributions, GammaMomentsShapeBelowOne) {
  rng::Xoshiro256StarStar g(11);
  const double shape = 0.5, scale = 2.0;
  std::vector<double> xs;
  xs.reserve(50000);
  for (int i = 0; i < 50000; ++i) xs.push_back(rng::gamma(g, shape, scale));
  EXPECT_NEAR(stats::mean(xs), shape * scale, 0.05);
  for (double x : xs) EXPECT_GT(x, 0.0);
}

TEST(RngDistributions, GammaMeanCovParameterisation) {
  // The CVB generator draws Gamma with given mean and CoV.
  rng::Xoshiro256StarStar g(12);
  const double mean = 100.0, cov = 0.6;
  std::vector<double> xs;
  xs.reserve(50000);
  for (int i = 0; i < 50000; ++i) xs.push_back(rng::gammaMeanCov(g, mean, cov));
  EXPECT_NEAR(stats::mean(xs), mean, 1.0);
  EXPECT_NEAR(stats::coefficientOfVariation(xs), cov, 0.02);
  EXPECT_THROW((void)rng::gammaMeanCov(g, -1.0, 0.5), std::invalid_argument);
}

TEST(RngDistributions, UnitSphereHasUnitNorm) {
  rng::Xoshiro256StarStar g(13);
  for (int i = 0; i < 100; ++i) {
    const auto x = rng::unitSphere(g, 5);
    double norm = 0.0;
    for (double v : x) norm += v * v;
    EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-12);
  }
  EXPECT_THROW((void)rng::unitSphere(g, 0), std::invalid_argument);
}

TEST(RngDistributions, UnitSphereDirectionsAreUnbiased) {
  rng::Xoshiro256StarStar g(14);
  double meanX = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) meanX += rng::unitSphere(g, 3)[0];
  EXPECT_NEAR(meanX / n, 0.0, 0.02);
}

TEST(RngDistributions, NonnegativeSphereIsNonnegative) {
  rng::Xoshiro256StarStar g(15);
  for (int i = 0; i < 200; ++i) {
    const auto x = rng::unitSphereNonnegative(g, 4);
    for (double v : x) EXPECT_GE(v, 0.0);
  }
}

TEST(RngDistributions, UnitSphereSpanOverloadsMatchVectorOnes) {
  for (const std::size_t n : {1u, 3u, 7u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    rng::Xoshiro256StarStar a(16 + n);
    rng::Xoshiro256StarStar b(16 + n);
    std::vector<double> x(n);
    for (int i = 0; i < 50; ++i) {
      const bool nonnegative = i % 2 == 1;
      const std::vector<double> want = nonnegative
                                           ? rng::unitSphereNonnegative(a, n)
                                           : rng::unitSphere(a, n);
      if (nonnegative) {
        rng::unitSphereNonnegative(b, std::span<double>(x));
      } else {
        rng::unitSphere(b, std::span<double>(x));
      }
      ASSERT_EQ(std::memcmp(want.data(), x.data(), n * sizeof(double)), 0);
      ASSERT_TRUE(a == b);
    }
  }
  rng::Xoshiro256StarStar g(17);
  EXPECT_THROW(rng::unitSphere(g, std::span<double>()), std::invalid_argument);
  EXPECT_THROW(rng::unitSphereNonnegative(g, std::span<double>()),
               std::invalid_argument);
}

TEST(RngDistributions, IndexSamplerMatchesUniformIndex) {
  for (const std::uint64_t span :
       {1ull, 2ull, 3ull, 7ull, 1000ull, 16001ull, 32768ull, (1ull << 40) + 3,
        (1ull << 63) + 1}) {
    const rng::IndexSampler pick(span);
    rng::Xoshiro256StarStar a(span);
    rng::Xoshiro256StarStar b(span);
    SCOPED_TRACE("span=" + std::to_string(span));
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(pick(a), rng::uniformIndex(b, 0, span - 1));
    }
    EXPECT_TRUE(a == b);
  }
  EXPECT_THROW((void)rng::IndexSampler(0), std::invalid_argument);
}
