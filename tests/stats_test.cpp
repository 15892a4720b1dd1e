#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "stats/correlation.hpp"
#include "stats/descriptive.hpp"

namespace stats = fepia::stats;

TEST(StatsDescriptive, MeanVarianceSd) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(stats::mean(xs), 5.0);
  EXPECT_NEAR(stats::variance(xs), 32.0 / 7.0, 1e-12);
  EXPECT_THROW((void)stats::mean(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW((void)stats::variance(std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(StatsDescriptive, QuantileInterpolates) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(stats::median(xs), 2.5);
  EXPECT_THROW((void)stats::quantile(xs, 1.5), std::invalid_argument);
}

TEST(StatsDescriptive, QuantileUnsortedInput) {
  const std::vector<double> xs = {9.0, 1.0, 5.0};
  EXPECT_DOUBLE_EQ(stats::median(xs), 5.0);
}

TEST(StatsDescriptive, SummarizeAllFields) {
  const std::vector<double> xs = {3.0, 1.0, 2.0};
  const stats::Summary s = stats::summarize(xs);
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 2.0);
  EXPECT_DOUBLE_EQ(s.sd, 1.0);
}

TEST(StatsDescriptive, CoefficientOfVariation) {
  const std::vector<double> xs = {1.0, 3.0};
  EXPECT_NEAR(stats::coefficientOfVariation(xs), std::sqrt(2.0) / 2.0, 1e-12);
}

TEST(StatsCorrelation, PearsonPerfectAndAnti) {
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y = {2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(stats::pearson(x, y), 1.0, 1e-12);
  const std::vector<double> yneg = {8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(stats::pearson(x, yneg), -1.0, 1e-12);
  EXPECT_THROW((void)stats::pearson(x, std::vector<double>{1.0}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)stats::pearson(x, std::vector<double>{1.0, 1.0, 1.0, 1.0}),
      std::domain_error);
}

TEST(StatsCorrelation, MidRanksHandleTies) {
  const std::vector<double> xs = {10.0, 20.0, 20.0, 30.0};
  const std::vector<double> r = stats::midRanks(xs);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[1], 2.5);
  EXPECT_DOUBLE_EQ(r[2], 2.5);
  EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(StatsCorrelation, SpearmanIsRankInvariant) {
  // Monotone transform leaves Spearman at 1.
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0, 5.0};
  const std::vector<double> y = {1.0, 8.0, 27.0, 64.0, 125.0};
  EXPECT_NEAR(stats::spearman(x, y), 1.0, 1e-12);
}

TEST(StatsCorrelation, KendallTauBasics) {
  const std::vector<double> x = {1.0, 2.0, 3.0};
  const std::vector<double> y = {1.0, 2.0, 3.0};
  EXPECT_NEAR(stats::kendallTauB(x, y), 1.0, 1e-12);
  const std::vector<double> yRev = {3.0, 2.0, 1.0};
  EXPECT_NEAR(stats::kendallTauB(x, yRev), -1.0, 1e-12);
  const std::vector<double> allTies = {1.0, 1.0, 1.0};
  EXPECT_THROW((void)stats::kendallTauB(allTies, allTies), std::domain_error);
}

TEST(StatsCorrelation, KendallTieCorrection) {
  const std::vector<double> x = {1.0, 2.0, 2.0, 3.0};
  const std::vector<double> y = {1.0, 2.0, 3.0, 4.0};
  const double tau = stats::kendallTauB(x, y);
  EXPECT_GT(tau, 0.8);
  EXPECT_LT(tau, 1.0);  // the tie keeps it below perfect
}

