#include "etc/etc.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace etc = fepia::etc;
namespace rng = fepia::rng;
namespace la = fepia::la;

TEST(Etc, CvbShapeAndPositivity) {
  rng::Xoshiro256StarStar g(31);
  const la::Matrix m = etc::generateCvb(50, 8, etc::CvbParams{}, g);
  EXPECT_EQ(m.rows(), 50u);
  EXPECT_EQ(m.cols(), 8u);
  for (double v : m.data()) EXPECT_GT(v, 0.0);
}

TEST(Etc, CvbRespectsHeterogeneityRegimes) {
  rng::Xoshiro256StarStar g(32);
  const la::Matrix hiHi =
      etc::generateCvb(400, 16, etc::cvbPreset(etc::Heterogeneity::HiHi), g);
  const la::Matrix loLo =
      etc::generateCvb(400, 16, etc::cvbPreset(etc::Heterogeneity::LoLo), g);
  const etc::HeterogeneityReport hh = etc::measureHeterogeneity(hiHi);
  const etc::HeterogeneityReport ll = etc::measureHeterogeneity(loLo);
  // High regimes must measure clearly above low regimes.
  EXPECT_GT(hh.taskCov, 2.0 * ll.taskCov);
  EXPECT_GT(hh.machineCov, 2.0 * ll.machineCov);
  // And land near the configured CoV values.
  EXPECT_NEAR(hh.machineCov, 0.6, 0.1);
  EXPECT_NEAR(ll.machineCov, 0.1, 0.03);
}

TEST(Etc, CvbMeanNearConfigured) {
  rng::Xoshiro256StarStar g(33);
  etc::CvbParams p;
  p.meanTask = 250.0;
  const la::Matrix m = etc::generateCvb(300, 10, p, g);
  double mean = 0.0;
  for (double v : m.data()) mean += v;
  mean /= static_cast<double>(m.data().size());
  EXPECT_NEAR(mean, 250.0, 25.0);
}

TEST(Etc, CvbValidation) {
  rng::Xoshiro256StarStar g(34);
  EXPECT_THROW((void)etc::generateCvb(0, 4, etc::CvbParams{}, g),
               std::invalid_argument);
  etc::CvbParams bad;
  bad.covTask = 0.0;
  EXPECT_THROW((void)etc::generateCvb(4, 4, bad, g), std::invalid_argument);
}

TEST(Etc, HeterogeneityNames) {
  EXPECT_STREQ(etc::heterogeneityName(etc::Heterogeneity::HiHi), "hi-hi");
  EXPECT_STREQ(etc::heterogeneityName(etc::Heterogeneity::LoHi), "lo-hi");
}

TEST(Etc, MeasureHeterogeneityRejectsEmpty) {
  EXPECT_THROW((void)etc::measureHeterogeneity(la::Matrix{}),
               std::invalid_argument);
}
