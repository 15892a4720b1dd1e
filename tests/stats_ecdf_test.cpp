#include "stats/ecdf.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace stats = fepia::stats;

TEST(StatsEcdf, StepFunctionValues) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  const stats::Ecdf f(xs);
  EXPECT_DOUBLE_EQ(f(0.5), 0.0);
  EXPECT_DOUBLE_EQ(f(1.0), 0.25);  // right-continuous: counts <= x
  EXPECT_DOUBLE_EQ(f(2.5), 0.5);
  EXPECT_DOUBLE_EQ(f(4.0), 1.0);
  EXPECT_DOUBLE_EQ(f(100.0), 1.0);
  EXPECT_EQ(f.size(), 4u);
  EXPECT_DOUBLE_EQ(f.min(), 1.0);
  EXPECT_DOUBLE_EQ(f.max(), 4.0);
  EXPECT_THROW(stats::Ecdf(std::vector<double>{}), std::invalid_argument);
}

TEST(StatsEcdf, HandlesTies) {
  const std::vector<double> xs = {2.0, 2.0, 2.0, 5.0};
  const stats::Ecdf f(xs);
  EXPECT_DOUBLE_EQ(f(2.0), 0.75);
  EXPECT_DOUBLE_EQ(f(1.9), 0.0);
}

