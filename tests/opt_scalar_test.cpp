#include "opt/scalar.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace opt = fepia::opt;

TEST(OptBracket, FindsSignChange) {
  const auto f = [](double t) { return t * t - 4.0; };  // root at 2
  const auto b = opt::bracketRoot(f, 0.0, 100.0);
  ASSERT_TRUE(b.has_value());
  EXPECT_LE(b->first, 2.0);
  EXPECT_GE(b->second, 2.0);
}

TEST(OptBracket, ReturnsNulloptWhenNoCrossing) {
  const auto f = [](double t) { return t * t + 1.0; };  // always positive
  EXPECT_FALSE(opt::bracketRoot(f, 0.0, 1000.0).has_value());
}

TEST(OptBracket, ExactRootAtStart) {
  const auto f = [](double t) { return t - 0.0; };
  const auto b = opt::bracketRoot(f, 0.0, 10.0);
  ASSERT_TRUE(b.has_value());
  EXPECT_DOUBLE_EQ(b->first, b->second);
}

TEST(OptBracket, RejectsBadParameters) {
  const auto f = [](double t) { return t; };
  EXPECT_THROW((void)opt::bracketRoot(f, -1.0, 10.0), std::invalid_argument);
  EXPECT_THROW((void)opt::bracketRoot(f, 0.0, 10.0, 0.5), std::invalid_argument);
  EXPECT_THROW((void)opt::bracketRoot(f, 5.0, 1.0), std::invalid_argument);
}

TEST(OptBrent, ConvergesFasterThanBisection) {
  const auto f = [](double x) { return x * x * x - 2.0 * x - 5.0; };
  const opt::RootResult r = opt::brent(f, 2.0, 3.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 2.0945514815423265, 1e-10);
  EXPECT_LT(r.iterations, 20);
}

TEST(OptBrent, HandlesEndpointRoots) {
  const auto f = [](double x) { return x - 1.0; };
  const opt::RootResult atA = opt::brent(f, 1.0, 2.0);
  EXPECT_TRUE(atA.converged);
  EXPECT_DOUBLE_EQ(atA.x, 1.0);
}

TEST(OptBrent, ThrowsWithoutBracket) {
  const auto f = [](double x) { return x + 10.0; };
  EXPECT_THROW((void)opt::brent(f, 0.0, 1.0), std::invalid_argument);
}

TEST(OptBrent, SteepAndFlatFunctions) {
  // Very steep near the root.
  const auto steep = [](double x) { return std::exp(50.0 * (x - 1.0)) - 1.0; };
  const opt::RootResult r1 = opt::brent(steep, 0.0, 2.0);
  EXPECT_TRUE(r1.converged);
  EXPECT_NEAR(r1.x, 1.0, 1e-8);
  // Nearly flat: cube root shape.
  const auto flat = [](double x) { return std::cbrt(x - 0.3); };
  const opt::RootResult r2 = opt::brent(flat, -1.0, 1.0);
  EXPECT_TRUE(r2.converged);
  EXPECT_NEAR(r2.x, 0.3, 1e-8);
}

