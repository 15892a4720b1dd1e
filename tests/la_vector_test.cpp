#include "la/vector.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace la = fepia::la;

TEST(LaVector, ConstructionVariants) {
  la::Vector empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);

  la::Vector filled(4, 2.5);
  ASSERT_EQ(filled.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(filled[i], 2.5);

  la::Vector list{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(list[2], 3.0);

  const std::vector<double> raw = {4.0, 5.0};
  la::Vector fromSpan{std::span<const double>(raw)};
  EXPECT_DOUBLE_EQ(fromSpan[1], 5.0);
}

TEST(LaVector, AtThrowsOutOfRange) {
  la::Vector v{1.0};
  EXPECT_DOUBLE_EQ(v.at(0), 1.0);
  EXPECT_THROW((void)v.at(1), std::out_of_range);
}

TEST(LaVector, ArithmeticElementwise) {
  const la::Vector a{1.0, 2.0, 3.0};
  const la::Vector b{4.0, 5.0, 6.0};
  const la::Vector sum = a + b;
  EXPECT_DOUBLE_EQ(sum[0], 5.0);
  EXPECT_DOUBLE_EQ(sum[2], 9.0);
  const la::Vector diff = b - a;
  EXPECT_DOUBLE_EQ(diff[1], 3.0);
  const la::Vector scaled = 2.0 * a;
  EXPECT_DOUBLE_EQ(scaled[2], 6.0);
  const la::Vector divided = b / 2.0;
  EXPECT_DOUBLE_EQ(divided[0], 2.0);
  const la::Vector neg = -a;
  EXPECT_DOUBLE_EQ(neg[0], -1.0);
}

TEST(LaVector, SizeMismatchThrows) {
  la::Vector a{1.0, 2.0};
  const la::Vector b{1.0};
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW((void)la::dot(a, b), std::invalid_argument);
  EXPECT_THROW((void)la::distance(a, b), std::invalid_argument);
}

TEST(LaVector, DivisionByZeroThrows) {
  la::Vector a{1.0};
  EXPECT_THROW(a /= 0.0, std::domain_error);
  EXPECT_THROW((void)la::cwiseDiv(la::Vector{1.0}, la::Vector{0.0}),
               std::domain_error);
}

TEST(LaVector, HadamardOps) {
  const la::Vector a{2.0, 3.0};
  const la::Vector b{4.0, 5.0};
  const la::Vector prod = la::cwiseMul(a, b);
  EXPECT_DOUBLE_EQ(prod[0], 8.0);
  EXPECT_DOUBLE_EQ(prod[1], 15.0);
  const la::Vector quot = la::cwiseDiv(prod, b);
  EXPECT_DOUBLE_EQ(quot[0], 2.0);
  EXPECT_DOUBLE_EQ(quot[1], 3.0);
}

TEST(LaVector, NormsMatchDefinitions) {
  const la::Vector v{3.0, -4.0};
  EXPECT_DOUBLE_EQ(la::norm2(v), 5.0);
  EXPECT_DOUBLE_EQ(la::normSq(v), 25.0);
  EXPECT_DOUBLE_EQ(la::normInf(v), 4.0);
  EXPECT_DOUBLE_EQ(la::sum(v), -1.0);
}

TEST(LaVector, DistanceIsEuclidean) {
  const la::Vector a{1.0, 1.0};
  const la::Vector b{4.0, 5.0};
  EXPECT_DOUBLE_EQ(la::distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(la::distance(a, a), 0.0);
}

TEST(LaVector, NormalizedHasUnitNorm) {
  const la::Vector v{3.0, 4.0};
  const la::Vector n = la::normalized(v);
  EXPECT_NEAR(la::norm2(n), 1.0, 1e-15);
  EXPECT_DOUBLE_EQ(n[0], 0.6);
  EXPECT_THROW((void)la::normalized(la::Vector(3, 0.0)), std::domain_error);
}

TEST(LaVector, ApproxEqualRespectsTolerance) {
  const la::Vector a{1.0, 2.0};
  const la::Vector b{1.0 + 1e-9, 2.0};
  EXPECT_TRUE(la::approxEqual(a, b, 1e-8));
  EXPECT_FALSE(la::approxEqual(a, b, 1e-10));
  EXPECT_FALSE(la::approxEqual(a, la::Vector{1.0}, 1.0));  // size mismatch
}

TEST(LaVector, OnesAndUnitAxis) {
  const la::Vector one = la::ones(3);
  EXPECT_DOUBLE_EQ(la::sum(one), 3.0);
  const la::Vector e1 = la::unitAxis(3, 1);
  EXPECT_DOUBLE_EQ(e1[0], 0.0);
  EXPECT_DOUBLE_EQ(e1[1], 1.0);
  EXPECT_THROW((void)la::unitAxis(2, 2), std::out_of_range);
}

TEST(LaVector, StreamFormat) {
  std::ostringstream os;
  os << la::Vector{1.0, 2.5};
  EXPECT_EQ(os.str(), "[1, 2.5]");
}
