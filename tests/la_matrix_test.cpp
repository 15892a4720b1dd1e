#include "la/matrix.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace la = fepia::la;

TEST(LaMatrix, ConstructionAndAccess) {
  la::Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);

  const la::Matrix init{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(init(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(init(1, 0), 3.0);
  EXPECT_THROW((la::Matrix{{1.0}, {2.0, 3.0}}), std::invalid_argument);
}

TEST(LaMatrix, AtBoundsChecked) {
  la::Matrix m(2, 2);
  EXPECT_NO_THROW((void)m.at(1, 1));
  EXPECT_THROW((void)m.at(2, 0), std::out_of_range);
  EXPECT_THROW((void)m.at(0, 2), std::out_of_range);
}

TEST(LaMatrix, MatmulAgainstHandComputed) {
  const la::Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const la::Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const la::Matrix ab = la::matmul(a, b);
  EXPECT_DOUBLE_EQ(ab(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(ab(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(ab(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(ab(1, 1), 50.0);
  EXPECT_THROW((void)la::matmul(a, la::Matrix(3, 2)), std::invalid_argument);
}

TEST(LaMatrix, MatvecAndTransposedMatvec) {
  const la::Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const la::Vector x{1.0, 0.0, -1.0};
  const la::Vector ax = la::matvec(a, x);
  EXPECT_DOUBLE_EQ(ax[0], -2.0);
  EXPECT_DOUBLE_EQ(ax[1], -2.0);

  const la::Vector y{1.0, 1.0};
  const la::Vector aty = la::matTvec(a, y);
  EXPECT_DOUBLE_EQ(aty[0], 5.0);
  EXPECT_DOUBLE_EQ(aty[1], 7.0);
  EXPECT_DOUBLE_EQ(aty[2], 9.0);
  EXPECT_THROW((void)la::matvec(a, y), std::invalid_argument);
}

TEST(LaMatrix, TransposeIdentityOuter) {
  const la::Matrix a{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  const la::Matrix at = la::transpose(a);
  EXPECT_EQ(at.rows(), 2u);
  EXPECT_EQ(at.cols(), 3u);
  EXPECT_DOUBLE_EQ(at(1, 2), 6.0);

  const la::Matrix eye = la::identity(3);
  EXPECT_TRUE(la::approxEqual(la::matmul(eye, a), a, 0.0));

  const la::Matrix o = la::outer(la::Vector{1.0, 2.0}, la::Vector{3.0, 4.0});
  EXPECT_DOUBLE_EQ(o(1, 0), 6.0);
  EXPECT_DOUBLE_EQ(o(0, 1), 4.0);
}

TEST(LaMatrix, FrobeniusNorm) {
  const la::Matrix m{{3.0, 0.0}, {0.0, 4.0}};
  EXPECT_DOUBLE_EQ(la::normFrobenius(m), 5.0);
}

TEST(LaMatrix, CompoundArithmetic) {
  la::Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const la::Matrix b{{1.0, 1.0}, {1.0, 1.0}};
  a += b;
  EXPECT_DOUBLE_EQ(a(1, 1), 5.0);
  a -= b;
  EXPECT_DOUBLE_EQ(a(1, 1), 4.0);
  a *= 2.0;
  EXPECT_DOUBLE_EQ(a(0, 0), 2.0);
  EXPECT_THROW(a += la::Matrix(3, 3), std::invalid_argument);
}
