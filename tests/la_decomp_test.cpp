// Cholesky decomposition tests.
#include <gtest/gtest.h>

#include <stdexcept>

#include "la/cholesky.hpp"
#include "la/matrix.hpp"

namespace la = fepia::la;

TEST(LaCholesky, FactorsSpdMatrix) {
  const la::Matrix a{{4.0, 2.0}, {2.0, 3.0}};
  la::Cholesky chol(a);
  ASSERT_FALSE(chol.failed());
  const la::Matrix l = chol.l();
  EXPECT_TRUE(la::approxEqual(la::matmul(l, la::transpose(l)), a, 1e-12));
  const la::Vector x = chol.solve(la::Vector{8.0, 7.0});
  const la::Vector residual = la::matvec(a, x) - la::Vector{8.0, 7.0};
  EXPECT_LT(la::norm2(residual), 1e-12);
}

TEST(LaCholesky, FailsOnIndefinite) {
  const la::Matrix notSpd{{1.0, 2.0}, {2.0, 1.0}};
  la::Cholesky chol(notSpd);
  EXPECT_TRUE(chol.failed());
  EXPECT_THROW((void)chol.solve(la::Vector{1.0, 1.0}), std::domain_error);
}

TEST(LaCholesky, ApplyLMapsUnitNormals) {
  const la::Matrix a{{4.0, 0.0}, {0.0, 9.0}};
  la::Cholesky chol(a);
  ASSERT_FALSE(chol.failed());
  const la::Vector mapped = chol.applyL(la::Vector{1.0, 1.0});
  EXPECT_DOUBLE_EQ(mapped[0], 2.0);
  EXPECT_DOUBLE_EQ(mapped[1], 3.0);
}
