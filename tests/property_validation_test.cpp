// Property-based harness for the paper's analytic radius identities,
// swept over seeded random linear systems:
//
//  * Section 3.1 (negative result): under sensitivity weighting the
//    merged radius is identically 1/sqrt(n) — independent of the
//    coefficients k, the originals pi^orig and the bound beta.
//  * Section 3.2: the normalized closed form
//    (beta - 1)|sum k_j pi_j^orig| / sqrt(sum (k_m pi_m^orig)^2) matches
//    both the closed-form merged engine and the numeric opt boundary
//    solver run on the P-space feature.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "feature/linear.hpp"
#include "radius/closed_forms.hpp"
#include "radius/engine.hpp"
#include "radius/fepia.hpp"
#include "rng/distributions.hpp"
#include "units/unit.hpp"

namespace radius = fepia::radius;
namespace feature = fepia::feature;
namespace perturb = fepia::perturb;
namespace la = fepia::la;
namespace rng = fepia::rng;
namespace units = fepia::units;

namespace {

struct RandomLinearSystem {
  la::Vector k;       ///< positive coefficients, one per kind
  la::Vector orig;    ///< positive originals, one per kind
  double beta = 0.0;  ///< relative bound factor > 1
};

/// Draws a random instance of the paper's analytical setting: n
/// one-element perturbation kinds, phi = sum k_j pi_j, bound
/// beta * phi^orig.
RandomLinearSystem makeSystem(std::uint64_t seed, std::size_t n) {
  rng::Xoshiro256StarStar g(seed);
  RandomLinearSystem s;
  s.k = la::Vector(n);
  s.orig = la::Vector(n);
  for (std::size_t j = 0; j < n; ++j) {
    s.k[j] = rng::uniform(g, 0.05, 3.0);
    s.orig[j] = rng::uniform(g, 0.1, 10.0);
  }
  s.beta = rng::uniform(g, 1.05, 4.0);
  return s;
}

/// Builds the FepiaProblem for a random system (kinds share a unit; the
/// merge schemes do not care).
radius::FepiaProblem makeProblem(const RandomLinearSystem& s) {
  radius::FepiaProblem problem;
  for (std::size_t j = 0; j < s.k.size(); ++j) {
    problem.addPerturbation(perturb::PerturbationParameter(
        "pi" + std::to_string(j), units::Unit::seconds(),
        la::Vector{s.orig[j]}));
  }
  const feature::LinearFeature phi("phi", s.k);
  problem.addFeature(
      std::make_shared<feature::LinearFeature>("phi", s.k),
      feature::FeatureBounds::relativeUpper(phi.evaluate(s.orig), s.beta));
  return problem;
}

class RadiusIdentitySweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {};

}  // namespace

TEST_P(RadiusIdentitySweep, SensitivityRadiusDegeneratesToOneOverSqrtN) {
  const auto [seed, n] = GetParam();
  const RandomLinearSystem s = makeSystem(seed, n);
  const radius::FepiaProblem problem = makeProblem(s);

  const double rho = problem.rho(radius::MergeScheme::Sensitivity);
  const double expected = radius::sensitivityLinearRadius(n);
  EXPECT_NEAR(expected, 1.0 / std::sqrt(static_cast<double>(n)), 1e-15);
  // The paper's negative result: no dependence on k, beta or pi^orig.
  EXPECT_NEAR(rho, expected, 1e-9 * expected)
      << "seed=" << seed << " n=" << n;
}

TEST_P(RadiusIdentitySweep, NormalizedClosedFormMatchesMergedEngine) {
  const auto [seed, n] = GetParam();
  const RandomLinearSystem s = makeSystem(seed, n);
  const radius::FepiaProblem problem = makeProblem(s);

  const double closedForm = radius::normalizedLinearRadius(s.k, s.orig, s.beta);
  const double rho = problem.rho(radius::MergeScheme::NormalizedByOriginal);
  EXPECT_NEAR(rho, closedForm, 1e-12 * (1.0 + closedForm))
      << "seed=" << seed << " n=" << n;
}

TEST_P(RadiusIdentitySweep, NormalizedClosedFormMatchesNumericBoundarySolver) {
  const auto [seed, n] = GetParam();
  const RandomLinearSystem s = makeSystem(seed, n);

  // The P-space feature by hand: phi(P) = sum (k_j pi_j^orig) P_j with
  // bound beta * phi^orig, around P^orig = [1, ..., 1].
  la::Vector coeffs(n);
  double phiOrig = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    coeffs[j] = s.k[j] * s.orig[j];
    phiOrig += coeffs[j];
  }
  const feature::LinearFeature phiP("phiP", coeffs);
  const feature::FeatureBounds bounds =
      feature::FeatureBounds::upper(s.beta * phiOrig);

  radius::NumericOptions opts;
  opts.solver.tol = 1e-12;
  const radius::RadiusResult numeric =
      radius::featureRadiusNumeric(phiP, bounds, la::ones(n), opts);
  const double closedForm = radius::normalizedLinearRadius(s.k, s.orig, s.beta);
  ASSERT_TRUE(numeric.finite());
  EXPECT_NEAR(numeric.radius, closedForm, 1e-8 * (1.0 + closedForm))
      << "seed=" << seed << " n=" << n;
}

// 8 dimensions x 25 seeds = 200 random instances per property.
INSTANTIATE_TEST_SUITE_P(
    SeedsAndDims, RadiusIdentitySweep,
    ::testing::Combine(::testing::Range(std::uint64_t{100}, std::uint64_t{125}),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{3}, std::size_t{4},
                                         std::size_t{5}, std::size_t{8},
                                         std::size_t{16}, std::size_t{32})),
    [](const auto& test) {
      return "seed" + std::to_string(std::get<0>(test.param)) + "_n" +
             std::to_string(std::get<1>(test.param));
    });
