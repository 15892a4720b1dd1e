// Property-based sweeps (parameterised gtest) on the radius engines:
// numeric vs closed form across random linear features, and geometric
// invariances the robustness radius must satisfy.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "feature/generic.hpp"
#include "feature/linear.hpp"
#include "la/geometry.hpp"
#include "radius/engine.hpp"
#include "rng/distributions.hpp"
#include "support/tolerances.hpp"

namespace radius = fepia::radius;
namespace feature = fepia::feature;
namespace la = fepia::la;
namespace rng = fepia::rng;
namespace ad = fepia::ad;

namespace {

struct RandomLinearCase {
  la::Vector k;
  la::Vector orig;
  double betaMax = 0.0;
};

RandomLinearCase makeCase(std::uint64_t seed, std::size_t dim) {
  rng::Xoshiro256StarStar g(seed);
  RandomLinearCase c;
  c.k = la::Vector(dim);
  c.orig = la::Vector(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    // Nonzero coefficients of mixed sign, positive originals.
    double ki = 0.0;
    while (std::abs(ki) < 0.05) ki = rng::uniform(g, -3.0, 3.0);
    c.k[i] = ki;
    c.orig[i] = rng::uniform(g, 0.1, 10.0);
  }
  const auto phi = feature::LinearFeature("phi", c.k);
  c.betaMax = phi.evaluate(c.orig) + rng::uniform(g, 0.5, 20.0);
  return c;
}

}  // namespace

class LinearRadiusSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {};

TEST_P(LinearRadiusSweep, ClosedFormEqualsHyperplaneDistance) {
  const auto [seed, dim] = GetParam();
  const RandomLinearCase c = makeCase(seed, dim);
  const feature::LinearFeature phi("phi", c.k);
  const auto r = radius::featureRadius(
      phi, feature::FeatureBounds::upper(c.betaMax), c.orig);
  const la::Hyperplane plane(c.k, c.betaMax);
  EXPECT_NEAR(r.radius, plane.distance(c.orig), 1e-12 * (1.0 + r.radius));
  // pi* lies on the boundary and realises the distance.
  EXPECT_NEAR(phi.evaluate(r.boundaryPoint), c.betaMax,
              fepia::testing::kExactGeometryTol);
  EXPECT_NEAR(la::distance(r.boundaryPoint, c.orig), r.radius,
              fepia::testing::kExactGeometryTol);
}

TEST_P(LinearRadiusSweep, NumericAgreesWithClosedForm) {
  const auto [seed, dim] = GetParam();
  const RandomLinearCase c = makeCase(seed, dim);
  const feature::LinearFeature phi("phi", c.k);
  const feature::FeatureBounds b = feature::FeatureBounds::upper(c.betaMax);
  const auto exact = radius::featureRadius(phi, b, c.orig);
  const auto numeric = radius::featureRadiusNumeric(phi, b, c.orig);
  EXPECT_NEAR(numeric.radius, exact.radius, 1e-5 * (1.0 + exact.radius))
      << "dim=" << dim << " seed=" << seed;
}

TEST_P(LinearRadiusSweep, TranslationInvariance) {
  // Shifting both the origin and the bound by the same feature delta
  // leaves the radius unchanged: r(pi0, beta) == r(pi0 + d, beta + k·d).
  const auto [seed, dim] = GetParam();
  const RandomLinearCase c = makeCase(seed, dim);
  rng::Xoshiro256StarStar g(seed ^ 0xABCDEFull);
  la::Vector d(dim);
  for (std::size_t i = 0; i < dim; ++i) d[i] = rng::uniform(g, -1.0, 1.0);

  const feature::LinearFeature phi("phi", c.k);
  const auto r1 = radius::featureRadius(
      phi, feature::FeatureBounds::upper(c.betaMax), c.orig);
  const auto r2 = radius::featureRadius(
      phi,
      feature::FeatureBounds::upper(c.betaMax + la::dot(c.k, d)),
      c.orig + d);
  EXPECT_NEAR(r1.radius, r2.radius, 1e-10 * (1.0 + r1.radius));
}

TEST_P(LinearRadiusSweep, UniformScalingCovariance) {
  // Scaling the perturbation space by s > 0 scales the radius by s:
  // r(s·pi0, boundary scaled accordingly) == s · r(pi0).
  const auto [seed, dim] = GetParam();
  const RandomLinearCase c = makeCase(seed, dim);
  const double s = 3.5;
  const feature::LinearFeature phi("phi", c.k);
  const auto r1 = radius::featureRadius(
      phi, feature::FeatureBounds::upper(c.betaMax), c.orig);
  // phi(s·pi) boundary at s·betaMax describes the scaled geometry.
  const auto r2 = radius::featureRadius(
      phi, feature::FeatureBounds::upper(s * c.betaMax), s * c.orig);
  EXPECT_NEAR(r2.radius, s * r1.radius, 1e-10 * (1.0 + r2.radius));
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndDims, LinearRadiusSweep,
    ::testing::Combine(::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{3}, std::size_t{8},
                                         std::size_t{32})),
    [](const auto& test) {
      return "seed" + std::to_string(std::get<0>(test.param)) + "_dim" +
             std::to_string(std::get<1>(test.param));
    });

class NonlinearRadiusSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NonlinearRadiusSweep, SphereRadiusClosedForm) {
  // phi = ‖pi − center‖²: boundary {phi = R²} is a sphere; radius from any
  // origin is | ‖orig − center‖ − R |.
  const std::uint64_t seed = GetParam();
  rng::Xoshiro256StarStar g(seed);
  const std::size_t dim = 2 + static_cast<std::size_t>(seed % 4);
  la::Vector center(dim);
  la::Vector orig(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    center[i] = rng::uniform(g, -2.0, 2.0);
    orig[i] = rng::uniform(g, -2.0, 2.0);
  }
  const double sphereR = rng::uniform(g, 1.0, 4.0);

  const feature::GenericFeature phi(
      "sphere", dim, [center](const std::vector<ad::Dual>& v) {
        ad::Dual acc = 0.0;
        for (std::size_t i = 0; i < v.size(); ++i) {
          const ad::Dual d = v[i] - ad::Dual(center[i]);
          acc += d * d;
        }
        return acc;
      });
  const auto r = radius::featureRadius(
      phi, feature::FeatureBounds::upper(sphereR * sphereR), orig);
  const double expected = std::abs(la::distance(orig, center) - sphereR);
  // The origin might be outside the ball (phi(orig) > R²): the engine
  // still returns the distance to the boundary.
  ASSERT_TRUE(r.finite());
  EXPECT_NEAR(r.radius, expected, 1e-4 * (1.0 + expected)) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, NonlinearRadiusSweep,
                         ::testing::Range(std::uint64_t{10}, std::uint64_t{22}));
