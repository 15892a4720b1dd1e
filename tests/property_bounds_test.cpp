// Property sweeps on ordering and invariance laws the radius must obey
// across engines and schemes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "feature/linear.hpp"
#include "perturb/space.hpp"
#include "radius/engine.hpp"
#include "radius/merge.hpp"
#include "rng/distributions.hpp"

namespace radius = fepia::radius;
namespace feature = fepia::feature;
namespace perturb = fepia::perturb;
namespace la = fepia::la;
namespace rng = fepia::rng;
namespace units = fepia::units;

namespace {

struct RandomLinear {
  la::Vector k;
  la::Vector orig;
  double value;
};

RandomLinear makeLinear(std::uint64_t seed, std::size_t dim) {
  rng::Xoshiro256StarStar g(seed);
  RandomLinear out;
  out.k = la::Vector(dim);
  out.orig = la::Vector(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    out.k[i] = rng::uniform(g, 0.1, 3.0);
    out.orig[i] = rng::uniform(g, 0.5, 10.0);
  }
  out.value = la::dot(out.k, out.orig);
  return out;
}

}  // namespace

class BoundsMonotonicity
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {};

TEST_P(BoundsMonotonicity, RadiusGrowsWithLooserUpperBound) {
  const auto [seed, dim] = GetParam();
  const RandomLinear c = makeLinear(seed, dim);
  const feature::LinearFeature phi("phi", c.k);
  double prev = 0.0;
  for (const double slack : {1.0, 2.0, 5.0, 20.0}) {
    const auto r = radius::featureRadius(
        phi, feature::FeatureBounds::upper(c.value + slack), c.orig);
    EXPECT_GT(r.radius, prev);
    prev = r.radius;
  }
}

TEST_P(BoundsMonotonicity, TwoSidedRadiusIsMinOfOneSided) {
  const auto [seed, dim] = GetParam();
  const RandomLinear c = makeLinear(seed, dim);
  const feature::LinearFeature phi("phi", c.k);
  const double lo = c.value - 3.0;
  const double hi = c.value + 7.0;
  const auto both =
      radius::featureRadius(phi, feature::FeatureBounds(lo, hi), c.orig);
  const auto onlyLo =
      radius::featureRadius(phi, feature::FeatureBounds::lower(lo), c.orig);
  const auto onlyHi =
      radius::featureRadius(phi, feature::FeatureBounds::upper(hi), c.orig);
  EXPECT_NEAR(both.radius, std::min(onlyLo.radius, onlyHi.radius), 1e-12);
  EXPECT_EQ(both.side, onlyLo.radius < onlyHi.radius ? radius::BoundSide::Min
                                                     : radius::BoundSide::Max);
}

TEST_P(BoundsMonotonicity, AddingAFeatureNeverIncreasesRho) {
  const auto [seed, dim] = GetParam();
  const RandomLinear c = makeLinear(seed, dim);
  feature::FeatureSet one;
  one.add(std::make_shared<feature::LinearFeature>("a", c.k),
          feature::FeatureBounds::upper(c.value + 5.0));
  const double rhoOne = radius::robustness(one, c.orig).rho;

  feature::FeatureSet two;
  two.add(std::make_shared<feature::LinearFeature>("a", c.k),
          feature::FeatureBounds::upper(c.value + 5.0));
  la::Vector k2 = c.k;
  std::reverse(k2.begin(), k2.end());
  two.add(std::make_shared<feature::LinearFeature>(
              "b", k2),
          feature::FeatureBounds::upper(la::dot(k2, c.orig) + 2.0));
  const double rhoTwo = radius::robustness(two, c.orig).rho;
  EXPECT_LE(rhoTwo, rhoOne + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BoundsMonotonicity,
    ::testing::Combine(::testing::Values(11ull, 12ull, 13ull),
                       ::testing::Values(std::size_t{2}, std::size_t{5},
                                         std::size_t{16})),
    [](const auto& test) {
      return "seed" + std::to_string(std::get<0>(test.param)) + "_dim" +
             std::to_string(std::get<1>(test.param));
    });

class MergePermutation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MergePermutation, KindOrderDoesNotChangeRho) {
  // Registering the kinds in a different order permutes the concatenated
  // coordinates; the merged radius must not change.
  const std::uint64_t seed = GetParam();
  rng::Xoshiro256StarStar g(seed);
  const std::size_t kinds = 3;
  std::vector<double> k(kinds), orig(kinds);
  for (std::size_t j = 0; j < kinds; ++j) {
    k[j] = rng::uniform(g, 0.2, 4.0);
    orig[j] = rng::uniform(g, 0.5, 20.0);
  }

  const auto build = [&](const std::vector<std::size_t>& order) {
    perturb::PerturbationSpace space;
    la::Vector kPerm(kinds);
    la::Vector origPerm(kinds);
    for (std::size_t pos = 0; pos < kinds; ++pos) {
      const std::size_t j = order[pos];
      kPerm[pos] = k[j];
      origPerm[pos] = orig[j];
      space.add(perturb::PerturbationParameter(
          "pi" + std::to_string(j), units::Unit::seconds(),
          la::Vector{orig[j]}));
    }
    feature::FeatureSet phi;
    const auto lin = std::make_shared<feature::LinearFeature>("phi", kPerm);
    phi.add(lin, feature::FeatureBounds::upper(1.4 * lin->evaluate(origPerm)));
    return std::make_pair(std::move(phi), std::move(space));
  };

  for (const auto scheme : {radius::MergeScheme::NormalizedByOriginal,
                            radius::MergeScheme::Sensitivity}) {
    auto [phiA, spaceA] = build({0, 1, 2});
    auto [phiB, spaceB] = build({2, 0, 1});
    const double rhoA =
        radius::MergedAnalysis(phiA, spaceA, scheme).report().rho;
    const double rhoB =
        radius::MergedAnalysis(phiB, spaceB, scheme).report().rho;
    EXPECT_NEAR(rhoA, rhoB, 1e-12)
        << radius::mergeSchemeName(scheme) << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergePermutation,
                         ::testing::Range(std::uint64_t{500},
                                          std::uint64_t{508}));
