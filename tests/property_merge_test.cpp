// Property sweeps on the merge schemes — the paper's Section 3 claims as
// parameterised invariants over random problem instances.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "feature/linear.hpp"
#include "perturb/space.hpp"
#include "radius/closed_forms.hpp"
#include "radius/merge.hpp"
#include "rng/distributions.hpp"

namespace radius = fepia::radius;
namespace feature = fepia::feature;
namespace perturb = fepia::perturb;
namespace la = fepia::la;
namespace rng = fepia::rng;
namespace units = fepia::units;

namespace {

struct Instance {
  perturb::PerturbationSpace space;
  feature::FeatureSet phi;
  la::Vector k;
  la::Vector orig;
  double beta = 0.0;
};

/// Random Section-3 instance: n one-element kinds, positive coefficients
/// and originals, relative upper bound beta.
Instance makeInstance(std::uint64_t seed, std::size_t n) {
  rng::Xoshiro256StarStar g(seed);
  Instance inst;
  inst.k = la::Vector(n);
  inst.orig = la::Vector(n);
  for (std::size_t j = 0; j < n; ++j) {
    inst.k[j] = rng::uniform(g, 0.05, 5.0);
    inst.orig[j] = rng::uniform(g, 0.1, 50.0);
    inst.space.add(perturb::PerturbationParameter(
        "pi" + std::to_string(j),
        units::Unit::base(static_cast<units::Dimension>(j % 4)),
        la::Vector{inst.orig[j]}));
  }
  inst.beta = rng::uniform(g, 1.05, 3.0);
  const auto lin = std::make_shared<feature::LinearFeature>("phi", inst.k);
  inst.phi.add(lin, feature::FeatureBounds::upper(
                        inst.beta * lin->evaluate(inst.orig)));
  return inst;
}

}  // namespace

class MergeSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {};

TEST_P(MergeSweep, SensitivityInvarianceTheorem) {
  // Section 3.1: rho is exactly 1/sqrt(n) whatever the instance.
  const auto [seed, n] = GetParam();
  const Instance inst = makeInstance(seed, n);
  const radius::MergedAnalysis analysis(inst.phi, inst.space,
                                        radius::MergeScheme::Sensitivity);
  EXPECT_NEAR(analysis.report().rho, radius::sensitivityLinearRadius(n), 1e-9)
      << "seed=" << seed << " n=" << n;
}

TEST_P(MergeSweep, NormalizedMatchesClosedForm) {
  // Section 3.2: rho equals (beta−1)|Σ kπ| / ‖k⊙π‖ exactly.
  const auto [seed, n] = GetParam();
  const Instance inst = makeInstance(seed, n);
  const radius::MergedAnalysis analysis(
      inst.phi, inst.space, radius::MergeScheme::NormalizedByOriginal);
  const double expected =
      radius::normalizedLinearRadius(inst.k, inst.orig, inst.beta);
  EXPECT_NEAR(analysis.report().rho, expected, 1e-9 * (1.0 + expected))
      << "seed=" << seed << " n=" << n;
}

TEST_P(MergeSweep, NormalizedRadiusBounds) {
  // For positive k and orig, the normalized radius is between
  // (beta−1) (worst case: one dominant term) and (beta−1)·sqrt(n)
  // (balanced case), matching the Cauchy–Schwarz extremes.
  const auto [seed, n] = GetParam();
  const Instance inst = makeInstance(seed, n);
  const double r =
      radius::normalizedLinearRadius(inst.k, inst.orig, inst.beta);
  EXPECT_GE(r, (inst.beta - 1.0) - 1e-12);
  EXPECT_LE(r, (inst.beta - 1.0) * std::sqrt(static_cast<double>(n)) + 1e-12);
}

TEST_P(MergeSweep, ToleranceCheckBoundaryConsistency) {
  // Under the normalized scheme, a point exactly on the critical
  // feature's boundary has distance == radius (not tolerated); pulling it
  // 1% inward makes it tolerated.
  const auto [seed, n] = GetParam();
  const Instance inst = makeInstance(seed, n);
  const radius::MergedAnalysis analysis(
      inst.phi, inst.space, radius::MergeScheme::NormalizedByOriginal);
  const auto& report = analysis.report();
  const auto& critical = report.features[report.criticalFeature];
  const radius::DiagonalMap map(critical.mapWeights);
  const la::Vector piBoundary = map.fromP(critical.radius.boundaryPoint);
  const la::Vector piOrig = inst.space.concatenatedOriginal();

  const auto asPerKind = [&](const la::Vector& flat) {
    return inst.space.split(flat);
  };
  // Exactly on the boundary the margin is zero to numerical precision.
  const auto onBoundary = analysis.check(asPerKind(piBoundary));
  EXPECT_NEAR(onBoundary.worstMargin, 0.0, 1e-9);

  const la::Vector inward = piOrig + 0.99 * (piBoundary - piOrig);
  EXPECT_TRUE(analysis.check(asPerKind(inward)).tolerated);
  const la::Vector outward = piOrig + 1.01 * (piBoundary - piOrig);
  EXPECT_FALSE(analysis.check(asPerKind(outward)).tolerated);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndKinds, MergeSweep,
    ::testing::Combine(::testing::Values(101ull, 102ull, 103ull, 104ull),
                       ::testing::Values(std::size_t{2}, std::size_t{3},
                                         std::size_t{5}, std::size_t{16})),
    [](const auto& test) {
      return "seed" + std::to_string(std::get<0>(test.param)) + "_n" +
             std::to_string(std::get<1>(test.param));
    });

class MultiElementMergeSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MultiElementMergeSweep, SensitivityDegeneracyGeneralises) {
  // New insight beyond the paper's one-element statement: for ANY linear
  // feature over |Pi| kinds (arbitrary block sizes), the sensitivity
  // P-space radius is 1/sqrt(|Pi|), because alpha_j = ‖k_j‖/slack makes
  // each kind contribute exactly 1 to the P-space normal's squared norm.
  const std::uint64_t seed = GetParam();
  rng::Xoshiro256StarStar g(seed);
  const std::size_t kinds = 2 + static_cast<std::size_t>(seed % 3);

  perturb::PerturbationSpace space;
  std::vector<double> kFlat;
  for (std::size_t j = 0; j < kinds; ++j) {
    const std::size_t dim = 1 + static_cast<std::size_t>(g() % 4);
    la::Vector orig(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      orig[i] = rng::uniform(g, 0.5, 20.0);
      kFlat.push_back(rng::uniform(g, 0.1, 4.0));
    }
    space.add(perturb::PerturbationParameter(
        "kind" + std::to_string(j), units::Unit::seconds(), std::move(orig)));
  }
  const la::Vector k{std::vector<double>(kFlat)};
  feature::FeatureSet phi;
  const auto lin = std::make_shared<feature::LinearFeature>("phi", k);
  const double orig = lin->evaluate(space.concatenatedOriginal());
  phi.add(lin, feature::FeatureBounds::upper(1.4 * orig));

  const radius::MergedAnalysis analysis(phi, space,
                                        radius::MergeScheme::Sensitivity);
  EXPECT_NEAR(analysis.report().rho,
              1.0 / std::sqrt(static_cast<double>(kinds)), 1e-9)
      << "seed=" << seed << " kinds=" << kinds;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiElementMergeSweep,
                         ::testing::Range(std::uint64_t{201}, std::uint64_t{213}));
