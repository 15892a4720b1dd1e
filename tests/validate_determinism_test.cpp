// Determinism contract of the parallel subsystems: for a fixed seed the
// Monte-Carlo validation engine must produce byte-identical results for
// any thread count (substream-per-chunk scheduling, index-ordered
// reductions).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "feature/linear.hpp"
#include "feature/quadratic.hpp"
#include "la/matrix.hpp"
#include "parallel/thread_pool.hpp"
#include "radius/rho.hpp"
#include "validate/empirical.hpp"
#include "validate/scheme.hpp"

namespace validate = fepia::validate;
namespace feature = fepia::feature;
namespace radius = fepia::radius;
namespace perturb = fepia::perturb;
namespace parallel = fepia::parallel;
namespace la = fepia::la;
namespace units = fepia::units;

namespace {

/// Bitwise double equality — EXPECT_EQ tolerates -0.0 vs 0.0; the
/// determinism contract is stronger.
bool sameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

feature::FeatureSet makeFeatureSet() {
  feature::FeatureSet phi;
  phi.add(std::make_shared<feature::LinearFeature>(
              "lin", la::Vector{1.0, 0.7, -0.3}),
          feature::FeatureBounds::upper(5.0));
  phi.add(std::make_shared<feature::QuadraticFeature>(
              "quad", 2.0 * la::identity(3), la::Vector{0.1, 0.0, 0.0}),
          feature::FeatureBounds::upper(30.0));
  return phi;
}

radius::FepiaProblem makeProblem() {
  radius::FepiaProblem problem;
  problem.addPerturbation(perturb::PerturbationParameter(
      "e", units::Unit::seconds(), la::Vector{2.0, 3.0}));
  problem.addPerturbation(perturb::PerturbationParameter(
      "m", units::Unit::bytes(), la::Vector{1.0e6}));
  problem.addFeature(std::make_shared<feature::LinearFeature>(
                         "delay", la::Vector{1.0, 1.0, 1e-6}),
                     feature::FeatureBounds::upper(9.0));
  problem.addFeature(std::make_shared<feature::LinearFeature>(
                         "stage-2", la::Vector{0.0, 1.0, 0.0}),
                     feature::FeatureBounds::upper(5.0));
  return problem;
}

void expectIdentical(const validate::EmpiricalEstimate& a,
                     const validate::EmpiricalEstimate& b) {
  EXPECT_TRUE(sameBits(a.radius, b.radius));
  EXPECT_TRUE(sameBits(a.ci.lo, b.ci.lo));
  EXPECT_TRUE(sameBits(a.ci.hi, b.ci.hi));
  EXPECT_EQ(a.criticalDirection, b.criticalDirection);
  EXPECT_EQ(a.boundaryHits, b.boundaryHits);
  EXPECT_EQ(a.classifications, b.classifications);
  EXPECT_EQ(a.speculativeProbes, b.speculativeProbes);
  ASSERT_EQ(a.distances.size(), b.distances.size());
  EXPECT_EQ(std::memcmp(a.distances.data(), b.distances.data(),
                        a.distances.size() * sizeof(double)),
            0);
}

}  // namespace

TEST(ValidateDeterminism, EstimateIsThreadCountInvariant) {
  const feature::FeatureSet phi = makeFeatureSet();
  const la::Vector orig{0.5, 0.5, 0.5};
  validate::EstimatorOptions opts;
  opts.directions = 1024;
  opts.chunkSize = 64;
  opts.seed = 0xDE7E2A11ull;
  opts.horizon = 32.0;

  const auto serial = validate::estimateEmpiricalRadius(phi, orig, opts);
  ASSERT_TRUE(serial.finite());
  for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
    parallel::ThreadPool pool(threads);
    const auto est = validate::estimateEmpiricalRadius(phi, orig, opts, &pool);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expectIdentical(serial, est);
  }
}

TEST(ValidateDeterminism, SchemeValidationIsThreadCountInvariant) {
  const radius::FepiaProblem problem = makeProblem();
  validate::EstimatorOptions opts;
  opts.directions = 512;
  opts.chunkSize = 64;
  opts.seed = 99;
  opts.horizon = 64.0;

  const auto serial = validate::validateMergedScheme(
      problem, radius::MergeScheme::NormalizedByOriginal, opts);
  for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
    parallel::ThreadPool pool(threads);
    const auto v = validate::validateMergedScheme(
        problem, radius::MergeScheme::NormalizedByOriginal, opts, &pool);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ASSERT_EQ(v.perFeature.size(), serial.perFeature.size());
    for (std::size_t i = 0; i < v.perFeature.size(); ++i) {
      expectIdentical(serial.perFeature[i].empirical,
                      v.perFeature[i].empirical);
    }
    expectIdentical(serial.rho.empirical, v.rho.empirical);
    ASSERT_TRUE(v.joint.has_value());
    expectIdentical(serial.joint->empirical, v.joint->empirical);
  }
}

namespace {

/// Exact membership of the feature set above, as a per-point predicate.
validate::IndexedSafePredicate pointPredicate(const feature::FeatureSet& phi) {
  return [&phi](const la::Vector& pi, std::size_t) {
    return phi.allWithinBounds(pi);
  };
}

validate::EstimatorOptions tailOptions() {
  validate::EstimatorOptions opts;
  opts.directions = 300;  // 5 chunks of 64, the last one short
  opts.chunkSize = 64;
  opts.seed = 0x7A11ull;
  opts.horizon = 32.0;
  return opts;
}

}  // namespace

TEST(ValidateDeterminism, TailIsThreadCountInvariantAndPinned) {
  // The tail on pools of 1, 2, 3 and 8 threads, for the per-point and
  // the kernel overloads. Every run must equal the serial one, and the
  // serial one must equal pinned bits of the polish and the interval:
  // comparing pools with no pool cannot catch a change both paths share.
  struct Pinned {
    bool nonnegative;
    double radius, lo;
    std::size_t classifications, critical;
  };
  const feature::FeatureSet phi = makeFeatureSet();
  const la::Vector orig{0.5, 0.5, 0.5};
  const auto safe = pointPredicate(phi);
  for (const Pinned& pin :
       {Pinned{false, 0x1.b5dfee40e7312p+1, 0x1.7d705505b5c07p+1, 46256, 286},
        Pinned{true, 0x1.c2e7be66e84a4p+1, 0x1.1224f37179043p+1, 45220, 26}}) {
    SCOPED_TRACE(pin.nonnegative ? "nonnegative" : "sphere");
    validate::EstimatorOptions opts = tailOptions();
    opts.nonnegativeDirections = pin.nonnegative;
    const auto serial = validate::estimateEmpiricalRadius(safe, orig, opts);
    EXPECT_TRUE(sameBits(serial.radius, pin.radius));
    EXPECT_TRUE(sameBits(serial.ci.lo, pin.lo));
    EXPECT_TRUE(sameBits(serial.ci.hi, pin.radius));
    EXPECT_EQ(serial.classifications, pin.classifications);
    EXPECT_EQ(serial.criticalDirection, pin.critical);
    // The polish moved the radius, so the pinned bits cover it.
    EXPECT_LT(serial.radius, serial.distanceSummary.min);

    expectIdentical(serial, validate::estimateEmpiricalRadius(phi, orig, opts));
    for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
      parallel::ThreadPool pool(threads);
      SCOPED_TRACE("threads=" + std::to_string(threads));
      expectIdentical(
          serial, validate::estimateEmpiricalRadius(safe, orig, opts, &pool));
      expectIdentical(
          serial, validate::estimateEmpiricalRadius(phi, orig, opts, &pool));
    }
  }
}

TEST(ValidateDeterminism, BootstrapTermSetsTheLowerEndAndIsPinned) {
  // On the line every direction is exactly +1 or -1, so a ray's probes
  // and its bisected distance depend only on its bound. Directions 0
  // and 1 share bound 1 and tie at the sample minimum m: the spacing
  // term is 0 and the lower end is the reflected bootstrap m - (q - m).
  // With 64 distances q is the fourth smallest, direction 3's: the law
  // leaves (61/64)^64 = 0.046 above the third and (60/64)^64 = 0.016
  // above the fourth.
  const validate::IndexedSafePredicate safe = [](const la::Vector& x,
                                                 std::size_t dir) {
    const double bound =
        dir < 2 ? 1.0 : 1.0 + 0.001 * static_cast<double>(dir);
    return std::fabs(x[0]) < bound;
  };
  validate::EstimatorOptions opts;
  opts.directions = 64;
  opts.chunkSize = 16;
  opts.seed = 0x71Eull;
  opts.horizon = 8.0;
  opts.polishSweeps = 0;
  const la::Vector orig{0.0};
  const auto serial = validate::estimateEmpiricalRadius(safe, orig, opts);
  std::vector<double> sorted = serial.distances;
  std::sort(sorted.begin(), sorted.end());
  ASSERT_TRUE(sameBits(sorted[0], sorted[1]));
  ASSERT_LT(sorted[2], sorted[3]);
  EXPECT_TRUE(sameBits(serial.distances[3], sorted[3]));
  const double m = serial.radius;
  EXPECT_TRUE(sameBits(m, sorted[0]));
  EXPECT_TRUE(sameBits(serial.ci.lo, m - (sorted[3] - m)));
  EXPECT_TRUE(sameBits(serial.ci.lo, 0x1.fe76c8b439584p-1));
  EXPECT_TRUE(sameBits(serial.ci.hi, m));
  for (const std::size_t threads : {2u, 3u}) {
    parallel::ThreadPool pool(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expectIdentical(serial,
                    validate::estimateEmpiricalRadius(safe, orig, opts, &pool));
  }
}
