// Determinism contract of the parallel subsystems: for a fixed seed the
// Monte-Carlo validation engine must produce byte-identical results for
// any thread count (substream-per-chunk scheduling, index-ordered
// reductions).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "feature/linear.hpp"
#include "feature/quadratic.hpp"
#include "la/matrix.hpp"
#include "parallel/thread_pool.hpp"
#include "radius/rho.hpp"
#include "rng/distributions.hpp"
#include "validate/bootstrap.hpp"
#include "validate/empirical.hpp"
#include "validate/scheme.hpp"

namespace validate = fepia::validate;
namespace feature = fepia::feature;
namespace radius = fepia::radius;
namespace perturb = fepia::perturb;
namespace parallel = fepia::parallel;
namespace la = fepia::la;
namespace units = fepia::units;
namespace rng = fepia::rng;

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
  // The tail on pools of 1, 2, 3 and 8 threads: bootstrap blocks, for
  // the per-point and the kernel overloads. Every run must equal the
  // serial one, and the serial one must equal pinned bits of the
  // polish and the single-stream bootstrap loop: comparing pools with
  // no pool cannot catch a change both paths share.
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

TEST(ValidateDeterminism, BootstrapResamplesMoveOnlyTheCI) {
  // The bootstrap runs after the march and the polish and reads only the
  // finished sample, so turning it off (as the sweep engine does) must
  // leave every other field bit-identical, for each overload and on a
  // pool as well as serially.
  const feature::FeatureSet phi = makeFeatureSet();
  const la::Vector orig{0.5, 0.5, 0.5};
  const validate::IndexedSafePredicate indexed = pointPredicate(phi);
  const validate::BlockSafePredicate block =
      [&phi, scratch = la::Vector(3)](const la::PointBlock& b,
                                      std::span<const std::size_t>,
                                      std::span<std::uint8_t> safeOut) mutable {
        for (std::size_t l = 0; l < b.lanes(); ++l) {
          b.gatherPoint(l, scratch.span());
          safeOut[l] = phi.allWithinBounds(scratch) ? 1 : 0;
        }
      };
  const auto run = [&](int overload, std::size_t resamples,
                       parallel::ThreadPool* pool) {
    validate::EstimatorOptions opts = tailOptions();
    opts.bootstrapResamples = resamples;
    switch (overload) {
      case 0:
        return validate::estimateEmpiricalRadius(phi, orig, opts, pool);
      case 1:
        return validate::estimateEmpiricalRadius(block, orig, opts, pool);
      default:
        return validate::estimateEmpiricalRadius(indexed, orig, opts, pool);
    }
  };
  parallel::ThreadPool pool(3);
  for (const int overload : {0, 1, 2}) {
    for (parallel::ThreadPool* p : {static_cast<parallel::ThreadPool*>(nullptr),
                                    &pool}) {
      SCOPED_TRACE("overload=" + std::to_string(overload) +
                   (p != nullptr ? " pool" : " serial"));
      const auto with = run(overload, 1000, p);
      const auto without = run(overload, 0, p);
      ASSERT_TRUE(with.finite());
      EXPECT_LT(with.radius, with.distanceSummary.min);  // polish moved it
      EXPECT_TRUE(sameBits(with.radius, without.radius));
      EXPECT_EQ(with.criticalDirection, without.criticalDirection);
      EXPECT_EQ(with.classifications, without.classifications);
      EXPECT_EQ(with.boundaryHits, without.boundaryHits);
      EXPECT_EQ(with.speculativeProbes, without.speculativeProbes);
      ASSERT_EQ(with.distances.size(), without.distances.size());
      EXPECT_EQ(std::memcmp(with.distances.data(), without.distances.data(),
                            with.distances.size() * sizeof(double)),
                0);
      // Only the interval's lower end may differ: the bootstrap can only
      // widen it.
      EXPECT_TRUE(sameBits(with.ci.hi, without.ci.hi));
      EXPECT_LE(with.ci.lo, without.ci.lo);
    }
  }
}

namespace {

/// bootstrapMinima with a synthetic value per index, serially and on a
/// pool; also returns the position of the first rejected raw draw in
/// the stream (none when every draw is accepted).
struct BootstrapRun {
  std::vector<double> serial;
  std::vector<double> pooled;
  std::optional<std::size_t> firstRejection;
};

BootstrapRun runBootstrap(std::uint64_t span, std::size_t draws,
                          std::size_t resamples, std::size_t threads) {
  const rng::Xoshiro256StarStar start(0xB007ull);
  const auto valueAt = [](std::uint64_t i) {
    return static_cast<double>(i % 1000003u);
  };
  BootstrapRun run;
  run.serial.assign(resamples, -1.0);
  run.pooled.assign(resamples, -1.0);
  validate::bootstrapMinima(start, draws, span, valueAt, run.serial, nullptr);
  parallel::ThreadPool pool(threads);
  validate::bootstrapMinima(start, draws, span, valueAt, run.pooled, &pool);

  const rng::IndexSampler pick(span);
  rng::Xoshiro256StarStar g = start;
  for (std::size_t i = 0; i < resamples * draws; ++i) {
    if (!pick.accepts(g())) {
      run.firstRejection = i;
      break;
    }
  }
  return run;
}

}  // namespace

TEST(ValidateDeterminism, BootstrapBlocksMatchSerialLoop) {
  // Realistic spans: no rejection, every block at its jump-ahead offset.
  for (const std::size_t n : {2u, 37u, 16000u}) {
    for (const std::size_t threads : {2u, 3u, 8u}) {
      const BootstrapRun run = runBootstrap(n, n, 1000, threads);
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " threads=" + std::to_string(threads));
      EXPECT_FALSE(run.firstRejection.has_value());
      EXPECT_EQ(std::memcmp(run.serial.data(), run.pooled.data(),
                            run.serial.size() * sizeof(double)),
                0);
    }
  }
}

TEST(ValidateDeterminism, BootstrapRejectionFallsBackToSerialLoop) {
  // Index bounds near 2^63 make rejected draws common: with span
  // 2^63 + 1 nearly half the draws are rejected, so the very first
  // block falls back; with span (2^64 - 1) / 3 - 2^52 about one draw in
  // 1400 is, so several blocks finish before the first rejection shifts
  // the offsets of the rest.
  const std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  struct Case {
    std::uint64_t span;
    bool midStream;
  };
  for (const Case c : {Case{(std::uint64_t{1} << 63) + 1, false},
                       Case{kMax / 3 - (std::uint64_t{1} << 52), true}}) {
    const std::size_t draws = 8;
    const BootstrapRun run = runBootstrap(c.span, draws, 1000, 3);
    SCOPED_TRACE("span=" + std::to_string(c.span));
    ASSERT_TRUE(run.firstRejection.has_value());
    if (c.midStream) {
      EXPECT_GE(*run.firstRejection, validate::kBootstrapBlock * draws);
    }
    EXPECT_EQ(std::memcmp(run.serial.data(), run.pooled.data(),
                          run.serial.size() * sizeof(double)),
              0);
    for (const double m : run.pooled) EXPECT_GE(m, 0.0);  // all written
  }
}
