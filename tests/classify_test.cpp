// Unit tests of the SoA classification layer: la::PointBlock, the
// feature evaluateBlock kernels (bit-identity with scalar evaluate),
// and classify::BlockClassifier (verdict equivalence across modes,
// short-circuit semantics, NaN typed errors, work counters).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "classify/block_classifier.hpp"
#include "feature/feature.hpp"
#include "feature/generic.hpp"
#include "feature/linear.hpp"
#include "feature/quadratic.hpp"
#include "la/matrix.hpp"
#include "la/point_block.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"

namespace classify = fepia::classify;
namespace feature = fepia::feature;
namespace la = fepia::la;
namespace rng = fepia::rng;

namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

la::PointBlock randomBlock(rng::Xoshiro256StarStar& g, std::size_t dim,
                           std::size_t lanes, double lo = -3.0,
                           double hi = 3.0) {
  la::PointBlock block(dim, lanes);
  for (std::size_t j = 0; j < dim; ++j) {
    for (double& x : block.coordinate(j)) x = rng::uniform(g, lo, hi);
  }
  return block;
}

la::Vector gatherLane(const la::PointBlock& block, std::size_t lane) {
  la::Vector out(block.dimension());
  block.gatherPoint(lane, out.span());
  return out;
}

/// Mixed linear + quadratic set whose bounds cut through the sampled
/// box, so random blocks contain inside, outside, and multi-violation
/// lanes.
feature::FeatureSet mixedSet(std::size_t dim) {
  feature::FeatureSet phi;
  la::Vector k1(dim), k2(dim);
  for (std::size_t j = 0; j < dim; ++j) {
    k1[j] = 0.7 + 0.31 * static_cast<double>(j);
    k2[j] = (j % 2 == 0) ? -1.1 : 0.6;
  }
  phi.add(std::make_shared<feature::LinearFeature>("lin-up", k1, 0.25),
          feature::FeatureBounds::upper(1.0));
  phi.add(std::make_shared<feature::LinearFeature>("lin-two-sided", k2, -0.1),
          feature::FeatureBounds(-2.0, 2.0));
  phi.add(std::make_shared<feature::QuadraticFeature>(
              "quad", la::identity(dim), la::Vector(dim, 0.1), -0.5),
          feature::FeatureBounds::upper(3.0));
  return phi;
}

}  // namespace

TEST(PointBlock, ShapeLanesAndAccessors) {
  la::PointBlock block(3, 8);
  EXPECT_EQ(block.dimension(), 3u);
  EXPECT_EQ(block.capacity(), 8u);
  EXPECT_EQ(block.lanes(), 8u);
  block.setLanes(5);
  EXPECT_EQ(block.lanes(), 5u);
  EXPECT_EQ(block.coordinate(0).size(), 5u);
  EXPECT_THROW(block.setLanes(9), std::out_of_range);
  EXPECT_THROW((void)block.coordinate(3), std::out_of_range);

  const double p[3] = {1.0, 2.0, 3.0};
  block.setPoint(2, p);
  la::Vector out(3);
  block.gatherPoint(2, out.span());
  EXPECT_EQ(out, (la::Vector{1.0, 2.0, 3.0}));
  EXPECT_THROW(block.setPoint(5, p), std::out_of_range);
  la::Vector wrong(2);
  EXPECT_THROW(block.gatherPoint(0, wrong.span()), std::invalid_argument);
}

TEST(PointBlock, ReshapeZeroesAllLanes) {
  la::PointBlock block(2, 4);
  block.coordinate(1)[3] = 7.0;
  block.reshape(3, 2);
  EXPECT_EQ(block.dimension(), 3u);
  EXPECT_EQ(block.lanes(), 2u);
  for (std::size_t j = 0; j < 3; ++j) {
    for (const double x : block.coordinate(j)) EXPECT_EQ(x, 0.0);
  }
}

TEST(EvaluateBlock, KernelsAreBitIdenticalToScalarEvaluate) {
  rng::Xoshiro256StarStar g(0xB10C5EEDull);
  for (const std::size_t dim : {1u, 3u, 7u}) {
    la::Vector k(dim);
    for (std::size_t j = 0; j < dim; ++j) k[j] = rng::uniform(g, -2.0, 2.0);
    if (k[0] == 0.0) k[0] = 1.0;
    const feature::LinearFeature lin("lin", k, 0.375);
    const feature::QuadraticFeature quad("quad", la::identity(dim), k, -1.5);
    // Exercises the gather-based default path too.
    const feature::CallableFeature generic(
        "gen", dim, [](const la::Vector& x) { return std::sin(x[0]) + 1.0; });

    const la::PointBlock block = randomBlock(g, dim, 37);
    std::vector<double> out(block.lanes());
    for (const feature::PerformanceFeature* f :
         {static_cast<const feature::PerformanceFeature*>(&lin),
          static_cast<const feature::PerformanceFeature*>(&quad),
          static_cast<const feature::PerformanceFeature*>(&generic)}) {
      f->evaluateBlock(block, out);
      for (std::size_t l = 0; l < block.lanes(); ++l) {
        EXPECT_EQ(bits(out[l]), bits(f->evaluate(gatherLane(block, l))))
            << f->name() << " dim=" << dim << " lane=" << l;
      }
    }
    EXPECT_THROW(lin.evaluateBlock(randomBlock(g, dim + 1, 4), out),
                 std::invalid_argument);
    std::vector<double> tooSmall(block.lanes() - 1);
    EXPECT_THROW(lin.evaluateBlock(block, tooSmall), std::invalid_argument);
  }
}

TEST(BlockClassifier, AllModesMatchScalarVerdictForVerdict) {
  rng::Xoshiro256StarStar g(0xC1A55ull);
  const std::size_t dim = 4;
  const feature::FeatureSet phi = mixedSet(dim);
  for (int round = 0; round < 8; ++round) {
    const la::PointBlock block = randomBlock(g, dim, 64);
    std::vector<std::uint8_t> expected(block.lanes());
    for (std::size_t l = 0; l < block.lanes(); ++l) {
      expected[l] = phi.allWithinBounds(gatherLane(block, l)) ? 1 : 0;
    }
    for (const classify::Mode mode :
         {classify::Mode::Scalar, classify::Mode::Batched,
          classify::Mode::BatchedF32}) {
      classify::BlockClassifier cls(phi, mode);
      std::vector<std::uint8_t> got(block.lanes(), 2);
      cls.classify(block, got);
      EXPECT_EQ(got, expected) << "mode " << static_cast<int>(mode)
                               << " round " << round;
    }
  }
}

TEST(BlockClassifier, F32MarginFallsBackOnBoundaryValues) {
  // k·x lands exactly on the bound: the f32 margin cannot certify either
  // side, so the lane must be re-classified in double — and agree with
  // the scalar verdict (inclusive bounds: on-the-bound is inside). The
  // block is at least kWideLaneCutover wide so the f32 kernel actually
  // engages (narrower blocks dispatch to the scalar path).
  feature::FeatureSet phi;
  phi.add(std::make_shared<feature::LinearFeature>("lin", la::Vector{1.0}),
          feature::FeatureBounds::upper(1.0));
  const std::size_t lanes = classify::kWideLaneCutover;
  la::PointBlock block(1, lanes);
  std::vector<std::uint8_t> expected(lanes);
  block.coordinate(0)[0] = 1.0;  // exactly on the bound -> double fallback
  expected[0] = 1;
  for (std::size_t l = 1; l < lanes; ++l) {
    const bool inside = l % 2 == 1;
    block.coordinate(0)[l] = inside ? 0.25 : 2.0;  // far from the bound
    expected[l] = inside ? 1 : 0;
  }
  classify::BlockClassifier cls(phi, classify::Mode::BatchedF32);
  std::vector<std::uint8_t> got(lanes);
  cls.classify(block, got);
  EXPECT_EQ(got, expected);
  EXPECT_EQ(cls.stats().doubleFallbacks, 1u);
  EXPECT_EQ(cls.stats().f32Hits, lanes - 1);
}

TEST(BlockClassifier, ShortCircuitSkipsLaterFeaturesOnRejectedLanes) {
  // Feature 2 divides by (x0 - 1): NaN at x0 == 1. Scalar semantics
  // never evaluate it for lanes feature 1 already rejected, so the
  // batched classifier must not throw for such lanes — and must throw
  // the typed error when a surviving lane hits the NaN.
  feature::FeatureSet phi;
  phi.add(std::make_shared<feature::LinearFeature>("gate", la::Vector{1.0}),
          feature::FeatureBounds::upper(0.5));
  phi.add(std::make_shared<feature::CallableFeature>(
              "nan-at-one", 1,
              [](const la::Vector& x) {
                return x[0] == 1.0
                           ? std::numeric_limits<double>::quiet_NaN()
                           : x[0];
              }),
          feature::FeatureBounds::upper(10.0));

  // 8 rejected NaN-source lanes leave 24 live ones — enough to keep the
  // batched path in wide mode when it reaches the callable feature, so
  // the live-lane-only evaluation of non-pure features is what is
  // exercised (plus the scalar-tail finish at narrower widths below).
  const std::size_t lanes = 2 * classify::kWideLaneCutover;
  la::PointBlock block(1, lanes);
  std::vector<std::uint8_t> expected(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    const bool rejected = l < lanes / 4;
    block.coordinate(0)[l] = rejected ? 1.0 : 0.0;
    expected[l] = rejected ? 0 : 1;
  }
  // A narrower block whose survivors finish through the scalar tail.
  la::PointBlock tail(1, classify::kWideLaneCutover);
  std::vector<std::uint8_t> tailExpected(tail.lanes());
  for (std::size_t l = 0; l < tail.lanes(); ++l) {
    const bool rejected = l % 2 == 0;
    tail.coordinate(0)[l] = rejected ? 1.0 : 0.0;
    tailExpected[l] = rejected ? 0 : 1;
  }
  for (const classify::Mode mode :
       {classify::Mode::Scalar, classify::Mode::Batched,
        classify::Mode::BatchedF32}) {
    classify::BlockClassifier cls(phi, mode);
    std::vector<std::uint8_t> got(lanes);
    ASSERT_NO_THROW(cls.classify(block, got)) << static_cast<int>(mode);
    EXPECT_EQ(got, expected) << static_cast<int>(mode);
    std::vector<std::uint8_t> tailGot(tail.lanes());
    ASSERT_NO_THROW(cls.classify(tail, tailGot)) << static_cast<int>(mode);
    EXPECT_EQ(tailGot, tailExpected) << static_cast<int>(mode);
  }

  // A surviving lane that evaluates to NaN surfaces the typed error.
  la::PointBlock bad(1, 1);
  bad.coordinate(0)[0] = 0.0;
  feature::FeatureSet nanSet;
  nanSet.add(std::make_shared<feature::CallableFeature>(
                 "nan", 1,
                 [](const la::Vector&) {
                   return std::numeric_limits<double>::quiet_NaN();
                 }),
             feature::FeatureBounds::upper(1.0));
  for (const classify::Mode mode :
       {classify::Mode::Scalar, classify::Mode::Batched,
        classify::Mode::BatchedF32}) {
    classify::BlockClassifier cls(nanSet, mode);
    std::vector<std::uint8_t> got(1);
    EXPECT_THROW(cls.classify(bad, got), feature::NonFiniteFeatureError)
        << static_cast<int>(mode);
  }
}

TEST(BlockClassifier, WideKernelRaisesTypedErrorOnLiveNaN) {
  // 0 * inf = NaN inside the linear kernel itself: the wide masked sweep
  // must surface it as the typed error because the lane is still live —
  // exactly as the scalar path would.
  feature::FeatureSet phi;
  phi.add(std::make_shared<feature::LinearFeature>("zero-k1",
                                                   la::Vector{1.0, 0.0}),
          feature::FeatureBounds::upper(1.0));
  la::PointBlock block(2, classify::kWideLaneCutover);
  block.coordinate(1)[0] = std::numeric_limits<double>::infinity();
  for (const classify::Mode mode :
       {classify::Mode::Scalar, classify::Mode::Batched,
        classify::Mode::BatchedF32}) {
    classify::BlockClassifier cls(phi, mode);
    std::vector<std::uint8_t> got(block.lanes());
    EXPECT_THROW(cls.classify(block, got), feature::NonFiniteFeatureError)
        << static_cast<int>(mode);
  }
}

TEST(BlockClassifier, CountsBlocksAndLanesAndMatchesPointApi) {
  rng::Xoshiro256StarStar g(0x57A75ull);
  const feature::FeatureSet phi = mixedSet(3);
  classify::BlockClassifier cls(phi, classify::Mode::Batched);
  const la::PointBlock block = randomBlock(g, 3, 17);
  std::vector<std::uint8_t> got(block.lanes());
  cls.classify(block, got);
  cls.classify(block, got);
  EXPECT_EQ(cls.stats().blocks, 2u);
  EXPECT_EQ(cls.stats().lanes, 34u);

  for (std::size_t l = 0; l < block.lanes(); ++l) {
    const la::Vector pi = gatherLane(block, l);
    EXPECT_EQ(cls.classifyPoint(pi), phi.allWithinBounds(pi));
  }
  EXPECT_EQ(cls.stats().blocks, 2u + 17u);

  std::vector<std::uint8_t> tooSmall(block.lanes() - 1);
  EXPECT_THROW(cls.classify(block, tooSmall), std::invalid_argument);
  la::PointBlock wrongDim(2, 4);
  EXPECT_THROW(cls.classify(wrongDim, got), std::invalid_argument);
}

namespace {

/// Every ClassifyStats field of two classifiers agrees.
void expectSameStats(const classify::ClassifyStats& a,
                     const classify::ClassifyStats& b) {
  EXPECT_EQ(a.blocks, b.blocks);
  EXPECT_EQ(a.lanes, b.lanes);
  EXPECT_EQ(a.f32Hits, b.f32Hits);
  EXPECT_EQ(a.doubleFallbacks, b.doubleFallbacks);
}

}  // namespace

TEST(BlockClassifier, PointPathEqualsOneLaneBlockInEveryMode) {
  // classifyPoint skips the block round trip; in every mode it must
  // give what a 1-lane classify() of the same point gives: the verdict,
  // the stats deltas, the typed NaN error and the shape error.
  const feature::FeatureSet phi = mixedSet(3);
  feature::FeatureSet nanSet;
  nanSet.add(std::make_shared<feature::CallableFeature>(
                 "nan", 3,
                 [](const la::Vector&) {
                   return std::numeric_limits<double>::quiet_NaN();
                 }),
             feature::FeatureBounds::upper(1.0));
  feature::FeatureSet zeroTimesInf;  // NaN inside the linear kernel
  zeroTimesInf.add(std::make_shared<feature::LinearFeature>(
                       "zero-k1", la::Vector{1.0, 0.0, 0.0}),
                   feature::FeatureBounds::upper(1.0));
  const feature::FeatureSet empty;

  for (const classify::Mode mode :
       {classify::Mode::Scalar, classify::Mode::Batched,
        classify::Mode::BatchedF32}) {
    SCOPED_TRACE(static_cast<int>(mode));
    rng::Xoshiro256StarStar g(0x9017ull);
    classify::BlockClassifier point(phi, mode);
    classify::BlockClassifier lane(phi, mode);
    la::PointBlock one(3, 1);
    std::uint8_t verdict = 2;
    std::size_t safe = 0;
    for (int i = 0; i < 200; ++i) {
      const la::Vector pi{rng::uniform(g, -3.0, 3.0),
                          rng::uniform(g, -3.0, 3.0),
                          rng::uniform(g, -3.0, 3.0)};
      one.setPoint(0, pi.span());
      lane.classify(one, std::span<std::uint8_t>(&verdict, 1));
      const bool got = point.classifyPoint(pi);
      EXPECT_EQ(got, verdict != 0);
      safe += got ? 1 : 0;
      expectSameStats(point.stats(), lane.stats());
    }
    EXPECT_GT(safe, 0u);  // both verdicts occur
    EXPECT_LT(safe, 200u);

    // Dimension mismatch: a typed error before any counter moves.
    la::PointBlock wrongDim(2, 1);
    EXPECT_THROW(lane.classify(wrongDim, std::span<std::uint8_t>(&verdict, 1)),
                 std::invalid_argument);
    EXPECT_THROW(static_cast<void>(point.classifyPoint(la::Vector{0.0, 0.0})),
                 std::invalid_argument);
    expectSameStats(point.stats(), lane.stats());

    // A live NaN: the typed error, after the block and lane are counted.
    const la::Vector inf{0.0, std::numeric_limits<double>::infinity(), 0.0};
    for (const feature::FeatureSet* bad : {&nanSet, &zeroTimesInf}) {
      classify::BlockClassifier badPoint(*bad, mode);
      classify::BlockClassifier badLane(*bad, mode);
      one.setPoint(0, inf.span());
      EXPECT_THROW(
          badLane.classify(one, std::span<std::uint8_t>(&verdict, 1)),
          feature::NonFiniteFeatureError);
      EXPECT_THROW(static_cast<void>(badPoint.classifyPoint(inf)),
                   feature::NonFiniteFeatureError);
      expectSameStats(badPoint.stats(), badLane.stats());
      EXPECT_EQ(badPoint.stats().lanes, 1u);
    }

    // No features: every point is safe, of any dimension.
    classify::BlockClassifier emptyPoint(empty, mode);
    classify::BlockClassifier emptyLane(empty, mode);
    verdict = 0;
    emptyLane.classify(wrongDim, std::span<std::uint8_t>(&verdict, 1));
    EXPECT_EQ(verdict, 1);
    EXPECT_TRUE(emptyPoint.classifyPoint(la::Vector{0.0, 0.0}));
    expectSameStats(emptyPoint.stats(), emptyLane.stats());
  }
}
