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
#include <string>
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
    const feature::QuadraticFeature quad("quad", la::identity(dim), k, -1.5);
    // Exercises the gather-based default path too.
    const feature::CallableFeature generic(
        "gen", dim, [](const la::Vector& x) { return std::sin(x[0]) + 1.0; });

    const la::PointBlock block = randomBlock(g, dim, 37);
    std::vector<double> out(block.lanes());
    for (const feature::PerformanceFeature* f :
         {static_cast<const feature::PerformanceFeature*>(&quad),
          static_cast<const feature::PerformanceFeature*>(&generic)}) {
      f->evaluateBlock(block, out);
      for (std::size_t l = 0; l < block.lanes(); ++l) {
        EXPECT_EQ(bits(out[l]), bits(f->evaluate(gatherLane(block, l))))
            << f->name() << " dim=" << dim << " lane=" << l;
      }
    }
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
         {classify::Mode::Scalar, classify::Mode::Batched}) {
      classify::BlockClassifier cls(phi, mode);
      std::vector<std::uint8_t> got(block.lanes(), 2);
      cls.classify(block, got);
      EXPECT_EQ(got, expected) << "mode " << static_cast<int>(mode)
                               << " round " << round;
    }
  }
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
       {classify::Mode::Scalar, classify::Mode::Batched}) {
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
       {classify::Mode::Scalar, classify::Mode::Batched}) {
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
       {classify::Mode::Scalar, classify::Mode::Batched}) {
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
       {classify::Mode::Scalar, classify::Mode::Batched}) {
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

namespace {

/// One random compiled-run feature: coefficients drawn from a mix of
/// zeros, negatives, subnormals and ordinary values, with the first
/// `zeroColumns` coefficients zero. At least one is ordinary:
/// LinearFeature rejects a vector whose norm underflows to 0.
la::Vector randomCoefficients(rng::Xoshiro256StarStar& g, std::size_t dim,
                              std::size_t zeroColumns) {
  la::Vector k(dim);
  bool ordinary = false;
  for (std::size_t j = zeroColumns; j < dim; ++j) {
    const double pick = rng::uniform01(g);
    if (pick < 0.35) {
      k[j] = 0.0;
    } else if (pick < 0.45) {
      k[j] = -rng::uniform(g, 1.0, 4.0) * 0x1.0p-1060;  // negative subnormal
    } else if (pick < 0.5) {
      k[j] = 0x1.0p-1070;  // positive subnormal
    } else {
      k[j] = rng::uniform(g, -2.0, 2.0);
      ordinary = true;
    }
  }
  if (!ordinary) k[zeroColumns + g() % (dim - zeroColumns)] = -1.25;
  return k;
}

/// Block of `lanes` random points in [-3, 3]^dim whose lanes 0 and 1
/// (when present) are all +0 and all -0.
la::PointBlock signedZeroBlock(rng::Xoshiro256StarStar& g, std::size_t dim,
                               std::size_t lanes) {
  la::PointBlock block = randomBlock(g, dim, lanes);
  for (std::size_t j = 0; j < dim; ++j) {
    if (lanes > 0) block.coordinate(j)[0] = 0.0;
    if (lanes > 1) block.coordinate(j)[1] = -0.0;
  }
  return block;
}

}  // namespace

TEST(BlockClassifier, CompiledLinearRunsMatchScalarVerdictForVerdict) {
  // Random all-linear sets go through the fused sparse pass in Batched
  // mode, some with a column no feature uses. Bounds are anchored at the
  // value of a random lane, so some lanes sit exactly on a bound; zero
  // offsets with a bound at ±0 put the ±0 lanes exactly on it too, where
  // only the sign of a zero could differ between the sparse and dense
  // sums.
  rng::Xoshiro256StarStar g(0xF05EDull);
  for (int round = 0; round < 40; ++round) {
    SCOPED_TRACE(round);
    const std::size_t dim = 1 + g() % 12;
    const std::size_t count = 1 + g() % 6;
    // Every other round, column 0 is zero in every feature.
    const std::size_t zeroColumns = dim > 1 && round % 2 == 0 ? 1 : 0;
    for (const std::size_t lanes : {1u, 15u, 16u, 17u, 81u, 256u, 300u}) {
      SCOPED_TRACE(lanes);
      const la::PointBlock block = signedZeroBlock(g, dim, lanes);
      feature::FeatureSet phi;
      for (std::size_t f = 0; f < count; ++f) {
        const bool zeroOffset = g() % 3 == 0;
        const double offset = zeroOffset ? 0.0 : rng::uniform(g, -1.0, 1.0);
        auto lin = std::make_shared<feature::LinearFeature>(
            "lin" + std::to_string(f), randomCoefficients(g, dim, zeroColumns),
            offset);
        const double anchor =
            zeroOffset ? (g() % 2 == 0 ? 0.0 : -0.0)
                       : lin->evaluate(gatherLane(block, g() % lanes));
        const double spread = rng::uniform(g, 0.5, 6.0);
        switch (g() % 4) {
          case 0:
            phi.add(lin, feature::FeatureBounds::upper(anchor));
            break;
          case 1:
            phi.add(lin, feature::FeatureBounds::lower(anchor));
            break;
          case 2:
            phi.add(lin, feature::FeatureBounds(anchor, anchor + spread));
            break;
          default:
            phi.add(lin, feature::FeatureBounds(anchor - spread, anchor));
            break;
        }
      }
      classify::BlockClassifier scalar(phi, classify::Mode::Scalar);
      classify::BlockClassifier batched(phi, classify::Mode::Batched);
      std::vector<std::uint8_t> expected(lanes, 2);
      std::vector<std::uint8_t> got(lanes, 2);
      scalar.classify(block, expected);
      batched.classify(block, got);
      EXPECT_EQ(got, expected);
      // The counters count calls and lanes, whichever path ran.
      EXPECT_EQ(batched.stats().blocks, 1u);
      EXPECT_EQ(batched.stats().lanes, lanes);
      expectSameStats(batched.stats(), scalar.stats());
    }
  }
}

TEST(BlockClassifier, InfInASkippedColumnRaisesAsScalarDoes) {
  // The first feature has a zero coefficient on column 1, so the fused
  // pass skips that term; 0 * inf is still NaN there, and the scalar path
  // names the first feature. Every width must raise the same error.
  feature::FeatureSet phi;
  phi.add(std::make_shared<feature::LinearFeature>("first",
                                                   la::Vector{1.0, 0.0}),
          feature::FeatureBounds::upper(10.0));
  phi.add(std::make_shared<feature::LinearFeature>("second",
                                                   la::Vector{0.5, 1.0}),
          feature::FeatureBounds::upper(10.0));
  for (const std::size_t lanes : {4u, 16u, 81u}) {
    la::PointBlock block(2, lanes);
    block.coordinate(1)[lanes - 1] = std::numeric_limits<double>::infinity();
    for (const classify::Mode mode :
         {classify::Mode::Scalar, classify::Mode::Batched}) {
      classify::BlockClassifier cls(phi, mode);
      std::vector<std::uint8_t> got(lanes);
      try {
        cls.classify(block, got);
        ADD_FAILURE() << "no error, mode " << static_cast<int>(mode)
                      << " lanes " << lanes;
      } catch (const feature::NonFiniteFeatureError& e) {
        EXPECT_NE(std::string(e.what()).find("'first'"), std::string::npos)
            << e.what();
      }
      EXPECT_EQ(cls.stats().lanes, lanes);
    }
  }
}

TEST(BlockClassifier, NaNOnlyOnARejectedLaneDoesNotRaise) {
  // Lane 3 is (inf, inf): the first feature's x0 + x1 = inf rejects it,
  // so the second feature's x0 - x1 = NaN there is never evaluated by the
  // scalar path and must not raise in the fused pass either. With the
  // first feature accepting inf, the same lane is live and must raise,
  // naming the second feature.
  const double inf = std::numeric_limits<double>::infinity();
  const auto sum =
      std::make_shared<feature::LinearFeature>("sum", la::Vector{1.0, 1.0});
  const auto diff =
      std::make_shared<feature::LinearFeature>("diff", la::Vector{1.0, -1.0});
  feature::FeatureSet rejects;
  rejects.add(sum, feature::FeatureBounds::upper(10.0));
  rejects.add(diff, feature::FeatureBounds::upper(10.0));
  feature::FeatureSet passes;
  passes.add(sum, feature::FeatureBounds::lower(-10.0));
  passes.add(diff, feature::FeatureBounds::upper(10.0));
  for (const std::size_t lanes : {4u, 17u, 81u}) {
    SCOPED_TRACE(lanes);
    la::PointBlock block(2, lanes);
    block.coordinate(0)[3] = inf;
    block.coordinate(1)[3] = inf;
    std::vector<std::uint8_t> expected(lanes, 1);
    expected[3] = 0;
    for (const classify::Mode mode :
         {classify::Mode::Scalar, classify::Mode::Batched}) {
      classify::BlockClassifier quiet(rejects, mode);
      std::vector<std::uint8_t> got(lanes);
      ASSERT_NO_THROW(quiet.classify(block, got)) << static_cast<int>(mode);
      EXPECT_EQ(got, expected);

      classify::BlockClassifier loud(passes, mode);
      try {
        loud.classify(block, got);
        ADD_FAILURE() << "no error, mode " << static_cast<int>(mode);
      } catch (const feature::NonFiniteFeatureError& e) {
        EXPECT_NE(std::string(e.what()).find("'diff'"), std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(BlockClassifier, GenericBetweenLinearRunsSeesOnlyLiveLanes) {
  // [linear, generic, linear]: the two runs are compiled separately and
  // the generic feature between them is evaluated once per lane the
  // first feature accepted, in ascending lane order — as the scalar path
  // does and as the per-feature batched path did.
  rng::Xoshiro256StarStar g(0x6E6E71Cull);
  const std::size_t dim = 3;
  std::vector<double> seen;
  feature::FeatureSet phi;
  phi.add(std::make_shared<feature::LinearFeature>(
              "gate", la::Vector{1.0, 0.0, 0.5}, 0.25),
          feature::FeatureBounds::upper(1.0));
  phi.add(std::make_shared<feature::CallableFeature>(
              "counted", dim,
              [&seen](const la::Vector& x) {
                seen.push_back(x[0]);
                return x[1] * x[1];
              }),
          feature::FeatureBounds::upper(4.0));
  phi.add(std::make_shared<feature::LinearFeature>(
              "tail", la::Vector{0.0, -1.0, 1.0}),
          feature::FeatureBounds(-2.5, 2.5));
  for (const std::size_t lanes : {8u, 17u, 81u, 300u}) {
    SCOPED_TRACE(lanes);
    const la::PointBlock block = randomBlock(g, dim, lanes);
    std::vector<double> expectedSeen;
    for (std::size_t l = 0; l < lanes; ++l) {
      const la::Vector pi = gatherLane(block, l);
      if (phi[0].bounds.contains(phi[0].feature->evaluate(pi))) {
        expectedSeen.push_back(pi[0]);
      }
    }
    ASSERT_FALSE(expectedSeen.empty());
    ASSERT_LT(expectedSeen.size(), lanes);
    std::vector<std::uint8_t> expected(lanes);
    classify::BlockClassifier scalar(phi, classify::Mode::Scalar);
    seen.clear();
    scalar.classify(block, expected);
    EXPECT_EQ(seen, expectedSeen);

    classify::BlockClassifier batched(phi, classify::Mode::Batched);
    std::vector<std::uint8_t> got(lanes);
    seen.clear();
    batched.classify(block, got);
    EXPECT_EQ(seen, expectedSeen);
    EXPECT_EQ(got, expected);
    expectSameStats(batched.stats(), scalar.stats());
  }
}
