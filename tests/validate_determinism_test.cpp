// Determinism contract of the parallel subsystems: for a fixed seed the
// Monte-Carlo validation engine must produce byte-identical results for
// any thread count (substream-per-chunk scheduling, index-ordered
// reductions).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "feature/linear.hpp"
#include "feature/quadratic.hpp"
#include "la/matrix.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "parallel/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "radius/merge.hpp"
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
namespace rng = fepia::rng;

namespace {

/// Bitwise double equality — EXPECT_EQ tolerates -0.0 vs 0.0; the
/// determinism contract is stronger.
bool sameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// FNV-1a over the bits of `xs`, in order: pins a whole sample in one
/// number.
std::uint64_t fnv1a(const std::vector<double>& xs) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const double x : xs) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    for (int b = 0; b < 64; b += 8) {
      h ^= (bits >> b) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
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

/// Everything a metrics registry holds, in its insertion order.
std::string registryJson(const fepia::obs::Registry& reg) {
  std::ostringstream os;
  reg.writeJson(os);
  return os.str();
}

void expectSameKernelWork(const validate::EmpiricalEstimate& a,
                          const validate::EmpiricalEstimate& b) {
  EXPECT_EQ(a.classifyStats.blocks, b.classifyStats.blocks);
  EXPECT_EQ(a.classifyStats.lanes, b.classifyStats.lanes);
}

}  // namespace

TEST(ValidateDeterminism, SchemeRowsEqualOneEstimateAtATime) {
  // validateMergedScheme runs its estimates as one batch, the joint one
  // (the heaviest) first. Each row must still be the lone estimate with
  // the seed the scheme derives for it, and the metrics the same as
  // those of the lone estimates made in row order.
  const radius::FepiaProblem problem = makeProblem();
  const radius::MergeScheme scheme = radius::MergeScheme::NormalizedByOriginal;
  validate::EstimatorOptions opts;
  opts.directions = 512;
  opts.chunkSize = 64;
  opts.seed = 99;
  opts.horizon = 64.0;

  const radius::MergedAnalysis analysis = problem.merged(scheme);
  const la::Vector orig = problem.space().concatenatedOriginal();
  rng::SplitMix64 seeds(opts.seed);
  fepia::obs::Registry loneMetrics;
  std::vector<validate::EmpiricalEstimate> lone;
  for (std::size_t i = 0; i < analysis.pSpaceFeatures().size(); ++i) {
    feature::FeatureSet single;
    single.add(analysis.pSpaceFeatures()[i].feature,
               analysis.pSpaceFeatures()[i].bounds);
    validate::EstimatorOptions o = opts;
    o.seed = seeds.next();
    o.metrics = &loneMetrics;
    lone.push_back(validate::estimateEmpiricalRadius(
        single, analysis.map(i).toP(orig), o));
  }
  validate::EstimatorOptions jointOpts = opts;
  jointOpts.seed = seeds.next();
  jointOpts.metrics = &loneMetrics;
  lone.push_back(validate::estimateEmpiricalRadius(
      analysis.pSpaceFeatures(), analysis.map(0).toP(orig), jointOpts));

  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    parallel::ThreadPool pool(threads);
    fepia::obs::Registry metrics;
    validate::EstimatorOptions withMetrics = opts;
    withMetrics.metrics = &metrics;
    const auto v =
        validate::validateMergedScheme(problem, scheme, withMetrics, &pool);
    ASSERT_EQ(v.perFeature.size() + 1, lone.size());
    ASSERT_TRUE(v.joint.has_value());
    for (std::size_t i = 0; i < v.perFeature.size(); ++i) {
      SCOPED_TRACE("feature " + std::to_string(i));
      expectIdentical(lone[i], v.perFeature[i].empirical);
      expectSameKernelWork(lone[i], v.perFeature[i].empirical);
    }
    expectIdentical(lone.back(), v.joint->empirical);
    expectSameKernelWork(lone.back(), v.joint->empirical);
    EXPECT_EQ(registryJson(metrics), registryJson(loneMetrics));
  }
}

TEST(ValidateDeterminism, OneChunkEstimatesStayOffThePool) {
  // A batch in which no estimate has more than one chunk runs on the
  // calling thread, as each lone estimate would: no task reaches the
  // pool. One estimate of two chunks is enough to use it.
  const radius::FepiaProblem problem = makeProblem();
  const radius::MergeScheme scheme = radius::MergeScheme::NormalizedByOriginal;
  validate::EstimatorOptions opts;
  opts.directions = 64;
  opts.chunkSize = 64;
  opts.seed = 5;
  opts.horizon = 64.0;

  const auto tasks = [](parallel::ThreadPool& pool) {
    fepia::obs::Registry reg;
    pool.exportMetrics(reg);
    std::uint64_t total = 0;
    for (std::size_t w = 0; w < pool.threadCount(); ++w) {
      total += reg.counters().value("pool.worker" + std::to_string(w) +
                                    ".tasks");
    }
    EXPECT_EQ(total, reg.counters().value("pool.submitted"));
    return total;
  };

  parallel::ThreadPool pool(4);
  const auto serial = validate::validateMergedScheme(problem, scheme, opts);
  const auto pooled =
      validate::validateMergedScheme(problem, scheme, opts, &pool);
  EXPECT_EQ(tasks(pool), 0u);
  for (std::size_t i = 0; i < serial.perFeature.size(); ++i) {
    expectIdentical(serial.perFeature[i].empirical,
                    pooled.perFeature[i].empirical);
  }
  expectIdentical(serial.joint->empirical, pooled.joint->empirical);

  opts.directions = 65;  // one more ray: a second chunk in every estimate
  (void)validate::validateMergedScheme(problem, scheme, opts, &pool);
  EXPECT_GT(tasks(pool), 0u);
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
    std::uint64_t distancesHash;  ///< fnv1a of every directional distance
  };
  const feature::FeatureSet phi = makeFeatureSet();
  const la::Vector orig{0.5, 0.5, 0.5};
  const auto safe = pointPredicate(phi);
  for (const Pinned& pin :
       {Pinned{false, 0x1.b5dfee40e7312p+1, 0x1.7d705505b5c07p+1, 46256, 286,
               0xb612a45c0460a2d4ull},
        Pinned{true, 0x1.c2e7be66e84a4p+1, 0x1.1224f37179043p+1, 45220, 26,
               0xa830a6e7ae5a93aeull}}) {
    SCOPED_TRACE(pin.nonnegative ? "nonnegative" : "sphere");
    validate::EstimatorOptions opts = tailOptions();
    opts.nonnegativeDirections = pin.nonnegative;
    const auto serial = validate::estimateEmpiricalRadius(safe, orig, opts);
    EXPECT_TRUE(sameBits(serial.radius, pin.radius));
    EXPECT_TRUE(sameBits(serial.ci.lo, pin.lo));
    EXPECT_TRUE(sameBits(serial.ci.hi, pin.radius));
    EXPECT_EQ(serial.classifications, pin.classifications);
    EXPECT_EQ(serial.criticalDirection, pin.critical);
    EXPECT_EQ(fnv1a(serial.distances), pin.distancesHash)
        << std::hex << "0x" << fnv1a(serial.distances);
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

namespace {

/// One ray of the per-ray scalar reference: its distance and the number
/// of probes it makes, i.e. the number of lockstep rounds it is live.
struct ReferenceRay {
  double distance;
  std::size_t probes;
};

/// The per-ray scalar loop the lockstep march must reproduce: march from
/// horizon * 2^-40, doubling up to the horizon, then bisect the bracket
/// with the same exit tests, finishing at 0.5 * (lo + hi).
ReferenceRay referenceRay(const feature::FeatureSet& phi,
                          const la::Vector& origin,
                          const std::vector<double>& u,
                          const validate::EstimatorOptions& opts) {
  la::Vector point(origin.size());
  std::size_t probes = 0;
  const auto safeAt = [&](double t) {
    for (std::size_t j = 0; j < u.size(); ++j) point[j] = origin[j] + t * u[j];
    ++probes;
    return phi.allWithinBounds(point);
  };
  double lo = 0.0;
  double hi = 0.0;
  double t = std::ldexp(opts.horizon, -40);
  for (;;) {
    if (!safeAt(t)) {
      hi = t;
      break;
    }
    lo = t;
    if (t >= opts.horizon) {
      return {std::numeric_limits<double>::infinity(), probes};
    }
    t = std::min(2.0 * t, opts.horizon);
  }
  for (std::size_t it = 0; it < opts.bisectIterations; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (mid <= lo || mid >= hi) break;
    if (safeAt(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return {0.5 * (lo + hi), probes};
}

}  // namespace

TEST(ValidateDeterminism, LockstepMarchMatchesPerRayReference) {
  // Every distance must equal the scalar reference bit for bit, and an
  // opaque block predicate must see, in each round of each chunk, the
  // ascending ids of exactly the rays the reference still has live.
  const feature::FeatureSet phi = makeFeatureSet();
  const la::Vector orig{0.5, 0.5, 0.5};
  for (const std::size_t bisect : {0u, 3u, 60u}) {
    for (const bool nonnegative : {false, true}) {
      // At horizon 4 some rays stay safe to the end: the nearest
      // boundary is ~3.4 away, the farthest beyond 4.
      for (const double horizon : {32.0, 4.0}) {
        SCOPED_TRACE("bisect=" + std::to_string(bisect) +
                     (nonnegative ? " nonnegative" : " sphere") +
                     " horizon=" + std::to_string(horizon));
        validate::EstimatorOptions opts;
        opts.directions = 100;  // chunks of 32, 32, 32 and 4
        opts.chunkSize = 32;
        opts.seed = 0x10C4ull;
        opts.horizon = horizon;
        opts.bisectIterations = bisect;
        opts.nonnegativeDirections = nonnegative;
        opts.polishSweeps = 0;

        std::vector<ReferenceRay> ref;
        const rng::Xoshiro256StarStar base(opts.seed);
        for (std::size_t first = 0; first < opts.directions;
             first += opts.chunkSize) {
          rng::Xoshiro256StarStar g =
              base.substream(static_cast<unsigned>(first / opts.chunkSize));
          const std::size_t last =
              std::min(first + opts.chunkSize, opts.directions);
          for (std::size_t i = first; i < last; ++i) {
            const std::vector<double> u =
                nonnegative ? rng::unitSphereNonnegative(g, orig.size())
                            : rng::unitSphere(g, orig.size());
            ref.push_back(referenceRay(phi, orig, u, opts));
          }
        }

        std::vector<std::vector<std::size_t>> rounds;
        const validate::BlockSafePredicate recorder =
            [&phi, &rounds](const la::PointBlock& block,
                            std::span<const std::size_t> directions,
                            std::span<std::uint8_t> safeOut) {
              rounds.emplace_back(directions.begin(), directions.end());
              la::Vector point(block.dimension());
              for (std::size_t l = 0; l < block.lanes(); ++l) {
                block.gatherPoint(l, point.span());
                safeOut[l] = phi.allWithinBounds(point) ? 1 : 0;
              }
            };
        const auto est =
            validate::estimateEmpiricalRadius(recorder, orig, opts);

        std::size_t probes = 0;
        std::size_t censored = 0;
        ASSERT_EQ(est.distances.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
          EXPECT_TRUE(sameBits(est.distances[i], ref[i].distance))
              << "direction " << i;
          probes += ref[i].probes;
          if (!std::isfinite(ref[i].distance)) ++censored;
        }
        EXPECT_EQ(est.classifications, probes);
        if (horizon < 32.0) {
          EXPECT_GT(censored, 0u);
          EXPECT_LT(censored, ref.size());
        }

        // The origin check comes first, then each chunk's rounds in
        // chunk order (no pool, so chunks run one after another).
        std::vector<std::vector<std::size_t>> expected{{0}};
        for (std::size_t first = 0; first < opts.directions;
             first += opts.chunkSize) {
          const std::size_t last =
              std::min(first + opts.chunkSize, opts.directions);
          for (std::size_t round = 0;; ++round) {
            std::vector<std::size_t> live;
            for (std::size_t i = first; i < last; ++i) {
              if (ref[i].probes > round) live.push_back(i);
            }
            if (live.empty()) break;
            expected.push_back(std::move(live));
          }
        }
        EXPECT_EQ(rounds, expected);
      }
    }
  }
}
