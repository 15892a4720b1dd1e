// Property suite for the batched classification path of the empirical
// estimator: every kernel mode (Scalar / Batched), every
// overload (FeatureSet, SafePredicate, BlockSafePredicate), and every
// thread count must produce bit-identical estimates on seed-
// deterministic random instances — the estimator's determinism contract
// extended to the SoA engine. Chunk size is part of the sample identity
// (direction -> substream map) and is exercised explicitly.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "classify/block_classifier.hpp"
#include "la/vector.hpp"
#include "parallel/thread_pool.hpp"
#include "radius/fepia.hpp"
#include "support/instance_gen.hpp"
#include "validate/empirical.hpp"

namespace classify = fepia::classify;
namespace la = fepia::la;
namespace parallel = fepia::parallel;
namespace validate = fepia::validate;
namespace ft = fepia::testing;

namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

la::Vector originOf(const fepia::radius::FepiaProblem& problem) {
  la::Vector origin;
  for (std::size_t k = 0; k < problem.space().kindCount(); ++k) {
    for (const double x : problem.space().kind(k).original()) {
      origin.push_back(x);
    }
  }
  return origin;
}

validate::EstimatorOptions baseOptions(std::uint64_t seed,
                                       std::size_t chunkSize) {
  validate::EstimatorOptions opts;
  opts.directions = 96;
  opts.chunkSize = chunkSize;
  opts.seed = 0x5EEDull ^ seed;
  opts.polishSweeps = 6;
  return opts;
}

/// Full bitwise comparison of two estimates — any classification
/// verdict flipping anywhere would perturb a march or bisection and
/// show up in distances, counts, or the critical direction.
void expectBitIdentical(const validate::EmpiricalEstimate& a,
                        const validate::EmpiricalEstimate& b,
                        const std::string& what) {
  EXPECT_EQ(bits(a.radius), bits(b.radius)) << what;
  EXPECT_EQ(bits(a.ci.lo), bits(b.ci.lo)) << what;
  EXPECT_EQ(bits(a.ci.hi), bits(b.ci.hi)) << what;
  EXPECT_EQ(a.criticalDirection, b.criticalDirection) << what;
  EXPECT_EQ(a.boundaryHits, b.boundaryHits) << what;
  EXPECT_EQ(a.classifications, b.classifications) << what;
  EXPECT_EQ(a.speculativeProbes, b.speculativeProbes) << what;
  ASSERT_EQ(a.distances.size(), b.distances.size()) << what;
  for (std::size_t i = 0; i < a.distances.size(); ++i) {
    EXPECT_EQ(bits(a.distances[i]), bits(b.distances[i]))
        << what << " direction " << i;
  }
}

}  // namespace

TEST(BatchedClassify, AllModesMatchScalarPredicateAcrossThreadsAndChunks) {
  for (const std::uint64_t seed : {1ull, 2ull}) {
    for (const std::size_t dim : {std::size_t{3}, std::size_t{5}}) {
      const fepia::radius::FepiaProblem problem =
          ft::makeLinearInstance(seed, dim);
      const fepia::feature::FeatureSet& phi = problem.features();
      const la::Vector origin = originOf(problem);
      for (const std::size_t chunkSize :
           {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
        validate::EstimatorOptions opts = baseOptions(seed, chunkSize);
        // Reference: the plain scalar predicate, serial.
        const validate::EmpiricalEstimate ref = validate::estimateEmpiricalRadius(
            validate::SafePredicate(
                [&phi](const la::Vector& pi) { return phi.allWithinBounds(pi); }),
            origin, opts);
        ASSERT_GT(ref.classifications, 0u);

        for (const classify::Mode mode :
             {classify::Mode::Scalar, classify::Mode::Batched}) {
          opts.classifyMode = mode;
          const std::string tag = "seed=" + std::to_string(seed) +
                                  " dim=" + std::to_string(dim) +
                                  " chunk=" + std::to_string(chunkSize) +
                                  " mode=" + std::to_string(static_cast<int>(mode));
          const validate::EmpiricalEstimate serial =
              validate::estimateEmpiricalRadius(phi, origin, opts);
          expectBitIdentical(serial, ref, tag + " serial");
          // One lane per counted classification, plus the polish ladder
          // rungs classified past a candidate's first unsafe rung, plus
          // the uncounted origin check. Batching reshapes the calls; the
          // only extra work is the speculative rungs.
          EXPECT_EQ(serial.classifyStats.lanes,
                    serial.classifications + serial.speculativeProbes + 1)
              << tag;
          for (const std::size_t threads :
               {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
            parallel::ThreadPool pool(threads);
            const validate::EmpiricalEstimate est =
                validate::estimateEmpiricalRadius(phi, origin, opts, &pool);
            expectBitIdentical(est, ref,
                               tag + " threads=" + std::to_string(threads));
          }
        }
      }
    }
  }
}

TEST(BatchedClassify, ChunkSizeIsPartOfTheSampleIdentity) {
  // The documented contract: results depend on chunkSize only through
  // the direction -> substream map — so two chunk sizes are two
  // different (both valid) samples, and batching must not blur that.
  const fepia::radius::FepiaProblem problem = ft::makeLinearInstance(3, 4);
  const la::Vector origin = originOf(problem);
  const validate::EmpiricalEstimate a = validate::estimateEmpiricalRadius(
      problem.features(), origin, baseOptions(3, 16));
  const validate::EmpiricalEstimate b = validate::estimateEmpiricalRadius(
      problem.features(), origin, baseOptions(3, 32));
  bool anyDiffer = false;
  for (std::size_t i = 0; i < a.distances.size(); ++i) {
    anyDiffer = anyDiffer || bits(a.distances[i]) != bits(b.distances[i]);
  }
  EXPECT_TRUE(anyDiffer)
      << "different substream maps should draw different directions";
}

TEST(BatchedClassify, BlockPredicateOverloadMatchesScalarOverload) {
  // Caller-supplied SoA predicate (unit ball membership) against the
  // same region expressed as a scalar predicate.
  const la::Vector origin{0.0, 0.0, 0.0};
  validate::EstimatorOptions opts = baseOptions(7, 8);
  const validate::EmpiricalEstimate scalar = validate::estimateEmpiricalRadius(
      validate::SafePredicate([](const la::Vector& pi) {
        double n2 = 0.0;
        for (const double x : pi) n2 += x * x;
        return n2 < 1.0;
      }),
      origin, opts);
  const validate::EmpiricalEstimate block = validate::estimateEmpiricalRadius(
      validate::BlockSafePredicate(
          [](const fepia::la::PointBlock& b, std::span<const std::size_t>,
             std::span<std::uint8_t> safeOut) {
            for (std::size_t l = 0; l < b.lanes(); ++l) safeOut[l] = 1;
            std::vector<double> n2(b.lanes(), 0.0);
            for (std::size_t j = 0; j < b.dimension(); ++j) {
              const std::span<const double> row = b.coordinate(j);
              for (std::size_t l = 0; l < b.lanes(); ++l) {
                n2[l] += row[l] * row[l];
              }
            }
            for (std::size_t l = 0; l < b.lanes(); ++l) {
              safeOut[l] = n2[l] < 1.0 ? 1 : 0;
            }
          }),
      origin, opts);
  expectBitIdentical(block, scalar, "unit-ball block predicate");
  // The unit ball's radius is exactly 1 along every direction.
  EXPECT_NEAR(block.radius, 1.0, 1e-9);
}

TEST(BatchedClassify, FaultPathStaysBitIdenticalThroughTheLockstepEngine) {
  // The degraded estimator routes through the same lockstep engine via
  // the IndexedSafePredicate overload; direction-keyed predicates must
  // see exactly the per-ray probe sequence the scalar engine produced.
  const la::Vector origin{0.0, 0.0};
  validate::EstimatorOptions opts = baseOptions(11, 8);
  const validate::IndexedSafePredicate indexed =
      [](const la::Vector& pi, std::size_t direction) {
        // Direction-dependent safe region: alternating half-width.
        const double limit = direction % 2 == 0 ? 1.0 : 0.5;
        double n2 = 0.0;
        for (const double x : pi) n2 += x * x;
        return n2 < limit * limit;
      };
  const validate::EmpiricalEstimate serial =
      validate::estimateEmpiricalRadius(indexed, origin, opts);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    parallel::ThreadPool pool(threads);
    const validate::EmpiricalEstimate est =
        validate::estimateEmpiricalRadius(indexed, origin, opts, &pool);
    expectBitIdentical(est, serial,
                       "indexed threads=" + std::to_string(threads));
  }
  EXPECT_NEAR(serial.radius, 0.5, 1e-9);
}
