// Cross-backend differential harness: every capable radius backend must
// agree with every other on the same instance, where "agree" means the
// declared accuracy envelopes overlap (the uncertainty-interval
// differential-testing criterion — two answers with error bars are
// consistent iff the bars intersect). Instances are seed-deterministic
// random problems from tests/support/instance_gen.hpp spanning the
// repo's three workload families, dimensionality 1-24 and three orders
// of magnitude of per-kind conditioning; a failure replays from the
// gtest parameter name alone.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "radius/registry/scheduler.hpp"
#include "support/instance_gen.hpp"
#include "support/tolerances.hpp"

namespace rb = fepia::radius::backend;
namespace radius = fepia::radius;
namespace ft = fepia::testing;

namespace {

struct Solved {
  std::string backend;
  rb::RadiusOutcome out;
};

/// Runs every capable backend of the global registry on `rp`, forced by
/// override so the scheduler's filters cannot silently drop one.
std::vector<Solved> solveWithAllCapable(const rb::RadiusProblem& rp,
                                        std::size_t directions) {
  std::vector<Solved> solved;
  for (const rb::Backend* b : rb::BackendRegistry::instance().all()) {
    if (!b->capable(rp)) continue;
    rb::RadiusRequest req;
    req.backendOverride = b->name();
    req.estimator.directions = directions;
    req.estimator.chunkSize = 64;
    solved.push_back({b->name(), rb::solveRadius(rp, req)});
  }
  return solved;
}

/// Every pair of answers must have overlapping envelopes, and every
/// answer must be finite with a well-formed envelope containing rho.
void expectPairwiseAgreement(const std::vector<Solved>& solved,
                             const std::string& tag) {
  for (const Solved& s : solved) {
    EXPECT_TRUE(s.out.finite()) << tag << ": " << s.backend << " rho infinite";
    EXPECT_FALSE(std::isnan(s.out.rho)) << tag << ": " << s.backend;
    EXPECT_TRUE(s.out.envelope.contains(s.out.rho))
        << tag << ": " << s.backend << " envelope [" << s.out.envelope.lo
        << ", " << s.out.envelope.hi << "] excludes its own rho "
        << s.out.rho;
    EXPECT_EQ(s.out.backendName, s.backend) << tag;
    EXPECT_GT(s.out.declaredAccuracy, 0.0) << tag << ": " << s.backend;
  }
  for (std::size_t i = 0; i < solved.size(); ++i) {
    for (std::size_t j = i + 1; j < solved.size(); ++j) {
      const Solved& a = solved[i];
      const Solved& b = solved[j];
      EXPECT_TRUE(a.out.envelope.overlaps(b.out.envelope))
          << tag << ": " << a.backend << " rho=" << a.out.rho << " ["
          << a.out.envelope.lo << ", " << a.out.envelope.hi << "] vs "
          << b.backend << " rho=" << b.out.rho << " [" << b.out.envelope.lo
          << ", " << b.out.envelope.hi << "]";
    }
  }
}

}  // namespace

// 8 seeds x 5 dims x 2 conditionings x 2 schemes = 160 linear instances.
class LinearBackendAgreement
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, std::size_t, double, radius::MergeScheme>> {
};

TEST_P(LinearBackendAgreement, CapableBackendsOverlap) {
  const auto [seed, dim, conditioning, scheme] = GetParam();
  const radius::FepiaProblem problem =
      ft::makeLinearInstance(seed, dim, conditioning);
  rb::RadiusProblem rp;
  rp.problem = &problem;
  rp.scheme = scheme;

  const std::vector<Solved> solved = solveWithAllCapable(rp, 256);
  // Linear features: the analytic, numeric and empirical kernels are
  // all capable; the degraded kernel is not (no DES system).
  ASSERT_EQ(solved.size(), 3u);
  const std::string tag = "seed=" + std::to_string(seed) +
                          " dim=" + std::to_string(dim) +
                          " cond=" + std::to_string(conditioning);
  expectPairwiseAgreement(solved, tag);

  // The analytic kernel must reproduce the facade's answer exactly — it
  // is the same closed-form path, routed.
  for (const Solved& s : solved) {
    if (s.backend == "analytic") {
      EXPECT_EQ(s.out.rho, problem.rho(scheme)) << tag;
      EXPECT_TRUE(s.out.exact) << tag;
    }
  }

  // Paper invariant (Section 3.1 generalised): under the sensitivity
  // scheme every linear feature's P-space radius is 1/sqrt(|Pi|), so rho
  // depends only on the kind count — a strong cross-check that survives
  // arbitrary conditioning.
  if (scheme == radius::MergeScheme::Sensitivity) {
    const double expected =
        1.0 / std::sqrt(static_cast<double>(problem.space().kindCount()));
    for (const Solved& s : solved) {
      if (s.backend == "analytic") {
        EXPECT_NEAR(s.out.rho, expected, ft::kClosedFormAgreementTol) << tag;
      }
    }
  }

  // Scheduler spot-check: with no override the cost model must pick the
  // analytic kernel (cheapest capable meeting the default accuracy) and
  // return a bit-identical answer.
  rb::RadiusRequest req;
  const rb::RadiusOutcome scheduled = rb::solveRadius(rp, req);
  EXPECT_EQ(scheduled.backendName, "analytic") << tag;
  EXPECT_EQ(scheduled.rho, problem.rho(scheme)) << tag;
}

INSTANTIATE_TEST_SUITE_P(
    SeedsDimsConditioning, LinearBackendAgreement,
    ::testing::Combine(
        ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull, 6ull, 7ull, 8ull),
        ::testing::Values(std::size_t{1}, std::size_t{2}, std::size_t{3},
                          std::size_t{4}, std::size_t{8}),
        ::testing::Values(1.0, 1.0e3),
        ::testing::Values(radius::MergeScheme::NormalizedByOriginal,
                          radius::MergeScheme::Sensitivity)),
    [](const auto& paramInfo) {
      return "seed" + std::to_string(std::get<0>(paramInfo.param)) + "_dim" +
             std::to_string(std::get<1>(paramInfo.param)) + "_cond" +
             std::to_string(static_cast<int>(std::get<2>(paramInfo.param))) +
             (std::get<3>(paramInfo.param) == radius::MergeScheme::Sensitivity
                  ? "_sens"
                  : "_norm");
    });

// 40 makespan case-study instances (dimensionality 8-19: one dimension
// per task), all three analytic-side backends on the merged problem.
TEST(AllocBackendAgreement, FortySeedsOverlap) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const std::size_t tasks = 8 + static_cast<std::size_t>(seed % 12);
    const std::size_t machines = 2 + static_cast<std::size_t>(seed % 3);
    const ft::AllocInstance inst = ft::makeAllocInstance(seed, tasks, machines);
    rb::RadiusProblem rp;
    rp.problem = &inst.problem;
    rp.scheme = radius::MergeScheme::NormalizedByOriginal;

    const std::vector<Solved> solved = solveWithAllCapable(rp, 512);
    ASSERT_EQ(solved.size(), 3u);
    expectPairwiseAgreement(solved, "alloc seed=" + std::to_string(seed));
  }
}

// 8 random HiPer-D pipelines: the mixed execution-times x message-sizes
// problem with heterogeneous units and magnitudes (seconds vs ~1e4
// bytes), the configuration the paper's merge schemes were built for.
TEST(HiperdBackendAgreement, EightSeedsOverlap) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const radius::FepiaProblem problem = ft::makeHiperdProblem(seed);
    rb::RadiusProblem rp;
    rp.problem = &problem;
    rp.scheme = radius::MergeScheme::NormalizedByOriginal;

    const std::vector<Solved> solved = solveWithAllCapable(rp, 512);
    ASSERT_EQ(solved.size(), 3u);
    expectPairwiseAgreement(solved, "hiperd seed=" + std::to_string(seed));
  }
}
