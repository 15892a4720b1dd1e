#include "alloc/failure.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "alloc/heuristics.hpp"
#include "alloc/robustness.hpp"
#include "etc/etc.hpp"

namespace alloc = fepia::alloc;
namespace etcns = fepia::etc;
namespace rng = fepia::rng;
namespace la = fepia::la;

namespace {

// 4 tasks x 3 machines with uniform unit costs for easy hand-checking.
la::Matrix uniformEtc() { return la::Matrix(4, 3, 1.0); }

}  // namespace

TEST(AllocFailure, RecoveryMovesOnlyOrphans) {
  const la::Matrix e = uniformEtc();
  const alloc::Allocation mu({0, 0, 1, 2}, 3);
  const alloc::Allocation rec = alloc::recoverFromFailure(mu, e, 0);
  // Tasks 2 and 3 keep their machines; tasks 0 and 1 leave machine 0.
  EXPECT_EQ(rec.machineOf(2), 1u);
  EXPECT_EQ(rec.machineOf(3), 2u);
  EXPECT_NE(rec.machineOf(0), 0u);
  EXPECT_NE(rec.machineOf(1), 0u);
  // Greedy MCT balances the two orphans over the two survivors.
  EXPECT_NE(rec.machineOf(0), rec.machineOf(1));
  EXPECT_DOUBLE_EQ(alloc::makespan(rec, e), 2.0);
}

TEST(AllocFailure, RecoveryValidation) {
  const la::Matrix e = uniformEtc();
  const alloc::Allocation mu({0, 0, 1, 2}, 3);
  EXPECT_THROW((void)alloc::recoverFromFailure(mu, e, 5), std::invalid_argument);
  const alloc::Allocation single({0, 0, 0, 0}, 1);
  EXPECT_THROW((void)alloc::recoverFromFailure(single, la::Matrix(4, 1, 1.0), 0),
               std::invalid_argument);
  EXPECT_THROW((void)alloc::recoverFromFailure(mu, la::Matrix(2, 3, 1.0), 0),
               std::invalid_argument);
}

TEST(AllocFailure, ImpactsClassifyRecoverability) {
  const la::Matrix e = uniformEtc();
  const alloc::Allocation mu({0, 0, 1, 2}, 3);
  // tau = 2.5: losing machine 0 gives makespan 2 (recoverable); losing
  // machine 1 or 2 moves one task, makespan 2 — all recoverable.
  const auto impacts = alloc::machineFailureImpacts(mu, e, 2.5);
  ASSERT_EQ(impacts.size(), 3u);
  for (const auto& im : impacts) {
    EXPECT_TRUE(im.recoverable) << "machine " << im.failedMachine;
    EXPECT_GT(im.rhoAfter, 0.0);
    EXPECT_LE(im.makespanAfter, 2.0);
  }
  EXPECT_TRUE(alloc::survivesAnySingleFailure(mu, e, 2.5));

  // tau = 1.5: any failure forces makespan 2 > tau — nothing survives.
  const auto tight = alloc::machineFailureImpacts(mu, e, 1.5);
  for (const auto& im : tight) {
    EXPECT_FALSE(im.recoverable);
    EXPECT_DOUBLE_EQ(im.rhoAfter, 0.0);
  }
  EXPECT_FALSE(alloc::survivesAnySingleFailure(mu, e, 1.5));
}

TEST(AllocFailure, HeterogeneousWorkloadRanking) {
  rng::Xoshiro256StarStar g(61);
  const la::Matrix e = etcns::generateCvb(30, 5, etcns::CvbParams{}, g);
  const alloc::Allocation mu = alloc::minMin(e);
  const double tau = 2.0 * alloc::makespan(mu, e);
  const auto impacts = alloc::machineFailureImpacts(mu, e, tau);
  ASSERT_EQ(impacts.size(), 5u);
  for (const auto& im : impacts) {
    // Losing a machine can only raise (or keep) the makespan.
    EXPECT_GE(im.makespanAfter, alloc::makespan(mu, e) - 1e-9);
    if (im.recoverable) {
      // rho of the recovered allocation is consistent with the closed
      // form on that allocation.
      EXPECT_NEAR(im.rhoAfter,
                  alloc::makespanRobustnessClosedForm(im.recovered, e, tau),
                  1e-12);
    }
  }
}

TEST(AllocFailure, MultiFailureRemapsAllStrandedTasks) {
  const la::Matrix e = uniformEtc();
  const alloc::Allocation mu({0, 0, 1, 2}, 3);
  const alloc::Allocation rec = alloc::recoverFromFailures(mu, e, {0, 1});
  // Only machine 2 survives: everything ends up there.
  for (std::size_t t = 0; t < mu.taskCount(); ++t) {
    EXPECT_EQ(rec.machineOf(t), 2u);
  }
  EXPECT_DOUBLE_EQ(alloc::makespan(rec, e), 4.0);
  // Duplicates in the failure set are ignored.
  const alloc::Allocation dup = alloc::recoverFromFailures(mu, e, {0, 0, 1, 1});
  EXPECT_EQ(dup.assignment(), rec.assignment());
}

TEST(AllocFailure, MultiFailureSingletonMatchesSingleFailure) {
  rng::Xoshiro256StarStar g(17);
  const la::Matrix e = etcns::generateCvb(24, 4, etcns::CvbParams{}, g);
  const alloc::Allocation mu = alloc::minMin(e);
  for (std::size_t m = 0; m < 4; ++m) {
    EXPECT_EQ(alloc::recoverFromFailures(mu, e, {m}).assignment(),
              alloc::recoverFromFailure(mu, e, m).assignment());
  }
}

TEST(AllocFailure, MultiFailureValidation) {
  const la::Matrix e = uniformEtc();
  const alloc::Allocation mu({0, 0, 1, 2}, 3);
  EXPECT_THROW((void)alloc::recoverFromFailures(mu, e, {}),
               std::invalid_argument);
  EXPECT_THROW((void)alloc::recoverFromFailures(mu, e, {7}),
               std::invalid_argument);
  // All machines failing leaves nothing to fail over to.
  EXPECT_THROW((void)alloc::recoverFromFailures(mu, e, {0, 1, 2}),
               std::invalid_argument);
}

TEST(AllocFailure, EmptyMachineFailureIsFree) {
  // A machine with no tasks can fail without moving anything.
  const la::Matrix e = uniformEtc();
  const alloc::Allocation mu({0, 0, 1, 1}, 3);  // machine 2 idle
  const alloc::Allocation rec = alloc::recoverFromFailure(mu, e, 2);
  EXPECT_EQ(rec.assignment(), mu.assignment());
}
