// Determinism contract of the fault subsystem: a fault-injected DES run
// and the degraded-mode radius built on it are bit-identical for a fixed
// seed at any thread count, and an empty fault plan reproduces the plain
// empirical (validate --des) estimate exactly — same code path, same
// bits.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "fault/degraded.hpp"
#include "fault/plan.hpp"
#include "hiperd/factory.hpp"
#include "parallel/thread_pool.hpp"
#include "validate/empirical.hpp"

namespace fault = fepia::fault;
namespace des = fepia::des;
namespace hiperd = fepia::hiperd;
namespace validate = fepia::validate;
namespace parallel = fepia::parallel;

namespace {

/// Bitwise double equality — EXPECT_EQ tolerates -0.0 vs 0.0; the
/// determinism contract is stronger.
bool sameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expectIdentical(const validate::EmpiricalEstimate& a,
                     const validate::EmpiricalEstimate& b) {
  EXPECT_TRUE(sameBits(a.radius, b.radius));
  EXPECT_TRUE(sameBits(a.ci.lo, b.ci.lo));
  EXPECT_TRUE(sameBits(a.ci.hi, b.ci.hi));
  EXPECT_EQ(a.criticalDirection, b.criticalDirection);
  EXPECT_EQ(a.boundaryHits, b.boundaryHits);
  EXPECT_EQ(a.classifications, b.classifications);
  ASSERT_EQ(a.distances.size(), b.distances.size());
  if (!a.distances.empty()) {
    EXPECT_EQ(std::memcmp(a.distances.data(), b.distances.data(),
                          a.distances.size() * sizeof(double)),
              0);
  }
}

void expectIdentical(const des::FaultCounters& a, const des::FaultCounters& b) {
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.lostMessages, b.lostMessages);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.droppedMessages, b.droppedMessages);
  EXPECT_EQ(a.unrecoveredJobs, b.unrecoveredJobs);
  EXPECT_TRUE(sameBits(a.downtimeSeconds, b.downtimeSeconds));
  EXPECT_TRUE(sameBits(a.backoffWaitSeconds, b.backoffWaitSeconds));
}

void expectIdentical(const fault::DegradedEstimate& a,
                     const fault::DegradedEstimate& b) {
  EXPECT_TRUE(sameBits(a.analyticRho, b.analyticRho));
  EXPECT_EQ(a.criticalFeature, b.criticalFeature);
  EXPECT_EQ(a.nominalSatisfies, b.nominalSatisfies);
  EXPECT_TRUE(sameBits(a.nominal.maxObservedLatency, b.nominal.maxObservedLatency));
  EXPECT_EQ(a.nominal.incompleteObservations, b.nominal.incompleteObservations);
  expectIdentical(a.nominal.faults, b.nominal.faults);
  expectIdentical(a.degraded, b.degraded);
}

/// A mild but non-trivial scenario: an early crash with a backup plus
/// light message loss — every degradation mechanism fires, and the
/// pipeline still satisfies QoS at the operating point.
fault::FaultPlan mildPlan(const hiperd::ReferenceSystem& ref) {
  fault::FaultPlan plan;
  plan.crashes.push_back({1, 0.5, 0});
  plan.losses.push_back({ref.system.message(0).link, 0.05});
  plan.policy.detectionTimeoutSeconds = 0.01;
  return plan;
}

/// Small sample so each of the ~1e3 DES classifications stays cheap.
validate::EstimatorOptions smallEstimator() {
  validate::EstimatorOptions opts;
  opts.directions = 16;
  opts.seed = 0xFA117E57ull;
  return opts;
}

fault::DegradedOptions smallDegraded() {
  fault::DegradedOptions dopts;
  dopts.generations = 60;
  dopts.explicitDirections = true;  // keep directions = 16
  return dopts;
}

}  // namespace

TEST(FaultDeterminism, DegradedRadiusIsThreadCountInvariant) {
  const auto ref = hiperd::makeReferenceSystem();
  const std::vector<fault::FaultPlan> scenarios{mildPlan(ref)};
  const auto opts = smallEstimator();
  auto dopts = smallDegraded();

  fault::LiveFaultStats serialLive;
  dopts.live = &serialLive;
  const fault::DegradedEstimate serial =
      fault::estimateDegradedRadius(ref, scenarios, opts, dopts);
  ASSERT_TRUE(serial.nominalSatisfies);
  EXPECT_TRUE(serial.nominal.faults.any());
  EXPECT_GT(serial.degraded.radius, 0.0);
  EXPECT_GT(serial.analyticRho, 0.0);

  // Rerunning serially is trivially identical; any thread count must be
  // identical too, bit for bit. The live counter sees every DES run, so
  // it must equal the serial count as well: a pool runs no extra rays.
  dopts.live = nullptr;
  const fault::DegradedEstimate again =
      fault::estimateDegradedRadius(ref, scenarios, opts, dopts);
  expectIdentical(serial, again);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    fault::LiveFaultStats live;
    dopts.live = &live;
    parallel::ThreadPool pool(threads);
    const fault::DegradedEstimate est =
        fault::estimateDegradedRadius(ref, scenarios, opts, dopts, &pool);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expectIdentical(serial, est);
    EXPECT_EQ(live.classifications.load(), serialLive.classifications.load());
  }
}

TEST(FaultDeterminism, EmptyPlanEqualsNoScenariosExactly) {
  // Property from the issue: an empty FaultPlan must yield the same
  // degraded radius as no fault injection at all — not approximately,
  // exactly. Scenario multiplicity must not matter either (every probe
  // direction maps to the same inert scenario).
  const auto ref = hiperd::makeReferenceSystem();
  const auto opts = smallEstimator();
  const auto dopts = smallDegraded();

  const fault::DegradedEstimate none =
      fault::estimateDegradedRadius(ref, {}, opts, dopts);
  ASSERT_TRUE(none.nominalSatisfies);
  EXPECT_FALSE(none.nominal.faults.any());

  const fault::DegradedEstimate one = fault::estimateDegradedRadius(
      ref, {fault::FaultPlan{}}, opts, dopts);
  const fault::DegradedEstimate two = fault::estimateDegradedRadius(
      ref, {fault::FaultPlan{}, fault::FaultPlan{}}, opts, dopts);
  expectIdentical(none, one);
  expectIdentical(none, two);
}

TEST(FaultDeterminism, ActiveFaultsOnlyShrinkTheRadius) {
  // The degraded safe region is a subset of the fault-free one for
  // degradations that only add latency, so the degraded radius cannot
  // exceed the fault-free empirical radius on the same sample.
  const auto ref = hiperd::makeReferenceSystem();
  const auto opts = smallEstimator();
  const auto dopts = smallDegraded();

  const fault::DegradedEstimate plain =
      fault::estimateDegradedRadius(ref, {}, opts, dopts);
  const fault::DegradedEstimate degraded =
      fault::estimateDegradedRadius(ref, {mildPlan(ref)}, opts, dopts);
  ASSERT_TRUE(plain.nominalSatisfies);
  ASSERT_TRUE(degraded.nominalSatisfies);
  EXPECT_LE(degraded.degraded.radius, plain.degraded.radius);
  // Identical fault-free analysis on both sides.
  EXPECT_TRUE(sameBits(plain.analyticRho, degraded.analyticRho));
  EXPECT_EQ(plain.criticalFeature, degraded.criticalFeature);
}

TEST(FaultDeterminism, ScenarioBreakingQosAtOriginReportsZeroRadius) {
  // A crash without a backup loses generations at the operating point
  // itself: the degraded region is empty and the radius must be 0 (with
  // its CI), not a domain_error out of the estimator.
  const auto ref = hiperd::makeReferenceSystem();
  fault::FaultPlan fatal;
  fatal.crashes.push_back({1, 0.5, std::nullopt});
  const fault::DegradedEstimate est = fault::estimateDegradedRadius(
      ref, {fatal}, smallEstimator(), smallDegraded());
  EXPECT_FALSE(est.nominalSatisfies);
  EXPECT_GT(est.nominal.faults.unrecoveredJobs, 0u);
  EXPECT_TRUE(sameBits(est.degraded.radius, 0.0));
  EXPECT_TRUE(sameBits(est.degraded.ci.lo, 0.0));
  EXPECT_TRUE(sameBits(est.degraded.ci.hi, 0.0));
  EXPECT_GT(est.analyticRho, 0.0);  // the fault-free analysis is intact
}