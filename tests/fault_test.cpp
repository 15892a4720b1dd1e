// Fault-plan model and fault-injected pipeline semantics: plan
// validation, the hooks of the compiled des::FaultModel, crash ->
// failover, slowdown windows, message loss -> retry/drop, and the
// degradation counters.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "des/pipeline.hpp"
#include "fault/plan.hpp"
#include "hiperd/factory.hpp"

namespace des = fepia::des;
namespace fault = fepia::fault;
namespace hiperd = fepia::hiperd;
namespace la = fepia::la;

namespace {

hiperd::ReferenceSystem ref() { return hiperd::makeReferenceSystem(); }

des::PipelineResult simulate(const hiperd::ReferenceSystem& r,
                             const des::FaultModel* injector,
                             std::size_t gens = 200) {
  des::PipelineOptions opts;
  opts.generations = gens;
  opts.faults = injector;
  return des::simulateAtLoads(r.system, r.system.originalLoads(),
                              r.qos.minThroughput, opts);
}

}  // namespace

TEST(FaultPlan, EmptyPlanReportsEmpty) {
  fault::FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  plan.losses.push_back({0, 0.0});
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, ValidationRejectsBadEntries) {
  const auto r = ref();
  fault::FaultPlan plan;
  plan.crashes.push_back({99, 1.0, std::nullopt});
  EXPECT_THROW(plan.validateAgainst(r.system), std::invalid_argument);
  plan.crashes = {{0, -1.0, std::nullopt}};
  EXPECT_THROW(plan.validateAgainst(r.system), std::invalid_argument);
  plan.crashes = {{0, 1.0, 0}};  // backup == crashed machine
  EXPECT_THROW(plan.validateAgainst(r.system), std::invalid_argument);
  plan.crashes.clear();
  plan.slowdowns.push_back({fault::Slowdown::Target::Link, 99, 0.0, 1.0, 2.0});
  EXPECT_THROW(plan.validateAgainst(r.system), std::invalid_argument);
  plan.slowdowns = {{fault::Slowdown::Target::Machine, 0, 2.0, 1.0, 2.0}};
  EXPECT_THROW(plan.validateAgainst(r.system), std::invalid_argument);
  plan.slowdowns = {{fault::Slowdown::Target::Machine, 0, 0.0, 1.0, -2.0}};
  EXPECT_THROW(plan.validateAgainst(r.system), std::invalid_argument);
  plan.slowdowns.clear();
  plan.losses.push_back({0, 1.5});
  EXPECT_THROW(plan.validateAgainst(r.system), std::invalid_argument);
  plan.losses.clear();
  plan.policy.backoffFactor = 0.5;
  EXPECT_THROW(plan.validateAgainst(r.system), std::invalid_argument);
}

TEST(FaultPlanInjector, HooksReflectThePlan) {
  const auto r = ref();
  fault::FaultPlan plan;
  plan.crashes.push_back({1, 7.5, 2});
  plan.slowdowns.push_back({fault::Slowdown::Target::Machine, 0, 2.0, 4.0, 3.0});
  plan.slowdowns.push_back({fault::Slowdown::Target::Machine, 0, 3.0, 5.0, 2.0});
  plan.losses.push_back({0, 0.25});
  plan.policy.detectionTimeoutSeconds = 0.125;
  const fault::PlanInjector inj(plan, r.system);

  EXPECT_DOUBLE_EQ(inj.crashTime(1), 7.5);
  EXPECT_TRUE(std::isinf(inj.crashTime(0)));
  ASSERT_TRUE(inj.backupFor(1).has_value());
  EXPECT_EQ(*inj.backupFor(1), 2u);
  EXPECT_FALSE(inj.backupFor(0).has_value());
  EXPECT_DOUBLE_EQ(inj.detectionTimeout(), 0.125);

  // Windows apply to job start times, half-open, compounding on overlap.
  EXPECT_DOUBLE_EQ(inj.computeFactor(0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(inj.computeFactor(0, 2.0), 3.0);
  EXPECT_DOUBLE_EQ(inj.computeFactor(0, 3.5), 6.0);  // overlap: 3 * 2
  EXPECT_DOUBLE_EQ(inj.computeFactor(0, 4.5), 2.0);
  EXPECT_DOUBLE_EQ(inj.computeFactor(0, 5.0), 1.0);  // end exclusive
  EXPECT_DOUBLE_EQ(inj.computeFactor(1, 3.0), 1.0);  // other machine
}

TEST(FaultPlanInjector, EarliestCrashOfAMachineWins) {
  const auto r = ref();
  fault::FaultPlan plan;
  plan.crashes.push_back({1, 9.0, 2});
  plan.crashes.push_back({1, 3.0, 3});
  const fault::PlanInjector inj(plan, r.system);
  EXPECT_DOUBLE_EQ(inj.crashTime(1), 3.0);
  EXPECT_EQ(*inj.backupFor(1), 3u);
}

TEST(FaultPlanInjector, MessageLossIsStatelessAndSeedDriven) {
  const auto r = ref();
  fault::FaultPlan plan;
  plan.losses.push_back({r.system.message(0).link, 0.5});
  const fault::PlanInjector a(plan, r.system);
  const fault::PlanInjector b(plan, r.system);
  // Pure function of (k, g, attempt): two injectors over the same plan
  // agree draw for draw, in any query order.
  bool sawLost = false, sawKept = false;
  for (std::size_t g = 0; g < 64; ++g) {
    EXPECT_EQ(a.messageLost(0, g, 0), b.messageLost(0, g, 0));
    (a.messageLost(0, g, 0) ? sawLost : sawKept) = true;
  }
  EXPECT_TRUE(sawLost);
  EXPECT_TRUE(sawKept);
  // Different seeds decorrelate the draws.
  fault::FaultPlan other = plan;
  other.lossSeed ^= 0xDEADBEEFull;
  const fault::PlanInjector c(other, r.system);
  bool anyDifference = false;
  for (std::size_t g = 0; g < 64 && !anyDifference; ++g) {
    anyDifference = a.messageLost(0, g, 0) != c.messageLost(0, g, 0);
  }
  EXPECT_TRUE(anyDifference);
}

TEST(FaultPlanInjector, RetryBackoffIsCappedExponential) {
  const auto r = ref();
  fault::FaultPlan plan;
  plan.policy.initialBackoffSeconds = 0.01;
  plan.policy.backoffFactor = 2.0;
  plan.policy.maxBackoffSeconds = 0.05;
  const fault::PlanInjector inj(plan, r.system);
  EXPECT_DOUBLE_EQ(inj.retryBackoff(0), 0.01);
  EXPECT_DOUBLE_EQ(inj.retryBackoff(1), 0.02);
  EXPECT_DOUBLE_EQ(inj.retryBackoff(2), 0.04);
  EXPECT_DOUBLE_EQ(inj.retryBackoff(3), 0.05);   // capped
  EXPECT_DOUBLE_EQ(inj.retryBackoff(50), 0.05);  // no overflow blowup
}

TEST(FaultPlanSampler, DeterministicAndValid) {
  const auto r = ref();
  fault::SamplerOptions opts;
  opts.crashes = 2;
  opts.slowdowns = 3;
  opts.losses = 2;
  const fault::FaultPlan a = fault::samplePlan(r.system, opts, 1234);
  const fault::FaultPlan b = fault::samplePlan(r.system, opts, 1234);
  EXPECT_EQ(a.crashes.size(), b.crashes.size());
  for (std::size_t i = 0; i < a.crashes.size(); ++i) {
    EXPECT_EQ(a.crashes[i].machine, b.crashes[i].machine);
    EXPECT_DOUBLE_EQ(a.crashes[i].atSeconds, b.crashes[i].atSeconds);
  }
  EXPECT_NO_THROW(a.validateAgainst(r.system));
  EXPECT_FALSE(a.empty());
  // A different seed draws a different plan.
  const fault::FaultPlan c = fault::samplePlan(r.system, opts, 4321);
  bool differs = a.crashes.size() != c.crashes.size();
  for (std::size_t i = 0; !differs && i < a.crashes.size(); ++i) {
    differs = a.crashes[i].machine != c.crashes[i].machine ||
              a.crashes[i].atSeconds != c.crashes[i].atSeconds;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPipeline, EmptyInjectorMatchesFaultFreeRunExactly) {
  // A PlanInjector over an empty plan must be behaviourally inert; the
  // cheaper contract (and the one the CLI uses) is that an empty plan
  // maps to a null injector, taking the identical fault-free code path.
  const auto r = ref();
  const des::PipelineResult plain = simulate(r, nullptr);
  fault::FaultPlan empty;
  const fault::PlanInjector inj(empty, r.system);
  const des::PipelineResult injected = simulate(r, &inj);
  EXPECT_EQ(plain.maxObservedLatency, injected.maxObservedLatency);
  EXPECT_EQ(plain.throughputSustained, injected.throughputSustained);
  EXPECT_EQ(plain.incompleteObservations, injected.incompleteObservations);
  EXPECT_FALSE(injected.faults.any());
  ASSERT_EQ(plain.pathLatencies.size(), injected.pathLatencies.size());
  for (std::size_t p = 0; p < plain.pathLatencies.size(); ++p) {
    EXPECT_EQ(plain.pathLatencies[p], injected.pathLatencies[p]);
  }
}

TEST(FaultPipeline, CrashWithBackupFailsOverAndStaysComplete) {
  const auto r = ref();
  // Crash machine 1 mid-run with machine 0 as backup.
  fault::FaultPlan plan;
  plan.crashes.push_back({1, 5.0, 0});
  const fault::PlanInjector inj(plan, r.system);
  const des::PipelineResult res = simulate(r, &inj);
  EXPECT_GT(res.faults.failovers, 0u);
  EXPECT_EQ(res.faults.unrecoveredJobs, 0u);
  EXPECT_EQ(res.incompleteObservations, 0u);
  EXPECT_GT(res.faults.downtimeSeconds, 0.0);
  // The crashed machine serves nothing after the crash instant.
  EXPECT_LT(res.machineUtilization[1],
            simulate(r, nullptr).machineUtilization[1]);
}

TEST(FaultPipeline, CrashWithoutBackupLosesGenerations) {
  const auto r = ref();
  fault::FaultPlan plan;
  plan.crashes.push_back({1, 5.0, std::nullopt});
  const fault::PlanInjector inj(plan, r.system);
  const des::PipelineResult res = simulate(r, &inj);
  EXPECT_GT(res.faults.unrecoveredJobs, 0u);
  EXPECT_GT(res.incompleteObservations, 0u);
  // Lost generations are a QoS violation by definition.
  EXPECT_FALSE(res.satisfies(r.qos.maxLatencySeconds));
}

TEST(FaultPipeline, DetectionTimeoutDelaysOnlyTheDetectionWindow) {
  const auto r = ref();
  fault::FaultPlan plan;
  plan.crashes.push_back({1, 5.0, 0});
  plan.policy.detectionTimeoutSeconds = 0.0;
  const fault::PlanInjector fast(plan, r.system);
  const des::PipelineResult quick = simulate(r, &fast);
  plan.policy.detectionTimeoutSeconds = 0.2;
  const fault::PlanInjector slow(plan, r.system);
  const des::PipelineResult lag = simulate(r, &slow);
  // A longer detection timeout can only worsen the worst latency.
  EXPECT_GE(lag.maxObservedLatency, quick.maxObservedLatency);
  EXPECT_GT(lag.maxObservedLatency, 0.0);
  // Both recover every generation (a backup exists).
  EXPECT_EQ(quick.incompleteObservations, 0u);
  EXPECT_EQ(lag.incompleteObservations, 0u);
}

TEST(FaultPipeline, SlowdownWindowRaisesLatencyOnlyTransiently) {
  const auto r = ref();
  fault::FaultPlan plan;
  plan.slowdowns.push_back(
      {fault::Slowdown::Target::Machine, 1, 4.0, 8.0, 2.5});
  const fault::PlanInjector inj(plan, r.system);
  const des::PipelineResult res = simulate(r, &inj);
  const des::PipelineResult base = simulate(r, nullptr);
  EXPECT_GT(res.maxObservedLatency, base.maxObservedLatency);
  // The window ends: the run still sustains the input rate.
  EXPECT_TRUE(res.throughputSustained);
  EXPECT_EQ(res.incompleteObservations, 0u);
}

TEST(FaultPipeline, MessageLossRetriesUntilDeliveredOrDropped) {
  const auto r = ref();
  fault::FaultPlan plan;
  plan.losses.push_back({r.system.message(0).link, 0.3});
  const fault::PlanInjector inj(plan, r.system);
  const des::PipelineResult res = simulate(r, &inj);
  EXPECT_GT(res.faults.lostMessages, 0u);
  EXPECT_GT(res.faults.retries, 0u);
  EXPECT_GT(res.faults.backoffWaitSeconds, 0.0);
  // With 8 retries at p=0.3 the drop probability is ~2e-5 per transfer;
  // every generation completes.
  EXPECT_EQ(res.faults.droppedMessages, 0u);
  EXPECT_EQ(res.incompleteObservations, 0u);
}

TEST(FaultPipeline, CertainLossWithNoRetriesDropsEveryTransfer) {
  const auto r = ref();
  fault::FaultPlan plan;
  plan.losses.push_back({r.system.message(0).link, 1.0});
  plan.policy.maxRetries = 0;
  const fault::PlanInjector inj(plan, r.system);
  const des::PipelineResult res = simulate(r, &inj, 50);
  EXPECT_GT(res.faults.droppedMessages, 0u);
  EXPECT_EQ(res.faults.retries, 0u);
  EXPECT_GT(res.incompleteObservations, 0u);
  EXPECT_FALSE(res.satisfies(r.qos.maxLatencySeconds));
}