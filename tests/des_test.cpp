#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "des/pipeline.hpp"
#include "des/simulator.hpp"
#include "fault/plan.hpp"
#include "hiperd/factory.hpp"

namespace des = fepia::des;
namespace fault = fepia::fault;
namespace hiperd = fepia::hiperd;
namespace la = fepia::la;

TEST(DesSimulator, EventsFireInTimeOrder) {
  des::Simulator sim;
  std::vector<int> order;
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(3.0, [&] { order.push_back(3); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(DesSimulator, EqualTimesFifoBySchedulingOrder) {
  des::Simulator sim;
  std::vector<int> order;
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(1.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(DesSimulator, ManySameTimeEventsExecuteInSchedulingOrder) {
  // Regression for the equal-timestamp ordering contract: a burst of
  // same-instant events (the shape fault injection produces around a
  // crash) must fire exactly in scheduling order, not in any
  // heap-internal order. Interleaved earlier/later events must not
  // disturb the FIFO ordering of the tied group.
  des::Simulator sim;
  std::vector<int> order;
  constexpr int kN = 64;
  for (int i = 0; i < kN; ++i) {
    sim.schedule(5.0, [&order, i] { order.push_back(i); });
    if (i % 7 == 0) sim.schedule(1.0, [] {});
    if (i % 5 == 0) sim.schedule(9.0, [] {});
  }
  sim.run();
  std::vector<int> expected(kN);
  for (int i = 0; i < kN; ++i) expected[i] = i;
  EXPECT_EQ(order, expected);
}

TEST(DesSimulator, SameTimeEventsScheduledFromHandlersFifoToo) {
  // Events scheduled *during* a same-instant cascade join the back of
  // the FIFO for that instant.
  des::Simulator sim;
  std::vector<int> order;
  sim.schedule(1.0, [&] {
    order.push_back(0);
    sim.schedule(0.0, [&] { order.push_back(2); });
  });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(DesSimulator, CancelPendingEventSkipsIt) {
  des::Simulator sim;
  std::vector<int> order;
  sim.schedule(1.0, [&] { order.push_back(1); });
  const des::EventId doomed = sim.schedule(2.0, [&] { order.push_back(2); });
  sim.schedule(3.0, [&] { order.push_back(3); });
  EXPECT_TRUE(sim.cancel(doomed));
  EXPECT_FALSE(sim.cancel(doomed));  // double cancel
  EXPECT_EQ(sim.run(), 2u);          // cancelled events do not count
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(sim.eventsCancelled(), 1u);
  EXPECT_TRUE(sim.empty());
}

TEST(DesSimulator, CancelFiredOrUnknownEventReturnsFalse) {
  des::Simulator sim;
  const des::EventId fired = sim.schedule(1.0, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(fired));       // already fired
  EXPECT_FALSE(sim.cancel(fired + 10));  // never scheduled
  EXPECT_EQ(sim.eventsCancelled(), 0u);
}

TEST(DesSimulator, NestedScheduling) {
  des::Simulator sim;
  double innerTime = -1.0;
  sim.schedule(1.0, [&] {
    sim.schedule(0.5, [&] { innerTime = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(innerTime, 1.5);
}

TEST(DesSimulator, ValidatesInputs) {
  des::Simulator sim;
  EXPECT_THROW(sim.schedule(-1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule(1.0, des::Simulator::Action{}),
               std::invalid_argument);
}

TEST(DesSimulator, MaxEventsBudget) {
  des::Simulator sim;
  for (int i = 0; i < 10; ++i) sim.schedule(static_cast<double>(i), [] {});
  EXPECT_EQ(sim.run(4), 4u);
  EXPECT_FALSE(sim.empty());
}

TEST(DesFifoResource, QueuesJobsSequentially) {
  des::Simulator sim;
  des::FifoResource server(sim, "cpu");
  std::vector<double> completions;
  sim.schedule(0.0, [&] {
    server.submit(2.0, [&] { completions.push_back(sim.now()); });
    server.submit(3.0, [&] { completions.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_DOUBLE_EQ(completions[0], 2.0);
  EXPECT_DOUBLE_EQ(completions[1], 5.0);  // waits for the first job
  EXPECT_DOUBLE_EQ(server.busyTime(), 5.0);
  EXPECT_EQ(server.jobsServed(), 2u);
}

TEST(DesFifoResource, IdleGapsDoNotAccumulateBusyTime) {
  des::Simulator sim;
  des::FifoResource server(sim, "cpu");
  sim.schedule(0.0, [&] { server.submit(1.0, [] {}); });
  sim.schedule(10.0, [&] { server.submit(1.0, [] {}); });
  sim.run();
  EXPECT_DOUBLE_EQ(server.busyTime(), 2.0);
  EXPECT_DOUBLE_EQ(sim.now(), 11.0);
}

TEST(DesFifoResource, RejectsNegativeService) {
  des::Simulator sim;
  des::FifoResource server(sim, "cpu");
  EXPECT_THROW(server.submit(-1.0, [] {}), std::invalid_argument);
}

TEST(DesPipeline, ReferenceSystemAtAssumedLoadsIsStable) {
  const auto ref = hiperd::makeReferenceSystem();
  const des::PipelineResult res = des::simulateAtLoads(
      ref.system, ref.system.originalLoads(), ref.qos.minThroughput);
  EXPECT_TRUE(res.throughputSustained);
  EXPECT_LE(res.maxObservedLatency, ref.qos.maxLatencySeconds);
  EXPECT_TRUE(res.satisfies(ref.qos.maxLatencySeconds));
  // Utilisations must be below 1 at a sustainable rate.
  for (double u : res.machineUtilization) EXPECT_LT(u, 1.0);
  for (double u : res.linkUtilization) EXPECT_LT(u, 1.0);
}

TEST(DesPipeline, LatencyMatchesAnalyticModelWhenUncontended) {
  // At a very low rate there is no queueing: the simulated latency must
  // equal the analytic path latency (sum of stage times).
  const auto ref = hiperd::makeReferenceSystem();
  const la::Vector lambda = ref.system.originalLoads();
  des::PipelineOptions opts;
  opts.generations = 50;
  const des::PipelineResult res =
      des::simulateAtLoads(ref.system, lambda, 0.1, opts);
  for (std::size_t p = 0; p < ref.system.pathCount(); ++p) {
    const double analytic = ref.system.pathLatencySeconds(p, lambda);
    ASSERT_FALSE(res.pathLatencies[p].empty());
    for (double lat : res.pathLatencies[p]) {
      // Queueing and upstream dependencies can only add latency.
      EXPECT_GE(lat, analytic - 1e-9);
    }
  }
  // Exact equality holds for the critical chain — the path that is the
  // slowest input branch at every join (path-radar here). Other paths
  // wait at the fusion join for the radar branch (path-sonar) or join
  // mid-pipeline (path-ais), so they can only exceed their stage sums.
  std::size_t slowest = 0;
  for (std::size_t p = 1; p < ref.system.pathCount(); ++p) {
    if (ref.system.pathLatencySeconds(p, lambda) >
        ref.system.pathLatencySeconds(slowest, lambda)) {
      slowest = p;
    }
  }
  EXPECT_NEAR(res.pathLatencies[slowest].front(),
              ref.system.pathLatencySeconds(slowest, lambda), 1e-9);
}

TEST(DesPipeline, OverloadedMachineIsDetected) {
  // Push execution times beyond the throughput budget: queues must grow.
  const auto ref = hiperd::makeReferenceSystem();
  la::Vector exec = ref.system.originalExecutionTimes();
  const la::Vector bytes = ref.system.originalMessageSizes();
  // Machine budget is 1/R = 0.1 s; set one app to 0.2 s.
  exec[2] = 0.2;
  const des::PipelineResult res = des::simulatePipeline(
      ref.system, exec, bytes, ref.qos.minThroughput);
  EXPECT_FALSE(res.throughputSustained);
  EXPECT_GT(res.latencyGrowthPerGeneration, 0.0);
}

TEST(DesPipeline, ValidatesArguments) {
  const auto ref = hiperd::makeReferenceSystem();
  const la::Vector exec = ref.system.originalExecutionTimes();
  const la::Vector bytes = ref.system.originalMessageSizes();
  EXPECT_THROW((void)des::simulatePipeline(ref.system, la::Vector{1.0}, bytes,
                                           10.0),
               std::invalid_argument);
  EXPECT_THROW(
      (void)des::simulatePipeline(ref.system, exec, la::Vector{1.0}, 10.0),
      std::invalid_argument);
  EXPECT_THROW((void)des::simulatePipeline(ref.system, exec, bytes, 0.0),
               std::invalid_argument);
  des::PipelineOptions opts;
  opts.generations = 0;
  EXPECT_THROW((void)des::simulatePipeline(ref.system, exec, bytes, 10.0, opts),
               std::invalid_argument);

  // warmupFraction must leave at least one observed generation (at 1.0
  // a 50x overloaded pipeline would pass with no observations at all),
  // and the drift tolerance must be a usable threshold.
  la::Vector heavy = exec;
  for (double& e : heavy) e *= 50.0;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  des::PipelineKernel kernel(ref.system);
  for (const double warmup : {1.0, 1.5, -0.25, nan}) {
    des::PipelineOptions bad;
    bad.warmupFraction = warmup;
    EXPECT_THROW(
        (void)des::simulatePipeline(ref.system, heavy, bytes, 10.0, bad),
        std::invalid_argument)
        << "warmupFraction " << warmup;
    EXPECT_THROW((void)kernel.verdict(heavy, bytes, 10.0, 1.0, bad),
                 std::invalid_argument);
  }
  for (const double drift : {-0.01, inf, nan}) {
    des::PipelineOptions bad;
    bad.driftTolerance = drift;
    EXPECT_THROW(
        (void)des::simulatePipeline(ref.system, exec, bytes, 10.0, bad),
        std::invalid_argument)
        << "driftTolerance " << drift;
    EXPECT_THROW((void)kernel.verdict(exec, bytes, 10.0, 1.0, bad),
                 std::invalid_argument);
  }
  des::PipelineOptions edge;
  edge.warmupFraction = 0.0;
  edge.driftTolerance = 0.0;
  EXPECT_NO_THROW(
      (void)des::simulatePipeline(ref.system, exec, bytes, 10.0, edge));
  edge.warmupFraction = 0.99;
  EXPECT_FALSE(
      des::simulatePipeline(ref.system, heavy, bytes, 10.0, edge).satisfies(
          ref.qos.maxLatencySeconds));
}

TEST(DesPipeline, VerdictEqualsFullRunAcrossTheQosBoundary) {
  // The verdict-only run stops at the first post-warmup latency above
  // the bound. Over load scales straddling the QoS boundary, with and
  // without jitter and faults, its verdict must equal the full run's,
  // the stop must fire on some violating points, and never on a
  // satisfying one. One kernel serves every run, interleaving full and
  // verdict-only runs, so its reused buffers are exercised as well.
  const auto ref = hiperd::makeReferenceSystem();
  const double bound = ref.qos.maxLatencySeconds;
  std::vector<std::optional<fault::FaultPlan>> plans(1);  // none
  {
    fault::FaultPlan crash;
    crash.crashes.push_back({1, 0.5, 0});
    crash.policy.detectionTimeoutSeconds = 0.01;
    plans.emplace_back(crash);
    fault::FaultPlan lossy;
    lossy.losses.push_back({ref.system.message(0).link, 0.2});
    plans.emplace_back(lossy);
    fault::FaultPlan lost;
    lost.crashes.push_back({2, 1.0, std::nullopt});
    plans.emplace_back(lost);
    fault::FaultPlan slow;
    slow.slowdowns.push_back(
        {fault::Slowdown::Target::Machine, 0, 1.0, 2.0, 2.0});
    plans.emplace_back(slow);
  }

  des::PipelineKernel kernel(ref.system);
  std::size_t satisfying = 0, violating = 0, stopped = 0;
  for (const auto& plan : plans) {
    std::optional<fault::PlanInjector> inj;
    if (plan) inj.emplace(*plan, ref.system);
    for (const double cov : {0.0, 0.3}) {
      for (int step = 0; step <= 30; ++step) {
        const double scale = 0.2 + 0.1 * step;
        la::Vector loads = ref.system.originalLoads();
        for (double& v : loads) v *= scale;
        la::Vector exec(ref.system.applicationCount());
        for (std::size_t a = 0; a < exec.size(); ++a) {
          exec[a] = ref.system.appComputeSeconds(a, loads);
        }
        la::Vector bytes(ref.system.messageCount());
        for (std::size_t k = 0; k < bytes.size(); ++k) {
          bytes[k] = ref.system.messageBytes(k, loads);
        }
        des::PipelineOptions opts;
        opts.generations = 50;
        opts.serviceJitterCov = cov;
        opts.jitterSeed = 0xB0D0ull + static_cast<std::uint64_t>(step);
        opts.faults = inj ? &*inj : nullptr;

        const des::PipelineResult full = des::simulatePipeline(
            ref.system, exec, bytes, ref.qos.minThroughput, opts);
        const des::PipelineVerdict v =
            kernel.verdict(exec, bytes, ref.qos.minThroughput, bound, opts);
        const bool ok = full.satisfies(bound);
        SCOPED_TRACE("scale " + std::to_string(scale) + " cov " +
                     std::to_string(cov));
        EXPECT_EQ(v.satisfies, ok);
        if (ok) {
          EXPECT_FALSE(v.stoppedEarly);
        }
        if (!v.stoppedEarly) {
          EXPECT_EQ(v.faults.retries, full.faults.retries);
          EXPECT_EQ(v.faults.droppedMessages, full.faults.droppedMessages);
          EXPECT_EQ(v.faults.downtimeSeconds, full.faults.downtimeSeconds);
        }
        satisfying += ok;
        violating += !ok;
        stopped += v.stoppedEarly;

        // The same kernel's full run reproduces the fresh one.
        const des::PipelineResult again =
            kernel.simulate(exec, bytes, ref.qos.minThroughput, opts);
        EXPECT_EQ(again.pathLatencies, full.pathLatencies);
        EXPECT_EQ(again.machineUtilization, full.machineUtilization);
        EXPECT_EQ(again.eventsProcessed, full.eventsProcessed);
        EXPECT_EQ(again.faults.failovers, full.faults.failovers);
      }
    }
  }
  EXPECT_GT(satisfying, 0u);
  EXPECT_GT(violating, 0u);
  EXPECT_GT(stopped, 0u);
  EXPECT_LT(stopped, violating);  // some violations only show at the end
}

TEST(DesPipeline, HigherLoadRaisesLatency) {
  const auto ref = hiperd::makeReferenceSystem();
  la::Vector lambda = ref.system.originalLoads();
  const des::PipelineResult base =
      des::simulateAtLoads(ref.system, lambda, ref.qos.minThroughput);
  for (auto& v : lambda) v *= 1.5;
  const des::PipelineResult loaded =
      des::simulateAtLoads(ref.system, lambda, ref.qos.minThroughput);
  EXPECT_GT(loaded.maxObservedLatency, base.maxObservedLatency);
}

TEST(DesPipeline, CyclicMessageGraphRejected) {
  // Two apps exchanging messages in a loop deadlock the generation
  // protocol; the simulator must refuse the topology up front.
  hiperd::System sys;
  sys.addSensor({"s", 1.0});
  const std::size_t m = sys.addMachine({"m"});
  const std::size_t l = sys.addLink({"l", 1e6});
  const std::size_t a0 = sys.addApplication({"a0", m, 0.01, {0.0}});
  const std::size_t a1 = sys.addApplication({"a1", m, 0.01, {0.0}});
  sys.addMessage({"fwd", a0, a1, l, 10.0, {0.0}});
  sys.addMessage({"back", a1, a0, l, 10.0, {0.0}});
  sys.addPath({"p", {a0, a1}, {0}});
  EXPECT_THROW((void)des::simulatePipeline(sys, la::Vector{0.01, 0.01},
                                           la::Vector{10.0, 10.0}, 1.0),
               std::invalid_argument);
}

TEST(DesPipeline, CompleteDagHasNoIncompleteObservations) {
  const auto ref = hiperd::makeReferenceSystem();
  const des::PipelineResult res = des::simulateAtLoads(
      ref.system, ref.system.originalLoads(), ref.qos.minThroughput);
  EXPECT_EQ(res.incompleteObservations, 0u);
}
