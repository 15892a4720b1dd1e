#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <queue>
#include <stdexcept>
#include <vector>

#include "des/event_queue.hpp"
#include "des/pipeline.hpp"
#include "fault/plan.hpp"
#include "hiperd/factory.hpp"
#include "rng/xoshiro.hpp"

namespace des = fepia::des;
namespace fault = fepia::fault;
namespace hiperd = fepia::hiperd;
namespace la = fepia::la;

// The DES's event-ordering contract, held by des::EventQueue: events
// surface in nondecreasing time, and events at equal times in the order
// they were scheduled (their seq), so the pipeline kernel's same-instant
// bursts around a crash are deterministic by construction.
namespace {

struct TestEvent {
  double time;
  std::uint64_t seq;
  int id;
};

/// Schedules events the way the pipeline kernel does: each takes the
/// next seq.
struct Schedule {
  des::EventQueue<TestEvent> queue;
  std::uint64_t nextSeq = 0;

  void at(double time, int id) { queue.push({time, nextSeq++, id}); }
  std::vector<int> drain() {
    std::vector<int> ids;
    while (!queue.empty()) ids.push_back(queue.pop().id);
    return ids;
  }
};

}  // namespace

TEST(DesSimulator, EventsFireInTimeOrder) {
  Schedule s;
  s.at(2.0, 2);
  s.at(1.0, 1);
  s.at(3.0, 3);
  EXPECT_EQ(s.queue.size(), 3u);
  EXPECT_EQ(s.drain(), (std::vector<int>{1, 2, 3}));
}

TEST(DesSimulator, EqualTimesFifoBySchedulingOrder) {
  Schedule s;
  s.at(1.0, 1);
  s.at(1.0, 2);
  EXPECT_EQ(s.drain(), (std::vector<int>{1, 2}));
}

TEST(DesSimulator, ManySameTimeEventsExecuteInSchedulingOrder) {
  // Regression for the equal-timestamp ordering contract: a burst of
  // same-instant events (the shape fault injection produces around a
  // crash) must fire exactly in scheduling order, not in any
  // queue-internal order. Interleaved earlier/later events must not
  // disturb the FIFO ordering of the tied group.
  Schedule s;
  constexpr int kN = 64;
  for (int i = 0; i < kN; ++i) {
    s.at(5.0, i);
    if (i % 7 == 0) s.at(1.0, -1);
    if (i % 5 == 0) s.at(9.0, -1);
  }
  std::vector<int> order;
  for (const int id : s.drain()) {
    if (id >= 0) order.push_back(id);
  }
  std::vector<int> expected(kN);
  for (int i = 0; i < kN; ++i) expected[i] = i;
  EXPECT_EQ(order, expected);
}

TEST(DesSimulator, SameTimeEventsScheduledFromHandlersFifoToo) {
  // Events scheduled *during* a same-instant cascade join the back of
  // the FIFO for that instant.
  Schedule s;
  s.at(1.0, 0);
  s.at(1.0, 1);
  const TestEvent first = s.queue.pop();
  EXPECT_EQ(first.id, 0);
  s.at(first.time, 2);
  EXPECT_EQ(s.drain(), (std::vector<int>{1, 2}));
}

TEST(DesSimulator, NestedScheduling) {
  // An event scheduled while draining surfaces at its own time, between
  // the events already queued around it.
  Schedule s;
  s.at(1.0, 1);
  s.at(2.0, 3);
  const TestEvent first = s.queue.pop();
  s.at(first.time + 0.5, 2);
  const TestEvent nested = s.queue.pop();
  EXPECT_EQ(nested.id, 2);
  EXPECT_DOUBLE_EQ(nested.time, 1.5);
  EXPECT_EQ(s.drain(), (std::vector<int>{3}));
  EXPECT_TRUE(s.queue.empty());
}

TEST(DesSimulator, InterleavedPushesAndPopsMatchAReferenceHeap) {
  // Differential check against std::priority_queue on (time, seq):
  // pushes land in the middle of a partly drained queue, equal-time
  // bursts tie on time alone, and the queue grows past 1000 events
  // before it drains.
  struct Later {
    bool operator()(const TestEvent& a, const TestEvent& b) const {
      return a.time > b.time || (a.time == b.time && a.seq > b.seq);
    }
  };
  std::priority_queue<TestEvent, std::vector<TestEvent>, Later> reference;
  Schedule s;
  fepia::rng::Xoshiro256StarStar gen(0xE7E27ull);
  double now = 0.0;
  int nextId = 0;
  std::size_t highWater = 0, pops = 0;
  const auto popBoth = [&] {
    const TestEvent want = reference.top();
    reference.pop();
    const TestEvent got = s.queue.pop();
    ASSERT_EQ(got.seq, want.seq) << "pop " << pops;
    ASSERT_EQ(got.time, want.time);
    ASSERT_EQ(got.id, want.id);
    now = got.time;
    ++pops;
  };
  constexpr int kSteps = 8000;
  for (int step = 0; step < kSteps; ++step) {
    const std::uint64_t r = gen();
    // Pushes outweigh pops in the first half and pops in the second.
    const std::uint64_t pushPercent = step < kSteps / 2 ? 60 : 35;
    if (s.queue.empty() || r % 100 < pushPercent) {
      // Times on a 0.25 grid from now on, so many events tie exactly;
      // one push in four is a burst of up to six at one instant.
      const double t = now + 0.25 * static_cast<double>((r >> 8) % 8);
      const std::uint64_t burst = (r >> 16) % 4 == 0 ? 1 + (r >> 20) % 6 : 1;
      for (std::uint64_t b = 0; b < burst; ++b) {
        reference.push({t, s.nextSeq, nextId});
        s.at(t, nextId++);
      }
    } else {
      popBoth();
      if (HasFatalFailure()) return;
    }
    ASSERT_EQ(s.queue.size(), reference.size());
    highWater = std::max(highWater, s.queue.size());
  }
  while (!reference.empty()) {
    popBoth();
    if (HasFatalFailure()) return;
  }
  EXPECT_TRUE(s.queue.empty());
  EXPECT_GT(highWater, 1000u);
  EXPECT_EQ(pops, static_cast<std::size_t>(nextId));
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
