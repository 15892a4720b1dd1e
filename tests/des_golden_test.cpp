// Pinned bits of the pipeline DES and of the estimates built on it.
//
// A fixed corpus of simulateAtLoads runs covers the fault-free path,
// service jitter, every fault kind (crash with and without backup,
// failover chains, loss with retry and drop, machine and link
// slowdowns), and incomplete and unsustained runs, at 1-200
// generations. Each (scenario, jitter) group of runs is pinned by a
// digest of the IEEE bit patterns of every PipelineResult field except
// queueHighWater, which depends on how the event queue is fed rather
// than on what the simulation computes. The fault-sim and validate --des
// queries are pinned through their JSON reports, whose numbers are
// printed with 17 significant digits and so round-trip exactly.
// The fault-sim report must also stay parseable when the system file's
// names need JSON escaping.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "des/pipeline.hpp"
#include "fault/plan.hpp"
#include "hiperd/factory.hpp"
#include "obs/clock.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "server/query.hpp"
#include "server/wire.hpp"

namespace des = fepia::des;
namespace fault = fepia::fault;
namespace hiperd = fepia::hiperd;
namespace la = fepia::la;
namespace obs = fepia::obs;
namespace server = fepia::server;

namespace {

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void add(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (w >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001B3ull;
    }
  }
  void add(double x) {
    std::uint64_t w = 0;
    std::memcpy(&w, &x, sizeof w);
    add(w);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

void addResult(Digest& d, const des::PipelineResult& r) {
  d.add(std::uint64_t{r.pathLatencies.size()});
  for (const auto& lat : r.pathLatencies) {
    d.add(std::uint64_t{lat.size()});
    for (const double v : lat) d.add(v);
  }
  for (const auto* util : {&r.machineUtilization, &r.linkUtilization}) {
    d.add(std::uint64_t{util->size()});
    for (const double v : *util) d.add(v);
  }
  d.add(r.maxObservedLatency);
  d.add(r.latencyGrowthPerGeneration);
  d.add(std::uint64_t{r.throughputSustained});
  d.add(r.simulatedSeconds);
  d.add(std::uint64_t{r.generations});
  d.add(std::uint64_t{r.incompleteObservations});
  d.add(r.eventsProcessed);
  d.add(r.faults.failovers);
  d.add(r.faults.lostMessages);
  d.add(r.faults.retries);
  d.add(r.faults.droppedMessages);
  d.add(r.faults.unrecoveredJobs);
  d.add(r.faults.downtimeSeconds);
  d.add(r.faults.backoffWaitSeconds);
}

struct Scenario {
  const char* name;
  bool injector;  ///< false: no injector at all (the fault-free path)
  fault::FaultPlan plan;
};

std::vector<Scenario> scenarios(const hiperd::System& sys) {
  const std::size_t link0 = sys.message(0).link;
  std::vector<Scenario> out;
  out.push_back({"none", false, {}});
  out.push_back({"empty-plan", true, {}});
  {
    fault::FaultPlan p;
    p.crashes.push_back({1, 0.5, 0});
    p.policy.detectionTimeoutSeconds = 0.01;
    out.push_back({"crash-backup", true, p});
  }
  {
    fault::FaultPlan p;
    p.crashes.push_back({1, 0.5, std::nullopt});
    out.push_back({"crash-unrecovered", true, p});
  }
  {
    // Machines 0 and 1 back each other up and both crash, with instant
    // detection: jobs bounce until the hop cap leaves them unrecovered.
    fault::FaultPlan p;
    p.crashes.push_back({0, 0.3, 1});
    p.crashes.push_back({1, 0.2, 0});
    p.crashes.push_back({2, 0.9, 3});
    p.policy.detectionTimeoutSeconds = 0.0;
    out.push_back({"crash-chain", true, p});
  }
  {
    fault::FaultPlan p;
    p.losses.push_back({link0, 0.3});
    out.push_back({"loss-retry", true, p});
  }
  {
    fault::FaultPlan p;
    p.losses.push_back({link0, 0.9});
    p.policy.maxRetries = 2;
    out.push_back({"loss-drop", true, p});
  }
  {
    fault::FaultPlan p;
    p.slowdowns.push_back(
        {fault::Slowdown::Target::Machine, 1, 0.5, 2.0, 2.5});
    out.push_back({"slow-machine", true, p});
  }
  {
    fault::FaultPlan p;
    p.slowdowns.push_back(
        {fault::Slowdown::Target::Link, link0, 0.2, 1.0, 3.0});
    out.push_back({"slow-link", true, p});
  }
  {
    // The BENCH_fault.json / faultsim-des scenario.
    fault::FaultPlan p;
    p.crashes.push_back({1, 0.5, 0});
    p.slowdowns.push_back(
        {fault::Slowdown::Target::Machine, 0, 2.0, 4.0, 1.5});
    p.losses.push_back({0, 0.05});
    p.policy.detectionTimeoutSeconds = 0.01;
    out.push_back({"combined", true, p});
  }
  return out;
}

constexpr double kJitterCovs[] = {0.0, 0.25};
constexpr double kLoadScales[] = {1.0, 4.0};
constexpr std::size_t kGenerations[] = {1, 2, 7, 50, 200};

/// Recorded digests, one per (scenario, jitter) group in scenario-major
/// order.
constexpr std::uint64_t kPinned[] = {
    0x98d8231f8f5126dbull, 0xb6ef1df07961cc6dull,  // none
    0x98d8231f8f5126dbull, 0xb6ef1df07961cc6dull,  // empty-plan
    0x1687fdf258dceb30ull, 0x85d634e938152d2aull,  // crash-backup
    0x4bb0bccf16fc84eeull, 0x8b7d7c11f4a26187ull,  // crash-unrecovered
    0xfdf8486eb35da005ull, 0x94ff1d79f2ed7d10ull,  // crash-chain
    0xbf64805e65c86c2cull, 0x15bacd9d50fb4481ull,  // loss-retry
    0xe83a46a43e3c277full, 0x5214f98da6354d86ull,  // loss-drop
    0x8aa7cc905a4bbd1aull, 0x40b2616ec41ad492ull,  // slow-machine
    0x6d1a8795b2df0384ull, 0x7b6786722eb0d116ull,  // slow-link
    0x182a9dd37760f2ffull, 0x2717fe8db836fa14ull,  // combined
};

/// Runs `args` through `runner` and returns the captured JSON report.
std::string queryJson(server::QueryResult (*runner)(
                          const std::vector<std::string>&, std::ostream&,
                          server::QueryContext&),
                      const std::vector<std::string>& args) {
  obs::Registry registry;
  obs::RunManifest manifest;
  const obs::Stopwatch wall;
  server::QueryContext ctx;
  ctx.registry = &registry;
  ctx.manifest = &manifest;
  ctx.wall = &wall;
  ctx.captureJson = true;
  std::ostringstream text;
  const server::QueryResult res = runner(args, text, ctx);
  EXPECT_TRUE(res.hasJson);
  return res.json;
}

/// The text of `json` from the first occurrence of `from` up to and
/// including the first `to` after it.
std::string between(const std::string& json, const std::string& from,
                    const std::string& to) {
  const std::size_t b = json.find(from);
  if (b == std::string::npos) return {};
  const std::size_t e = json.find(to, b);
  if (e == std::string::npos) return {};
  return json.substr(b, e + to.size() - b);
}

}  // namespace

TEST(DesGolden, CorpusMatchesPinnedBits) {
  const auto ref = hiperd::makeReferenceSystem();
  const std::vector<Scenario> all = scenarios(ref.system);
  ASSERT_EQ(std::size(kPinned), all.size() * std::size(kJitterCovs));

  std::size_t runs = 0, incomplete = 0, unsustained = 0, faulted = 0,
              sustained = 0;
  std::size_t group = 0;
  for (const Scenario& s : all) {
    std::optional<fault::PlanInjector> inj;
    if (s.injector) inj.emplace(s.plan, ref.system);
    for (const double cov : kJitterCovs) {
      Digest d;
      for (const double scale : kLoadScales) {
        la::Vector loads = ref.system.originalLoads();
        for (double& v : loads) v *= scale;
        for (const std::size_t gens : kGenerations) {
          des::PipelineOptions opts;
          opts.generations = gens;
          opts.serviceJitterCov = cov;
          opts.jitterSeed = 0x5EED0000ull + gens;
          opts.faults = inj ? &*inj : nullptr;
          const des::PipelineResult r = des::simulateAtLoads(
              ref.system, loads, ref.qos.minThroughput, opts);
          addResult(d, r);
          ++runs;
          incomplete += r.incompleteObservations > 0;
          unsustained += !r.throughputSustained;
          sustained += r.throughputSustained;
          faulted += r.faults.any();
        }
      }
      EXPECT_EQ(d.value(), kPinned[group])
          << s.name << " jitter " << cov << ": digest 0x" << std::hex
          << d.value();
      ++group;
    }
  }
  // The corpus must keep covering every outcome it pins.
  EXPECT_EQ(runs, 200u);
  EXPECT_GT(incomplete, 0u);
  EXPECT_GT(unsustained, 0u);
  EXPECT_GT(sustained, 0u);
  EXPECT_GT(faulted, 0u);
}

TEST(DesGolden, FaultSimQueryMatchesPinnedReport) {
  const std::string json = queryJson(
      &server::runFaultSimQuery,
      {"--crash", "1:0.5:0", "--slow", "machine:0:2:4:1.5", "--loss",
       "0:0.05", "--detect", "0.01", "--gens", "50", "--samples", "32",
       "--seed", "7"});
  EXPECT_EQ(between(json, "\"nominal\":", "}},"),
            "\"nominal\": {\"satisfies\": true, \"max_observed_latency\": "
            "0.19450000000000012, \"throughput_sustained\": true, "
            "\"incomplete_observations\": 0,\n    \"counters\": "
            "{\"failovers\": 45, \"lost_messages\": 4, \"retries\": 4, "
            "\"dropped_messages\": 0, \"unrecovered_jobs\": 0, "
            "\"downtime_seconds\": 4.5394750000000004, "
            "\"backoff_wait_seconds\": 0.040000000000000001}},");
  EXPECT_EQ(between(json, "\"degraded\":", "}"),
            "\"degraded\": {\"radius\": 0.086529660733802027, \"ci_lo\": 0, "
            "\"ci_hi\": 0.086529660733802027, \"directions\": 32, "
            "\"boundary_hits\": 31, \"classifications\": 13395}");
}

TEST(DesGolden, ValidateDesRowMatchesPinnedReport) {
  const std::string json = queryJson(
      &server::runValidateQuery,
      {"--hiperd", FEPIA_SOURCE_DIR "/examples/data/fusion_pipeline.hiperd",
       "--des", "--samples", "4", "--seed", "7"});
  EXPECT_EQ(between(json, "{\"label\": \"DES joint region", "}"),
            "{\"label\": \"DES joint region (informational; queueing shrinks "
            "the region): simulated vs analytic rho\", \"analytic\": "
            "1.3712053155421366, \"empirical\": 1.0002140116808333, "
            "\"relative_error\": -0.27055853682613795, \"ci\": [0, "
            "1.0002140116808333], \"within_ci\": false, \"directions\": 4, "
            "\"boundary_hits\": 4, \"classifications\": 10999}");
}

// Feature names come from the system file verbatim, so the report must
// escape them: a path named `path\qradar` once produced the invalid
// JSON escape `\q`, and `path\radar` a silent carriage return.
TEST(DesGolden, FaultSimReportEscapesFeatureNames) {
  std::ifstream in(FEPIA_SOURCE_DIR "/examples/data/fusion_pipeline.hiperd");
  std::stringstream text;
  text << in.rdbuf();
  std::string system = text.str();
  for (const std::string name : {"radar", "sonar", "ais"}) {
    const std::string from = "path-" + name;
    const std::string to = "path\\q" + name;
    for (std::size_t at = system.find(from); at != std::string::npos;
         at = system.find(from, at + to.size())) {
      system.replace(at, from.size(), to);
    }
  }
  const std::string path = ::testing::TempDir() + "backslash_paths.hiperd";
  std::ofstream(path) << system;

  const std::string json =
      queryJson(&server::runFaultSimQuery,
                {"--hiperd", path, "--samples", "8", "--gens", "20", "--seed",
                 "7"});
  const std::optional<server::JsonValue> doc = server::parseJson(json);
  ASSERT_TRUE(doc.has_value()) << json;
  const server::JsonValue* analytic = doc->find("analytic");
  ASSERT_NE(analytic, nullptr);
  const server::JsonValue* feature = analytic->find("critical_feature");
  ASSERT_NE(feature, nullptr);
  EXPECT_EQ(feature->string, "latency(path\\qradar)");
}
