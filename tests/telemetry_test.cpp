// The telemetry hub end to end: sampling lifecycle, ring buffer and
// series extraction, structured events, alert rules (parsing, edge
// triggering, emission), stall watchdogs, the Prometheus text
// exposition, and — the hard guarantee — that attaching the hub to a
// sweep leaves the surface byte-identical at threads 1, 2 and 8. The
// suite name is in the tsan preset filter (CMakePresets.json), so every
// test here also runs under ThreadSanitizer against the live sampler
// thread.
#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/alert.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/telemetry.hpp"
#include "parallel/thread_pool.hpp"
#include "server/wire.hpp"
#include "sweep/engine.hpp"
#include "sweep/output.hpp"
#include "sweep/spec.hpp"

namespace {

using namespace fepia;

obs::TelemetryOptions quietOptions() {
  obs::TelemetryOptions opts;
  opts.intervalMillis = 60'000;  // periodic samples effectively off
  return opts;
}

bool hasRecord(const std::vector<std::string>& records,
               std::string_view needle) {
  for (const std::string& r : records) {
    if (r.find(needle) != std::string::npos) return true;
  }
  return false;
}

// ---- sampling lifecycle ----------------------------------------------

TEST(Telemetry, StartAndStopEachTakeASample) {
  obs::TelemetryHub hub(quietOptions());
  hub.start();
  hub.stop();
  // First-and-last guarantee: even a run much shorter than the interval
  // produces at least two samples (what the CI smoke asserts on).
  EXPECT_GE(hub.sampleCount(), 2u);
  const std::vector<obs::TelemetrySample> samples = hub.samples();
  ASSERT_GE(samples.size(), 2u);
  EXPECT_EQ(samples.front().seq, 0u);
  EXPECT_GE(samples.back().tNs, samples.front().tNs);
}

TEST(Telemetry, StopIsIdempotentAndRestartable) {
  obs::TelemetryHub hub(quietOptions());
  hub.start();
  hub.stop();
  hub.stop();
  const std::uint64_t afterFirst = hub.sampleCount();
  hub.start();
  hub.stop();
  EXPECT_GT(hub.sampleCount(), afterFirst);
}

TEST(Telemetry, EveryRecordIsValidJson) {
  std::ostringstream sink;
  obs::TelemetryHub hub(quietOptions(), &sink);
  hub.start();
  obs::Registry reg;
  reg.counters().bump("weird \"name\"\n", 3);
  hub.publish(reg);
  obs::TelemetryEvent evil("heartbeat");
  evil.str("ke\"y", "va\\lue").num("x", 1.5).count("n", 7);
  hub.emit(evil);
  hub.stop();

  const std::vector<obs::TelemetrySample> ignored = hub.samples();
  std::size_t lines = 0;
  std::istringstream in(sink.str());
  std::string line;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_TRUE(server::parseJson(line).has_value()) << line;
  }
  EXPECT_EQ(lines, hub.records().size());
  EXPECT_GE(lines, 3u);  // two samples + the event
}

TEST(Telemetry, PublishedMetricsAppearInSnapshots) {
  obs::TelemetryHub hub(quietOptions());
  obs::Registry reg;
  reg.counters().bump("alpha", 5);
  reg.setGauge("beta", 2.5);
  hub.publish(reg);
  hub.sampleNow();
  const std::vector<obs::TelemetrySample> samples = hub.samples();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].registry.counters().value("alpha"), 5u);
  EXPECT_DOUBLE_EQ(samples[0].registry.gauge("beta"), 2.5);
}

TEST(Telemetry, SourcesFeedGaugesUntilRemoved) {
  obs::TelemetryHub hub(quietOptions());
  double level = 1.0;
  const std::size_t id = hub.addSource(
      [&level](obs::Registry& reg) { reg.setGauge("live.level", level); });
  hub.sampleNow();
  level = 4.0;
  hub.sampleNow();
  hub.removeSource(id);
  hub.sampleNow();

  const auto series = hub.series("live.level");
  ASSERT_EQ(series.size(), 2u);  // absent after removal
  EXPECT_DOUBLE_EQ(series[0].second, 1.0);
  EXPECT_DOUBLE_EQ(series[1].second, 4.0);
}

TEST(Telemetry, RingEvictsOldestButCountsEverything) {
  obs::TelemetryOptions opts = quietOptions();
  opts.ringCapacity = 3;
  obs::TelemetryHub hub(opts);
  for (int i = 0; i < 5; ++i) hub.sampleNow();
  EXPECT_EQ(hub.sampleCount(), 5u);
  const std::vector<obs::TelemetrySample> samples = hub.samples();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples.front().seq, 2u);
  EXPECT_EQ(samples.back().seq, 4u);
}

TEST(Telemetry, BackgroundSamplerProducesPeriodicSamples) {
  obs::TelemetryOptions opts;
  opts.intervalMillis = 5;
  obs::TelemetryHub hub(opts);
  hub.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  hub.stop();
  // 60ms at a 5ms period: comfortably more than start+stop alone even
  // on a loaded machine.
  EXPECT_GE(hub.sampleCount(), 4u);
}

// ---- alert rules ------------------------------------------------------

TEST(Telemetry, ParseAlertRuleAllOperators) {
  const obs::AlertRule gt = obs::parseAlertRule("pool.queue_depth>10");
  EXPECT_EQ(gt.metric, "pool.queue_depth");
  EXPECT_EQ(gt.op, obs::AlertRule::Op::Gt);
  EXPECT_DOUBLE_EQ(gt.threshold, 10.0);

  EXPECT_EQ(obs::parseAlertRule("m>=2.5").op, obs::AlertRule::Op::Ge);
  EXPECT_EQ(obs::parseAlertRule("m<-1").op, obs::AlertRule::Op::Lt);
  EXPECT_EQ(obs::parseAlertRule("m<=0").op, obs::AlertRule::Op::Le);
  EXPECT_DOUBLE_EQ(obs::parseAlertRule("m<-1").threshold, -1.0);

  // str() round-trips through the parser.
  const obs::AlertRule back = obs::parseAlertRule(gt.str());
  EXPECT_EQ(back.metric, gt.metric);
  EXPECT_EQ(back.op, gt.op);
  EXPECT_DOUBLE_EQ(back.threshold, gt.threshold);
}

TEST(Telemetry, ParseAlertRuleRejectsMalformedSpecs) {
  EXPECT_THROW((void)obs::parseAlertRule(""), std::invalid_argument);
  EXPECT_THROW((void)obs::parseAlertRule("no-operator"),
               std::invalid_argument);
  EXPECT_THROW((void)obs::parseAlertRule(">5"), std::invalid_argument);
  EXPECT_THROW((void)obs::parseAlertRule("m>"), std::invalid_argument);
  EXPECT_THROW((void)obs::parseAlertRule("m>abc"), std::invalid_argument);
  EXPECT_THROW((void)obs::parseAlertRule("m>1e999"), std::invalid_argument);
  EXPECT_THROW((void)obs::parseAlertRule("m>nan"), std::invalid_argument);
}

TEST(Telemetry, AlertEngineFiresOnCrossingsOnly) {
  obs::AlertEngine engine({obs::parseAlertRule("q>5")});
  obs::Registry reg;

  reg.setGauge("q", 3.0);
  EXPECT_TRUE(engine.evaluate(reg).empty());  // below threshold
  reg.setGauge("q", 7.0);
  ASSERT_EQ(engine.evaluate(reg).size(), 1u);  // crossing fires
  EXPECT_TRUE(engine.evaluate(reg).empty());   // still breached: silent
  reg.setGauge("q", 2.0);
  EXPECT_TRUE(engine.evaluate(reg).empty());   // cleared: re-arms
  reg.setGauge("q", 9.0);
  const auto crossings = engine.evaluate(reg);  // fires again
  ASSERT_EQ(crossings.size(), 1u);
  EXPECT_DOUBLE_EQ(crossings[0].value, 9.0);
}

TEST(Telemetry, AbsentMetricNeverFires) {
  obs::AlertEngine engine({obs::parseAlertRule("missing<1")});
  obs::Registry reg;
  EXPECT_TRUE(engine.evaluate(reg).empty());
}

TEST(Telemetry, CounterMetricsSatisfyRulesToo) {
  obs::AlertEngine engine({obs::parseAlertRule("hits>=2")});
  obs::Registry reg;
  reg.counters().bump("hits", 2);
  EXPECT_EQ(engine.evaluate(reg).size(), 1u);
}

TEST(Telemetry, HubEmitsThresholdAlertEvents) {
  obs::TelemetryOptions opts = quietOptions();
  opts.alerts.push_back(obs::parseAlertRule("work.done>3"));
  obs::TelemetryHub hub(opts);
  hub.sampleNow();  // 0: below
  obs::Registry reg;
  reg.counters().bump("work.done", 10);
  hub.publish(reg);
  hub.sampleNow();  // 10: crossing
  hub.sampleNow();  // still 10: no second event

  std::size_t alerts = 0;
  for (const std::string& r : hub.records()) {
    if (r.find("\"kind\":\"threshold\"") != std::string::npos) ++alerts;
  }
  EXPECT_EQ(alerts, 1u);
  EXPECT_TRUE(hasRecord(hub.records(), "\"rule\":\"work.done>3\""));
}

// ---- stall watchdog ---------------------------------------------------

TEST(Telemetry, StallWatchdogFiresAndRearms) {
  obs::TelemetryHub hub(quietOptions());
  const std::size_t dog = hub.addWatchdog("sweep", 0.005);
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  hub.sampleNow();  // stalled: alert
  hub.sampleNow();  // still stalled: edge-triggered, no second alert

  std::size_t stalls = 0;
  for (const std::string& r : hub.records()) {
    if (r.find("\"kind\":\"stall\"") != std::string::npos) ++stalls;
  }
  EXPECT_EQ(stalls, 1u);
  EXPECT_TRUE(hasRecord(hub.records(), "\"watchdog\":\"sweep\""));

  hub.noteProgress(dog);
  hub.sampleNow();  // fed: clears
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  hub.sampleNow();  // stalled again: fires again
  stalls = 0;
  for (const std::string& r : hub.records()) {
    if (r.find("\"kind\":\"stall\"") != std::string::npos) ++stalls;
  }
  EXPECT_EQ(stalls, 2u);
}

TEST(Telemetry, FedWatchdogStaysQuiet) {
  obs::TelemetryHub hub(quietOptions());
  (void)hub.addWatchdog("quiet", 10.0);
  hub.sampleNow();
  hub.sampleNow();
  EXPECT_FALSE(hasRecord(hub.records(), "\"kind\":\"stall\""));
}

// ---- Prometheus text exposition ---------------------------------------

/// Checks one metric name against the exposition grammar
/// [a-zA-Z_:][a-zA-Z0-9_:]*.
bool validPromName(std::string_view name) {
  if (name.empty()) return false;
  const auto ok = [](char c, bool first) {
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':') {
      return true;
    }
    return !first && std::isdigit(static_cast<unsigned char>(c)) != 0;
  };
  if (!ok(name[0], true)) return false;
  for (const char c : name.substr(1)) {
    if (!ok(c, false)) return false;
  }
  return true;
}

/// Line-level grammar check of the text exposition format 0.0.4:
/// `# TYPE <name> <counter|gauge|histogram>` comments and
/// `<name>[{label="value"}] <number>` samples, nothing else.
void expectValidExposition(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::size_t samples = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string rest = line.substr(7);
      const std::size_t sp = rest.find(' ');
      ASSERT_NE(sp, std::string::npos) << line;
      EXPECT_TRUE(validPromName(rest.substr(0, sp))) << line;
      const std::string type = rest.substr(sp + 1);
      EXPECT_TRUE(type == "counter" || type == "gauge" || type == "histogram")
          << line;
      continue;
    }
    // Sample line: name, optional {le="..."} label set, space, value.
    std::size_t nameEnd = line.find_first_of("{ ");
    ASSERT_NE(nameEnd, std::string::npos) << line;
    EXPECT_TRUE(validPromName(line.substr(0, nameEnd))) << line;
    std::size_t valueStart = nameEnd;
    if (line[nameEnd] == '{') {
      const std::size_t close = line.find('}', nameEnd);
      ASSERT_NE(close, std::string::npos) << line;
      const std::string labels = line.substr(nameEnd + 1, close - nameEnd - 1);
      EXPECT_NE(labels.find('='), std::string::npos) << line;
      ASSERT_LT(close + 1, line.size()) << line;
      ASSERT_EQ(line[close + 1], ' ') << line;
      valueStart = close + 1;
    }
    const std::string value = line.substr(valueStart + 1);
    ASSERT_FALSE(value.empty()) << line;
    char* end = nullptr;
    (void)std::strtod(value.c_str(), &end);
    EXPECT_EQ(end, value.c_str() + value.size()) << line;
    ++samples;
  }
  EXPECT_GT(samples, 0u);
}

TEST(Telemetry, PrometheusNameMangling) {
  EXPECT_EQ(obs::prometheusName("sweep.points_per_sec"),
            "fepia_sweep_points_per_sec");
  EXPECT_EQ(obs::prometheusName("pool.worker0.tasks"),
            "fepia_pool_worker0_tasks");
  EXPECT_EQ(obs::prometheusName("bad name\"x"), "fepia_bad_name_x");
  EXPECT_TRUE(validPromName(obs::prometheusName("1-starts@digit")));
}

TEST(Telemetry, PrometheusExportParsesUnderGrammar) {
  obs::Registry reg;
  reg.counters().bump("sweep.points_computed", 42);
  reg.setGauge("pool.queue_depth", 3.0);
  obs::Histogram& h =
      reg.histogram("validate.chunk us", {1.0, 10.0, 100.0});
  h.record(0.5);
  h.record(50.0);
  h.record(1e6);  // overflow bucket

  std::ostringstream os;
  obs::exportPrometheus(os, reg);
  const std::string text = os.str();
  expectValidExposition(text);

  EXPECT_NE(text.find("fepia_sweep_points_computed_total 42"),
            std::string::npos);
  EXPECT_NE(text.find("fepia_pool_queue_depth 3"), std::string::npos);
  // Cumulative buckets: 1, 2 at the finite bounds, 3 at +Inf == _count.
  EXPECT_NE(text.find("fepia_validate_chunk_us_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("fepia_validate_chunk_us_bucket{le=\"100\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("fepia_validate_chunk_us_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("fepia_validate_chunk_us_count 3"), std::string::npos);
}

TEST(Telemetry, HubPrometheusExportUsesLatestSnapshot) {
  obs::TelemetryHub hub(quietOptions());
  obs::Registry reg;
  reg.counters().bump("exported", 7);
  hub.publish(reg);
  std::ostringstream os;
  hub.exportPrometheus(os);  // takes a snapshot on demand
  expectValidExposition(os.str());
  EXPECT_NE(os.str().find("fepia_exported_total 7"), std::string::npos);
}

// ---- the sweep integration and the determinism guarantee --------------

sweep::SweepSpec telemetrySpec() {
  return sweep::parseSweepSpecString(
      "sweep telemetry-determinism\nworkload linear\n"
      "axis scheme sensitivity normalized\naxis n 2 4\n"
      "axis beta 1.2 2.0\naxis kscale 1.0 100.0\n"
      "empirical on\nsamples 8\nseed 33\nchunk 2\n");
}

std::string renderJson(const sweep::SweepSpec& spec,
                       const sweep::SweepSurface& surface) {
  std::ostringstream os;
  sweep::writeSurfaceJson(os, spec, surface);
  return os.str();
}

TEST(Telemetry, SweepEmitsHeartbeatsWithEta) {
  obs::TelemetryHub hub(quietOptions());
  hub.start();
  const sweep::SweepSpec spec = telemetrySpec();
  sweep::SweepOptions opts;
  opts.telemetry = &hub;
  parallel::ThreadPool pool(2);
  const sweep::SweepSurface surface = sweep::runSweep(spec, opts, &pool);
  hub.stop();

  EXPECT_TRUE(surface.complete);
  std::size_t beats = 0;
  for (const std::string& r : hub.records()) {
    if (r.find("\"type\":\"heartbeat\"") == std::string::npos) continue;
    ++beats;
    EXPECT_NE(r.find("\"points_per_sec\":"), std::string::npos) << r;
    EXPECT_NE(r.find("\"eta_seconds\":"), std::string::npos) << r;
    EXPECT_NE(r.find("\"shard\":"), std::string::npos) << r;
    EXPECT_TRUE(server::parseJson(r).has_value()) << r;
  }
  EXPECT_EQ(beats, surface.shards);
  EXPECT_GE(hub.sampleCount(), 2u);
}

TEST(Telemetry, SweepStallWatchdogFlagsInjectedStall) {
  // An artificial stall: attach the watchdog path with a microscopic
  // deadline and sample after the sweep's last point — the gap between
  // the final noteProgress and the sample exceeds the deadline, which
  // is exactly the signal a hung estimator would produce.
  obs::TelemetryHub hub(quietOptions());
  const sweep::SweepSpec spec = telemetrySpec();
  sweep::SweepOptions opts;
  opts.telemetry = &hub;
  opts.stallDeadlineSeconds = 1e-9;
  const sweep::SweepSurface surface = sweep::runSweep(spec, opts, nullptr);
  EXPECT_TRUE(surface.complete);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  hub.sampleNow();
  // The run's watchdog is removed at sweep exit; the injected-stall
  // variant registers its own to observe the alert path end to end.
  const std::size_t dog = hub.addWatchdog("injected", 1e-9);
  (void)dog;
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  hub.sampleNow();
  EXPECT_TRUE(hasRecord(hub.records(), "\"kind\":\"stall\""));
}

TEST(Telemetry, SweepSurfaceByteIdenticalWithTelemetry) {
  const sweep::SweepSpec spec = telemetrySpec();
  const std::string baseline = [&] {
    const sweep::SweepSurface s = sweep::runSweep(spec, {}, nullptr);
    return renderJson(spec, s);
  }();

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    obs::TelemetryOptions topts;
    topts.intervalMillis = 1;  // sample aggressively during the run
    topts.alerts.push_back(obs::parseAlertRule("sweep.live_points_done>2"));
    obs::TelemetryHub hub(topts);
    hub.start();

    sweep::SweepOptions opts;
    opts.telemetry = &hub;
    opts.stallDeadlineSeconds = 1e-6;  // watchdog churn during the run
    parallel::ThreadPool pool(threads);
    const sweep::SweepSurface surface = sweep::runSweep(spec, opts, &pool);
    hub.stop();

    EXPECT_EQ(renderJson(spec, surface), baseline)
        << "telemetry changed the surface at threads=" << threads;
    EXPECT_GE(hub.sampleCount(), 2u);
  }
}

// Lifecycle hardening for the resident-server use: a hub whose start()
// never ran (or already finished) must tolerate stop() from any number
// of threads without joining dead threads or double-counting the final
// sample.
TEST(Telemetry, StopWithoutStartIsANoop) {
  obs::TelemetryHub hub(obs::TelemetryOptions{});
  hub.stop();  // never started: no join, no sample
  EXPECT_EQ(hub.sampleCount(), 0u);
  hub.emit(obs::TelemetryEvent("late"));  // still usable un-started
  EXPECT_EQ(hub.records().size(), 1u);
}

TEST(Telemetry, DoubleStopTakesExactlyOneFinalSample) {
  obs::TelemetryOptions topts;
  topts.intervalMillis = 3'600'000;  // no periodic samples during the test
  obs::TelemetryHub hub(topts);
  hub.start();
  hub.stop();
  const std::uint64_t afterFirstStop = hub.sampleCount();
  EXPECT_EQ(afterFirstStop, 2u);  // t=0 + final
  hub.stop();
  hub.stop();
  EXPECT_EQ(hub.sampleCount(), afterFirstStop);
}

TEST(Telemetry, ConcurrentStopIsRaceFree) {
  for (int round = 0; round < 8; ++round) {
    obs::TelemetryOptions topts;
    topts.intervalMillis = 1;
    obs::TelemetryHub hub(topts);
    hub.start();
    std::vector<std::thread> stoppers;
    stoppers.reserve(4);
    for (int t = 0; t < 4; ++t) {
      stoppers.emplace_back([&hub] { hub.stop(); });
    }
    for (std::thread& t : stoppers) t.join();
    // Exactly one stopper won the final sample; the count is stable.
    const std::uint64_t count = hub.sampleCount();
    hub.stop();
    EXPECT_EQ(hub.sampleCount(), count);
    EXPECT_GE(count, 2u);
  }
}

TEST(Telemetry, RestartAfterStopWorks) {
  obs::TelemetryOptions topts;
  topts.intervalMillis = 3'600'000;
  obs::TelemetryHub hub(topts);
  hub.start();
  hub.stop();
  hub.start();  // Idle again: a fresh sampler may start
  hub.stop();
  EXPECT_EQ(hub.sampleCount(), 4u);
}

}  // namespace
