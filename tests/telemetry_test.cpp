// The telemetry hub end to end: sampling lifecycle, structured events,
// alert rules (parsing, edge triggering, emission), stall watchdogs,
// the Prometheus text exposition, and — the hard guarantee — that
// attaching the hub to a sweep leaves the surface byte-identical at
// threads 1, 2 and 8. The sink is the hub's one record of a run, so
// every test reads what a consumer reads: the JSONL stream, one record
// parsed per line. The suite name is in the tsan preset filter
// (CMakePresets.json), so every test here also runs under
// ThreadSanitizer against the live sampler thread.
#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <optional>
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

/// A hub and the stream it writes. Read the stream only while no
/// sampler thread runs (before start() or after stop()).
struct StreamedHub {
  explicit StreamedHub(obs::TelemetryOptions opts)
      : hub(std::move(opts), &sink) {}
  std::ostringstream sink;
  obs::TelemetryHub hub;
};

/// The records of `type` in the stream (all of them when `type` is
/// empty), each line parsed as one JSON document.
std::vector<server::JsonValue> records(const std::ostringstream& sink,
                                       const std::string& type = "") {
  std::vector<server::JsonValue> out;
  std::istringstream in(sink.str());
  std::string line;
  while (std::getline(in, line)) {
    std::optional<server::JsonValue> doc = server::parseJson(line);
    EXPECT_TRUE(doc.has_value()) << line;
    if (!doc.has_value()) continue;
    const server::JsonValue* t = doc->find("type");
    EXPECT_TRUE(t != nullptr && t->isString()) << line;
    if (type.empty() || (t != nullptr && t->string == type)) {
      out.push_back(std::move(*doc));
    }
  }
  return out;
}

std::size_t sampleCount(const std::ostringstream& sink) {
  return records(sink, "sample").size();
}

/// The alert records of one `kind` ("threshold" or "stall").
std::vector<server::JsonValue> alerts(const std::ostringstream& sink,
                                      const std::string& kind) {
  std::vector<server::JsonValue> out;
  for (server::JsonValue& r : records(sink, "alert")) {
    const server::JsonValue* k = r.find("kind");
    if (k != nullptr && k->string == kind) out.push_back(std::move(r));
  }
  return out;
}

/// One member of a sample's metrics ("counters" or "gauges"); nullptr
/// when absent.
const server::JsonValue* metric(const server::JsonValue& sample,
                                const std::string& group,
                                const std::string& name) {
  const server::JsonValue* metrics = sample.find("metrics");
  if (metrics == nullptr) return nullptr;
  const server::JsonValue* members = metrics->find(group);
  return members != nullptr ? members->find(name) : nullptr;
}

// ---- sampling lifecycle ----------------------------------------------

TEST(Telemetry, StartAndStopEachTakeASample) {
  StreamedHub t(quietOptions());
  t.hub.start();
  t.hub.stop();
  // First-and-last guarantee: even a run much shorter than the interval
  // produces at least two samples (what the CI smoke asserts on).
  const std::vector<server::JsonValue> samples = records(t.sink, "sample");
  ASSERT_GE(samples.size(), 2u);
  EXPECT_EQ(samples.front().find("seq")->number, 0.0);
  EXPECT_GE(samples.back().find("t_ms")->number,
            samples.front().find("t_ms")->number);
}

TEST(Telemetry, StopIsIdempotentAndRestartable) {
  StreamedHub t(quietOptions());
  t.hub.start();
  t.hub.stop();
  t.hub.stop();
  const std::size_t afterFirst = sampleCount(t.sink);
  t.hub.start();
  t.hub.stop();
  EXPECT_GT(sampleCount(t.sink), afterFirst);
}

TEST(Telemetry, EveryRecordIsValidJson) {
  StreamedHub t(quietOptions());
  t.hub.start();
  obs::Registry reg;
  reg.counters().bump("weird \"name\"\n", 3);
  t.hub.publish(reg);
  t.hub.emit("heartbeat",
             obs::JsonFields().str("ke\"y", "va\\lue").num("x", 1.5).count(
                 "n", 7));
  t.hub.stop();

  const std::vector<server::JsonValue> all = records(t.sink);
  EXPECT_GE(all.size(), 3u);  // two samples + the event
  const std::vector<server::JsonValue> beats = records(t.sink, "heartbeat");
  ASSERT_EQ(beats.size(), 1u);
  EXPECT_EQ(beats[0].find("ke\"y")->string, "va\\lue");
  EXPECT_EQ(beats[0].find("x")->number, 1.5);
  EXPECT_EQ(beats[0].find("n")->number, 7.0);
  const std::vector<server::JsonValue> samples = records(t.sink, "sample");
  ASSERT_FALSE(samples.empty());
  ASSERT_NE(metric(samples.back(), "counters", "weird \"name\"\n"), nullptr);
}

TEST(Telemetry, EventRecordsKeepTheirMemberOrder) {
  StreamedHub t(quietOptions());
  t.hub.emit("heartbeat",
             obs::JsonFields().count("shard", 3).num("eta_seconds", 0.5));
  const std::string line = t.sink.str();
  EXPECT_EQ(line.rfind("{\"type\":\"heartbeat\",\"t_ms\":", 0), 0u) << line;
  const std::string tail = ",\"shard\":3,\"eta_seconds\":0.5}\n";
  ASSERT_GE(line.size(), tail.size());
  EXPECT_EQ(line.substr(line.size() - tail.size()), tail) << line;
}

TEST(Telemetry, PublishedMetricsAppearInSnapshots) {
  StreamedHub t(quietOptions());
  obs::Registry reg;
  reg.counters().bump("alpha", 5);
  reg.setGauge("beta", 2.5);
  t.hub.publish(reg);
  t.hub.sampleNow();
  const std::vector<server::JsonValue> samples = records(t.sink, "sample");
  ASSERT_EQ(samples.size(), 1u);
  ASSERT_NE(metric(samples[0], "counters", "alpha"), nullptr);
  EXPECT_EQ(metric(samples[0], "counters", "alpha")->number, 5.0);
  ASSERT_NE(metric(samples[0], "gauges", "beta"), nullptr);
  EXPECT_DOUBLE_EQ(metric(samples[0], "gauges", "beta")->number, 2.5);
}

TEST(Telemetry, SourcesFeedGaugesUntilRemoved) {
  StreamedHub t(quietOptions());
  double level = 1.0;
  const std::size_t id = t.hub.addSource(
      [&level](obs::Registry& reg) { reg.setGauge("live.level", level); });
  t.hub.sampleNow();
  level = 4.0;
  t.hub.sampleNow();
  t.hub.removeSource(id);
  t.hub.sampleNow();

  const std::vector<server::JsonValue> samples = records(t.sink, "sample");
  ASSERT_EQ(samples.size(), 3u);
  ASSERT_NE(metric(samples[0], "gauges", "live.level"), nullptr);
  EXPECT_DOUBLE_EQ(metric(samples[0], "gauges", "live.level")->number, 1.0);
  ASSERT_NE(metric(samples[1], "gauges", "live.level"), nullptr);
  EXPECT_DOUBLE_EQ(metric(samples[1], "gauges", "live.level")->number, 4.0);
  EXPECT_EQ(metric(samples[2], "gauges", "live.level"), nullptr)
      << "absent after removal";
}

TEST(Telemetry, BackgroundSamplerProducesPeriodicSamples) {
  obs::TelemetryOptions opts;
  opts.intervalMillis = 5;
  StreamedHub t(opts);
  t.hub.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  t.hub.stop();
  // 60ms at a 5ms period: comfortably more than start+stop alone even
  // on a loaded machine.
  EXPECT_GE(sampleCount(t.sink), 4u);
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
  StreamedHub t(opts);
  t.hub.sampleNow();  // 0: below
  obs::Registry reg;
  reg.counters().bump("work.done", 10);
  t.hub.publish(reg);
  t.hub.sampleNow();  // 10: crossing
  t.hub.sampleNow();  // still 10: no second event

  const std::vector<server::JsonValue> fired = alerts(t.sink, "threshold");
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].find("rule")->string, "work.done>3");
  EXPECT_EQ(fired[0].find("value")->number, 10.0);
}

// ---- stall watchdog ---------------------------------------------------

TEST(Telemetry, StallWatchdogFiresAndRearms) {
  StreamedHub t(quietOptions());
  const std::size_t dog = t.hub.addWatchdog("sweep", 0.005);
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  t.hub.sampleNow();  // stalled: alert
  t.hub.sampleNow();  // still stalled: edge-triggered, no second alert

  const std::vector<server::JsonValue> stalls = alerts(t.sink, "stall");
  ASSERT_EQ(stalls.size(), 1u);
  EXPECT_EQ(stalls[0].find("watchdog")->string, "sweep");

  t.hub.noteProgress(dog);
  t.hub.sampleNow();  // fed: clears
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  t.hub.sampleNow();  // stalled again: fires again
  EXPECT_EQ(alerts(t.sink, "stall").size(), 2u);
}

TEST(Telemetry, FedWatchdogStaysQuiet) {
  StreamedHub t(quietOptions());
  (void)t.hub.addWatchdog("quiet", 10.0);
  t.hub.sampleNow();
  t.hub.sampleNow();
  EXPECT_TRUE(alerts(t.sink, "stall").empty());
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
  StreamedHub t(quietOptions());
  t.hub.start();
  const sweep::SweepSpec spec = telemetrySpec();
  sweep::SweepOptions opts;
  opts.telemetry = &t.hub;
  parallel::ThreadPool pool(2);
  const sweep::SweepSurface surface = sweep::runSweep(spec, opts, &pool);
  t.hub.stop();

  EXPECT_TRUE(surface.complete);
  const std::vector<server::JsonValue> beats = records(t.sink, "heartbeat");
  for (const server::JsonValue& beat : beats) {
    EXPECT_NE(beat.find("points_per_sec"), nullptr);
    EXPECT_NE(beat.find("eta_seconds"), nullptr);
    EXPECT_NE(beat.find("shard"), nullptr);
  }
  EXPECT_EQ(beats.size(), surface.shards);
  EXPECT_GE(sampleCount(t.sink), 2u);
}

TEST(Telemetry, SweepStallWatchdogFlagsInjectedStall) {
  // An artificial stall: attach the watchdog path with a microscopic
  // deadline and sample after the sweep's last point — the gap between
  // the final noteProgress and the sample exceeds the deadline, which
  // is exactly the signal a hung estimator would produce.
  StreamedHub t(quietOptions());
  const sweep::SweepSpec spec = telemetrySpec();
  sweep::SweepOptions opts;
  opts.telemetry = &t.hub;
  opts.stallDeadlineSeconds = 1e-9;
  const sweep::SweepSurface surface = sweep::runSweep(spec, opts, nullptr);
  EXPECT_TRUE(surface.complete);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  t.hub.sampleNow();
  // The run's watchdog is removed at sweep exit; the injected-stall
  // variant registers its own to observe the alert path end to end.
  const std::size_t dog = t.hub.addWatchdog("injected", 1e-9);
  (void)dog;
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  t.hub.sampleNow();
  EXPECT_FALSE(alerts(t.sink, "stall").empty());
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
    StreamedHub t(topts);
    t.hub.start();

    sweep::SweepOptions opts;
    opts.telemetry = &t.hub;
    opts.stallDeadlineSeconds = 1e-6;  // watchdog churn during the run
    parallel::ThreadPool pool(threads);
    const sweep::SweepSurface surface = sweep::runSweep(spec, opts, &pool);
    t.hub.stop();

    EXPECT_EQ(renderJson(spec, surface), baseline)
        << "telemetry changed the surface at threads=" << threads;
    EXPECT_GE(sampleCount(t.sink), 2u);
  }
}

// Lifecycle hardening for the resident-server use: a hub whose start()
// never ran (or already finished) must tolerate stop() from any number
// of threads without joining dead threads or double-counting the final
// sample.
TEST(Telemetry, StopWithoutStartIsANoop) {
  StreamedHub t(obs::TelemetryOptions{});
  t.hub.stop();  // never started: no join, no sample
  EXPECT_EQ(sampleCount(t.sink), 0u);
  t.hub.emit("late", obs::JsonFields());  // still usable un-started
  EXPECT_EQ(records(t.sink).size(), 1u);
}

TEST(Telemetry, DoubleStopTakesExactlyOneFinalSample) {
  obs::TelemetryOptions topts;
  topts.intervalMillis = 3'600'000;  // no periodic samples during the test
  StreamedHub t(topts);
  t.hub.start();
  t.hub.stop();
  const std::size_t afterFirstStop = sampleCount(t.sink);
  EXPECT_EQ(afterFirstStop, 2u);  // t=0 + final
  t.hub.stop();
  t.hub.stop();
  EXPECT_EQ(sampleCount(t.sink), afterFirstStop);
}

TEST(Telemetry, ConcurrentStopIsRaceFree) {
  for (int round = 0; round < 8; ++round) {
    obs::TelemetryOptions topts;
    topts.intervalMillis = 1;
    StreamedHub t(topts);
    t.hub.start();
    std::vector<std::thread> stoppers;
    stoppers.reserve(4);
    for (int i = 0; i < 4; ++i) {
      stoppers.emplace_back([&t] { t.hub.stop(); });
    }
    for (std::thread& th : stoppers) th.join();
    // Exactly one stopper won the final sample; the count is stable.
    const std::size_t count = sampleCount(t.sink);
    t.hub.stop();
    EXPECT_EQ(sampleCount(t.sink), count);
    EXPECT_GE(count, 2u);
  }
}

TEST(Telemetry, RestartAfterStopWorks) {
  obs::TelemetryOptions topts;
  topts.intervalMillis = 3'600'000;
  StreamedHub t(topts);
  t.hub.start();
  t.hub.stop();
  t.hub.start();  // Idle again: a fresh sampler may start
  t.hub.stop();
  EXPECT_EQ(sampleCount(t.sink), 4u);
}

}  // namespace
