// Fixed inputs for every kind of JSON the tree writes, rendered to
// text: the run manifest, validate rows, a sweep surface, a metrics
// registry, a Chrome trace, a fepiad reply frame, a telemetry event and
// a fault-sim report. json_golden_test pins their bytes and
// io_locale_test checks that a hostile global locale does not move
// them; both render through these functions so they pin one thing.
#pragma once

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "obs/clock.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "server/query.hpp"
#include "server/wire.hpp"
#include "sweep/output.hpp"
#include "sweep/spec.hpp"
#include "validate/report.hpp"

namespace fepia::testing {

/// A manifest with every field set; the strings need escaping and the
/// integers are wide enough to show any digit grouping.
inline obs::RunManifest fixedManifest() {
  obs::RunManifest m;
  m.tool = "fepia_cli \"validate\"";
  m.gitSha = "0123456789abcdef";
  m.compiler = "gcc 12.2.0";
  m.buildType = "Release";
  m.cxxFlags = "-O2 -DNAME=\\\"x\\\"";
  m.hostname = "host\tname";
  m.hardwareConcurrency = 4;
  m.threads = 1024;
  m.seed = 1592644046;
  m.args = {"--json", "out.json", "\x01"};
  m.wallSeconds = 1234.5;
  return m;
}

inline std::string manifestJson() {
  std::ostringstream os;
  fixedManifest().writeJson(os);
  return os.str();
}

/// The validate rows: one ordinary row, and one whose analytic radius is
/// zero so its relative error is NaN.
inline std::vector<validate::Comparison> fixedComparisons() {
  validate::EmpiricalEstimate a;
  a.radius = 0.52;
  a.ci = {0.49, 0.5250000000000001};
  a.directions = 4096;
  a.boundaryHits = 4000;
  a.classifications = 1234567;
  validate::EmpiricalEstimate b;
  b.radius = 1.5e-3;
  b.ci = {1e-3, 1.5e-3};
  b.directions = 8;
  b.boundaryHits = 8;
  b.classifications = 96;
  return {validate::compare("feature \"a\\b\"", 0.5, a),
          validate::compare("zero", 0.0, b)};
}

inline std::string validateJson(
    const std::vector<validate::Comparison>& rows = fixedComparisons()) {
  const obs::RunManifest m = fixedManifest();
  std::ostringstream os;
  validate::writeComparisonJson(os, rows, &m);
  return os.str();
}

/// A 2x2 surface whose point 2 was never computed.
inline std::string sweepJson() {
  const sweep::SweepSpec spec = sweep::parseSweepSpecString(
      "sweep golden\nworkload linear\naxis n 2 4\naxis beta 1.5 2.5\n"
      "seed 1592644046\nchunk 2\n");
  sweep::SweepSurface s;
  s.points = 4;
  s.chunk = 2;
  s.shards = 2;
  s.resumedShards = 1;
  s.computedShards = 1;
  s.cacheHits = 12345;
  s.cacheMisses = 2;
  s.classifications = 1234567;
  s.computed = {1, 1, 0, 1};
  s.results.resize(4);
  for (std::size_t i = 0; i < 4; ++i) {
    sweep::PointResult& r = s.results[i];
    if (s.computed[i] == 0) continue;
    r.analyticRho = 0.25 * static_cast<double>(i + 1);
    r.closedForm = r.analyticRho + 1e-17;
    r.empirical = i == 1 ? std::numeric_limits<double>::infinity() : 0.3;
    r.classifications = 1000 * (i + 1);
  }
  const obs::RunManifest m = fixedManifest();
  std::ostringstream os;
  sweep::writeSurfaceJson(os, spec, s, &m);
  return os.str();
}

inline std::string registryJson() {
  obs::Registry reg;
  reg.counters().bump("evals", 123456);
  reg.setGauge("pool.busy \"frac\"", 0.75);
  obs::Histogram& h = reg.histogram("wait_us", {1.0, 10.0, 100.0});
  for (const double x : {0.5, 5.0, 50.0, 5000.0}) h.record(x);
  std::ostringstream os;
  reg.writeJson(os);
  return os.str();
}

inline std::string chromeTraceJson() {
  std::vector<obs::SpanRecord> records(2);
  records[0].name = "validate.estimate";
  records[0].id = "t0.1";
  records[0].tid = 0;
  records[0].startNs = 1'000'000'000 + 1'234'567;
  records[0].durNs = 2'000'005;
  records[1].name = "classify \"kernel\"";
  records[1].id = "t1.1.2";
  records[1].tid = 1234;
  records[1].startNs = 1'000'000'000 + 9'999'999'999ull;
  records[1].durNs = 7;
  records[1].argName = "lanes";
  records[1].arg = 1234567;
  std::ostringstream os;
  obs::writeChromeTrace(os, records, 1'000'000'000);
  return os.str();
}

/// One fepiad success reply and one error reply, as the payloads of the
/// frames a client reads.
inline std::string replyFrames() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return {};
  std::string payloads;
  {
    server::Connection conn(fds[0]);
    const std::string json = "{\"rows\": [1.5]}\n";
    server::writeOk(conn, "12345",
                    obs::JsonFields()
                        .num("exit", 2)
                        .str("output", "rho = 0.5\n\"tab\"\there\n")
                        .str("json", json)
                        .count("served", 1234567)
                        .boolean("cached", true));
    server::writeError(conn, "\"req-1\"", "bad_request", "no \"kind\"",
                       nullptr);
    for (int i = 0; i < 2; ++i) {
      payloads += server::readFrame(fds[1], server::kDefaultMaxFrameBytes)
                      .payload;
      payloads += '\n';
    }
  }
  ::close(fds[1]);
  return payloads;
}

/// The text of `json` with the value that starts after `key` and runs
/// to the next `stop` replaced by `mask`.
inline std::string masked(std::string json, const std::string& key,
                          char stop, const std::string& mask) {
  const std::size_t at = json.find(key);
  if (at == std::string::npos) return json;
  const std::size_t from = at + key.size();
  const std::size_t to = json.find(stop, from);
  json.replace(from, to - from, mask);
  return json;
}

/// One telemetry event line, its clock reading replaced by `clock`.
inline std::string telemetryEvent(const std::string& clock = "T") {
  std::ostringstream sink;
  {
    obs::TelemetryHub hub(obs::TelemetryOptions{}, &sink);
    hub.emit("heartbeat", obs::JsonFields()
                              .count("shard", 1234567)
                              .num("eta_seconds", 0.1)
                              .str("worker", "w\"1\"")
                              .boolean("done", false));
  }
  return masked(sink.str(), "\"t_ms\":", ',', clock);
}

/// A fault-sim report on the built-in reference system at a tiny size,
/// its manifest line replaced by `mask` (it carries the wall time).
inline std::string faultSimJson(const std::string& mask = "{...},") {
  obs::Registry registry;
  obs::RunManifest manifest;
  const obs::Stopwatch wall;
  server::QueryContext ctx;
  ctx.registry = &registry;
  ctx.manifest = &manifest;
  ctx.wall = &wall;
  ctx.captureJson = true;
  std::ostringstream text;
  const server::QueryResult res = server::runFaultSimQuery(
      {"--crash", "1:0.5:0", "--slow",
       "machine:0:2:4:1.5", "--slow", "link:1:0.5:1:3", "--loss", "0:0.05",
       "--detect", "0.01", "--gens", "20", "--samples", "8", "--seed",
       "1592644046", "--threads", "1"},
      text, ctx);
  return masked(res.json, "\"manifest\": ", '\n', mask);
}

/// One rendered document; `jsonLines` when each line is a document.
struct Document {
  std::string name;
  std::string text;
  bool jsonLines = false;
};

/// Every document above, masked with valid JSON.
inline std::vector<Document> allDocuments() {
  return {{"manifest", manifestJson()},
          {"validate", validateJson()},
          {"sweep", sweepJson()},
          {"registry", registryJson()},
          {"chrome trace", chromeTraceJson()},
          {"replies", replyFrames(), true},
          {"telemetry", telemetryEvent("0"), true},
          {"fault-sim", faultSimJson("{},")}};
}

}  // namespace fepia::testing
