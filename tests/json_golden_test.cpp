// Golden bytes of every kind of JSON the tree writes (the fixtures in
// support/json_documents.hpp). CI baselines, perfbench's byte
// comparisons and users' scripts read these documents, so a change of
// writer must not move a byte of them unnoticed.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "support/json_documents.hpp"

namespace {

namespace t = fepia::testing;
namespace validate = fepia::validate;

/// On a mismatch, prints the actual text raw, ready to paste.
void expectBytes(const std::string& actual, const std::string& golden) {
  EXPECT_EQ(actual, golden) << "actual bytes:\n" << actual << "<<<END";
}

TEST(JsonGolden, Manifest) {
  expectBytes(t::manifestJson(), R"json({"tool": "fepia_cli \"validate\"", "git_sha": "0123456789abcdef", "compiler": "gcc 12.2.0", "build_type": "Release", "cxx_flags": "-O2 -DNAME=\\\"x\\\"", "hostname": "host\tname", "hardware_concurrency": 4, "threads": 1024, "seed": 1592644046, "args": ["--json", "out.json", "\u0001"], "wall_seconds": 1234.5})json");
}

TEST(JsonGolden, ValidateRows) {
  expectBytes(t::validateJson(), R"json({"manifest": {"tool": "fepia_cli \"validate\"", "git_sha": "0123456789abcdef", "compiler": "gcc 12.2.0", "build_type": "Release", "cxx_flags": "-O2 -DNAME=\\\"x\\\"", "hostname": "host\tname", "hardware_concurrency": 4, "threads": 1024, "seed": 1592644046, "args": ["--json", "out.json", "\u0001"], "wall_seconds": 1234.5}, "rows": [{"label": "feature \"a\\b\"", "analytic": 0.5, "empirical": 0.52000000000000002, "relative_error": 0.040000000000000036, "ci": [0.48999999999999999, 0.52500000000000013], "within_ci": true, "directions": 4096, "boundary_hits": 4000, "classifications": 1234567}, {"label": "zero", "analytic": 0, "empirical": 0.0015, "relative_error": null, "ci": [0.001, 0.0015], "within_ci": false, "directions": 8, "boundary_hits": 8, "classifications": 96}]}
)json");
}

TEST(JsonGolden, SweepSurface) {
  expectBytes(t::sweepJson(), R"json({
  "sweep": "golden",
  "manifest": {"tool": "fepia_cli \"validate\"", "git_sha": "0123456789abcdef", "compiler": "gcc 12.2.0", "build_type": "Release", "cxx_flags": "-O2 -DNAME=\\\"x\\\"", "hostname": "host\tname", "hardware_concurrency": 4, "threads": 1024, "seed": 1592644046, "args": ["--json", "out.json", "\u0001"], "wall_seconds": 1234.5},
  "workload": "linear",
  "seed": 1592644046,
  "points": 4,
  "chunk": 2,
  "shards": 2,
  "complete": false,
  "resumed_shards": 1,
  "cache": {"enabled": true, "hits": 12345, "misses": 2},
  "classifications": 1234567,
  "axes": [
    {"name": "n", "values": ["2", "4"]},
    {"name": "beta", "values": ["1.5", "2.5"]},
    {"name": "scheme", "values": ["normalized"]},
    {"name": "kscale", "values": ["1"]},
    {"name": "origscale", "values": ["1"]}
  ],
  "results": [
    {"id": 0, "point": {"n": "2", "beta": "1.5", "scheme": "normalized", "kscale": "1", "origscale": "1"}, "analytic_rho": 0.25, "closed_form_radius": 0.25, "empirical_radius": 0.29999999999999999, "degraded_radius": null, "makespan": null, "classifications": 1000},
    {"id": 1, "point": {"n": "2", "beta": "2.5", "scheme": "normalized", "kscale": "1", "origscale": "1"}, "analytic_rho": 0.5, "closed_form_radius": 0.5, "empirical_radius": null, "degraded_radius": null, "makespan": null, "classifications": 2000},
    {"id": 3, "point": {"n": "4", "beta": "2.5", "scheme": "normalized", "kscale": "1", "origscale": "1"}, "analytic_rho": 1, "closed_form_radius": 1, "empirical_radius": 0.29999999999999999, "degraded_radius": null, "makespan": null, "classifications": 4000}
  ]
}
)json");
}

TEST(JsonGolden, Registry) {
  expectBytes(t::registryJson(), R"json({"counters": {"evals": 123456}, "gauges": {"pool.busy \"frac\"": 0.75}, "histograms": {"wait_us": {"buckets": [{"le": 1, "count": 1}, {"le": 10, "count": 1}, {"le": 100, "count": 1}, {"le": null, "count": 1}], "count": 4, "sum": 5055.5, "min": 0.5, "max": 5000}}})json");
}

TEST(JsonGolden, ChromeTrace) {
  expectBytes(t::chromeTraceJson(), R"json([
{"name": "process_name", "ph": "M", "pid": 0, "args": {"name": "fepia"}},
{"name": "validate.estimate", "cat": "fepia", "ph": "X", "ts": 1234.567, "dur": 2000.005, "pid": 0, "tid": 0, "args": {"id": "t0.1"}},
{"name": "classify \"kernel\"", "cat": "fepia", "ph": "X", "ts": 9999999.999, "dur": 0.007, "pid": 0, "tid": 1234, "args": {"id": "t1.1.2", "lanes": 1234567}}
]
)json");
}

TEST(JsonGolden, ReplyFrames) {
  expectBytes(t::replyFrames(), R"json({"id":12345,"ok":true,"exit":2,"output":"rho = 0.5\n\"tab\"\there\n","json":"{\"rows\": [1.5]}\n","served":1234567,"cached":true}
{"id":"req-1","ok":false,"error":{"code":"bad_request","message":"no \"kind\""}}
)json");
}

TEST(JsonGolden, TelemetryEvent) {
  expectBytes(t::telemetryEvent(), R"json({"type":"heartbeat","t_ms":T,"shard":1234567,"eta_seconds":0.10000000000000001,"worker":"w\"1\"","done":false}
)json");
}

TEST(JsonGolden, FaultSimReport) {
  expectBytes(t::faultSimJson(), R"json({
  "manifest": {...},
  "config": {"seed": 1592644046, "threads": 1, "scenarios": 1, "generations": 20},
  "plan": {
    "crashes": [{"machine": 1, "at_seconds": 0.5, "backup": 0}],
    "slowdowns": [{"target": "machine", "index": 0, "from_seconds": 2, "to_seconds": 4, "factor": 1.5}, {"target": "link", "index": 1, "from_seconds": 0.5, "to_seconds": 1, "factor": 3}],
    "losses": [{"link": 0, "probability": 0.050000000000000003}]
  },
  "nominal": {"satisfies": true, "max_observed_latency": 0.16300000000000014, "throughput_sustained": true, "incomplete_observations": 0,
    "counters": {"failovers": 15, "lost_messages": 2, "retries": 2, "dropped_messages": 0, "unrecovered_jobs": 0, "downtime_seconds": 1.5414749999999997, "backoff_wait_seconds": 0.02}},
  "degraded": {"radius": 1.0001919667324128, "ci_lo": 0, "ci_hi": 1.0001919667324128, "directions": 8, "boundary_hits": 8, "classifications": 11402},
  "analytic": {"rho": 1.3712053155421366, "critical_feature": "latency(path-radar)"}
}
)json");
}

// JSON has no infinity: an unbounded region's radii are written null,
// as every other document writes them (the validate report used to
// write 1e999, which strict parsers reject).
TEST(JsonGolden, ValidateInfiniteRadiusIsNull) {
  validate::EmpiricalEstimate est;  // no direction hit the boundary
  est.directions = 16;
  est.classifications = 160;
  const std::vector<validate::Comparison> rows = {validate::compare(
      "unbounded", std::numeric_limits<double>::infinity(), est)};
  std::ostringstream os;
  validate::writeComparisonJson(os, rows);
  expectBytes(os.str(), R"json({"rows": [{"label": "unbounded", "analytic": null, "empirical": null, "relative_error": null, "ci": [0, 0], "within_ci": true, "directions": 16, "boundary_hits": 0, "classifications": 160}]}
)json");
}

}  // namespace
