// Shared pieces of the fepia benchmark harness: run options, the metric
// record every workload fills, timing and statistics helpers, and the
// trace session that gathers the program's own spans for the traced run.
//
// A workload is one function `Outcome runX(const Options&)`. It sets up
// (several times, the median is `setup_s`), runs closed-loop operations
// for `Options::seconds`, checks every output against a reference made
// during set-up, and fills the end-to-end metrics. With `Options::trace`
// it instead alternates untraced and traced operations and fills the
// per-layer metrics from the spans and registry counters.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "rng/xoshiro.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;       ///< self-test size: every input shrunk
  std::string root = ".";  ///< checkout root (example data lives there)
  std::string outDir;      ///< results, traces and generated inputs
  std::size_t cpus = 1;    ///< CPUs this process may run on
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  /// Every output check passed (and, traced, the span checks held).
  bool correct = true;
  std::uint64_t attempted = 0;
  /// Operations that failed, were refused or failed their output check.
  std::uint64_t failed = 0;
  /// The BENCHMARK.json metrics: end-to-end (untraced run) or per-layer
  /// (traced run).
  std::vector<Metric> metrics;
  /// The workload's own metric names, printed in the summary table.
  std::vector<Metric> named;
  /// One line per failed check.
  std::vector<std::string> problems;
  /// Compute threads plus client connections the workload used.
  std::size_t threadsUsed = 1;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void addNamed(const std::string& name, double value,
                const std::string& unit) {
    named.push_back({name, value, unit});
  }
  /// Records a failed check; the run is then reported incorrect. Only
  /// the first few are kept.
  void fail(const std::string& what) {
    correct = false;
    if (problems.size() < 8) problems.push_back(what);
  }
};

// ---------------------------------------------------------------------
// Statistics, randomness and resources.

/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
[[nodiscard]] double sum(const std::vector<double>& values);

/// mean(`other`) / mean(`base`) - 1; 0 when either sample is empty.
[[nodiscard]] double relativeIncrease(const std::vector<double>& base,
                                      const std::vector<double>& other);

/// Quantile of a fixed-bucket histogram, interpolated inside the bucket
/// that holds it; 0 for an empty histogram.
[[nodiscard]] double histogramQuantile(const fepia::obs::Histogram& h,
                                       double q);

/// Seeded generator for the workloads' inputs (problems, request mix,
/// sweep grid): the same seed always gives the same inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : mix_(seed) {}
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(mix_.next() >> 11) * 0x1p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(uniform() * static_cast<double>(n));
  }

 private:
  fepia::rng::SplitMix64 mix_;
};

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peakRssMb();

/// User plus system CPU seconds this process has used so far.
[[nodiscard]] double processCpuSeconds();

/// CPUs the process may run on (sched_getaffinity), at least 1.
[[nodiscard]] std::size_t availableCpus();

/// Runs `build` five times, timing each; returns the median seconds.
/// Workloads pass a lambda that tears down the previous set-up and
/// builds a fresh one, so the last build is the one that is used.
[[nodiscard]] double medianSetupSeconds(const std::function<void()>& build);

/// Mean milliseconds per call of `fn`, called at least `minCalls` times
/// and for at least `minSeconds`.
[[nodiscard]] double meanMillis(const std::function<void()>& fn,
                                std::size_t minCalls = 5,
                                double minSeconds = 0.05);

/// Removes the `"manifest": {...}` member (and its trailing ", ") from a
/// JSON report: the manifest carries wall time and host, the only
/// legitimately run-dependent content of a query's JSON document.
[[nodiscard]] std::string dropManifest(const std::string& json);

/// Drops the lines whose first non-blank characters start with one of
/// `prefixes`.
[[nodiscard]] std::string dropLines(const std::string& text,
                                    const std::vector<std::string>& prefixes);

/// Writes a whole file; throws std::runtime_error on failure.
void writeFile(const std::string& path, const std::string& text);

// ---------------------------------------------------------------------
// Tracing.

/// Collects the program's spans over several traced intervals. The
/// collector drops its records on every start(), so each interval's
/// records are moved out when it ends. begin()/end() must be called
/// while no span is open on any thread. Pool wait-time sampling
/// (obs::timingEnabled) is on exactly while an interval is open.
class TraceSession {
 public:
  void begin();
  void end();

  [[nodiscard]] const std::vector<fepia::obs::SpanRecord>& records() const {
    return records_;
  }

  /// Writes every record as a Chrome trace-event file (open it in
  /// Perfetto or chrome://tracing).
  void writeChromeTrace(const std::string& path) const;

 private:
  std::vector<fepia::obs::SpanRecord> records_;
  std::uint64_t baseNs_ = 0;
  bool started_ = false;
};

}  // namespace perfbench
