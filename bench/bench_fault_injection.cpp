// Experiment FAULTDEG — cost of the degraded-mode robustness radius.
//
// What does one degraded-mode radius estimate (crash failover, loss
// retry, slowdown windows in the DES) cost end to end, serial vs thread
// pools of growing size, on the paper's HiPer-D reference pipeline under
// a sampled fault scenario?
//
// Determinism contract on display: every degraded estimate below returns
// the same radius and the same degradation counters bit-for-bit — thread
// counts only change the wall clock. Structured results land in
// BENCH_fault.json (override the path with FEPIA_BENCH_JSON).
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "fepia.hpp"
#include "claim.hpp"
#include "obs/clock.hpp"
#include "obs/manifest.hpp"

namespace {

using namespace fepia;

obs::RunManifest g_manifest;

bool smokeMode() {
  const char* env = std::getenv("FEPIA_BENCH_SMOKE");
  return env != nullptr && std::strcmp(env, "0") != 0;
}

/// The reference pipeline plus a fixed mild scenario — an early crash
/// with a backup, a transient slowdown window, and a lightly lossy link
/// — so failover, retry and window accounting all fire while the
/// operating point still satisfies QoS in degraded mode.
struct Workload {
  hiperd::ReferenceSystem ref = hiperd::makeReferenceSystem();
  fault::FaultPlan plan = makePlan();

  [[nodiscard]] fault::FaultPlan makePlan() const {
    fault::FaultPlan p;
    p.crashes.push_back({1, 0.5, 0});
    p.slowdowns.push_back({fault::Slowdown::Target::Machine, 0, 2.0, 4.0, 1.5});
    p.losses.push_back({ref.system.message(0).link, 0.05});
    p.policy.detectionTimeoutSeconds = 0.01;
    return p;
  }
};

struct Run {
  std::size_t threads = 0;  ///< 0 = serial (no pool)
  double seconds = 0.0;
  fault::DegradedEstimate est;
};

Run timedRun(const Workload& w, const validate::EstimatorOptions& opts,
             const fault::DegradedOptions& dopts, std::size_t threads) {
  Run r;
  r.threads = threads;
  std::unique_ptr<parallel::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<parallel::ThreadPool>(threads);
  const obs::Stopwatch sw;
  r.est = fault::estimateDegradedRadius(w.ref, {w.plan}, opts, dopts,
                                        pool.get());
  r.seconds = sw.elapsedSeconds();
  return r;
}

bool sameEstimate(const fault::DegradedEstimate& a,
                  const fault::DegradedEstimate& b) {
  return a.degraded.radius == b.degraded.radius &&
         a.degraded.classifications == b.degraded.classifications &&
         a.nominal.faults.failovers == b.nominal.faults.failovers &&
         a.nominal.faults.retries == b.nominal.faults.retries &&
         a.nominal.faults.downtimeSeconds == b.nominal.faults.downtimeSeconds;
}

int printExperiment() {
  const obs::Stopwatch wall;
  const bool smoke = smokeMode();
  const Workload w;
  validate::EstimatorOptions opts;
  opts.directions = smoke ? 8 : 32;
  opts.seed = 0x5EEDD1CEull;
  fault::DegradedOptions dopts;
  dopts.generations = smoke ? 60 : 200;
  dopts.explicitDirections = true;

  std::cout << "=== FAULTDEG: degraded-mode radius under fault injection ==="
            << "\n\nHiPer-D pipeline, fixed mild scenario: "
            << w.plan.crashes.size() << " crash(es), "
            << w.plan.slowdowns.size() << " slowdown(s), "
            << w.plan.losses.size() << " loss rate(s); " << opts.directions
            << " directions x " << dopts.generations << " generations"
            << (smoke ? "  [smoke mode]" : "") << "\n\n";

  // threads=1 is always in the list: the single-worker pool must cost
  // the same as the serial path (it runs parallelFor inline), and the
  // regression guard checks the ratio.
  std::vector<Run> runs;
  runs.push_back(timedRun(w, opts, dopts, 0));
  for (const std::size_t t : smoke ? std::vector<std::size_t>{1, 2}
                                   : std::vector<std::size_t>{1, 2, 4, 8}) {
    runs.push_back(timedRun(w, opts, dopts, t));
  }

  report::Table table({"threads", "degraded radius", "classifications",
                       "failovers", "retries", "wall (s)"});
  for (const Run& r : runs) {
    table.addRow({r.threads == 0 ? "serial" : std::to_string(r.threads),
                  report::num(r.est.degraded.radius, 8),
                  std::to_string(r.est.degraded.classifications),
                  std::to_string(r.est.nominal.faults.failovers),
                  std::to_string(r.est.nominal.faults.retries),
                  report::num(r.seconds, 3)});
  }
  table.print(std::cout);

  bool identical = true;
  for (const Run& r : runs) identical &= sameEstimate(r.est, runs[0].est);

  // threads=1 vs serial: the inline fast path makes a one-worker pool
  // cost what the serial path costs. 2.0x is a generous noise bound —
  // before the fix the ratio sat around 1.4x systematically.
  double threads1Ratio = 0.0;
  for (const Run& r : runs) {
    if (r.threads == 1) threads1Ratio = r.seconds / runs[0].seconds;
  }
  const bool threads1WithinNoise = threads1Ratio > 0.0 && threads1Ratio <= 2.0;

  std::cout << "\nanalytic rho = " << report::num(runs[0].est.analyticRho, 8)
            << "  (critical: " << runs[0].est.criticalFeature << ")\n"
            << "degraded estimate identical across all runs: "
            << (identical ? "yes" : "NO — determinism contract broken")
            << "\nthreads=1 wall / serial wall: "
            << report::num(threads1Ratio, 3)
            << (threads1WithinNoise ? "  (within noise)"
                                    : "  (REGRESSION: pool overhead)")
            << "\n\n";

  const des::FaultCounters& fc = runs[0].est.nominal.faults;
  const std::size_t hc = std::thread::hardware_concurrency();
  return writeBenchJson(
      "fault_injection", "BENCH_fault.json", g_manifest, wall,
      [&](obs::JsonWriter& doc) {
        doc.boolean("smoke", smoke).count("seed", opts.seed);
        doc.count("directions", opts.directions);
        doc.count("generations", dopts.generations);
        doc.num("analytic_rho", runs[0].est.analyticRho);
        doc.boolean("nominal_satisfies", runs[0].est.nominalSatisfies);
        doc.object("nominal_counters").count("failovers", fc.failovers);
        doc.count("lost_messages", fc.lostMessages);
        doc.count("retries", fc.retries);
        doc.count("dropped_messages", fc.droppedMessages);
        doc.count("unrecovered_jobs", fc.unrecoveredJobs);
        doc.num("downtime_seconds", fc.downtimeSeconds);
        doc.num("backoff_wait_seconds", fc.backoffWaitSeconds).end();
        doc.boolean("degraded_runs_identical", identical);
        doc.num("threads1_vs_serial_ratio", threads1Ratio);
        doc.boolean("threads1_within_serial_noise", threads1WithinNoise);
        doc.array("runs", obs::JsonLayout::Lines);
        for (const Run& r : runs) {
          const validate::EmpiricalEstimate& g = r.est.degraded;
          doc.object().count("threads", r.threads);
          doc.count("hardware_concurrency", hc);
          doc.num("degraded_radius", g.radius);
          doc.count("classifications", g.classifications);
          doc.num("classifications_per_sec",
                  static_cast<double>(g.classifications) / r.seconds);
          doc.num("wall_seconds", r.seconds).end();
        }
        doc.end();
      });
}

}  // namespace

int main(int argc, char** argv) {
  g_manifest = obs::RunManifest::collect("bench_fault_injection", argc, argv);
  return printExperiment();
}