// Experiment VAL — empirical validation of the robust region.
//
// The metric promises: operate anywhere within the radius (in P-space)
// and no QoS constraint is violated. The harness checks this against the
// discrete-event simulation of the HiPer-D pipeline:
//  * random growth directions at several fractions of rho — inside the
//    radius the simulated pipeline must sustain throughput and, since
//    queueing only adds latency above the analytic stage sums, analytic
//    feasibility is the correct prediction target;
//  * the exact nearest-boundary direction at 1.05x — must violate.
// Reported per magnitude: predicted-safe rate, analytic-violation rate,
// simulated throughput-failure rate.
//
// Checked (exit status 1 on a miss): below magnitude 1 every direction
// is predicted safe, holds analytically and sustains DES throughput;
// above 1 none is predicted safe; on the nearest-boundary direction
// 0.95x holds and 1.05x violates.
#include <cmath>
#include <iostream>

#include "claim.hpp"
#include "fepia.hpp"

namespace {

using namespace fepia;

}  // namespace

int main() {
  const hiperd::ReferenceSystem ref = hiperd::makeReferenceSystem();
  const radius::FepiaProblem problem =
      ref.system.executionMessageProblem(ref.qos);
  const auto analysis = problem.merged(radius::MergeScheme::NormalizedByOriginal);
  const double rho = analysis.report().rho;
  const la::Vector e0 = ref.system.originalExecutionTimes();
  const la::Vector m0 = ref.system.originalMessageSizes();
  const std::size_t dim = e0.size() + m0.size();

  std::cout << "=== VAL: the analytic robust region vs the simulated "
               "pipeline ===\n\n"
            << "rho (normalized) = " << report::fixed(rho, 4)
            << "; 40 random growth directions per magnitude\n\n";

  report::Table table({"magnitude / rho", "metric predicts safe",
                       "analytic QoS holds", "DES throughput sustained"});
  rng::Xoshiro256StarStar g(2025);
  bool safeInside = true;
  bool unsafePredictedOutside = true;
  for (const double frac : {0.25, 0.5, 0.75, 0.9, 0.99, 1.1, 1.5, 2.0}) {
    int predictedSafe = 0, analyticOk = 0, desOk = 0;
    const int trials = 40;
    for (int t = 0; t < trials; ++t) {
      const auto dir = rng::unitSphereNonnegative(g, dim);
      la::Vector e = e0;
      la::Vector m = m0;
      for (std::size_t i = 0; i < e.size(); ++i) {
        e[i] *= 1.0 + frac * rho * dir[i];
      }
      for (std::size_t i = 0; i < m.size(); ++i) {
        m[i] *= 1.0 + frac * rho * dir[e.size() + i];
      }
      const std::vector<la::Vector> perKind = {e, m};
      if (analysis.check(perKind).tolerated) ++predictedSafe;
      const la::Vector flat = problem.space().concatenateUnchecked(perKind);
      if (problem.features().allWithinBounds(flat)) ++analyticOk;
      des::PipelineOptions opts;
      opts.generations = 150;
      const des::PipelineResult res = des::simulatePipeline(
          ref.system, e, m, ref.qos.minThroughput, opts);
      if (res.throughputSustained) ++desOk;
    }
    if (frac < 1.0) {
      safeInside = safeInside && predictedSafe == trials &&
                   analyticOk == trials && desOk == trials;
    } else {
      unsafePredictedOutside = unsafePredictedOutside && predictedSafe == 0;
    }
    const auto pct = [&](int c) {
      return report::fixed(100.0 * c / trials, 0) + "%";
    };
    table.addRow({report::fixed(frac, 2), pct(predictedSafe), pct(analyticOk),
                  pct(desOk)});
  }
  table.print(std::cout);
  std::cout
      << "\nShape check: at magnitude < 1 the metric predicts 100% safe and "
         "both the\nanalytic QoS and the simulated throughput agree; beyond "
         "1 the prediction drops\nto 0% while violations appear only in "
         "the directions that actually cross a\nboundary (the metric is "
         "worst-direction conservative, never unsafe).\n\n";

  // Nearest-boundary direction: sharp at the radius.
  const auto& report0 = analysis.report();
  const auto& critical = report0.features[report0.criticalFeature];
  const radius::DiagonalMap map(critical.mapWeights);
  const la::Vector piBoundary = map.fromP(critical.radius.boundaryPoint);
  const la::Vector piOrig = problem.space().concatenatedOriginal();
  std::cout << "nearest-boundary direction (critical feature '"
            << critical.featureName << "'):\n";
  bool sharpAtBoundary = true;
  for (const double step : {0.95, 1.0, 1.05}) {
    const la::Vector point = piOrig + step * (piBoundary - piOrig);
    const bool ok = problem.features().allWithinBounds(point);
    if (step != 1.0) sharpAtBoundary = sharpAtBoundary && ok == (step < 1.0);
    std::cout << "  " << report::fixed(step, 2)
              << " x boundary: analytic QoS " << (ok ? "holds" : "VIOLATED")
              << "\n";
  }
  std::cout << "\n";

  return checkClaims(
      {{safeInside,
        "VAL: zero violations (metric, analytic, DES) below magnitude 1"},
       {unsafePredictedOutside,
        "VAL: the metric predicts no direction safe beyond the radius"},
       {sharpAtBoundary,
        "VAL: the nearest-boundary direction holds at 0.95x and violates "
        "at 1.05x"}});
}
