// Experiment STOCH (extension) — the robust region under stochastic
// execution-time variability.
//
// The paper's metric is deterministic: within the radius, the *modelled*
// feature values cannot violate QoS. Real pipelines also jitter around
// their operating point. This extension runs the HiPer-D DES with
// multiplicative gamma noise (mean 1, CoV = j) on every service time and
// measures the latency-violation probability as a function of the
// operating point's distance to the boundary (fraction of rho) and of j.
//
// Expected shape: at low jitter the deterministic guarantee carries over
// (0% violations inside the radius); as jitter grows, violations leak in
// from the boundary inward — the margin (rho − distance) becomes the
// budget that absorbs the noise. This quantifies how much of the radius
// one should "spend" on stochastic headroom.
//
// Checked (exit status 1 on a miss): the jitter-free column reads 0%
// inside the radius and 100% beyond it, and the violation rate never
// falls as the distance or the jitter grows.
#include <iostream>
#include <vector>

#include "claim.hpp"
#include "fepia.hpp"

namespace {

using namespace fepia;

}  // namespace

int main() {
  const hiperd::ReferenceSystem ref = hiperd::makeReferenceSystem();
  const radius::FepiaProblem problem =
      ref.system.executionMessageProblem(ref.qos);
  const auto analysis =
      problem.merged(radius::MergeScheme::NormalizedByOriginal);
  const double rho = analysis.report().rho;

  // Operating points along the critical (nearest-boundary) direction.
  const auto& rep = analysis.report();
  const auto& critical = rep.features[rep.criticalFeature];
  const radius::DiagonalMap map(critical.mapWeights);
  const la::Vector piBoundary = map.fromP(critical.radius.boundaryPoint);
  const la::Vector piOrig = problem.space().concatenatedOriginal();

  std::cout << "=== STOCH: violation probability under service jitter ===\n\n"
            << "rho = " << report::fixed(rho, 4)
            << "; operating points on the nearest-boundary ray; 30 seeds x "
               "200 generations each\n\n";

  report::Table table({"distance / rho", "jitter CoV 0", "CoV 0.1",
                       "CoV 0.3", "CoV 0.6"});
  const int seeds = 30;
  bool deterministicSharp = true;
  bool monotone = true;
  std::vector<int> previousRow(4, 0);
  for (const double frac : {0.0, 0.5, 0.8, 0.95, 1.05}) {
    const la::Vector point = piOrig + frac * (piBoundary - piOrig);
    const auto parts = problem.space().split(point);
    std::vector<std::string> row = {report::fixed(frac, 2)};
    std::vector<int> rowViolations;
    for (const double cov : {0.0, 0.1, 0.3, 0.6}) {
      int violations = 0;
      for (int s = 0; s < seeds; ++s) {
        des::PipelineOptions opts;
        opts.generations = 200;
        opts.serviceJitterCov = cov;
        opts.jitterSeed = 9000 + static_cast<std::uint64_t>(s);
        const des::PipelineResult res = des::simulatePipeline(
            ref.system, parts[0], parts[1], ref.qos.minThroughput, opts);
        if (!res.satisfies(ref.qos.maxLatencySeconds)) ++violations;
      }
      row.push_back(report::fixed(100.0 * violations / seeds, 0) + "%");
      monotone = monotone && violations >= previousRow[rowViolations.size()] &&
                 (rowViolations.empty() || violations >= rowViolations.back());
      rowViolations.push_back(violations);
    }
    deterministicSharp = deterministicSharp &&
                         rowViolations[0] == (frac < 1.0 ? 0 : seeds);
    previousRow = rowViolations;
    table.addRow(std::move(row));
  }
  table.print(std::cout);
  std::cout
      << "\nShape check: the deterministic column flips 0% -> 100% exactly "
         "at the radius.\nWith jitter the criterion is 'any violation during "
         "a 200-generation run', so\ntail events dominate: even the assumed "
         "operating point occasionally breaches\nthe latency bound once "
         "per-job noise reaches CoV 0.1, and the breach rate\ngrows "
         "monotonically with both distance and noise. Deterministic radii "
         "bound\nthe *model*; stochastic headroom must be budgeted against "
         "the run-length\nmaximum on top of it.\n\n";

  return checkClaims(
      {{deterministicSharp,
        "STOCH: without jitter, 0% violations inside the radius and 100% "
        "beyond it"},
       {monotone,
        "STOCH: the violation rate never falls as distance or jitter "
        "grows"}});
}
