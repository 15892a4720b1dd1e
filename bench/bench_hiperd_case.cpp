// Experiment HPD — the HiPer-D case study of baseline [2]: robustness of
// the reference fusion pipeline against sensor-load growth (single
// perturbation kind, objects per data set).
//
// Regenerates: the per-feature robustness radii (throughput features per
// machine and link, latency features per path), the system radius rho,
// agreement between the closed-form hyperplane engine and the fully
// numeric solver on every feature, and the feasible-load frontier along
// each single-sensor axis.
//
// Checked (exit status 1 on a miss): closed form = numeric to 1e-12
// relative on every feature, rho = the smallest feature radius, and each
// single-sensor frontier lies at least rho beyond the assumed load.
#include <cmath>
#include <iostream>
#include <limits>

#include "claim.hpp"
#include "fepia.hpp"

namespace {

using namespace fepia;

}  // namespace

int main() {
  const hiperd::ReferenceSystem ref = hiperd::makeReferenceSystem();
  const hiperd::System& sys = ref.system;
  const la::Vector lambda = sys.originalLoads();

  std::cout << "=== HPD: HiPer-D robustness against sensor loads ===\n\n"
            << "QoS: R >= " << ref.qos.minThroughput
            << " data sets/s (0.1 s budget), latency <= "
            << ref.qos.maxLatencySeconds << " s\n"
            << "assumed loads: " << lambda << " objects/set\n\n";

  const feature::FeatureSet phi = sys.loadFeatureSet(ref.qos);
  const radius::RobustnessReport report = radius::robustness(phi, lambda);

  report::Table table({"feature", "phi(orig) (s)", "bound (s)",
                       "radius closed form", "radius numeric", "rel diff"});
  double worstRelative = 0.0;
  double smallestRadius = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < phi.size(); ++i) {
    const auto& bf = phi[i];
    const auto numeric =
        radius::featureRadiusNumeric(*bf.feature, bf.bounds, lambda);
    const double closed = report.perFeature[i].radius;
    worstRelative =
        std::max(worstRelative, std::abs(numeric.radius - closed) / closed);
    smallestRadius = std::min(smallestRadius, closed);
    table.addRow({bf.feature->name(),
                  report::fixed(bf.feature->evaluate(lambda), 4),
                  report::fixed(bf.bounds.betaMax(), 4),
                  report::fixed(closed, 2), report::fixed(numeric.radius, 2),
                  report::num(std::abs(numeric.radius - closed) /
                                  (closed > 0 ? closed : 1.0),
                              2)});
  }
  table.print(std::cout);
  std::cout << "\nrho = " << report::fixed(report.rho, 2)
            << " objects/set, critical feature: "
            << report.featureNames[report.criticalFeature] << "\n\n";

  // Feasible-load frontier per sensor: largest single-sensor growth the
  // system tolerates (other sensors at assumed loads).
  std::cout << "single-sensor growth frontier (bisection on the raw QoS "
               "predicate):\n";
  report::Table frontier(
      {"sensor", "assumed load", "max tolerable load", "growth factor"});
  bool frontierBeyondRho = true;
  for (std::size_t s = 0; s < sys.sensorCount(); ++s) {
    double lo = lambda[s], hi = lambda[s];
    // Exponential search then bisection on the load of sensor s.
    la::Vector probe = lambda;
    while (true) {
      probe[s] = hi * 2.0;
      if (!sys.satisfies(ref.qos, probe)) break;
      hi *= 2.0;
    }
    hi *= 2.0;
    for (int it = 0; it < 60; ++it) {
      const double mid = 0.5 * (lo + hi);
      probe[s] = mid;
      (sys.satisfies(ref.qos, probe) ? lo : hi) = mid;
    }
    frontierBeyondRho = frontierBeyondRho && lo - lambda[s] >= report.rho;
    frontier.addRow({sys.sensor(s).name, report::fixed(lambda[s], 1),
                     report::fixed(lo, 1),
                     report::fixed(lo / lambda[s], 2)});
  }
  frontier.print(std::cout);
  std::cout << "(the robustness radius rho bounds the tolerable growth in "
               "the WORST direction;\n single-axis growth tolerates more, "
               "as the frontier shows)\n\n";

  return checkClaims(
      {{worstRelative <= 1e-12,
        "HPD: closed form = numeric solver to 1e-12 relative on every "
        "feature"},
       {report.rho == smallestRadius, "HPD: rho = min over feature radii"},
       {frontierBeyondRho,
        "HPD: single-sensor growth tolerates at least rho on every axis"}});
}
