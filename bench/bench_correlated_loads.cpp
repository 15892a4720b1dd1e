// Experiment CORR (extension) — robustness under correlated sensor loads.
//
// The Euclidean radius of Eq. (1) treats every perturbation direction as
// equally likely. Real sensor loads co-move: the ships a radar sees are
// the ships the sonar hears. With a covariance model, the natural metric
// is Mahalanobis — the Euclidean radius in whitened coordinates, in
// standard-deviation units.
//
// Regenerates, on the HiPer-D reference pipeline's load problem:
//  * per-feature radii under independence and under positively /
//    negatively correlated radar-sonar loads (engine vs the linear
//    closed form |value − beta| / sqrt(k^T Sigma k));
//  * the critical-feature switch correlation induces;
//  * fragility attribution of the critical feature: which sensor the
//    worst-case direction actually moves.
//
// Checked (exit status 1 on a miss): the engine matches the closed form
// to 1e-12 relative on every entry, and rho shrinks under +0.9 and grows
// under -0.9 radar-sonar correlation.
#include <cmath>
#include <iostream>

#include "claim.hpp"
#include "fepia.hpp"

namespace {

using namespace fepia;

/// Covariance over (radar, sonar, ais) loads with the given radar-sonar
/// correlation; standard deviations scale with the assumed loads.
la::Matrix loadCovariance(const la::Vector& lambda, double radarSonarCorr) {
  const la::Vector sd = 0.2 * lambda;  // 20% relative std-dev per sensor
  la::Matrix sigma(3, 3, 0.0);
  for (std::size_t i = 0; i < 3; ++i) sigma(i, i) = sd[i] * sd[i];
  sigma(0, 1) = sigma(1, 0) = radarSonarCorr * sd[0] * sd[1];
  return sigma;
}

}  // namespace

int main() {
  const hiperd::ReferenceSystem ref = hiperd::makeReferenceSystem();
  const feature::FeatureSet phi = ref.system.loadFeatureSet(ref.qos);
  const la::Vector lambda = ref.system.originalLoads();

  std::cout << "=== CORR: Mahalanobis robustness under correlated sensor "
               "loads ===\n\n"
            << "per-sensor std-dev = 20% of the assumed load; radius in "
               "std-dev units\n\n";

  struct Scenario {
    const char* name;
    double corr;
  };
  const Scenario scenarios[] = {{"independent", 0.0},
                                {"radar-sonar +0.9", 0.9},
                                {"radar-sonar -0.9", -0.9}};

  report::Table table({"feature", "r independent", "r corr +0.9",
                       "r corr -0.9"});
  std::vector<std::vector<double>> radii(phi.size());
  double worstRelative = 0.0;
  for (std::size_t i = 0; i < phi.size(); ++i) {
    std::vector<std::string> row = {phi[i].feature->name()};
    for (const Scenario& sc : scenarios) {
      const la::Matrix sigma = loadCovariance(lambda, sc.corr);
      const auto r = radius::mahalanobisRadius(*phi[i].feature, phi[i].bounds,
                                               lambda, sigma);
      radii[i].push_back(r.radius);
      row.push_back(report::fixed(r.radius, 3));
      // Engine vs linear closed form on every entry.
      const auto* lin =
          dynamic_cast<const feature::LinearFeature*>(phi[i].feature.get());
      const double closed = radius::mahalanobisLinearRadius(
          lin->coefficients(), lin->offset(), phi[i].bounds, lambda, sigma);
      worstRelative =
          std::max(worstRelative, std::abs(closed - r.radius) / closed);
      if (std::abs(closed - r.radius) > 1e-9 * closed) {
        row.back() += " (MISMATCH)";
      }
    }
    table.addRow(std::move(row));
  }
  table.print(std::cout);

  double rho[3];
  for (std::size_t s = 0; s < 3; ++s) {
    std::size_t critical = 0;
    for (std::size_t i = 1; i < phi.size(); ++i) {
      if (radii[i][s] < radii[critical][s]) critical = i;
    }
    rho[s] = radii[critical][s];
    std::cout << "\n" << scenarios[s].name << ": rho = "
              << report::fixed(radii[critical][s], 3) << " sd, critical "
              << phi[critical].feature->name();
    // Fragility attribution of the critical feature.
    const auto r = radius::mahalanobisRadius(
        *phi[critical].feature, phi[critical].bounds, lambda,
        loadCovariance(lambda, scenarios[s].corr));
    const auto attr = radius::attributeFragility(r, lambda);
    std::cout << "; worst direction dominated by "
              << ref.system.sensor(attr.dominantElement).name << " ("
              << report::fixed(100.0 * attr.share[attr.dominantElement], 0)
              << "% of the displacement)";
  }
  std::cout
      << "\n\nShape check: positive radar-sonar correlation concentrates "
         "variability along\nthe latency features' normals and SHRINKS the "
         "usable radius; negative\ncorrelation lets the loads trade off "
         "and GROWS it. A metric that ignores\ncorrelation (the Euclidean "
         "radius) cannot see either effect.\n\n";

  return checkClaims(
      {{worstRelative <= 1e-12,
        "CORR: Mahalanobis engine = |value - beta|/sqrt(k^T Sigma k) to "
        "1e-12 relative"},
       {rho[1] < rho[0], "CORR: +0.9 radar-sonar correlation shrinks rho"},
       {rho[2] > rho[0], "CORR: -0.9 radar-sonar correlation grows rho"}});
}
