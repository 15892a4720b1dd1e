// Experiment FIG1 — Figure 1 of the paper.
//
// "Some possible directions of increase of the perturbation parameter
// pi_j, and the direction of the smallest increase. The curve plots the
// set of points { pi_j : f_ij(pi_j) = beta_i^max }."
//
// We regenerate the figure's data for a 2-element perturbation vector:
//  * the beta_max boundary curve (sampled), for a curved feature like the
//    one sketched in the figure and for a linear feature;
//  * the assumed point pi^orig, the nearest boundary element pi*(phi_i),
//    and the robustness radius (the smallest-increase direction);
//  * several "possible directions of increase" with their distances to
//    the boundary, showing the radius is the minimum.
// The beta_min boundary (the axes, for nonnegative parameters) is
// reported via the orthant distance.
//
// Checked (exit status 1 on a miss): the radius is no larger than the
// distance along any sampled direction, and the linear variant's radius
// equals Eq. (4)'s |14 - 28|/sqrt(2) to 1e-12 relative.
#include <cmath>
#include <iostream>
#include <limits>
#include <memory>

#include "claim.hpp"
#include "fepia.hpp"

namespace {

using namespace fepia;

// The curved feature of the figure: phi(pi) = pi1*pi2/40 + pi1 + pi2
// (superlinear interaction — its level set bows toward the origin like
// the sketch). beta_max chosen to put the boundary near (20, 20).
const ad::DualField kCurved = [](const std::vector<ad::Dual>& v) {
  return v[0] * v[1] * (1.0 / 40.0) + v[0] + v[1];
};

constexpr double kBetaMax = 50.0;
const la::Vector kOrig{8.0, 6.0};

feature::GenericFeature curvedFeature() {
  return feature::GenericFeature("phi (curved)", 2, kCurved);
}

}  // namespace

int main() {
  std::cout << "=== FIG1: boundary set, robustness radius, directions of "
               "increase ===\n\n";
  const feature::GenericFeature phi = curvedFeature();
  std::cout << "feature  phi(pi) = pi1*pi2/40 + pi1 + pi2,  beta^max = "
            << kBetaMax << ",  pi^orig = " << kOrig << "\n"
            << "phi(pi^orig) = " << phi.evaluate(kOrig) << "\n\n";

  // --- the boundary curve {phi = beta_max}, sampled over pi1 ---
  std::cout << "boundary curve points (pi1, pi2) with phi = beta^max:\n";
  report::Table curve({"pi1", "pi2"});
  for (double x = 0.0; x <= 50.0; x += 2.5) {
    // Solve phi(x, y) = beta for y: y (x/40 + 1) = beta − x.
    const double y = (kBetaMax - x) / (x / 40.0 + 1.0);
    if (y < 0.0) break;
    curve.addRow({report::fixed(x, 2), report::fixed(y, 2)});
  }
  curve.print(std::cout);

  // --- the robustness radius: smallest increase to the boundary ---
  const auto r = radius::featureRadius(
      phi, feature::FeatureBounds::upper(kBetaMax), kOrig);
  std::cout << "\npi*(phi) = " << r.boundaryPoint
            << "   robustness radius r = " << report::fixed(r.radius, 4)
            << "\n";

  // --- several directions of increase, as in the figure's arrows ---
  std::cout << "\ndistance to the boundary along sample directions "
               "(radius = minimum):\n";
  report::Table dirs({"direction (deg)", "distance to boundary"});
  const opt::FieldFn field = [&phi](const la::Vector& x) {
    return phi.evaluate(x);
  };
  double nearestAlongRays = std::numeric_limits<double>::infinity();
  for (int deg = 0; deg <= 90; deg += 15) {
    const double rad = deg * M_PI / 180.0;
    const la::Vector d{std::cos(rad), std::sin(rad)};
    const auto hit = opt::rayShootToLevel(field, kOrig, d, kBetaMax, 1e4);
    if (hit) nearestAlongRays = std::min(nearestAlongRays, hit->t);
    dirs.addRow({std::to_string(deg),
                 hit ? report::fixed(hit->t, 4) : "unreachable"});
  }
  dirs.print(std::cout);

  // --- the beta_min boundary of the figure: the coordinate axes ---
  std::cout << "\nbeta^min boundary (the axes, for nonnegative parameters): "
               "distance from pi^orig = "
            << report::fixed(la::distanceToNonnegativeOrthantBoundary(kOrig), 4)
            << "\n";

  // --- same construction for a linear feature: hyperplane boundary ---
  const feature::LinearFeature lin("phi (linear)", la::Vector{1.0, 1.0});
  const auto rLin = radius::featureRadius(
      lin, feature::FeatureBounds::upper(28.0), kOrig);
  std::cout << "\nlinear variant  phi = pi1 + pi2, beta^max = 28: radius = "
            << report::fixed(rLin.radius, 4) << " (closed form |14 - 28|/sqrt(2) = "
            << report::fixed(14.0 / std::sqrt(2.0), 4) << "), pi* = "
            << rLin.boundaryPoint << "\n\n";

  const double linearTruth = 14.0 / std::sqrt(2.0);
  return checkClaims(
      {{r.radius <= nearestAlongRays,
        "FIG1: the radius is the minimum over the directions of increase"},
       {std::abs(rLin.radius - linearTruth) <= 1e-12 * linearTruth,
        "FIG1: linear variant radius = |14 - 28|/sqrt(2) to 1e-12 relative"}});
}
