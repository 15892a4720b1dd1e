// Experiment S3.1 — the paper's Section 3.1 negative result.
//
// With the sensitivity-based weighting (alpha_j = 1/r_mu(phi_i, pi_j)),
// the P-space robustness radius of a linear feature of n one-element
// perturbation kinds is ALWAYS 1/sqrt(n): "regardless of the values of
// k_j's, beta and the original values of pi_j's, the robustness radius is
// equal to 1/sqrt(n)". The harness sweeps all three knobs and prints the
// engine-computed radius next to 1/sqrt(n); every row's deviation is at
// numerical noise level, reproducing the paper's table-free but exact
// analytical claim.
//
// Checked (exit status 1 on a miss): every row's rho equals 1/sqrt(n)
// to 1e-12 relative.
#include <cmath>
#include <iostream>
#include <memory>

#include "claim.hpp"
#include "fepia.hpp"

namespace {

using namespace fepia;

struct Instance {
  perturb::PerturbationSpace space;
  feature::FeatureSet phi;
};

Instance makeInstance(std::size_t n, double beta, double kScale,
                      double origScale, std::uint64_t seed) {
  rng::Xoshiro256StarStar g(seed);
  Instance inst;
  la::Vector k(n);
  la::Vector orig(n);
  for (std::size_t j = 0; j < n; ++j) {
    k[j] = kScale * rng::uniform(g, 0.1, 3.0);
    orig[j] = origScale * rng::uniform(g, 0.2, 20.0);
    inst.space.add(perturb::PerturbationParameter(
        "pi" + std::to_string(j),
        units::Unit::base(static_cast<units::Dimension>(j % 4)),
        la::Vector{orig[j]}));
  }
  const auto lin = std::make_shared<feature::LinearFeature>("phi", k);
  inst.phi.add(lin,
               feature::FeatureBounds::upper(beta * lin->evaluate(orig)));
  return inst;
}

}  // namespace

int main() {
  std::cout << "=== S3.1: sensitivity-weighted radius is 1/sqrt(n), "
               "invariant to k, beta, pi^orig ===\n\n";
  report::Table table({"n", "beta", "k scale", "orig scale", "rho (engine)",
                       "1/sqrt(n)", "|deviation|"});
  double worstDeviation = 0.0;
  double worstRelative = 0.0;
  for (const std::size_t n : {2u, 4u, 8u, 16u, 32u, 64u}) {
    for (const double beta : {1.05, 1.2, 1.5, 2.0, 3.0}) {
      for (const double kScale : {1.0, 100.0}) {
        for (const double origScale : {1.0, 0.01}) {
          const Instance inst =
              makeInstance(n, beta, kScale, origScale,
                           n * 1000 + static_cast<std::uint64_t>(beta * 100));
          const double rho =
              radius::MergedAnalysis(inst.phi, inst.space,
                                     radius::MergeScheme::Sensitivity)
                  .report()
                  .rho;
          const double expected = radius::sensitivityLinearRadius(n);
          const double dev = std::abs(rho - expected);
          worstDeviation = std::max(worstDeviation, dev);
          worstRelative = std::max(worstRelative, dev / expected);
          table.addRow({std::to_string(n), report::fixed(beta, 2),
                        report::fixed(kScale, 0), report::fixed(origScale, 2),
                        report::num(rho, 10), report::num(expected, 10),
                        report::num(dev, 3)});
        }
      }
    }
  }
  table.print(std::cout);
  std::cout << "\nworst deviation across the sweep: "
            << report::num(worstDeviation, 3)
            << "  (the radius never responds to k, beta or pi^orig — the\n"
               "   degeneracy the paper proves, reproduced by the engine)\n\n";

  return checkClaims({{worstRelative <= 1e-12,
                       "S3.1: rho = 1/sqrt(n) to 1e-12 relative on every row"}});
}
