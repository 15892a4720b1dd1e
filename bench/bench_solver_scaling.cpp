// Experiment SOLV (ablation) — numeric boundary solver vs closed form.
//
// The FePIA radius has a closed form only for hyperplane boundaries; the
// library's numeric engine (multistart ray shooting + alternating
// projection) covers everything else. This ablation quantifies what the
// numeric engine costs and how accurate it is where the truth is known:
//  * linear features: relative error vs the hyperplane distance, for
//    dimensions 2..256;
//  * spherical features: error vs |‖x0 − c‖ − R|;
//  * evaluation counts, and the multistart-budget accuracy trade-off.
//
// Checked (exit status 1 on a miss): every relative error is at most
// 1e-12. The closed form's speed advantage is timed and printed, never
// checked: the host's free cores vary from run to run.
#include <cmath>
#include <iostream>

#include "claim.hpp"
#include "fepia.hpp"
#include "obs/clock.hpp"

namespace {

using namespace fepia;

struct LinearProblem {
  feature::LinearFeature phi;
  feature::FeatureBounds bounds;
  la::Vector orig;
};

LinearProblem makeLinear(std::size_t n, std::uint64_t seed) {
  rng::Xoshiro256StarStar g(seed);
  la::Vector k(n);
  la::Vector orig(n);
  for (std::size_t i = 0; i < n; ++i) {
    k[i] = rng::uniform(g, 0.1, 2.0);
    orig[i] = rng::uniform(g, 0.5, 5.0);
  }
  feature::LinearFeature phi("phi", k);
  const double bound = phi.evaluate(orig) + rng::uniform(g, 1.0, 10.0);
  return {std::move(phi), feature::FeatureBounds::upper(bound),
          std::move(orig)};
}

}  // namespace

int main() {
  std::cout << "=== SOLV: numeric boundary solver accuracy and cost ===\n\n";

  std::cout << "linear features (truth = Eq. 4 hyperplane distance):\n";
  report::Table lin({"dim", "closed form", "numeric", "rel error",
                     "field evals"});
  double worstLinear = 0.0;
  for (const std::size_t n : {2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
    const LinearProblem p = makeLinear(n, 1000 + n);
    const auto exact = radius::featureRadius(p.phi, p.bounds, p.orig);
    const auto numeric = radius::featureRadiusNumeric(p.phi, p.bounds, p.orig);
    const double error =
        std::abs(numeric.radius - exact.radius) / exact.radius;
    worstLinear = std::max(worstLinear, error);
    lin.addRow({std::to_string(n), report::num(exact.radius, 8),
                report::num(numeric.radius, 8), report::num(error, 2),
                std::to_string(numeric.evaluations)});
  }
  lin.print(std::cout);

  std::cout << "\nspherical features (truth = |dist(orig, center) − R|):\n";
  report::Table sph({"dim", "truth", "numeric", "rel error"});
  double worstSphere = 0.0;
  for (const std::size_t n : {2u, 4u, 8u, 16u}) {
    rng::Xoshiro256StarStar g(2000 + n);
    la::Vector center(n), orig(n);
    for (std::size_t i = 0; i < n; ++i) {
      center[i] = rng::uniform(g, -1.0, 1.0);
      orig[i] = rng::uniform(g, -1.0, 1.0);
    }
    const double sphereR = rng::uniform(g, 2.0, 4.0);
    const feature::GenericFeature phi(
        "sphere", n, [center](const std::vector<ad::Dual>& v) {
          ad::Dual acc = 0.0;
          for (std::size_t i = 0; i < v.size(); ++i) {
            const ad::Dual d = v[i] - ad::Dual(center[i]);
            acc += d * d;
          }
          return acc;
        });
    const auto numeric = radius::featureRadius(
        phi, feature::FeatureBounds::upper(sphereR * sphereR), orig);
    const double truth = std::abs(la::distance(orig, center) - sphereR);
    const double error = std::abs(numeric.radius - truth) / truth;
    worstSphere = std::max(worstSphere, error);
    sph.addRow({std::to_string(n), report::num(truth, 8),
                report::num(numeric.radius, 8), report::num(error, 2)});
  }
  sph.print(std::cout);

  std::cout << "\nmultistart budget vs accuracy (64-dim linear):\n";
  report::Table budget({"multistarts", "rel error", "field evals"});
  const LinearProblem p = makeLinear(64, 3000);
  const auto exact = radius::featureRadius(p.phi, p.bounds, p.orig);
  double worstBudget = 0.0;
  for (const std::size_t ms : {1u, 4u, 16u, 64u, 256u}) {
    radius::NumericOptions opts;
    opts.solver.multistarts = ms;
    const auto numeric =
        radius::featureRadiusNumeric(p.phi, p.bounds, p.orig, opts);
    const double error =
        std::abs(numeric.radius - exact.radius) / exact.radius;
    worstBudget = std::max(worstBudget, error);
    budget.addRow({std::to_string(ms), report::num(error, 2),
                   std::to_string(numeric.evaluations)});
  }
  budget.print(std::cout);
  std::cout << "(the gradient-direction probe plus refinement keeps the error "
               "small even with\n a single random multistart — extra starts "
               "buy robustness on multi-branch\n boundaries, not accuracy on "
               "convex ones)\n\n";

  // The speed claim behind dispatching on feature structure: wall time
  // per call on the linear table's smallest and largest problems.
  const auto secondsPerCall = [](const auto& solve) {
    std::size_t calls = 0;
    const obs::Stopwatch sw;
    do {
      solve();
      ++calls;
    } while (sw.elapsedSeconds() < 0.02);
    return sw.elapsedSeconds() / static_cast<double>(calls);
  };
  std::cout << "numeric / closed-form wall time per call (host-dependent, "
               "not checked):";
  for (const std::size_t n : {2u, 256u}) {
    const LinearProblem q = makeLinear(n, 1000 + n);
    const double numericSeconds = secondsPerCall(
        [&q] { (void)radius::featureRadiusNumeric(q.phi, q.bounds, q.orig); });
    const double closedSeconds = secondsPerCall(
        [&q] { (void)radius::featureRadius(q.phi, q.bounds, q.orig); });
    std::cout << (n == 2 ? " dim " : ", dim ") << n << " "
              << report::num(numericSeconds / closedSeconds, 2) << "x";
  }
  std::cout << "\n\n";

  return checkClaims(
      {{worstLinear <= 1e-12,
        "SOLV: numeric = Eq. (4) to 1e-12 relative on linear features up to "
        "dim 256"},
       {worstSphere <= 1e-12,
        "SOLV: numeric = |dist(orig, center) - R| to 1e-12 relative on "
        "spheres"},
       {worstBudget <= 1e-12,
        "SOLV: 1e-12 relative accuracy at every multistart budget"}});
}
