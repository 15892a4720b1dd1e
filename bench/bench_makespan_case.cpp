// Experiment MK — the makespan case study of baseline [2], which this
// paper extends: rank a population of resource allocations by the
// robustness metric across the four CVB heterogeneity regimes, and show
// that the makespan ranking and the robustness ranking disagree.
//
// Shape targets ([2] Section 3): every heuristic gets a positive radius
// under a common tau; the best-makespan allocation is not always the
// most robust; the engine radius equals the closed form
// min_m (tau − F_m)/sqrt(n_m) on every instance.
//
// Checked (exit status 1 on a miss): every radius is positive and equals
// the closed form to 1e-12 relative, and best-makespan != most-robust in
// at least one regime.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "claim.hpp"
#include "fepia.hpp"

namespace {

using namespace fepia;

}  // namespace

int main() {
  std::cout << "=== MK: robustness of independent-task allocations "
               "(tau = 1.3 x worst heuristic makespan) ===\n\n";

  int makespanRhoDisagreements = 0;
  int instances = 0;
  bool allPositive = true;
  double worstRelative = 0.0;
  for (const auto het :
       {etc::Heterogeneity::HiHi, etc::Heterogeneity::HiLo,
        etc::Heterogeneity::LoHi, etc::Heterogeneity::LoLo}) {
    rng::Xoshiro256StarStar g(1234 + static_cast<std::uint64_t>(het));
    const la::Matrix e = etc::generateCvb(60, 8, etc::cvbPreset(het), g);

    std::vector<std::pair<std::string, alloc::Allocation>> population;
    for (const auto h : alloc::allHeuristics()) {
      population.emplace_back(alloc::heuristicName(h),
                              alloc::runHeuristic(h, e));
    }
    double worst = 0.0;
    for (const auto& [name, mu] : population) {
      worst = std::max(worst, alloc::makespan(mu, e));
    }
    const double tau = 1.3 * worst;

    std::cout << "regime " << etc::heterogeneityName(het)
              << "  (60 tasks x 8 machines, tau = " << report::fixed(tau, 1)
              << " s):\n";
    report::Table table({"allocation", "makespan (s)", "rho engine (s)",
                         "rho closed form (s)", "rank ms", "rank rho"});
    std::vector<double> makespans, rhos;
    for (const auto& [name, mu] : population) {
      makespans.push_back(alloc::makespan(mu, e));
      rhos.push_back(alloc::makespanRobustness(mu, e, tau).rho);
    }
    const std::vector<double> msRank = stats::midRanks(makespans);
    // Robustness rank: larger rho = rank 1; rank descending.
    std::vector<double> negRho = rhos;
    for (double& v : negRho) v = -v;
    const std::vector<double> rhoRank = stats::midRanks(negRho);
    for (std::size_t i = 0; i < population.size(); ++i) {
      const double closed =
          alloc::makespanRobustnessClosedForm(population[i].second, e, tau);
      allPositive = allPositive && rhos[i] > 0.0;
      worstRelative =
          std::max(worstRelative, std::abs(rhos[i] - closed) / closed);
      table.addRow({population[i].first, report::fixed(makespans[i], 1),
                    report::fixed(rhos[i], 2), report::fixed(closed, 2),
                    report::fixed(msRank[i], 0), report::fixed(rhoRank[i], 0)});
    }
    table.print(std::cout);

    const auto bestMs = static_cast<std::size_t>(
        std::min_element(makespans.begin(), makespans.end()) -
        makespans.begin());
    const auto bestRho = static_cast<std::size_t>(
        std::max_element(rhos.begin(), rhos.end()) - rhos.begin());
    ++instances;
    if (bestMs != bestRho) ++makespanRhoDisagreements;
    std::cout << "  best makespan: " << population[bestMs].first
              << ", most robust: " << population[bestRho].first << "\n"
              << "  spearman(makespan, rho) = "
              << report::fixed(stats::spearman(makespans, rhos), 3) << "\n\n";
  }
  std::cout << "instances where best-makespan != most-robust: "
            << makespanRhoDisagreements << "/" << instances
            << "  (the metric adds information beyond makespan)\n\n";

  return checkClaims(
      {{allPositive, "MK: every heuristic has a positive radius under tau"},
       {worstRelative <= 1e-12,
        "MK: engine rho = min_m (tau - F_m)/sqrt(n_m) to 1e-12 relative"},
       {makespanRhoDisagreements >= 1,
        "MK: the best-makespan allocation is not always the most robust"}});
}
