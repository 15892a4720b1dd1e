// Experiment SEARCH (ablation) — designing FOR robustness.
//
// The paper's introduction motivates the metric as a design tool: "design
// a resource allocation that will tolerate as much sensor load increase
// as possible before a QoS violation occurs". This ablation compares, on
// CVB workloads under a shared makespan constraint tau:
//   * makespan heuristics evaluated post hoc (the MK experiment);
//   * simulated annealing on makespan (design for speed);
//   * simulated annealing on rho (design for robustness);
//   * rho-greedy local search seeded by min-min.
// Reported: the achieved rho and makespan of each strategy, which shows
// what the metric buys as an objective. Designing for rho need not cost
// makespan: in lo-lo the rho-greedy local search also ends fastest.
//
// Checked (exit status 1 on a miss), per regime: the rho-greedy local
// search ends with the largest radius (so a rho-targeted search does),
// and annealing on rho ends with a larger radius than annealing on
// makespan.
#include <algorithm>
#include <iostream>

#include "claim.hpp"
#include "fepia.hpp"

namespace {

using namespace fepia;

}  // namespace

int main() {
  std::cout << "=== SEARCH: designing allocations for robustness ===\n\n";

  bool rhoTargetedLargest = true;
  bool localSearchLargest = true;
  bool annealFollowsObjective = true;
  for (const auto het : {etc::Heterogeneity::HiHi, etc::Heterogeneity::LoLo}) {
    rng::Xoshiro256StarStar g(4242 + static_cast<std::uint64_t>(het));
    const la::Matrix e = etc::generateCvb(40, 6, etc::cvbPreset(het), g);
    const alloc::Allocation seed = alloc::mct(e);
    const double tau = 1.4 * alloc::makespan(seed, e);
    const auto rhoOf = [&](const alloc::Allocation& mu) {
      return alloc::makespanRobustnessClosedForm(mu, e, tau);
    };

    std::cout << "regime " << etc::heterogeneityName(het)
              << " (40 tasks x 6 machines, tau = " << report::fixed(tau, 1)
              << " s):\n";
    report::Table table({"strategy", "makespan (s)", "rho (s)"});

    const auto addRow = [&](const std::string& name,
                            const alloc::Allocation& mu) {
      const double rho = rhoOf(mu);
      table.addRow({name, report::fixed(alloc::makespan(mu, e), 1),
                    report::fixed(rho, 2)});
      return rho;
    };
    double heuristicRho = addRow("min-min heuristic", alloc::minMin(e));
    heuristicRho = std::max(heuristicRho,
                            addRow("sufferage heuristic", alloc::sufferage(e)));
    heuristicRho = std::max(heuristicRho, addRow("mct heuristic (seed)", seed));

    alloc::AnnealOptions opts;
    opts.iterations = 30000;
    const alloc::AnnealResult forMs = alloc::simulatedAnnealing(
        seed, e, alloc::makespanObjective(), g, opts);
    const double annealMakespanRho = addRow("anneal: makespan", forMs.best);

    const alloc::AnnealResult forRho = alloc::simulatedAnnealing(
        seed, e, alloc::rhoObjective(tau), g, opts);
    const double annealRho = addRow("anneal: rho", forRho.best);

    const alloc::Allocation greedy =
        alloc::localSearch(alloc::minMin(e), e, alloc::rhoObjective(tau));
    const double localSearchRho = addRow("local search: rho", greedy);
    localSearchLargest =
        localSearchLargest &&
        localSearchRho >= std::max({heuristicRho, annealMakespanRho, annealRho});
    rhoTargetedLargest =
        rhoTargetedLargest && std::max(annealRho, localSearchRho) >=
                                  std::max(heuristicRho, annealMakespanRho);
    annealFollowsObjective =
        annealFollowsObjective && annealRho > annealMakespanRho;

    table.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "Shape check: in both regimes the rho-greedy local search "
               "ends with the largest\nradius, and annealing on rho ends "
               "with a larger radius than annealing on\nmakespan. Neither "
               "annealing run wins its own column: annealing on rho stays\n"
               "below the best heuristic's radius, and annealing on makespan "
               "never ends\nfastest. Robustness is an optimum of its own, "
               "which is why the paper argues\nfor measuring it "
               "explicitly.\n\n";

  return checkClaims(
      {{rhoTargetedLargest,
        "SEARCH: a rho-targeted strategy ends with the largest radius"},
       {localSearchLargest,
        "SEARCH: the rho-greedy local search ends with the largest radius"},
       {annealFollowsObjective,
        "SEARCH: annealing on rho beats annealing on makespan on rho"}});
}
