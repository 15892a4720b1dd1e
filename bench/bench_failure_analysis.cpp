// Experiment FAIL (extension) — discrete machine-failure robustness.
//
// The paper's second uncertainty class, "sudden machine or link
// failures", is discrete: no continuous radius covers losing a machine.
// The complementary analysis implemented here removes each machine in
// turn, remaps its tasks greedily onto the survivors, and re-evaluates
// both the makespan constraint and the continuous robustness metric of
// the recovered allocation.
//
// Regenerates, for each mapping heuristic on a CVB workload:
//  * per-machine failure impact (recovered makespan, post-recovery rho);
//  * the single-failure survivability verdict per heuristic;
//  * the interplay between the two robustness notions: allocations with
//    larger rho also tend to recover better (slack is slack), but the
//    correspondence is not exact — concentration on few machines can be
//    rho-optimal yet fragile to failure.
//
// Checked (exit status 1 on a miss): under the generous tau every
// heuristic survives any single failure, and no failure raises rho.
#include <algorithm>
#include <iostream>
#include <string>

#include "claim.hpp"
#include "fepia.hpp"

namespace {

using namespace fepia;

/// "m<index>", the table label of machine `index`. Built by appending:
/// GCC 12 reports a false -Wrestrict on `"m" + std::to_string(index)`.
std::string machineLabel(std::size_t index) {
  std::string label = "m";
  label += std::to_string(index);
  return label;
}

}  // namespace

int main() {
  rng::Xoshiro256StarStar g(6060);
  const la::Matrix e =
      etc::generateCvb(48, 6, etc::cvbPreset(etc::Heterogeneity::HiHi), g);

  // A tau generous enough that failures are typically survivable.
  std::vector<std::pair<std::string, alloc::Allocation>> population;
  double worst = 0.0;
  for (const auto h : alloc::allHeuristics()) {
    population.emplace_back(alloc::heuristicName(h), alloc::runHeuristic(h, e));
    worst = std::max(worst, alloc::makespan(population.back().second, e));
  }
  const double tau = 2.0 * worst;

  std::cout << "=== FAIL: single-machine-failure robustness (48 tasks x 6 "
               "machines, tau = "
            << report::fixed(tau, 0) << " s) ===\n\n";

  report::Table table({"allocation", "rho before (s)", "survives any failure",
                       "worst-case rho after (s)", "worst failure"});
  bool everySurvives = true;
  bool failuresCostRho = true;
  for (const auto& [name, mu] : population) {
    const double rhoBefore = alloc::makespanRobustnessClosedForm(mu, e, tau);
    const bool survivesAll = alloc::survivesAnySingleFailure(mu, e, tau);
    // An unrecoverable failure has rhoAfter 0, so the first one is the
    // worst failure.
    double worstRho = std::numeric_limits<double>::infinity();
    std::size_t worstMachine = 0;
    for (const auto& im : alloc::machineFailureImpacts(mu, e, tau)) {
      if (im.rhoAfter < worstRho) {
        worstRho = im.rhoAfter;
        worstMachine = im.failedMachine;
      }
    }
    everySurvives = everySurvives && survivesAll;
    failuresCostRho = failuresCostRho && worstRho <= rhoBefore;
    table.addRow({name, report::fixed(rhoBefore, 1),
                  survivesAll ? "yes" : "NO",
                  report::fixed(worstRho, 1),
                  machineLabel(worstMachine)});
  }
  table.print(std::cout);

  // Detail for one allocation: the per-machine impact profile.
  const alloc::Allocation detail = alloc::minMin(e);
  std::cout << "\nper-machine impact for min-min:\n";
  report::Table profile({"failed machine", "tasks orphaned",
                         "makespan after (s)", "rho after (s)"});
  for (const auto& im : alloc::machineFailureImpacts(detail, e, tau)) {
    profile.addRow({machineLabel(im.failedMachine),
                    std::to_string(detail.tasksOn(im.failedMachine).size()),
                    report::fixed(im.makespanAfter, 1),
                    im.recoverable ? report::fixed(im.rhoAfter, 1)
                                   : "not recoverable"});
  }
  profile.print(std::cout);
  std::cout << "\nShape check: failures cost robustness (rho after <= rho "
               "before, with equality\nonly when the failed machine was "
               "idle, as for MET's unused machines); the\nmost loaded "
               "machine is the worst one to lose; under the generous tau "
               "all\nheuristics survive any single failure — tighten tau "
               "and survivability breaks\nbefore the continuous radius "
               "reaches zero, which is why both analyses exist.\n\n";

  return checkClaims(
      {{everySurvives,
        "FAIL: every heuristic survives any single failure under the "
        "generous tau"},
       {failuresCostRho,
        "FAIL: no single failure raises an allocation's rho"}});
}
