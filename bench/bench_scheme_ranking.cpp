// Experiment RANK (ablation) — do the two merge schemes rank systems the
// same way? The paper's argument against sensitivity weighting is that a
// measure blind to k, beta and pi^orig "cannot compare the robustness of
// different systems". This harness quantifies that on populations of
// randomized HiPer-D pipelines:
//  * per population, rho under both schemes for every system;
//  * Spearman and Kendall correlation between the two rankings;
//  * the number of distinct values each scheme can even produce.
//
// Checked (exit status 1 on a miss): the sensitivity scheme assigns one
// distinct rho to the whole population, the normalized scheme 24/24.
#include <cmath>
#include <iostream>
#include <set>

#include "claim.hpp"
#include "fepia.hpp"

namespace {

using namespace fepia;

}  // namespace

int main() {
  std::cout << "=== RANK: can the schemes rank a population of systems? "
               "===\n\n";

  const std::size_t populationSize = 24;
  rng::Xoshiro256StarStar g(777);

  std::vector<double> rhoSens, rhoNorm;
  report::Table table({"system", "apps", "msgs", "rho sensitivity",
                       "rho normalized"});
  for (std::size_t i = 0; i < populationSize; ++i) {
    hiperd::RandomSystemParams params;
    params.sensors = 2 + static_cast<std::size_t>(g() % 3);
    params.chainDepth = 2 + static_cast<std::size_t>(g() % 3);
    // Vary the QoS slack so systems genuinely differ in robustness.
    params.qosSlack = rng::uniform(g, 1.2, 3.0);
    const hiperd::ReferenceSystem sys = hiperd::makeRandomSystem(params, g);
    const radius::FepiaProblem problem =
        sys.system.executionMessageProblem(sys.qos);
    const double rs = problem.rho(radius::MergeScheme::Sensitivity);
    const double rn = problem.rho(radius::MergeScheme::NormalizedByOriginal);
    rhoSens.push_back(rs);
    rhoNorm.push_back(rn);
    table.addRow({std::to_string(i),
                  std::to_string(sys.system.applicationCount()),
                  std::to_string(sys.system.messageCount()),
                  report::fixed(rs, 6), report::fixed(rn, 6)});
  }
  table.print(std::cout);

  // How many distinct robustness values can each scheme assign?
  const auto distinctCount = [](const std::vector<double>& xs) {
    std::set<long long> quantised;
    for (double x : xs) {
      quantised.insert(static_cast<long long>(std::llround(x * 1e9)));
    }
    return quantised.size();
  };
  const std::size_t distinctSens = distinctCount(rhoSens);
  const std::size_t distinctNorm = distinctCount(rhoNorm);
  std::cout << "\ndistinct values (1e-9 resolution): sensitivity "
            << distinctSens << "/" << populationSize << ", normalized "
            << distinctNorm << "/" << populationSize << "\n";

  // Rank agreement — meaningful only if the sensitivity ranking is not
  // degenerate.
  try {
    const double sp = stats::spearman(rhoSens, rhoNorm);
    const double kt = stats::kendallTauB(rhoSens, rhoNorm);
    std::cout << "spearman(sens, norm) = " << report::fixed(sp, 3)
              << ", kendall tau-b = " << report::fixed(kt, 3) << "\n";
  } catch (const std::domain_error&) {
    std::cout << "rank correlation undefined: the sensitivity scheme "
                 "assigned (nearly) the\nsame rho to every system — it "
                 "cannot rank this population at all, which is\nprecisely "
                 "the paper's objection.\n";
  }
  std::cout
      << "\nShape check: every system's sensitivity rho is 1/sqrt(#kinds "
         "its critical\nfeature uses) — a handful of values for the whole "
         "population — while the\nnormalized rho spreads according to each "
         "system's actual slack.\n\n";

  return checkClaims(
      {{distinctSens == 1,
        "RANK: the sensitivity scheme assigns 1 distinct rho to 24 systems"},
       {distinctNorm == populationSize,
        "RANK: the normalized scheme assigns 24/24 distinct values"}});
}
