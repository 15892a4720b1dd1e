#include "alloc/failure.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "alloc/robustness.hpp"

namespace fepia::alloc {

Allocation recoverFromFailure(const Allocation& mu, const la::Matrix& etcMatrix,
                              std::size_t failedMachine) {
  if (failedMachine < mu.machineCount() && mu.machineCount() < 2) {
    throw std::invalid_argument(
        "alloc::recoverFromFailure: no surviving machine to fail over to");
  }
  return recoverFromFailures(mu, etcMatrix, {failedMachine});
}

Allocation recoverFromFailures(const Allocation& mu, const la::Matrix& etcMatrix,
                               const std::vector<std::size_t>& failedMachines) {
  if (etcMatrix.rows() != mu.taskCount() ||
      etcMatrix.cols() != mu.machineCount()) {
    throw std::invalid_argument("alloc::recoverFromFailures: shape mismatch");
  }
  if (failedMachines.empty()) {
    throw std::invalid_argument("alloc::recoverFromFailures: empty failure set");
  }
  std::vector<bool> failed(mu.machineCount(), false);
  std::size_t survivors = mu.machineCount();
  for (const std::size_t f : failedMachines) {
    if (f >= mu.machineCount()) {
      throw std::invalid_argument(
          "alloc::recoverFromFailures: bad machine index");
    }
    if (!failed[f]) {
      failed[f] = true;
      --survivors;
    }
  }
  if (survivors == 0) {
    throw std::invalid_argument(
        "alloc::recoverFromFailures: no surviving machine to fail over to");
  }

  Allocation recovered = mu;
  std::vector<std::size_t> orphans;
  for (std::size_t m = 0; m < mu.machineCount(); ++m) {
    if (!failed[m]) continue;
    const std::vector<std::size_t> stranded = mu.tasksOn(m);
    orphans.insert(orphans.end(), stranded.begin(), stranded.end());
  }

  // Finish times of the survivors under the unchanged assignments.
  la::Vector finish = machineFinishTimes(mu, etcMatrix);
  for (std::size_t m = 0; m < mu.machineCount(); ++m) {
    if (failed[m]) finish[m] = 0.0;
  }

  // Greedy MCT: remap the orphaned tasks, longest (on their best
  // survivor) first, each to the machine minimising its completion time.
  std::sort(orphans.begin(), orphans.end(), [&](std::size_t a, std::size_t b) {
    double bestA = std::numeric_limits<double>::infinity();
    double bestB = std::numeric_limits<double>::infinity();
    for (std::size_t m = 0; m < mu.machineCount(); ++m) {
      if (failed[m]) continue;
      bestA = std::min(bestA, etcMatrix(a, m));
      bestB = std::min(bestB, etcMatrix(b, m));
    }
    return bestA > bestB;
  });

  for (std::size_t t : orphans) {
    std::size_t bestM = mu.machineCount();
    double bestCt = std::numeric_limits<double>::infinity();
    for (std::size_t m = 0; m < mu.machineCount(); ++m) {
      if (failed[m]) continue;
      const double ct = finish[m] + etcMatrix(t, m);
      if (ct < bestCt) {
        bestCt = ct;
        bestM = m;
      }
    }
    recovered.reassign(t, bestM);
    finish[bestM] = bestCt;
  }
  return recovered;
}

std::vector<FailureImpact> machineFailureImpacts(const Allocation& mu,
                                                 const la::Matrix& etcMatrix,
                                                 double tau) {
  if (mu.machineCount() < 2) {
    throw std::invalid_argument(
        "alloc::machineFailureImpacts: needs at least two machines");
  }
  std::vector<FailureImpact> out;
  out.reserve(mu.machineCount());
  for (std::size_t f = 0; f < mu.machineCount(); ++f) {
    FailureImpact impact{f, false, recoverFromFailure(mu, etcMatrix, f), 0.0,
                         0.0};
    impact.makespanAfter = makespan(impact.recovered, etcMatrix);
    if (impact.makespanAfter < tau) {
      impact.recoverable = true;
      impact.rhoAfter =
          makespanRobustnessClosedForm(impact.recovered, etcMatrix, tau);
    }
    out.push_back(std::move(impact));
  }
  return out;
}

bool survivesAnySingleFailure(const Allocation& mu, const la::Matrix& etcMatrix,
                              double tau) {
  for (const FailureImpact& impact :
       machineFailureImpacts(mu, etcMatrix, tau)) {
    if (!impact.recoverable) return false;
  }
  return true;
}

}  // namespace fepia::alloc
