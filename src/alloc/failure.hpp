// Machine-failure impact analysis.
//
// "Sudden machine or link failures" is the paper's second example of an
// uncertainty a general robustness approach must cover. Unlike execution
// time drift, a failure is a discrete event, so it gets a discrete
// analysis: for each machine, remove it, remap its tasks greedily onto
// the survivors, and re-evaluate the makespan constraint and the
// (continuous) robustness metric of the recovered allocation. The result
// ranks machines by criticality and tells whether the allocation
// tolerates any single failure at all.
#pragma once

#include <vector>

#include "alloc/allocation.hpp"
#include "la/matrix.hpp"

namespace fepia::alloc {

/// Outcome of losing one machine.
struct FailureImpact {
  std::size_t failedMachine = 0;
  /// False when the recovered allocation violates tau (or no machines
  /// remain) — the failure is not survivable under the constraint.
  bool recoverable = false;
  /// Tasks remapped onto the surviving machines (MCT greedy).
  Allocation recovered;
  double makespanAfter = 0.0;
  /// rho of the recovered allocation under tau; 0 when not recoverable.
  double rhoAfter = 0.0;
};

/// Greedy MCT re-mapping of the failed machine's tasks onto survivors.
/// Throws std::invalid_argument when shapes mismatch or only one machine
/// exists (nothing to fail over to).
[[nodiscard]] Allocation recoverFromFailure(const Allocation& mu,
                                            const la::Matrix& etcMatrix,
                                            std::size_t failedMachine);

/// Multi-failure generalisation: remaps every task stranded on a machine
/// in `failedMachines` onto the survivors (greedy MCT, longest-first).
/// Duplicates in the set are ignored. Throws std::invalid_argument when
/// shapes mismatch, an index is out of range, the set is empty, or no
/// machine survives.
[[nodiscard]] Allocation recoverFromFailures(
    const Allocation& mu, const la::Matrix& etcMatrix,
    const std::vector<std::size_t>& failedMachines);

/// Evaluates every single-machine failure. `tau` is the makespan
/// constraint the recovered allocation must respect.
[[nodiscard]] std::vector<FailureImpact> machineFailureImpacts(
    const Allocation& mu, const la::Matrix& etcMatrix, double tau);

/// True when every single-machine failure is recoverable under tau —
/// a discrete robustness certificate complementing the continuous rho.
[[nodiscard]] bool survivesAnySingleFailure(const Allocation& mu,
                                            const la::Matrix& etcMatrix,
                                            double tau);

}  // namespace fepia::alloc
