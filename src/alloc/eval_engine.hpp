// Batched, parallel, incremental evaluation engine for allocation
// objectives.
//
// The point of the robustness metric is to *rank and select* resource
// allocations by rho, so the search loops (local search, annealing, GA)
// evaluate the same objective millions of times on nearly identical
// allocations. Recomputing every machine finish time from scratch per
// candidate is O(tasks * machines) per evaluation; this engine makes the
// hot path cheap three ways:
//
//  * Incremental deltas — moving one task between machines only changes
//    the two machines' finish times and their (tau - finish)/sqrt(n)
//    margin terms. The engine maintains per-machine state with an
//    explicit apply/revert API and scores a move in O(n_from + n_to)
//    instead of O(tasks * machines).
//  * Parallel batches — all single-task moves of a local-search step, or
//    a whole GA population, fan out across parallel::ThreadPool in fixed
//    chunks with index-ordered reduction, so the result is bit-identical
//    for a fixed seed at any thread count (same recipe as src/validate).
//  * Memoization — a chromosome-keyed cache so GA elites and revisited
//    neighbours are never re-scored.
//
// Exactness contract: every score the engine returns is bit-identical to
// the corresponding from-scratch evaluation (rhoObjective(tau) /
// makespanObjective()). Per-machine sums are always recomputed in task-
// index order over exactly the tasks on that machine — never drifted via
// floating-point add/subtract — which is what makes zero-drift
// regression tests possible.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "alloc/allocation.hpp"
#include "alloc/search.hpp"
#include "la/matrix.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"

namespace fepia::alloc {

/// A task-to-machine assignment vector (the GA's chromosome view).
using Chromosome = std::vector<std::size_t>;

/// Which objective the engine accelerates.
enum class EngineObjective {
  /// rho = min over loaded machines of (tau - F_m)/sqrt(n_m), with -inf
  /// for allocations where some loaded machine already violates tau
  /// (matches alloc::rhoObjective).
  Rho,
  /// -makespan = -max_m F_m (matches alloc::makespanObjective).
  NegMakespan,
};

/// Engine configuration.
struct EngineConfig {
  EngineObjective objective = EngineObjective::Rho;
  /// tau for EngineObjective::Rho; ignored for NegMakespan.
  double tau = 0.0;
  /// Memoization entries kept before the cache resets (0 disables).
  std::size_t cacheCapacity = 1u << 16;
  /// Moves per parallel chunk in bestMove scans and chromosomes per
  /// chunk in batch evaluation. The chunk -> slot mapping is fixed, so
  /// results do not depend on the thread count.
  std::size_t chunkSize = 64;
};

/// A move under consideration or already applied (for revert).
struct Move {
  std::size_t task = 0;
  std::size_t to = 0;
  /// Machine the task was on before the move (filled by apply()).
  std::size_t from = 0;
};

/// Best single-task reassignment found by a scan.
struct BestMove {
  std::optional<Move> move;  ///< empty when no move improves
  double objective = 0.0;    ///< objective after the move (engine-exact)
};

/// Batched, parallel, incremental evaluator over a fixed ETC matrix.
///
/// Thread-safety: const scoring methods are safe to call concurrently
/// (the engine's own parallel scans do); mutating methods (setState,
/// apply, revert, evaluate*, bestMove) are not.
class EvalEngine {
 public:
  /// Binds the engine to an ETC matrix and objective. The matrix must
  /// outlive the engine. Throws std::invalid_argument on an empty
  /// matrix, a non-finite tau for Rho, or a zero chunk size.
  EvalEngine(const la::Matrix& etcMatrix, EngineConfig config,
             parallel::ThreadPool* pool = nullptr);

  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }
  [[nodiscard]] const la::Matrix& etcMatrix() const noexcept { return etc_; }
  [[nodiscard]] std::size_t taskCount() const noexcept { return tasks_; }
  [[nodiscard]] std::size_t machineCount() const noexcept { return machines_; }

  // ----- full (cached) evaluation --------------------------------------

  /// Objective of an arbitrary allocation; consults the memo cache.
  /// Bit-identical to rhoObjective(tau)/makespanObjective() on the same
  /// allocation.
  [[nodiscard]] double evaluate(const Allocation& mu);

  /// Chromosome overload (no Allocation construction on cache hits).
  [[nodiscard]] double evaluate(const Chromosome& c);

  /// Scores a whole population. Cache lookups and inserts run serially;
  /// misses are evaluated across the pool in fixed chunks with results
  /// written to preallocated slots, so the returned vector is
  /// bit-identical at any thread count.
  [[nodiscard]] std::vector<double> evaluateBatch(
      const std::vector<Chromosome>& population);

  // ----- incremental working state -------------------------------------

  /// Loads `mu` as the working state (O(tasks)).
  void setState(const Allocation& mu);

  /// The working allocation (valid after setState).
  [[nodiscard]] const Allocation& state() const;

  /// Objective of the working state, maintained incrementally but always
  /// bit-identical to evaluate(state()).
  [[nodiscard]] double stateObjective() const;

  /// Objective of the working state with task `t` moved to machine `to`,
  /// without mutating the state. O(n_from + n_to). Scoring a no-op move
  /// (to == current machine) returns stateObjective().
  [[nodiscard]] double scoreMove(std::size_t t, std::size_t to) const;

  /// Applies the move to the working state (O(n_from + n_to)) and
  /// returns a record revert() accepts. Throws std::out_of_range on bad
  /// indices.
  Move apply(std::size_t t, std::size_t to);

  /// Undoes a move returned by apply(). Moves must be reverted in LIFO
  /// order for the state to retrace its history.
  void revert(const Move& m);

  /// Best single-task reassignment of the working state: scans all
  /// tasks x (machines - 1) moves, in parallel when a pool is attached.
  /// Ties break toward the smallest (task, machine) pair regardless of
  /// chunking or thread count. Moves are improvements only when they
  /// beat the current objective by more than `minGain`.
  [[nodiscard]] BestMove bestMove(double minGain = 1e-12);

  // ----- instrumentation -----------------------------------------------

  /// The engine's metrics registry. Counters: "evals_full",
  /// "evals_delta", "cache_hits", "cache_misses", "batches",
  /// "move_scans", "applies", "reverts". When obs::timingEnabled(), the
  /// histogram "engine.cache_lookup_ns" records memo-lookup latency
  /// (hits and misses alike).
  [[nodiscard]] const obs::Registry& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] obs::Registry& metrics() noexcept { return metrics_; }

  /// The registry's counters (the pre-registry accessor; kept so
  /// existing call sites and tests read the same object).
  [[nodiscard]] const obs::CounterSet& counters() const noexcept {
    return metrics_.counters();
  }
  [[nodiscard]] obs::CounterSet& counters() noexcept {
    return metrics_.counters();
  }

 private:
  struct MachineState {
    std::vector<std::size_t> tasks;  ///< ascending task indices
    double finish = 0.0;             ///< index-ordered sum of exec times
  };

  /// Index-ordered finish time of machine `m` with task `skip` removed
  /// and/or task `add` inserted (either may be >= tasks_ to disable).
  [[nodiscard]] double finishWith(std::size_t m, std::size_t skip,
                                  std::size_t add) const;

  /// Margin a machine contributes to the min-aggregation, given its
  /// finish time and task count; +inf for machines that cannot bind.
  [[nodiscard]] double margin(double finish, std::size_t taskCount) const;

  /// Recomputes machine m's finish from its task list (index order).
  void refreshMachine(std::size_t m);

  /// Objective from per-machine state, folded in machine-index order.
  [[nodiscard]] double foldObjective() const;

  /// Objective with machines `a` and `b` replaced by candidate
  /// (finish, count) pairs; other machines read from current state.
  [[nodiscard]] double foldObjectiveWith(std::size_t a, double finishA,
                                         std::size_t countA, std::size_t b,
                                         double finishB,
                                         std::size_t countB) const;

  /// Uncached, from-scratch evaluation of a chromosome (thread-safe).
  [[nodiscard]] double evaluateFull(const Chromosome& c) const;

  const la::Matrix& etc_;
  EngineConfig config_;
  parallel::ThreadPool* pool_;
  std::size_t tasks_;
  std::size_t machines_;

  std::optional<Allocation> state_;
  std::vector<MachineState> machineState_;
  double stateObjective_ = 0.0;

  std::unordered_map<std::uint64_t, std::vector<std::pair<Chromosome, double>>>
      cache_;
  std::size_t cacheEntries_ = 0;

  obs::Registry metrics_;
};

/// Engine config matching a type-erased objective, when the engine can
/// accelerate it (the rho / makespan functors of search.hpp); nullopt
/// for custom objectives.
[[nodiscard]] std::optional<EngineConfig> engineConfigFor(
    const AllocationObjective& objective);

}  // namespace fepia::alloc
