// Sharded, cached, resumable sweep execution.
//
// runSweep evaluates a SweepSpec's grid through the existing stack —
// radius::FepiaProblem / radius closed forms for the linear family,
// alloc::EvalEngine for the makespan case study, validate + fault/des
// for the empirical and degraded radii — with the repo's determinism
// recipe applied one level up: points are sharded into fixed chunks
// (shard s covers ids [s*chunk, (s+1)*chunk)), shards fan out across
// parallel::ThreadPool with every result written to a preallocated slot,
// and all reductions run in index order after the parallel phase. The
// thread count changes the wall clock, never a bit of the surface.
//
// The inner estimators are always called serially (pool = nullptr):
// parallel::parallelFor is not reentrant from a worker thread, and
// shard-level parallelism already saturates the pool.
//
// Sub-computations shared between points (generated instances, heuristic
// allocations, eval engines, empirical estimates at coinciding
// coordinates) are deduplicated through a content-keyed ResultCache;
// seeds derive from the same content keys, so cached and recomputed
// values are bit-identical and the cache is invisible in the results.
//
// With a journal path set, every completed shard is appended and flushed
// (sweep::ShardLedger, which the distributed coordinator shares);
// `resume` replays done shards and only computes the rest.
// `stopAfterShards` bounds how many shards one call computes — the
// CLI's --stop-after, which the tests and CI use to interrupt a sweep at
// a well-defined point and prove resume byte-identity.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "parallel/thread_pool.hpp"
#include "sweep/cache.hpp"
#include "sweep/journal.hpp"
#include "sweep/result.hpp"
#include "sweep/spec.hpp"

namespace fepia::sweep {

class PersistentCache;

/// Execution knobs orthogonal to the spec.
struct SweepOptions {
  /// Deduplicate shared sub-computations (off only to prove the cache
  /// does not change results).
  bool cacheEnabled = true;
  /// Checkpoint journal path; empty disables checkpointing.
  std::string journalPath;
  /// Replay `journalPath` and skip its committed shards. Requires a
  /// journal path (std::invalid_argument otherwise); throws
  /// std::runtime_error when the journal is missing or mismatched.
  bool resume = false;
  /// Stop after computing this many shards (0 = no limit); the surface
  /// comes back with complete == false. Requires a journal, otherwise
  /// the partial work would be unrecoverable (std::invalid_argument).
  std::size_t stopAfterShards = 0;
  /// Overrides the spec's shard size when nonzero.
  std::size_t chunkOverride = 0;
  /// Forces one radius backend (by registry name) for the per-point
  /// analytic-rho computations — the CLI's --backend flag. Empty lets
  /// the cost-model scheduler choose (the analytic kernel, for every
  /// built-in workload). The empirical/degraded columns always route to
  /// their namesake kernels: they *are* the requested estimate, not an
  /// implementation choice. Unknown or incapable names surface as
  /// radius::backend::BackendError from runSweep.
  std::string backendOverride;
  /// Optional metrics sink (sweep.* counters, written after the joins).
  obs::Registry* metrics = nullptr;
  /// Optional telemetry hub. When set, the run registers a live-gauge
  /// source (sweep.live_* progress gauges sampled by the hub's thread),
  /// emits one heartbeat event per completed shard (points/sec, ETA),
  /// warns on straggler shards, and feeds a stall watchdog from every
  /// committed point. All of it is observational: gauges are relaxed
  /// atomic reads and events are emitted under the journal lock the
  /// engine already takes per shard, so the surface stays byte-identical
  /// with the hub attached or not (tests/telemetry_test.cpp).
  obs::TelemetryHub* telemetry = nullptr;
  /// Live status line on stderr (the CLI's --progress): rewritten after
  /// every completed shard, erased by a newline when the sweep ends.
  bool progress = false;
  /// Stall-watchdog deadline: no point committed for this long raises a
  /// {"type":"alert","kind":"stall"} event (needs telemetry; <= 0
  /// disables the watchdog).
  double stallDeadlineSeconds = 30.0;
  /// External result cache shared *across* runSweep calls — the warm
  /// cache a resident fepiad server keeps between requests. Because
  /// every entry is content-keyed and sub-computation seeds derive from
  /// the same keys, a shared cache changes throughput only, never a
  /// byte of any surface. The surface's hit/miss counters report this
  /// call's delta. Ignored when cacheEnabled is false (a --no-cache run
  /// must actually compute). nullptr = a fresh per-run cache.
  ResultCache* sharedCache = nullptr;
  /// Directory of the persistent on-disk estimate cache (sweep::
  /// PersistentCache) — the CLI's --cache-dir. Empty disables it.
  /// Entries are content-keyed and stored in exact hexfloat form, so a
  /// warm cache changes throughput only, never a surface byte. Ignored
  /// when cacheEnabled is false. Throws std::runtime_error from
  /// runSweep when the directory cannot be created or read.
  std::string cacheDir;
};

/// A computed (possibly partial) sweep surface.
struct SweepSurface {
  std::vector<PointResult> results;  ///< one slot per grid point
  /// Per point: nonzero when the slot holds a result. One byte per flag,
  /// not std::vector<bool>: shard workers set flags concurrently, and the
  /// packed representation would make neighbouring points share words.
  std::vector<std::uint8_t> computed;
  bool complete = false;
  std::size_t points = 0;
  std::size_t chunk = 0;             ///< shard size actually used
  std::size_t shards = 0;
  std::size_t resumedShards = 0;     ///< replayed from the journal
  std::size_t computedShards = 0;    ///< evaluated by this call
  bool cacheEnabled = true;
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  std::uint64_t persistentHits = 0;    ///< on-disk cache hits (--cache-dir)
  std::uint64_t persistentMisses = 0;  ///< on-disk cache misses
  std::uint64_t classifications = 0; ///< summed over computed points
  double wallSeconds = 0.0;
  double pointsPerSec = 0.0;         ///< computed points / wall
};

/// One run's shard bookkeeping, shared by runSweep and the distributed
/// coordinator: the surface, the shards the run owes and the checkpoint
/// journal. A shard is done exactly when its first point is computed.
/// Not thread-safe; callers serialize commit().
class ShardLedger {
 public:
  /// `spec`'s surface in shards of `chunkOverride` points (0: the spec's
  /// chunk), owing its undone shards, at most `maxShards` (0: all). With
  /// `resume` the journal's committed shards are replayed first
  /// (readJournal's checks apply); a nonempty `journalPath` then records
  /// every commit. Throws std::invalid_argument on `resume` or
  /// `maxShards` without a journal: the partial work would be lost.
  ShardLedger(const SweepSpec& spec, std::size_t chunkOverride,
              const std::string& journalPath, bool resume,
              std::size_t maxShards = 0);

  [[nodiscard]] const SweepSurface& surface() const { return surface_; }
  /// The owed shards, ascending, and their point total.
  [[nodiscard]] const std::vector<std::size_t>& pending() const {
    return pending_;
  }
  [[nodiscard]] std::size_t pendingPoints() const { return pendingPoints_; }
  /// Shard s covers the points [first(s), first(s) + count(s)).
  [[nodiscard]] std::size_t first(std::size_t s) const {
    return s * surface_.chunk;
  }
  [[nodiscard]] std::size_t count(std::size_t s) const {
    return std::min(surface_.chunk, surface_.points - first(s));
  }
  /// Stores shard s's count(s) results and journals them, flushed.
  void commit(std::size_t s, const PointResult* results);
  /// The final reduction, once every owed shard is committed; moves the
  /// surface out.
  [[nodiscard]] SweepSurface finish(double wallSeconds);

 private:
  void store(std::size_t s, const PointResult* results);

  SweepSurface surface_;
  std::vector<std::size_t> pending_;
  std::size_t pendingPoints_ = 0;
  bool truncated_ = false;  ///< maxShards left shards unowed
  JournalWriter journal_;
};

/// Evaluates `spec` under `opts`. Deterministic: for a fixed spec the
/// surface is bit-identical at any thread count, with or without the
/// cache, and whether computed cold or across checkpoint/resume cycles.
/// Throws std::invalid_argument on inconsistent options and propagates
/// spec/system/journal errors.
[[nodiscard]] SweepSurface runSweep(const SweepSpec& spec,
                                    const SweepOptions& opts = {},
                                    parallel::ThreadPool* pool = nullptr);

/// Evaluates points [first, first + count) of `spec` into out[0..count)
/// with the exact per-point computation runSweep uses (same evaluator,
/// same content-keyed sub-computation seeds), so a result computed here
/// is bit-identical to the same point computed by runSweep at any
/// thread count. This is the distributed worker's compute entry point:
/// a leased shard is one such range. `persistent` (optional) is the
/// shared on-disk estimate cache.
void evaluatePointRange(const SweepSpec& spec, ResultCache& cache,
                        PersistentCache* persistent,
                        const std::string& backendOverride, std::size_t first,
                        std::size_t count, PointResult* out);

}  // namespace fepia::sweep
