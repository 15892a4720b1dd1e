// Per-layer metrics for the traced run.
//
// The program already emits spans at its layer boundaries
// (registry.solve, validate.estimate, validate.chunk, des.pipeline,
// sweep.shard, pool.task); the harness adds `bench.*` spans only around
// the public calls it makes, and one `bench.window` span around each
// traced interval. This file turns those records, plus the readings a
// workload takes from registry counters and its own timed calls, into
// the fixed list of per-layer metrics every traced run prints.
//
// Conventions: span times are seconds per traced operation (a validate
// or fault-sim query, a fepiad request, a distributed sweep); a layer a
// workload does not exercise, or whose counters the harness cannot see,
// reads 0.
#pragma once

#include <cstddef>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// Readings a workload supplies next to the spans.
struct LayerReadings {
  std::size_t ops = 0;          ///< traced operations
  std::size_t poolThreads = 0;  ///< compute pool size (0: no pool)
  double ioParseMs = 0.0;
  double serverPingRttUs = 0.0;
  double serverRoundtripOverheadMs = 0.0;
  double serverSessionHitFrac = 0.0;
  double serverOverloaded = 0.0;
  double serverDeadlineExpired = 0.0;
  double registryFallbacks = 0.0;
  double validateClassifications = 0.0;
  double validateBoundaryHitFrac = 0.0;
  double classifyKernelS = 0.0;
  double classifyKernelFrac = 0.0;
  double classifyLanesPerBlock = 0.0;
  double classifyLanes = 0.0;
  double poolWaitUsP50 = 0.0;
  double desEventsPerS = 0.0;
  double desQueueHighWater = 0.0;
  /// Negative: take sweep.shard_s from the window spans.
  double sweepShardS = -1.0;
  double sweepCacheHitFrac = 0.0;
  double distUsefulCommitFrac = 0.0;
  double distSteals = 0.0;
  double distReissues = 0.0;
  double traceOverheadFrac = 0.0;
};

/// Seconds of sweep.shard spans in `records`.
[[nodiscard]] double shardSeconds(
    const std::vector<fepia::obs::SpanRecord>& records);

/// Appends every per-layer metric to `out.metrics` and runs the span
/// checks: spans must cover at least 90% of the traced wall time, and
/// validate.march_s + validate.tail_s must be within 5% of the
/// validate.estimate span time.
void addLayerMetrics(Outcome& out, const LayerReadings& readings,
                     const std::vector<fepia::obs::SpanRecord>& records);

}  // namespace perfbench
