// The four benchmark workloads. Each returns the BENCHMARK.json metrics
// for its run (end-to-end untraced, per-layer traced); see
// perfbench/METRICS.md for what each one measures and why it was chosen.
#pragma once

#include "harness.hpp"

namespace perfbench {

/// Repeated `validate --hiperd examples/data/fusion_pipeline.hiperd`
/// through server::runValidateQuery on a shared pool.
[[nodiscard]] Outcome runValidateHiperd(const Options& opt);

/// Repeated `fault-sim` of the reference pipeline through
/// server::runFaultSimQuery under one fixed fault plan.
[[nodiscard]] Outcome runFaultsimDes(const Options& opt);

/// Closed-loop clients sending a seeded radius/validate/sweep mix to an
/// in-process server::Server over loopback.
[[nodiscard]] Outcome runFepiadMixed(const Options& opt);

/// Repeated distributed sweeps: a server::SweepCoordinator with its
/// journal on plus two loopback runSweepWorker threads.
[[nodiscard]] Outcome runSweepDist(const Options& opt);

}  // namespace perfbench
