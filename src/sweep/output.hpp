// Surface rendering: tables, CSV, JSON, and summary statistics.
#pragma once

#include <iosfwd>
#include <string>

#include "obs/manifest.hpp"
#include "report/table.hpp"
#include "sweep/engine.hpp"
#include "sweep/spec.hpp"

namespace fepia::sweep {

/// One table row per computed point: id, one column per axis, then
/// analytic rho / closed form / empirical / degraded / makespan /
/// classifications. NaN ("not computed") renders as an empty cell;
/// infinities as "inf"/"-inf".
[[nodiscard]] report::Table surfaceTable(const SweepSpec& spec,
                                         const SweepSurface& surface);

/// Response of the analytic rho along one axis: for each value of the
/// axis, mean/min/max over the finite rho of computed points with that
/// value. This is how the S3.2 spec shows a monotone beta response and
/// the S3.1 spec shows a flat one.
[[nodiscard]] report::Table axisResponseTable(const SweepSpec& spec,
                                              const SweepSurface& surface,
                                              const std::string& axis);

/// Writes the schema-checked JSON document
/// (tools/schemas/sweep_output.schema.json). When `manifest` is non-null
/// it is emitted as the "manifest" member on a single line of its own,
/// so byte-level comparisons of two runs can drop exactly that line (the
/// only legitimately run-dependent content).
void writeSurfaceJson(std::ostream& os, const SweepSpec& spec,
                      const SweepSurface& surface,
                      const obs::RunManifest* manifest = nullptr);

/// min/max of the finite analytic rho over computed points, and (linear
/// workload) the largest |analytic - closed form| — the acceptance
/// numbers the CLI prints after a sweep.
struct SurfaceSummary {
  double rhoMin = 0.0;
  double rhoMax = 0.0;
  double worstClosedFormDeviation = 0.0;
  std::size_t finitePoints = 0;
};
[[nodiscard]] SurfaceSummary summarize(const SweepSurface& surface);

}  // namespace fepia::sweep
