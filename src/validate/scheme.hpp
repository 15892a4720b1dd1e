// Empirical validation of a full FePIA analysis.
//
// Bridges the Monte-Carlo estimator to the paper's merge schemes: for
// each feature of a FepiaProblem, take that feature's P-space from
// radius::MergedAnalysis (the shared normalized map, or the feature's own
// sensitivity map), estimate the directional radius around P^orig, and
// compare against the analytic r_mu(phi_i, P) of the same analysis. rho
// is validated as the minimum over features; under the normalized scheme
// (one shared map) an additional joint-region estimate samples the union
// of all feature boundaries directly. All of a scheme's estimates run as
// one batch (validate::estimateEmpiricalRadii): their chunks share one
// parallel phase, and each polish/CI tail runs as soon as its own
// chunks are done, so no estimate waits on another's barrier.
#pragma once

#include <optional>

#include "radius/fepia.hpp"
#include "validate/report.hpp"

namespace fepia::validate {

/// Result of validating one merge scheme of a problem.
struct SchemeValidation {
  radius::MergeScheme scheme{};
  /// One row per feature: analytic r_mu(phi_i, P) vs empirical.
  std::vector<Comparison> perFeature;
  /// rho = min over features, compared against the analytic rho.
  Comparison rho;
  /// Index (into perFeature) of the feature realising the empirical rho.
  std::size_t criticalFeature = 0;
  /// Normalized scheme only: the joint safe region (all features at
  /// once) sampled under the shared map — an independent estimate of rho.
  std::optional<Comparison> joint;

  /// All rows in table order (per-feature, rho, joint if present).
  [[nodiscard]] std::vector<Comparison> allRows() const;
};

/// Validates `problem.merged(scheme)` empirically. Per-feature substream
/// seeds derive deterministically from `opts.seed`; results are
/// bit-identical for a fixed seed regardless of `pool` and thread count,
/// and row i equals a lone estimateEmpiricalRadius call with the same
/// seed.
/// Throws what radius::MergedAnalysis and the estimator throw.
[[nodiscard]] SchemeValidation validateMergedScheme(
    const radius::FepiaProblem& problem, radius::MergeScheme scheme,
    const EstimatorOptions& opts = {}, parallel::ThreadPool* pool = nullptr);

}  // namespace fepia::validate
