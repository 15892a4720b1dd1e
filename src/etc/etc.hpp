// Expected-time-to-compute (ETC) matrix generation.
//
// The makespan case study of baseline [2] assumes a matrix of estimated
// execution times e(t, m) of task t on machine m. The heterogeneous-
// computing literature (including the paper's authors) generates such
// matrices synthetically with controlled task and machine heterogeneity.
// The generator here is CVB (coefficient-of-variation-based):
// q_t ~ Gamma(mean = muTask, cov = vTask); e(t,m) ~ Gamma(mean = q_t,
// cov = vMach).
//
// High/low heterogeneity presets match the common four regimes
// (hi-hi, hi-lo, lo-hi, lo-lo).
#pragma once

#include <cstddef>
#include <string>

#include "la/matrix.hpp"
#include "rng/xoshiro.hpp"

namespace fepia::etc {

/// Task/machine heterogeneity regime.
enum class Heterogeneity { HiHi, HiLo, LoHi, LoLo };

/// Name like "hi-hi" for reports.
[[nodiscard]] const char* heterogeneityName(Heterogeneity h) noexcept;

/// Parameters of the CVB generator.
struct CvbParams {
  double meanTask = 100.0;  ///< mu_task: mean task execution time (seconds)
  double covTask = 0.6;     ///< V_task: task heterogeneity
  double covMachine = 0.6;  ///< V_mach: machine heterogeneity
};

/// Standard CVB presets: 0.6 for "high", 0.1 for "low" heterogeneity.
[[nodiscard]] CvbParams cvbPreset(Heterogeneity h, double meanTask = 100.0);

/// Generates a tasks x machines ETC matrix with the CVB method.
/// Throws std::invalid_argument for zero sizes or non-positive params.
[[nodiscard]] la::Matrix generateCvb(std::size_t tasks, std::size_t machines,
                                     const CvbParams& params,
                                     rng::Xoshiro256StarStar& g);

/// Empirical heterogeneity report of a generated matrix.
struct HeterogeneityReport {
  double taskCov = 0.0;     ///< CoV of per-task row means
  double machineCov = 0.0;  ///< mean CoV within rows
};
[[nodiscard]] HeterogeneityReport measureHeterogeneity(const la::Matrix& etcMatrix);

}  // namespace fepia::etc
