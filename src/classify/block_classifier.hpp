// Batched safe-region classification over structure-of-arrays blocks.
//
// FePIA step 2 — "is this perturbed operating point still within every
// feature's tolerable bounds?" — is the hot predicate of every sampled
// radius estimate: the Monte-Carlo validator, the fault-degraded
// sampler and the sweep engine each evaluate it millions of times.
// Point-at-a-time evaluation pays a virtual dispatch and a function-
// object indirection per feature per point; the BlockClassifier instead
// evaluates one feature across a whole la::PointBlock per call through
// PerformanceFeature::evaluateBlock and applies verdicts through a
// branch-free per-lane mask. The SoA kernels replicate the scalar
// accumulation order, so every evaluated value — and therefore every
// verdict — is bit-identical to FeatureSet::allWithinBounds.
//
// Short-circuit contract: verdicts and thrown errors are exactly those
// of the scalar path, where a feature is never evaluated on a lane an
// earlier feature already rejected. Closed-form kernels (linear,
// quadratic) are pure arithmetic, so the batched path may compute them
// on rejected lanes and mask the result — indistinguishable from
// skipping, including for NaN (a masked lane can never throw). Features
// without a pure kernel (generic / callable, which may observe their
// inputs) are only ever evaluated on live lanes. Once the live-lane
// count drops below the SoA break-even width, classification finishes
// scalar-style per live lane — same verdicts, no wide work.
//
// The optional float32 fast-classify mode evaluates linear features in
// single precision with a certified error margin. A lane is accepted in
// f32 only when the margin proves the double verdict; every other lane
// falls back to the double kernel. Verdicts therefore always equal the
// double path's verdicts, which keeps radii bit-identical ("certified
// equal") in f32 mode.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "feature/feature.hpp"
#include "la/point_block.hpp"

namespace fepia::classify {

/// Classification kernel selection.
///  - Scalar: gather every lane and run FeatureSet::allWithinBounds —
///    the reference path.
///  - Batched: double-precision SoA kernels with masked verdicts.
///  - BatchedF32: float32 pre-pass with a certified margin for linear
///    features, double fallback for margin-inconclusive lanes and for
///    non-linear features. Verdicts equal the double path's.
enum class Mode { Scalar, Batched, BatchedF32 };

/// Work counters of one classifier instance (see obs "classify.*").
struct ClassifyStats {
  std::uint64_t blocks = 0;           ///< classify() calls
  std::uint64_t lanes = 0;            ///< points classified
  std::uint64_t f32Hits = 0;          ///< live lane-features decided in f32
  std::uint64_t doubleFallbacks = 0;  ///< live lane-features re-run in double

  void merge(const ClassifyStats& other) noexcept {
    blocks += other.blocks;
    lanes += other.lanes;
    f32Hits += other.f32Hits;
    doubleFallbacks += other.doubleFallbacks;
  }
};

/// Blocks narrower than this take the scalar path regardless of mode:
/// below it the SoA setup cost exceeds the kernel win (measured
/// crossover on SSE2 doubles), and verdict equality across modes makes
/// the dispatch unobservable in results. Exposed for tests.
inline constexpr std::size_t kWideLaneCutover = 16;

/// Classifies blocks of probe points against one FeatureSet. Holds
/// per-instance scratch, so it is cheap to call repeatedly but must not
/// be shared across threads — the estimator builds one per chunk. The
/// FeatureSet must outlive the classifier.
class BlockClassifier {
 public:
  explicit BlockClassifier(const feature::FeatureSet& phi,
                           Mode mode = Mode::Batched);

  /// Writes 1 to `safeOut[l]` when lane l of `block` satisfies every
  /// feature bound, 0 otherwise — verdict-for-verdict identical to
  /// calling FeatureSet::allWithinBounds on each lane, including its
  /// error behaviour: feature::NonFiniteFeatureError is thrown exactly
  /// when a lane no earlier feature rejected evaluates to NaN. Throws
  /// std::invalid_argument on shape mismatches.
  void classify(const la::PointBlock& block, std::span<std::uint8_t> safeOut);

  /// One-point classify(): the verdict, errors and stats a 1-lane block
  /// holding `pi` would give (such a block is always classified
  /// scalar-style), without building the block.
  [[nodiscard]] bool classifyPoint(const la::Vector& pi);

  [[nodiscard]] Mode mode() const noexcept { return mode_; }
  [[nodiscard]] const ClassifyStats& stats() const noexcept { return stats_; }

 private:
  void classifyScalar(const la::PointBlock& block,
                      std::span<std::uint8_t> safeOut);
  void classifyBatched(const la::PointBlock& block,
                       std::span<std::uint8_t> safeOut);
  /// Masked verdict sweep over values_: rejects lanes whose value falls
  /// outside feature f's bounds, throws on a live NaN, updates `live`.
  void applyVerdictsWide(std::size_t f, std::span<std::uint8_t> safeOut,
                         std::size_t lanes, std::size_t& live);
  /// Evaluates feature `f` on live lanes only, one gathered point at a
  /// time — the path for features that may observe their inputs.
  void evaluateFeatureNarrow(std::size_t f, const la::PointBlock& block,
                             std::span<std::uint8_t> safeOut,
                             std::size_t& live);
  /// F32 pre-pass for linear feature `f`; margin-inconclusive live
  /// lanes are re-classified through the double kernel.
  void evaluateFeatureF32(std::size_t f, const la::PointBlock& block,
                          std::span<std::uint8_t> safeOut, std::size_t& live);
  /// Runs features [fStart, end) scalar-style on each live lane —
  /// the finish once too few lanes remain for wide kernels to pay off.
  void finishScalarTail(std::size_t fStart, const la::PointBlock& block,
                        std::span<std::uint8_t> safeOut);
  [[noreturn]] void throwNonFinite(std::size_t f) const;

  const feature::FeatureSet& phi_;
  Mode mode_;
  ClassifyStats stats_;

  /// pure_[f]: feature f's evaluateBlock is pure arithmetic (linear /
  /// quadratic), so it may run full-width with masked verdicts.
  std::vector<std::uint8_t> pure_;

  // Scratch (persistent across calls to avoid reallocation).
  la::Vector gather_;
  std::vector<double> values_;
  std::vector<std::size_t> fallback_;  ///< live lanes needing double
  std::vector<float> xf_;              ///< f32 SoA copy of the block
  bool xfFresh_ = false;               ///< xf_ matches the current block
  std::vector<float> vf_;              ///< f32 values per lane
  std::vector<float> af_;              ///< f32 sum of |term| per lane

  /// Certified f32 kernel of one linear feature (valid only for
  /// feature::LinearFeature). marginFactor * af bounds |v32 - v64|:
  /// with u = 2^-24, the conversion of k and x to f32 and the f32
  /// product-sum accumulate a relative error below (n+3)·u on the sum
  /// of |k_j·x_j| + |offset|; af underestimates that sum by at most a
  /// few ulps. marginFactor = 4·(n+4)·u covers both with slack.
  struct F32Kernel {
    bool valid = false;
    std::vector<float> k;
    float offset = 0.0F;
    double marginFactor = 0.0;
  };
  std::vector<F32Kernel> f32_;
};

}  // namespace fepia::classify
