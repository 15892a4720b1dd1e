// Batched safe-region classification over structure-of-arrays blocks.
//
// FePIA step 2 — "is this perturbed operating point still within every
// feature's tolerable bounds?" — is the hot predicate of every sampled
// radius estimate: the Monte-Carlo validator, the fault-degraded
// sampler and the sweep engine each evaluate it millions of times.
// Point-at-a-time evaluation pays a virtual dispatch and a function-
// object indirection per feature per point; the BlockClassifier instead
// classifies a whole la::PointBlock per call and applies verdicts
// through a branch-free per-lane mask. Every evaluated value replicates
// the scalar accumulation order, so every verdict is identical to
// FeatureSet::allWithinBounds.
//
// Compiled linear runs (Mode::Batched). At construction each maximal
// run of consecutive feature::LinearFeatures is compiled into one table:
// per feature, its nonzero (column, coefficient) pairs in ascending
// column order, its offset and its bounds. A block is classified
// through the table in one fused pass over tiles of lanes: per lane,
// each feature sums k_j * x_j over its nonzero terms in ascending j (a
// multiply then an add, as la::dot does), adds the offset last, and ANDs
// its verdict into the lane's mask in feature order; a tile whose lanes
// are all rejected skips the run's remaining features. HiPer-D features
// depend on a few perturbation parameters each, so the table holds a
// fraction of the dense coefficients. Skipping a zero term is exact on
// finite coordinates: 0 * x is then ±0, and adding ±0 changes a sum only
// in the sign of a zero result, which no >= / <= bound test sees. It is
// not exact on a non-finite coordinate (0 * inf is NaN, which must raise
// NonFiniteFeatureError), so a block holding a non-finite coordinate in
// any column some run skips is classified by the scalar reference path
// instead. Quadratic features keep their SoA kernel and generic features
// their live-lane path, and a run never spans either: a generic feature
// still sees only lanes no earlier feature rejected.
//
// Short-circuit contract: verdicts and thrown errors are those of the
// scalar path, where a feature is never evaluated on a lane an earlier
// feature already rejected. Closed-form kernels (linear, quadratic) are
// pure arithmetic, so the batched path may compute them on rejected
// lanes and mask the result — indistinguishable from skipping, including
// for NaN (a masked lane can never throw); when one wide pass finds NaN
// on live lanes of several features, the lowest-index one is named.
// Features without a pure kernel (generic / callable, which may observe
// their inputs) are only ever evaluated on live lanes. Narrow blocks go
// to the scalar path, and once the live-lane count drops below the same
// cutover, classification finishes scalar-style per live lane — same
// verdicts, no wide work.
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
///  - Batched: double-precision SoA kernels with masked verdicts; runs
///    of linear features go through one compiled sparse table.
enum class Mode { Scalar, Batched };

/// Work counters of one classifier instance (see obs "classify.*").
struct ClassifyStats {
  std::uint64_t blocks = 0;  ///< classify() calls
  std::uint64_t lanes = 0;   ///< points classified

  void merge(const ClassifyStats& other) noexcept {
    blocks += other.blocks;
    lanes += other.lanes;
  }
};

/// Blocks narrower than this take the scalar path, and a block whose
/// live lanes fall below it finishes scalar-style, unless the feature
/// set is one compiled linear run (kFusedLaneCutover). Below it the
/// per-feature SoA kernels lose to the scalar path: the quadratic kernel
/// breaks even at about 8 lanes for n = 3 and 12 for n = 9 (SSE2
/// doubles, one pinned thread on a 4-vCPU x86-64 VM).
/// Verdict equality across modes makes the dispatch unobservable in
/// results. Exposed for tests.
inline constexpr std::size_t kWideLaneCutover = 16;

/// kWideLaneCutover for a feature set that is one compiled linear run.
/// On the same machine the fused pass takes 29 ns/lane on 4-lane blocks
/// of the HiPer-D joint region (10 features, 26 of 90 coefficients
/// nonzero) against 72 for the scalar path, and 14 against 22 on one
/// dense 3-coefficient feature; at 2-3 lanes the dense feature ties.
inline constexpr std::size_t kFusedLaneCutover = 4;

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
  /// One nonzero term k * x[col] of a compiled linear feature.
  struct LinearTerm {
    std::size_t col;
    double k;
  };
  /// One compiled linear feature: terms [termBegin, termEnd) of its
  /// run, in ascending column order, then the offset and the bounds.
  struct LinearRow {
    std::size_t termBegin;
    std::size_t termEnd;
    double offset;
    double betaMin;
    double betaMax;
  };
  /// Features [first, first + rows.size()) compiled for the fused pass.
  struct LinearRun {
    std::size_t first = 0;
    std::vector<LinearRow> rows;
    std::vector<LinearTerm> terms;
  };

  /// Fused pass of `run` over the first `lanes` lanes of coords_:
  /// rejects lanes outside any of its features' bounds, throws on a
  /// live NaN (lowest feature index first), updates `live`.
  void classifyLinearRun(const LinearRun& run, std::size_t lanes,
                         std::span<std::uint8_t> safeOut, std::size_t& live);
  /// Lanes [l, l + 2P) of one fused pass; lowers `firstNan` to the
  /// lowest row that was NaN on a live lane.
  template <std::size_t P>
  static void classifyLinearTile(const LinearRun& run, const double* const* x,
                                 std::size_t l, std::uint8_t* safe,
                                 std::size_t& firstNan);
  /// True when the first `lanes` lanes of every coords_ entry in
  /// skippedCols_ are finite (or, rarely, false when their sum overflows).
  [[nodiscard]] bool skippedColumnsFinite(std::size_t lanes) const;
  /// Masked verdict sweep over values_: rejects lanes whose value falls
  /// outside feature f's bounds, throws on a live NaN, updates `live`.
  void applyVerdictsWide(std::size_t f, std::span<std::uint8_t> safeOut,
                         std::size_t lanes, std::size_t& live);
  /// Evaluates feature `f` on live lanes only, one gathered point at a
  /// time — the path for features that may observe their inputs.
  void evaluateFeatureNarrow(std::size_t f, const la::PointBlock& block,
                             std::span<std::uint8_t> safeOut,
                             std::size_t& live);
  /// Runs features [fStart, end) scalar-style on each live lane —
  /// the finish once too few lanes remain for wide kernels to pay off.
  void finishScalarTail(std::size_t fStart, const la::PointBlock& block,
                        std::span<std::uint8_t> safeOut);
  [[noreturn]] void throwNonFinite(std::size_t f) const;

  const feature::FeatureSet& phi_;
  Mode mode_;
  ClassifyStats stats_;
  /// The narrowest block (and live-lane count) classified wide:
  /// kFusedLaneCutover when one compiled run holds every feature,
  /// kWideLaneCutover otherwise.
  std::size_t wideCutover_ = kWideLaneCutover;

  /// pure_[f]: feature f has a pure arithmetic kernel (linear /
  /// quadratic), so it may run full-width with masked verdicts.
  std::vector<std::uint8_t> pure_;
  /// Compiled runs of linear features (Mode::Batched only), ascending.
  std::vector<LinearRun> runs_;
  /// Columns some compiled feature skips, ascending and unique.
  std::vector<std::size_t> skippedCols_;

  // Scratch (persistent across calls to avoid reallocation).
  la::Vector gather_;
  std::vector<double> values_;
  std::vector<const double*> coords_;  ///< coordinate rows of the block
};

}  // namespace fepia::classify
