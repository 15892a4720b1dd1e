// Monte-Carlo empirical robustness estimation.
//
// The analytic engines of src/radius compute the robustness radius from
// the feature model; this module cross-checks them statistically, in the
// spirit of robustness-surface estimation (Manzano et al.) and
// sample-based robustness-degradation construction (Chen et al.): probe
// random perturbation directions around the operating point, locate the
// first safe/violating transition along each ray by geometric march +
// bisection on the safe-region membership predicate, and estimate the
// empirical robustness radius as the smallest directional boundary
// distance, with a confidence interval read off the same sample.
//
// Determinism contract: for a fixed seed the result is bit-identical
// regardless of thread count. Directions are partitioned into fixed-size
// chunks; chunk c draws from substream c of the seed generator
// (xoshiro256** jump-ahead), every direction's result lands in a
// preallocated slot indexed by direction id, and all reductions run over
// those slots in index order once every chunk of the estimate is done.
// The interval's bootstrap term is the exact law of the resampled
// minimum (bootstrapMinimumQuantile), so it draws no random numbers at
// all. The polish's pattern search runs serially after the chunks. It
// stops a candidate ray as soon as the ray can no longer beat the best
// distance so far, and classifies each candidate's doubling ladder as
// one block: in one call for the FeatureSet overload, split across the
// pool for the predicate overloads. Every verdict of a rung is the one
// the serial loop would see, so the search takes the same path at any
// thread count.
//
// Within a chunk the rays advance in lockstep: each round gathers every
// unfinished ray's next probe point into one SoA block (la::PointBlock)
// and classifies the whole block in a single call — through the batched
// kernels of src/classify for the FeatureSet overload. The ray state
// itself is held in SoA form, with the unfinished rays kept contiguous
// in ascending direction id by a stable compaction. Per ray, the
// sequence of probe distances, the evaluation count and the resulting
// boundary distance are exactly those of the per-ray scalar loop, so
// batching changes throughput only, never results.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "classify/block_classifier.hpp"
#include "feature/feature.hpp"
#include "la/point_block.hpp"
#include "la/vector.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/descriptive.hpp"

namespace fepia::validate {

/// Safe-region membership: true when the system tolerates operating
/// point `pi` (all features within bounds, DES run satisfies QoS, ...).
/// Must be deterministic — the estimator's reproducibility guarantee is
/// only as good as the predicate's.
using SafePredicate = std::function<bool(const la::Vector&)>;

/// Safe-region membership that also sees the probe-direction index. This
/// is how discrete scenario dimensions ride along with the continuous
/// Monte-Carlo sample: a caller can key a deterministic fault scenario
/// (see fault::estimateDegradedRadius) off the direction id, so the
/// estimator samples the joint (continuous perturbation x discrete
/// scenario) space without the estimator knowing about scenarios. Every
/// evaluation along one ray — march, bisection, and any polish of that
/// direction — passes the same index; the origin check passes index 0.
/// Must be deterministic in both arguments.
using IndexedSafePredicate =
    std::function<bool(const la::Vector&, std::size_t direction)>;

/// Batched safe-region membership: writes 1/0 to `safeOut[l]` when lane
/// l of `block` is safe/violating, with `directions[l]` the probe
/// direction id of lane l (same contract as IndexedSafePredicate,
/// block-wise). The estimator advances every ray of a chunk in lockstep
/// and classifies one block per round, so a single call sees probe
/// points from many rays at different march/bisection depths, its
/// lanes the chunk's unfinished rays in ascending direction id. Must be
/// deterministic per lane; the estimator copies the callable once per
/// chunk, so scratch captured by value is per-chunk (not shared across
/// threads). The polish reuses those copies for the pieces of a ladder
/// block, at most one piece per copy at a time.
using BlockSafePredicate = std::function<void(
    const la::PointBlock& block, std::span<const std::size_t> directions,
    std::span<std::uint8_t> safeOut)>;

/// Sampling parameters for the empirical estimator.
struct EstimatorOptions {
  /// Number of random probe directions (the Monte-Carlo sample size).
  std::size_t directions = 4096;
  /// Directions per RNG substream; the unit of parallel work. Results do
  /// not depend on this except through the direction -> substream map,
  /// so changing it (unlike the thread count) changes the sample.
  std::size_t chunkSize = 256;
  /// Seed of the substream family.
  std::uint64_t seed = 0x5EEDD1CEull;
  /// Ray horizon: directions with no violation within this distance
  /// count as censored (infinite boundary distance).
  double horizon = 1.0e3;
  /// Bisection refinements after the march brackets the transition; 60
  /// halvings exhaust double precision for any bracket.
  std::size_t bisectIterations = 60;
  /// Restrict probes to the nonnegative orthant (perturbations that only
  /// grow, as in the paper's Figure 1 load space).
  bool nonnegativeDirections = false;
  /// Pattern-search sweeps refining the best sampled direction after the
  /// Monte-Carlo phase. A directional minimum is biased upward — badly
  /// so in high dimension, where no ray lands near the optimal
  /// direction; the polish walks the best direction downhill and removes
  /// most of that bias. Deterministic; the search is serial, and only
  /// the classification of each candidate's ladder block may run on the
  /// pool, so it does not affect the thread-count invariance. 0
  /// disables.
  std::size_t polishSweeps = 48;
  /// Confidence level for the radius interval.
  double confidence = 0.95;
  /// Classification kernel for the FeatureSet overload: Batched (the
  /// SoA engine, default) or Scalar (point-at-a-time reference). Both
  /// produce the same classification verdicts, so radii, distances and
  /// counts are bit-identical across modes; only throughput differs.
  /// Ignored by the predicate overloads (the predicate is the kernel
  /// there).
  classify::Mode classifyMode = classify::Mode::Batched;
  /// Optional metrics sink. When set, the estimator records
  /// "validate.directions" / "validate.classifications" /
  /// "validate.boundary_hits" / "validate.speculative_probes" counters
  /// and the per-chunk classification
  /// histogram "validate.chunk_classifications", all written serially
  /// after the parallel phase (never touched by worker threads, so the
  /// determinism contract is unaffected).
  obs::Registry* metrics = nullptr;
  /// Optional live progress counter for telemetry: each chunk adds its
  /// classification-eval count here (one relaxed fetch_add per chunk)
  /// as it completes, so a sampler thread can watch throughput while
  /// the estimator runs. Purely observational — never read back by the
  /// estimator, so results are unaffected.
  std::atomic<std::uint64_t>* liveClassifications = nullptr;
};

/// Result of an empirical radius estimation.
struct EmpiricalEstimate {
  /// The estimate: smallest directional boundary distance, refined by
  /// the polish sweeps (+inf when no direction violated within the
  /// horizon). Still an upper bound on the true radius — it is the
  /// distance along a concrete direction.
  double radius = std::numeric_limits<double>::infinity();
  /// Confidence interval for the radius. The sample minimum is a hard
  /// upper bound (every ray distance >= the true radius); the lower end
  /// extends below it by the larger of the reflected-bootstrap spread
  /// and a Robson-Whitlock endpoint extrapolation from the spacing of
  /// the two smallest distances, so the analytic radius of a correct
  /// model falls inside even in high dimension (where the directional
  /// minimum's upward bias exceeds the resampling spread).
  stats::Interval ci{};
  /// Direction index realising the minimum.
  std::size_t criticalDirection = 0;
  /// Directions sampled / directions whose ray hit the boundary.
  std::size_t directions = 0;
  std::size_t boundaryHits = 0;
  /// Safe-predicate evaluations the serial search makes: every probe of
  /// the sampled rays, plus the polish's probes up to the point where a
  /// candidate ray can no longer beat the best distance. The origin
  /// check is not counted.
  std::size_t classifications = 0;
  /// Polish ladder rungs classified past a candidate's first unsafe
  /// rung: the ladder goes to the predicate as one block, so its later
  /// rungs are classified although the search never reads them. The
  /// predicate sees classifications + speculativeProbes + 1 lanes in
  /// all.
  std::size_t speculativeProbes = 0;
  /// Kernel work counters of the FeatureSet overload (blocks, lanes),
  /// merged over all chunk classifiers in chunk order. Zero for the
  /// predicate overloads.
  classify::ClassifyStats classifyStats{};
  /// Summary over the finite (boundary-hitting) directional distances.
  stats::Summary distanceSummary{};
  /// Per-direction boundary distance, in direction order (+inf for
  /// censored rays). Feed to stats::Ecdf for the robustness-degradation
  /// curve: F(r) = fraction of directions already violating at radius r.
  std::vector<double> distances;

  [[nodiscard]] bool finite() const noexcept {
    return radius < std::numeric_limits<double>::infinity();
  }
};

/// Estimates the empirical robustness radius of the region where `safe`
/// holds, around `origin`. Runs serially when `pool` is null, chunked
/// across the pool otherwise; results are bit-identical either way.
/// Throws std::invalid_argument on bad options or an empty origin, and
/// std::domain_error when `safe(origin)` is false (the paper assumes the
/// assumed operating point satisfies QoS).
[[nodiscard]] EmpiricalEstimate estimateEmpiricalRadius(
    const SafePredicate& safe, const la::Vector& origin,
    const EstimatorOptions& opts = {}, parallel::ThreadPool* pool = nullptr);

/// Direction-indexed overload (joint continuous x scenario sampling; see
/// IndexedSafePredicate). The plain-predicate overload is this one with
/// the index ignored, so both produce bit-identical results for the same
/// membership function.
[[nodiscard]] EmpiricalEstimate estimateEmpiricalRadius(
    const IndexedSafePredicate& safe, const la::Vector& origin,
    const EstimatorOptions& opts = {}, parallel::ThreadPool* pool = nullptr);

/// Block-predicate overload: the caller supplies the batched kernel
/// directly. The estimator marches and bisects every ray of a chunk in
/// lockstep, classifying one block per round, so the predicate sees
/// large lane counts even deep into bisection. Per-ray probe sequences,
/// distances and evaluation counts are bit-identical to the scalar
/// overloads for the same membership function.
[[nodiscard]] EmpiricalEstimate estimateEmpiricalRadius(
    const BlockSafePredicate& safe, const la::Vector& origin,
    const EstimatorOptions& opts = {}, parallel::ThreadPool* pool = nullptr);

/// Convenience overload: the safe region of a feature set —
/// phi.allWithinBounds(pi) — around `origin`. Classified through one
/// classify::BlockClassifier per running chunk in the kernel mode
/// selected by opts.classifyMode; the result (including every bit of
/// every radius) does not depend on the mode, and the kernels' work
/// counters are returned in EmpiricalEstimate::classifyStats and
/// recorded as "classify.*" counters when opts.metrics is set. The
/// one-job case of estimateEmpiricalRadii.
[[nodiscard]] EmpiricalEstimate estimateEmpiricalRadius(
    const feature::FeatureSet& phi, const la::Vector& origin,
    const EstimatorOptions& opts = {}, parallel::ThreadPool* pool = nullptr);

/// One feature-set estimate of a batch: the arguments of the FeatureSet
/// overload of estimateEmpiricalRadius. `phi` must outlive the call.
struct FeatureJob {
  const feature::FeatureSet* phi = nullptr;
  la::Vector origin;
  EstimatorOptions opts;
};

/// Runs several feature-set estimates as one: every chunk of every job
/// goes into one self-scheduled parallel phase, heaviest job first (rays
/// times features), and each job's polish and CI run as soon as its last
/// chunk is done, on the thread that marched it, so one job's straggler
/// chunk or serial tail does not leave the other workers idle. The
/// pool is used only when some job has more than one chunk, as for a
/// lone estimate. Result i is bit-identical to
/// estimateEmpiricalRadius(*jobs[i].phi, jobs[i].origin, jobs[i].opts)
/// at any thread count, and the metrics of each job are written, in job
/// order, after all jobs are done. Traced as one "validate.estimate"
/// span holding every job's "validate.chunk" spans. Throws what that
/// overload throws (the first failing job's set-up error, in job order,
/// before any chunk runs), and std::invalid_argument on a null `phi`.
[[nodiscard]] std::vector<EmpiricalEstimate> estimateEmpiricalRadii(
    std::span<const FeatureJob> jobs, parallel::ThreadPool* pool = nullptr);

/// The (1 - tail) quantile of the exact bootstrap law of the minimum of
/// `sample` (finite values): resampling its N values with replacement
/// gives P*(min* > x) = (#{d > x}/N)^N, and the quantile is the smallest
/// sample value x with P*(min* > x) <= tail — the left-continuous
/// inverse of the law's CDF, which Monte-Carlo resampling approaches as
/// the resample count grows. That is the r-th smallest value for a rank
/// r that depends on N and tail alone (4 at tail 0.025 once N >= 9), so
/// it costs one O(N) selection and no random numbers.
/// Throws std::invalid_argument when `sample` is empty or `tail` lies
/// outside (0, 1).
[[nodiscard]] double bootstrapMinimumQuantile(std::vector<double> sample,
                                              double tail);

/// Fraction of probe directions already violating at distance `r` — the
/// empirical robustness-degradation function, read off the ECDF of the
/// directional boundary distances. 0 everywhere below the empirical
/// radius; approaches the boundary-hit fraction as r grows.
[[nodiscard]] double violationFraction(const EmpiricalEstimate& est, double r);

}  // namespace fepia::validate
