#include "validate/empirical.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "obs/span.hpp"
#include "rng/distributions.hpp"
#include "stats/ecdf.hpp"

namespace fepia::validate {

namespace {

/// Checks `opts` and returns its number of chunks.
std::size_t chunkCount(const EstimatorOptions& opts) {
  if (opts.directions == 0) {
    throw std::invalid_argument("validate: directions must be positive");
  }
  if (opts.chunkSize == 0) {
    throw std::invalid_argument("validate: chunkSize must be positive");
  }
  if (!(opts.horizon > 0.0) || !std::isfinite(opts.horizon)) {
    throw std::invalid_argument("validate: horizon must be finite and positive");
  }
  if (!(opts.confidence > 0.0 && opts.confidence < 1.0)) {
    throw std::invalid_argument("validate: confidence must lie in (0, 1)");
  }
  return (opts.directions + opts.chunkSize - 1) / opts.chunkSize;
}

/// Builds the chunk predicates of the predicate overloads: called once
/// per chunk id (0..chunks-1) before the parallel phase, plus once with
/// id == chunks for the serial predicate used by the origin check and
/// the polish (which also hands the pieces of a split ladder block to
/// the chunk predicates). A chunk predicate gets one call per lockstep
/// round, whose lanes are that chunk's unfinished rays in ascending
/// direction id.
using BlockPredicateFactory =
    std::function<BlockSafePredicate(std::size_t chunkId)>;

/// One chunk's rays in structure-of-arrays form, live rays first. Each
/// ray runs the per-ray scalar loop as a state machine that consumes one
/// safe/unsafe verdict per round: a geometric march from horizon * 2^-40
/// doubling up to the horizon, then bisection of the bracketing
/// interval, finishing at 0.5*(lo+hi) (+inf when the whole ray stays
/// safe). Rays that leave and re-enter the safe region below the march
/// resolution are attributed to the first crossing the march sees (the
/// same caveat as any sampling method on a non-convex region).
///
/// Slots [0, live) hold the unfinished rays in ascending direction
/// order; a round in which any ray finishes compacts them stably, so
/// each round's block is filled by unit-stride loops and passes its
/// direction ids in the order the per-ray loop would.
class RayBatch {
  static constexpr double kInf = std::numeric_limits<double>::infinity();

 public:
  /// Draws the chunk's directions first, first+1, ... from `g` up front,
  /// in direction order: the predicate never touches the generator, so
  /// this is the draw sequence of the per-ray loop. Finished distances
  /// go to `distances`, one slot per ray of the chunk.
  RayBatch(rng::Xoshiro256StarStar g, std::size_t first,
           std::span<double> distances, const EstimatorOptions& opts,
           std::size_t n)
      : opts_(opts),
        n_(n),
        first_(first),
        cap_(distances.size()),
        live_(cap_),
        distances_(distances),
        dir_(n * cap_),
        probe_(cap_, std::ldexp(opts.horizon, -40)),
        lo_(cap_, 0.0),
        hi_(cap_, 0.0),
        iter_(cap_, 0),
        bisecting_(cap_, 0),
        ids_(cap_),
        keep_(cap_) {
    std::vector<double> u(n);
    for (std::size_t l = 0; l < cap_; ++l) {
      if (opts.nonnegativeDirections) {
        rng::unitSphereNonnegative(g, u);
      } else {
        rng::unitSphere(g, u);
      }
      for (std::size_t j = 0; j < n; ++j) dir_[j * cap_ + l] = u[j];
      ids_[l] = first + l;
    }
  }

  [[nodiscard]] std::size_t live() const noexcept { return live_; }

  /// Direction ids of the live rays, ascending.
  [[nodiscard]] std::span<const std::size_t> ids() const noexcept {
    return {ids_.data(), live_};
  }

  /// Writes every live ray's next probe point into `block`.
  void fill(la::PointBlock& block, const la::Vector& origin) const {
    const std::size_t live = live_;
    const double* probe = probe_.data();
    block.setLanes(live);
    for (std::size_t j = 0; j < n_; ++j) {
      double* row = block.coordinate(j).data();
      const double oj = origin[j];
      const double* u = &dir_[j * cap_];
      for (std::size_t l = 0; l < live; ++l) row[l] = oj + probe[l] * u[l];
    }
  }

  /// Advances every live ray by its verdict, then drops the finished
  /// ones, keeping the survivors' order. A verdict moves the bracket end
  /// it names in either phase; a safe verdict while marching doubles the
  /// probe, and any other verdict schedules the next bisection probe
  /// unless the iteration budget is spent or the bracket has collapsed
  /// to double resolution — the scalar loop's exact exit tests, checked
  /// before each evaluation.
  void advance(std::span<const std::uint8_t> verdicts) {
    const double horizon = opts_.horizon;
    const std::size_t budget = opts_.bisectIterations;
    const std::size_t live = live_;
    // Local pointers: a store through the uint8_t phase array may alias
    // anything, so member pointers would be reloaded after each one.
    double* probe = probe_.data();
    double* los = lo_.data();
    double* his = hi_.data();
    std::size_t* iters = iter_.data();
    std::uint8_t* phases = bisecting_.data();
    std::size_t* ids = ids_.data();
    std::size_t* keep = keep_.data();
    std::size_t kept = 0;
    for (std::size_t l = 0; l < live; ++l) {
      const bool safe = verdicts[l] != 0;
      const bool bisecting = phases[l] != 0;
      const double p = probe[l];
      const double lo = select(safe, p, los[l]);
      const double hi = select(safe, his[l], p);
      const std::size_t iter = bisecting ? iters[l] + 1 : 0;
      const double mid = 0.5 * (lo + hi);
      const bool marching = !bisecting & safe;
      const bool done =
          marching ? p >= horizon
                   : (iter >= budget) | (mid <= lo) | (mid >= hi);
      if (done) {
        finish(l, marching ? kInf : mid);
        continue;
      }
      probe[kept] = select(marching, std::min(2.0 * p, horizon), mid);
      los[kept] = lo;
      his[kept] = hi;
      iters[kept] = iter;
      phases[kept] = marching ? 0 : 1;
      ids[kept] = ids[l];
      keep[kept++] = l;
    }
    if (kept != live) {
      for (std::size_t j = 0; j < n_; ++j) {
        double* u = &dir_[j * cap_];
        for (std::size_t k = 0; k < kept; ++k) u[k] = u[keep[k]];
      }
    }
    live_ = kept;
  }

  /// Moves out the direction of the first ray (by id) with the smallest
  /// finite distance; empty when every ray was censored.
  [[nodiscard]] std::vector<double> takeBestDirection() noexcept {
    return std::move(bestDir_);
  }

 private:
  /// c ? a : b on the bits, so the compiler cannot make it a branch:
  /// bisection verdicts are coin flips to a branch predictor.
  static double select(bool c, double a, double b) noexcept {
    const std::uint64_t mask = std::uint64_t{0} - std::uint64_t{c};
    return std::bit_cast<double>((std::bit_cast<std::uint64_t>(a) & mask) |
                                 (std::bit_cast<std::uint64_t>(b) & ~mask));
  }

  /// Records slot l's boundary distance d (+inf for a ray that stayed
  /// safe to the horizon), and its direction when d is finite and (d, id)
  /// is the smallest pair so far — the first index wins ties.
  void finish(std::size_t l, double d) {
    const std::size_t id = ids_[l];
    distances_[id - first_] = d;
    if (d < bestDist_ || (d == bestDist_ && d < kInf && id < bestId_)) {
      bestDist_ = d;
      bestId_ = id;
      bestDir_.resize(n_);
      for (std::size_t j = 0; j < n_; ++j) bestDir_[j] = dir_[j * cap_ + l];
    }
  }

  const EstimatorOptions& opts_;
  std::size_t n_;
  std::size_t first_;
  std::size_t cap_;
  std::size_t live_;
  std::span<double> distances_;
  std::vector<double> dir_;  ///< n x cap_: row j holds coordinate j
  std::vector<double> probe_;
  std::vector<double> lo_;   ///< known safe distance
  std::vector<double> hi_;   ///< known unsafe distance, once bracketed
  std::vector<std::size_t> iter_;  ///< bisection steps taken
  std::vector<std::uint8_t> bisecting_;
  std::vector<std::size_t> ids_;
  std::vector<std::size_t> keep_;  ///< advance's survivor slots
  std::vector<double> bestDir_;
  double bestDist_ = kInf;
  std::size_t bestId_ = 0;
};

/// Adapts the serial predicate to one-point probes (origin check, polish
/// bisection). With a classifier — the FeatureSet overload's serial one —
/// a probe is its classifyPoint, which skips the block round trip and
/// gives the same verdicts and counters as a 1-lane block. Otherwise it
/// is a persistent 1-lane block, scattered and classified per call; the
/// per-lane kernels are bit-identical to scalar evaluation, so either
/// path is interchangeable with a scalar predicate.
class SingleLaneProbe {
 public:
  SingleLaneProbe(const BlockSafePredicate& pred, std::size_t n,
                  classify::BlockClassifier* classifier)
      : pred_(pred), classifier_(classifier), block_(n, 1) {}

  bool operator()(const la::Vector& pi, std::size_t direction) {
    if (classifier_ != nullptr) return classifier_->classifyPoint(pi);
    block_.setPoint(0, pi.span());
    dir_[0] = direction;
    pred_(block_, dir_, std::span<std::uint8_t>(&verdict_, 1));
    return verdict_ != 0;
  }

 private:
  const BlockSafePredicate& pred_;
  classify::BlockClassifier* classifier_;
  la::PointBlock block_;
  std::array<std::size_t, 1> dir_{};
  std::uint8_t verdict_ = 0;
};

/// Confidence interval for the region radius from the directional
/// sample. Every directional distance is >= the true radius, so the
/// sample minimum m is a hard upper bound; the question is how far below
/// m the interval must reach to cover the endpoint. Two corrections are
/// combined and the wider one wins:
///
///  * reflected (basic) bootstrap of the minimum: m - (q_hi - m), with
///    q_hi the upper quantile of the exact bootstrap law of the sample
///    minimum (bootstrapMinimumQuantile) — captures the resampling
///    spread, but cannot see past the sample;
///  * Robson-Whitlock endpoint extrapolation: m - (d2 - m) * (1 - c) / c
///    for tail mass c, with d2 the second-smallest distance — the
///    spacing of the lowest order statistics scales with the directional
///    minimum's bias (which grows with dimension), so this reaches below
///    the sample where the bootstrap cannot.
stats::Interval minimumCI(std::vector<double> finite, double m,
                          const EstimatorOptions& opts) {
  if (finite.size() < 2) {
    return stats::Interval{m, m};
  }
  double d2 = std::numeric_limits<double>::infinity();
  bool seenMin = false;
  for (const double d : finite) {
    if (d == m && !seenMin) {
      seenMin = true;  // skip one copy of the minimum itself
    } else {
      d2 = std::min(d2, d);
    }
  }
  const double tail = 0.5 * (1.0 - opts.confidence);
  const double spacing = (d2 - m) * (1.0 - tail) / tail;
  const double spread = bootstrapMinimumQuantile(std::move(finite), tail) - m;
  return stats::Interval{std::max(0.0, m - std::max(spread, spacing)), m};
}

/// How the polish classifies a candidate's ladder block.
enum class LadderDispatch {
  /// One call to the serial predicate: for a cheap kernel (the
  /// FeatureSet overload's BlockClassifier), where a fork-join would
  /// cost more than the whole block.
  Serial,
  /// Split by lane across the pool: the caller classifies the first
  /// piece with the serial predicate and workers the others with the
  /// chunk predicates, idle since the chunk phase ended. For opaque
  /// predicates, where one lane can be a whole DES run.
  Pool,
};

/// The polish: a deterministic pattern search on the direction sphere,
/// started from the best sampled direction. It perturbs one coordinate
/// at a time, renormalises, keeps strict improvements and halves the
/// step after a sweep without one. The search itself is serial, so it
/// cannot affect the thread-count invariance.
///
/// A candidate ray only matters if its boundary distance beats `best`,
/// and it cannot once its known-safe distance lo reaches `best`, since
/// the ray's distance 0.5*(lo+hi) is at least lo. So a candidate stops
/// there, and its doubling ladder ends at the first rung >= best. All
/// rungs of that ladder are known before the ray starts, so they are
/// classified as one block; the bisection from the first unsafe rung
/// stays serial. Every accept, and so every bit of the result, is that
/// of the unpruned serial search.
class Polish {
 public:
  /// `preds` are the estimator's chunk predicates with the serial one
  /// last; `direction` is the id every probe passes; `serialClassifier`
  /// is as for SingleLaneProbe.
  Polish(const std::vector<BlockSafePredicate>& preds,
         const la::Vector& origin, std::size_t direction,
         const EstimatorOptions& opts, parallel::ThreadPool* pool,
         LadderDispatch dispatch, classify::BlockClassifier* serialClassifier)
      : serial_(preds.back(), origin.size(), serialClassifier),
        origin_(origin),
        direction_(direction),
        opts_(opts),
        probe_(origin.size()) {
    // Rung counts only shrink as `best` falls; the sampled radius is at
    // most the horizon, so no ladder is longer than the full march.
    const std::size_t maxRungs = rungsBelow(opts.horizon).size();
    std::size_t pieces = 1;
    if (dispatch == LadderDispatch::Pool && pool != nullptr &&
        pool->threadCount() > 1) {
      pieces = std::min({pool->threadCount(), preds.size(), maxRungs});
      pool_ = pool;
    }
    const std::size_t capacity = (maxRungs + pieces - 1) / pieces;
    pieces_.resize(pieces);
    for (std::size_t p = 0; p < pieces; ++p) {
      Piece& piece = pieces_[p];
      piece.pred = p == 0 ? &preds.back() : &preds[p - 1];
      piece.block = la::PointBlock(origin.size(), capacity);
      piece.directions.assign(capacity, direction);
      piece.verdicts.assign(capacity, 0);
    }
  }

  /// Pattern search from direction `u` at sampled distance `d0`;
  /// returns the polished radius.
  double run(std::vector<double> u, double d0) {
    const std::size_t n = u.size();
    double best = d0;
    std::vector<double> rungs = rungsBelow(best);
    double step = 0.25;
    std::vector<double> v(n);
    for (std::size_t sweep = 0; sweep < opts_.polishSweeps && step > 1e-9;
         ++sweep) {
      bool improved = false;
      for (std::size_t j = 0; j < n; ++j) {
        for (const double sgn : {1.0, -1.0}) {
          v = u;
          v[j] += sgn * step;
          if (opts_.nonnegativeDirections && v[j] < 0.0) v[j] = 0.0;
          double norm2 = 0.0;
          for (const double x : v) norm2 += x * x;
          if (!(norm2 > 0.0)) continue;
          const double inv = 1.0 / std::sqrt(norm2);
          for (double& x : v) x *= inv;
          const double d = distanceBelow(v, rungs, best);
          if (d < best) {
            best = d;
            u = v;
            improved = true;
            rungs = rungsBelow(best);
          }
        }
      }
      if (!improved) step *= 0.5;
    }
    return best;
  }

  /// Probes the pruned serial search makes: the ladder up to its first
  /// unsafe rung, then the bisection.
  [[nodiscard]] std::size_t probes() const noexcept { return probes_; }
  /// Ladder rungs classified past the first unsafe one.
  [[nodiscard]] std::size_t speculative() const noexcept {
    return speculative_;
  }

 private:
  struct Piece {
    const BlockSafePredicate* pred = nullptr;
    la::PointBlock block;
    std::vector<std::size_t> directions;
    std::vector<std::uint8_t> verdicts;
  };

  /// The march's rungs horizon * 2^(k-40), doubling up to the horizon,
  /// through the first one >= best.
  [[nodiscard]] std::vector<double> rungsBelow(double best) const {
    std::vector<double> rungs;
    for (double t = std::ldexp(opts_.horizon, -40);;
         t = std::min(2.0 * t, opts_.horizon)) {
      rungs.push_back(t);
      if (t >= best || t >= opts_.horizon) return rungs;
    }
  }

  /// Index of the first unsafe rung along `v`, or rungs.size() when all
  /// are safe. The ladder is split into equal lane ranges, one per
  /// piece.
  std::size_t firstUnsafe(const std::vector<double>& v,
                          const std::vector<double>& rungs) {
    const std::size_t count = rungs.size();
    const std::size_t per = (count + pieces_.size() - 1) / pieces_.size();
    const std::size_t used = (count + per - 1) / per;
    const auto classify = [&](std::size_t p) {
      Piece& piece = pieces_[p];
      const std::size_t first = p * per;
      const std::size_t lanes = std::min(per, count - first);
      piece.block.setLanes(lanes);
      for (std::size_t j = 0; j < v.size(); ++j) {
        const std::span<double> row = piece.block.coordinate(j);
        for (std::size_t l = 0; l < lanes; ++l) {
          row[l] = origin_[j] + rungs[first + l] * v[j];
        }
      }
      (*piece.pred)(
          piece.block,
          std::span<const std::size_t>(piece.directions.data(), lanes),
          std::span<std::uint8_t>(piece.verdicts.data(), lanes));
    };
    if (used == 1) {
      classify(0);
    } else {
      parallel::forkJoin(*pool_, used, classify);
    }
    for (std::size_t i = 0; i < count; ++i) {
      if (pieces_[i / per].verdicts[i % per] == 0) return i;
    }
    return count;
  }

  /// Boundary distance along `v`, or +inf once the ray can no longer
  /// beat `best` (`rungs` is the ladder for `best`).
  double distanceBelow(const std::vector<double>& v,
                       const std::vector<double>& rungs, double best) {
    const std::size_t k = firstUnsafe(v, rungs);
    const std::size_t probed = std::min(k + 1, rungs.size());
    probes_ += probed;
    speculative_ += rungs.size() - probed;
    if (k == rungs.size()) return std::numeric_limits<double>::infinity();
    double lo = k == 0 ? 0.0 : rungs[k - 1];
    double hi = rungs[k];
    for (std::size_t it = 0; it < opts_.bisectIterations; ++it) {
      const double mid = 0.5 * (lo + hi);
      if (mid <= lo || mid >= hi) break;  // bracket at double resolution
      for (std::size_t i = 0; i < v.size(); ++i) {
        probe_[i] = origin_[i] + mid * v[i];
      }
      ++probes_;
      if (!serial_(probe_, direction_)) {
        hi = mid;
      } else if (mid >= best) {
        return std::numeric_limits<double>::infinity();
      } else {
        lo = mid;
      }
    }
    return 0.5 * (lo + hi);
  }

  SingleLaneProbe serial_;
  const la::Vector& origin_;
  std::size_t direction_;
  const EstimatorOptions& opts_;
  la::Vector probe_;
  parallel::ThreadPool* pool_ = nullptr;
  std::vector<Piece> pieces_;
  std::size_t probes_ = 0;
  std::size_t speculative_ = 0;
};

/// One estimate, in the three steps every public overload runs: set-up
/// (the constructor), the march of one chunk, and the finish. Each chunk
/// writes only its own slots, so chunks of this estimate and of others
/// may march at once in any order; the finish reduces them in direction
/// order, so the result does not depend on that order.
class Estimation {
 public:
  /// Checks the options and the origin and draws the chunk substreams.
  /// `preds` holds the chunk predicates the polish may use with the
  /// serial predicate last; `serialClassifier` is as for SingleLaneProbe.
  /// Both must outlive the estimation.
  Estimation(const la::Vector& origin, const EstimatorOptions& opts,
             const std::vector<BlockSafePredicate>& preds,
             classify::BlockClassifier* serialClassifier)
      : origin_(origin),
        opts_(opts),
        preds_(preds),
        serialClassifier_(serialClassifier) {
    const std::size_t chunks = chunkCount(opts);
    if (origin.empty()) {
      throw std::invalid_argument("validate: empty origin");
    }
    // Origin membership is a precondition, not part of the sample — it
    // is deliberately excluded from est.classifications.
    SingleLaneProbe probe(preds.back(), origin.size(), serialClassifier);
    if (!probe(origin, 0)) {
      throw std::domain_error(
          "validate: the origin violates the robustness requirement (the "
          "paper assumes the assumed operating point satisfies QoS)");
    }
    distances_.resize(opts.directions);
    evalsPerChunk_.assign(chunks, 0);
    bestDirPerChunk_.resize(chunks);
    streams_ = rng::Xoshiro256StarStar(opts.seed).substreams(chunks);
  }

  [[nodiscard]] std::size_t chunks() const noexcept { return streams_.size(); }

  /// Marches chunk c's rays in lockstep: one SoA block per round holding
  /// every unfinished ray's next probe point, one `pred` call per round.
  void march(std::size_t c, const BlockSafePredicate& pred) {
    FEPIA_SPAN_ARG("validate.chunk", "chunk", c);
    const std::size_t n = origin_.size();
    const std::size_t first = c * opts_.chunkSize;
    const std::size_t count =
        std::min(opts_.chunkSize, opts_.directions - first);
    RayBatch rays(streams_[c], first,
                  std::span<double>(distances_).subspan(first, count), opts_,
                  n);
    la::PointBlock block(n, count);
    std::vector<std::uint8_t> verdicts(count);
    std::size_t evals = 0;
    while (rays.live() > 0) {
      const std::size_t lanes = rays.live();
      rays.fill(block, origin_);
      pred(block, rays.ids(), std::span<std::uint8_t>(verdicts.data(), lanes));
      evals += lanes;
      rays.advance(std::span<const std::uint8_t>(verdicts.data(), lanes));
    }
    // The chunk's argmin direction, kept for the polish. First index wins
    // ties — the rule of the reduction in finish, so the global critical
    // direction is always its chunk's stored one.
    bestDirPerChunk_[c] = rays.takeBestDirection();
    evalsPerChunk_[c] = evals;
    if (opts_.liveClassifications != nullptr) {
      opts_.liveClassifications->fetch_add(evals, std::memory_order_relaxed);
    }
  }

  /// Reduces the chunks in direction order, then polishes the minimum
  /// (its ladder blocks classified as `dispatch` says) and builds the CI.
  /// Runs once, after every chunk has marched.
  void finish(parallel::ThreadPool* pool, LadderDispatch dispatch) {
    EmpiricalEstimate& est = est_;
    est.directions = opts_.directions;
    est.distances = std::move(distances_);
    for (const std::size_t evals : evalsPerChunk_) {
      est.classifications += evals;
    }
    std::vector<double> finite;
    finite.reserve(est.distances.size());
    for (std::size_t i = 0; i < est.distances.size(); ++i) {
      const double d = est.distances[i];
      if (std::isfinite(d)) {
        finite.push_back(d);
        if (d < est.radius) {
          est.radius = d;
          est.criticalDirection = i;
        }
      }
    }
    est.boundaryHits = finite.size();
    if (finite.empty()) return;
    est.distanceSummary = stats::summarize(finite);
    if (opts_.polishSweeps > 0) {
      Polish polish(preds_, origin_, est.criticalDirection, opts_, pool,
                    dispatch, serialClassifier_);
      est.radius = polish.run(
          std::move(
              bestDirPerChunk_[est.criticalDirection / opts_.chunkSize]),
          est.radius);
      est.classifications += polish.probes();
      est.speculativeProbes = polish.speculative();
    }
    est.ci = minimumCI(std::move(finite), est.radius, opts_);
  }

  /// The finished estimate.
  [[nodiscard]] EmpiricalEstimate& result() noexcept { return est_; }

  /// Writes the validate.* counters and the per-chunk classification
  /// histogram into opts.metrics, when set.
  void writeMetrics() const {
    if (opts_.metrics == nullptr) return;
    obs::Registry& reg = *opts_.metrics;
    reg.counters().bump("validate.directions", est_.directions);
    reg.counters().bump("validate.classifications", est_.classifications);
    reg.counters().bump("validate.boundary_hits", est_.boundaryHits);
    reg.counters().bump("validate.speculative_probes",
                        est_.speculativeProbes);
    obs::Histogram& chunkHist = reg.histogram(
        "validate.chunk_classifications",
        obs::Histogram::exponential(64.0, 4.0, 10).upperBounds());
    for (const std::size_t evals : evalsPerChunk_) {
      chunkHist.record(static_cast<double>(evals));
    }
  }

 private:
  const la::Vector& origin_;
  const EstimatorOptions& opts_;
  const std::vector<BlockSafePredicate>& preds_;
  classify::BlockClassifier* serialClassifier_;
  std::vector<rng::Xoshiro256StarStar> streams_;
  std::vector<double> distances_;
  std::vector<std::size_t> evalsPerChunk_;
  std::vector<std::vector<double>> bestDirPerChunk_;
  EmpiricalEstimate est_;
};

/// The estimator of the predicate overloads: one block predicate per
/// chunk plus a serial one, built once up front; the chunks run on the
/// pool when there is more than one; the polish splits each ladder block
/// across the pool, since one lane of an opaque predicate can be a whole
/// DES run.
EmpiricalEstimate runEstimator(const BlockPredicateFactory& factory,
                               const la::Vector& origin,
                               const EstimatorOptions& opts,
                               parallel::ThreadPool* pool) {
  const std::size_t chunks = chunkCount(opts);
  // The factory runs serially, so it may touch shared state.
  std::vector<BlockSafePredicate> preds(chunks + 1);
  for (std::size_t c = 0; c <= chunks; ++c) preds[c] = factory(c);

  Estimation estimation(origin, opts, preds, nullptr);
  {
    FEPIA_SPAN_ARG("validate.estimate", "directions", opts.directions);
    const auto march = [&](std::size_t c) { estimation.march(c, preds[c]); };
    if (pool != nullptr && chunks > 1) {
      parallel::parallelFor(*pool, chunks, march);
    } else {
      for (std::size_t c = 0; c < chunks; ++c) march(c);
    }
    estimation.finish(pool, LadderDispatch::Pool);
  }
  estimation.writeMetrics();
  return std::move(estimation.result());
}

/// One FeatureJob of a batch. Its chunks classify through a
/// BlockClassifier of their own, built when the chunk starts and dropped
/// when it ends, so only running chunks hold one; the one-point probes
/// and the polish use the job's serial classifier. The chunk that
/// finishes last runs the job's finish.
class FeatureRun {
 public:
  explicit FeatureRun(const FeatureJob& job)
      : job_(checked(job)),
        serial_(*job.phi, job.opts.classifyMode),
        serialPred_{[this](const la::PointBlock& block,
                           std::span<const std::size_t>,
                           std::span<std::uint8_t> safeOut) {
          serial_.classify(block, safeOut);
        }},
        estimation_(job.origin, job.opts, serialPred_, &serial_),
        chunkStats_(estimation_.chunks()),
        pending_(estimation_.chunks()) {}

  [[nodiscard]] std::size_t chunks() const noexcept {
    return estimation_.chunks();
  }

  /// Relative cost of the job's march: its rays times its features.
  [[nodiscard]] std::size_t weight() const noexcept {
    return job_.opts.directions * job_.phi->size();
  }

  void march(std::size_t c) {
    classify::BlockClassifier cls(*job_.phi, job_.opts.classifyMode);
    estimation_.march(c, [&cls](const la::PointBlock& block,
                                std::span<const std::size_t>,
                                std::span<std::uint8_t> safeOut) {
      cls.classify(block, safeOut);
    });
    chunkStats_[c] = cls.stats();
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      estimation_.finish(nullptr, LadderDispatch::Serial);
    }
  }

  /// Writes the job's metrics and moves its estimate out.
  EmpiricalEstimate take() {
    EmpiricalEstimate& est = estimation_.result();
    for (const classify::ClassifyStats& s : chunkStats_) {
      est.classifyStats.merge(s);
    }
    est.classifyStats.merge(serial_.stats());
    estimation_.writeMetrics();
    if (job_.opts.metrics != nullptr) {
      auto& counters = job_.opts.metrics->counters();
      counters.bump("classify.blocks", est.classifyStats.blocks);
      counters.bump("classify.lanes", est.classifyStats.lanes);
    }
    return std::move(est);
  }

 private:
  static const FeatureJob& checked(const FeatureJob& job) {
    if (job.phi == nullptr || job.phi->empty()) {
      throw std::invalid_argument("validate: empty feature set");
    }
    if (job.phi->dimension() != job.origin.size()) {
      throw std::invalid_argument(
          "validate: origin dimension does not match the feature set");
    }
    return job;
  }

  const FeatureJob& job_;
  classify::BlockClassifier serial_;
  std::vector<BlockSafePredicate> serialPred_;
  Estimation estimation_;
  std::vector<classify::ClassifyStats> chunkStats_;
  std::atomic<std::size_t> pending_;  ///< chunks not yet marched
};

}  // namespace

std::vector<EmpiricalEstimate> estimateEmpiricalRadii(
    std::span<const FeatureJob> jobs, parallel::ThreadPool* pool) {
  // Set-up in job order: each job's checks and origin test run before
  // any chunk does.
  std::vector<std::unique_ptr<FeatureRun>> runs;
  runs.reserve(jobs.size());
  std::size_t directions = 0;
  bool split = false;
  for (const FeatureJob& job : jobs) {
    runs.push_back(std::make_unique<FeatureRun>(job));
    directions += job.opts.directions;
    split = split || runs.back()->chunks() > 1;
  }

  // Every chunk of every job, heaviest job first, each job's chunks in
  // order: the self-scheduled parallelFor starts the long ones first.
  std::vector<std::size_t> order(runs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&runs](std::size_t a, std::size_t b) {
                     return runs[a]->weight() > runs[b]->weight();
                   });
  std::vector<std::pair<FeatureRun*, std::size_t>> units;
  for (const std::size_t j : order) {
    for (std::size_t c = 0; c < runs[j]->chunks(); ++c) {
      units.emplace_back(runs[j].get(), c);
    }
  }

  {
    FEPIA_SPAN_ARG("validate.estimate", "directions", directions);
    const auto march = [&units](std::size_t k) {
      units[k].first->march(units[k].second);
    };
    // One-chunk jobs stay on the calling thread, as a lone estimate of
    // one chunk would: spreading them over a shared pool costs more in
    // hand-offs than it gains.
    if (pool != nullptr && split) {
      parallel::parallelFor(*pool, units.size(), march);
    } else {
      for (std::size_t k = 0; k < units.size(); ++k) march(k);
    }
  }

  std::vector<EmpiricalEstimate> out;
  out.reserve(runs.size());
  for (const auto& run : runs) out.push_back(run->take());
  return out;
}

EmpiricalEstimate estimateEmpiricalRadius(const SafePredicate& safe,
                                          const la::Vector& origin,
                                          const EstimatorOptions& opts,
                                          parallel::ThreadPool* pool) {
  if (!safe) {
    throw std::invalid_argument("validate: null safe predicate");
  }
  return estimateEmpiricalRadius(
      IndexedSafePredicate(
          [&safe](const la::Vector& pi, std::size_t) { return safe(pi); }),
      origin, opts, pool);
}

EmpiricalEstimate estimateEmpiricalRadius(const IndexedSafePredicate& safe,
                                          const la::Vector& origin,
                                          const EstimatorOptions& opts,
                                          parallel::ThreadPool* pool) {
  if (!safe) {
    throw std::invalid_argument("validate: null safe predicate");
  }
  // Lane-at-a-time adapter; each chunk's closure owns its gather
  // scratch, so chunks stay thread-independent.
  const std::size_t n = origin.size();
  const BlockPredicateFactory factory =
      [&safe, n](std::size_t) -> BlockSafePredicate {
    return [&safe, scratch = la::Vector(n)](
               const la::PointBlock& block,
               std::span<const std::size_t> directions,
               std::span<std::uint8_t> safeOut) mutable {
      for (std::size_t l = 0; l < block.lanes(); ++l) {
        block.gatherPoint(l, scratch.span());
        safeOut[l] = safe(scratch, directions[l]) ? 1 : 0;
      }
    };
  };
  return runEstimator(factory, origin, opts, pool);
}

EmpiricalEstimate estimateEmpiricalRadius(const BlockSafePredicate& safe,
                                          const la::Vector& origin,
                                          const EstimatorOptions& opts,
                                          parallel::ThreadPool* pool) {
  if (!safe) {
    throw std::invalid_argument("validate: null safe predicate");
  }
  // One copy of the callable per chunk: value-captured scratch inside
  // the caller's predicate becomes per-chunk state automatically.
  return runEstimator([&safe](std::size_t) { return safe; }, origin, opts,
                      pool);
}

EmpiricalEstimate estimateEmpiricalRadius(const feature::FeatureSet& phi,
                                          const la::Vector& origin,
                                          const EstimatorOptions& opts,
                                          parallel::ThreadPool* pool) {
  const FeatureJob job{&phi, origin, opts};
  return std::move(estimateEmpiricalRadii({&job, 1}, pool).front());
}

double bootstrapMinimumQuantile(std::vector<double> sample, double tail) {
  if (sample.empty()) {
    throw std::invalid_argument("validate: empty bootstrap sample");
  }
  if (!(tail > 0.0 && tail < 1.0)) {
    throw std::invalid_argument("validate: bootstrap tail must lie in (0, 1)");
  }
  // With c = #{d <= x}, P*(min* > x) = (1 - c/N)^N falls with c, so the
  // quantile is the r-th smallest value, r the smallest c with
  // (1 - c/N)^N <= tail: that value is the smallest x with c >= r, ties
  // included. r depends on N and tail alone, and (1 - c/N)^N <= e^-c
  // keeps it at most ceil(ln(1/tail)); at c = N the power is 0.
  const double n = static_cast<double>(sample.size());
  std::size_t r = 1;
  while (std::exp(n * std::log1p(-static_cast<double>(r) / n)) > tail) ++r;
  const auto rth = sample.begin() + static_cast<std::ptrdiff_t>(r - 1);
  std::nth_element(sample.begin(), rth, sample.end());
  return *rth;
}

double violationFraction(const EmpiricalEstimate& est, double r) {
  if (est.distances.empty()) {
    throw std::invalid_argument("validate: estimate holds no distances");
  }
  if (est.boundaryHits == 0) return 0.0;
  std::vector<double> finite;
  finite.reserve(est.boundaryHits);
  for (double d : est.distances) {
    if (std::isfinite(d)) finite.push_back(d);
  }
  const stats::Ecdf cdf(finite);
  return cdf(r) * static_cast<double>(est.boundaryHits) /
         static_cast<double>(est.directions);
}

}  // namespace fepia::validate
