// Differential test of the empirical estimator's polish. The polish stops
// a candidate ray once it can no longer beat the best distance and
// classifies each candidate's doubling ladder as one block, split across
// the pool for the predicate overloads. The oracle below is the serial
// estimator with the unpruned polish, one probe at a time: every radius,
// CI, critical-direction and distance bit must equal it at any thread
// count and chunk size, and `classifications` must equal the number of
// probes the oracle makes before a candidate's known-safe distance
// reaches the best distance.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "feature/linear.hpp"
#include "feature/quadratic.hpp"
#include "la/matrix.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "stats/descriptive.hpp"
#include "validate/empirical.hpp"

namespace validate = fepia::validate;
namespace feature = fepia::feature;
namespace parallel = fepia::parallel;
namespace la = fepia::la;
namespace rng = fepia::rng;
namespace stats = fepia::stats;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool sameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

using Region = validate::IndexedSafePredicate;

/// What the oracle computes, field for field as the estimator reports it.
struct OracleEstimate {
  double radius = kInf;
  stats::Interval ci{};
  std::size_t criticalDirection = 0;
  std::size_t boundaryHits = 0;
  std::vector<double> distances;
  std::size_t prunedProbes = 0;    ///< probes made while lo < best
  std::size_t allProbes = 0;       ///< every probe of the unpruned search
  std::size_t reentryBelow = 0;    ///< ladders safe again below best
  std::size_t reentryAbove = 0;    ///< ladders safe again at/above best
};

/// The serial estimator with the unpruned polish: per-ray march from
/// horizon * 2^-40, doubling to the horizon, then bisection; the polish
/// runs every candidate ray to the end and keeps strict improvements.
class Oracle {
 public:
  Oracle(const Region& safe, const la::Vector& origin,
         const validate::EstimatorOptions& opts)
      : safe_(safe), origin_(origin), opts_(opts), probe_(origin.size()) {}

  OracleEstimate run() {
    const std::size_t n = origin_.size();
    const rng::Xoshiro256StarStar base(opts_.seed);
    std::vector<double> bestDir;
    out_.distances.resize(opts_.directions);
    for (std::size_t first = 0; first < opts_.directions;
         first += opts_.chunkSize) {
      rng::Xoshiro256StarStar g = base.substream(
          static_cast<unsigned>(first / opts_.chunkSize));
      const std::size_t last =
          std::min(first + opts_.chunkSize, opts_.directions);
      for (std::size_t i = first; i < last; ++i) {
        std::vector<double> u = opts_.nonnegativeDirections
                                    ? rng::unitSphereNonnegative(g, n)
                                    : rng::unitSphere(g, n);
        const double d = distance(i, u, kInf);
        out_.distances[i] = d;
        if (d < out_.radius) {
          out_.radius = d;
          out_.criticalDirection = i;
          bestDir = u;
        }
      }
    }
    std::vector<double> finite;
    for (const double d : out_.distances) {
      if (std::isfinite(d)) finite.push_back(d);
    }
    out_.boundaryHits = finite.size();
    if (!finite.empty()) {
      if (opts_.polishSweeps > 0) {
        out_.radius = polish(out_.criticalDirection, bestDir, out_.radius);
      }
      out_.ci = minimumCI(finite, out_.radius);
    }
    return out_;
  }

 private:
  bool safeAt(std::size_t dir, const std::vector<double>& u, double t) {
    for (std::size_t i = 0; i < u.size(); ++i) {
      probe_[i] = origin_[i] + t * u[i];
    }
    return safe_(probe_, dir);
  }

  double distance(std::size_t dir, const std::vector<double>& u,
                  double best) {
    double lo = 0.0;
    double hi = 0.0;
    const auto probeAt = [&](double t) {
      ++out_.allProbes;
      if (lo < best) ++out_.prunedProbes;
      return safeAt(dir, u, t);
    };
    bool hit = false;
    double t = std::ldexp(opts_.horizon, -40);
    for (;;) {
      if (!probeAt(t)) {
        hi = t;
        hit = true;
        break;
      }
      lo = t;
      if (t >= opts_.horizon) break;
      t = std::min(2.0 * t, opts_.horizon);
    }
    if (!hit) return kInf;
    if (std::isfinite(best)) noteReentry(dir, u, t, best);
    for (std::size_t it = 0; it < opts_.bisectIterations; ++it) {
      const double mid = 0.5 * (lo + hi);
      if (mid <= lo || mid >= hi) break;
      if (probeAt(mid)) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return 0.5 * (lo + hi);
  }

  /// Coverage only (uncounted): does the rest of the ladder past the
  /// first unsafe rung `t` turn safe again, below or above `best`?
  void noteReentry(std::size_t dir, const std::vector<double>& u, double t,
                   double best) {
    bool below = false;
    bool above = false;
    while (t < opts_.horizon) {
      t = std::min(2.0 * t, opts_.horizon);
      if (safeAt(dir, u, t)) (t < best ? below : above) = true;
    }
    out_.reentryBelow += below;
    out_.reentryAbove += above;
  }

  double polish(std::size_t dir, std::vector<double> u, double best) {
    const std::size_t n = u.size();
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
          const double d = distance(dir, v, best);
          if (d < best) {
            best = d;
            u = v;
            improved = true;
          }
        }
      }
      if (!improved) step *= 0.5;
    }
    return best;
  }

  stats::Interval minimumCI(const std::vector<double>& finite, double m) {
    if (finite.size() < 2) return stats::Interval{m, m};
    double d2 = kInf;
    bool seenMin = false;
    for (const double d : finite) {
      if (d == m && !seenMin) {
        seenMin = true;
      } else {
        d2 = std::min(d2, d);
      }
    }
    const double tail = 0.5 * (1.0 - opts_.confidence);
    const double spacing = (d2 - m) * (1.0 - tail) / tail;
    // The exact bootstrap law of the minimum over the fully sorted
    // sample: the first value x with (#{d > x}/N)^N <= tail.
    std::vector<double> sorted = finite;
    std::sort(sorted.begin(), sorted.end());
    const double n = static_cast<double>(sorted.size());
    double q = sorted.back();
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      const auto above = static_cast<double>(
          sorted.end() -
          std::upper_bound(sorted.begin(), sorted.end(), sorted[i]));
      if (std::exp(n * std::log1p(-(n - above) / n)) <= tail) {
        q = sorted[i];
        break;
      }
    }
    const double spread = q - m;
    return stats::Interval{std::max(0.0, m - std::max(spread, spacing)), m};
  }

  const Region& safe_;
  const la::Vector& origin_;
  const validate::EstimatorOptions& opts_;
  la::Vector probe_;
  OracleEstimate out_;
};

void expectMatchesOracle(const validate::EmpiricalEstimate& est,
                         const OracleEstimate& want) {
  EXPECT_TRUE(sameBits(est.radius, want.radius))
      << est.radius << " vs " << want.radius;
  EXPECT_TRUE(sameBits(est.ci.lo, want.ci.lo));
  EXPECT_TRUE(sameBits(est.ci.hi, want.ci.hi));
  EXPECT_EQ(est.criticalDirection, want.criticalDirection);
  EXPECT_EQ(est.boundaryHits, want.boundaryHits);
  EXPECT_EQ(est.classifications, want.prunedProbes);
  ASSERT_EQ(est.distances.size(), want.distances.size());
  EXPECT_EQ(std::memcmp(est.distances.data(), want.distances.data(),
                        want.distances.size() * sizeof(double)),
            0);
}

double anisotropicNorm(const la::Vector& x, const la::Vector& origin) {
  const double d0 = x[0] - origin[0];
  const double d1 = x[1] - origin[1];
  const double d2 = x[2] - origin[2];
  return std::sqrt(d0 * d0 + 2.0 * d1 * d1 + 0.5 * d2 * d2);
}

bool inBall(const la::Vector& x, const la::Vector& origin,
            const std::vector<double>& offset, double radius) {
  double s = 0.0;
  for (std::size_t i = 0; i < offset.size(); ++i) {
    const double d = x[i] - origin[i] - offset[i];
    s += d * d;
  }
  return s < radius * radius;
}

/// A non-convex region around `origin`: an anisotropic ball of radius R
/// with a safe shell beyond it (1.5R, 2.2R), so rays leave and re-enter
/// well above the best distance, and unsafe pockets inside it, so rays
/// leave and re-enter below it. Two of the pockets are thin lenses
/// around the march rung at distance 0.5 on the +-x1 axes, where the
/// outer boundary is nearest: a polish walking there from a poorer
/// sampled direction finds rung 0.5 unsafe and rung 1 safe again, both
/// below the best distance so far. With `keyed`, R and the pockets
/// depend on the direction id, as the DES scenario keying does.
Region holedRegion(const la::Vector& origin, bool keyed) {
  return [origin, keyed](const la::Vector& x, std::size_t dir) {
    const double k = keyed ? static_cast<double>(dir % 3) : 0.0;
    const double big = 2.0 + 0.25 * k;
    const double r = anisotropicNorm(x, origin);
    if (r >= big && !(r > 1.5 * big && r < 2.2 * big)) return false;
    const double dx1 = std::fabs(x[1] - origin[1]);
    const double len = la::norm2(x - origin);
    if (len > 0.45 && len < 0.55 && dx1 > 0.9 * len) return false;
    if (inBall(x, origin, {1.1 - 0.2 * k, 0.3, 0.2}, 0.4)) return false;
    if (inBall(x, origin, {0.3, 0.9, 0.4 + 0.1 * k}, 0.3)) return false;
    if (inBall(x, origin, {0.2, 0.15, 0.2}, 0.06 + 0.02 * k)) return false;
    return !inBall(x, origin, {0.45, 0.1, 0.6}, 0.08);
  };
}

/// One sample shape: few directions leave the polish a long walk from a
/// poor sampled direction, many a short one.
struct Config {
  std::size_t directions;
  std::size_t chunkSize;
  bool nonnegative;

  [[nodiscard]] std::string name() const {
    return "directions=" + std::to_string(directions) +
           " chunk=" + std::to_string(chunkSize) +
           (nonnegative ? " nonnegative" : " sphere");
  }

  [[nodiscard]] validate::EstimatorOptions options(double horizon) const {
    validate::EstimatorOptions opts;
    opts.directions = directions;
    opts.chunkSize = chunkSize;
    opts.seed = 0x9011511ull;
    opts.horizon = horizon;
    opts.nonnegativeDirections = nonnegative;
    return opts;
  }
};

std::vector<Config> configs() {
  std::vector<Config> out;
  for (const std::size_t directions : {5u, 48u}) {
    for (const std::size_t chunkSize : {1u, 7u, 64u}) {
      for (const bool nonnegative : {false, true}) {
        out.push_back({directions, chunkSize, nonnegative});
      }
    }
  }
  return out;
}

}  // namespace

TEST(ValidatePolish, PrunedBlockLadderMatchesUnprunedSerialOracle) {
  const la::Vector origin{0.5, 0.5, 0.5};
  std::size_t reentryBelow = 0;
  std::size_t reentryAbove = 0;
  for (const bool keyed : {false, true}) {
    const Region region = holedRegion(origin, keyed);
    // Counts every lane any copy of the block predicate classifies.
    auto lanes = std::make_shared<std::atomic<std::size_t>>(0);
    const validate::BlockSafePredicate block =
        [&region, lanes, scratch = la::Vector(origin.size())](
            const la::PointBlock& pts, std::span<const std::size_t> dirs,
            std::span<std::uint8_t> out) mutable {
          for (std::size_t l = 0; l < pts.lanes(); ++l) {
            pts.gatherPoint(l, scratch.span());
            out[l] = region(scratch, dirs[l]) ? 1 : 0;
          }
          lanes->fetch_add(pts.lanes());
        };
    for (const Config& config : configs()) {
      SCOPED_TRACE(std::string(keyed ? "keyed " : "plain ") + config.name());
      const validate::EstimatorOptions opts = config.options(8.0);
      const OracleEstimate want = Oracle(region, origin, opts).run();
      ASSERT_TRUE(std::isfinite(want.radius));
      // The prune must actually save probes for this test to bite.
      EXPECT_LT(want.prunedProbes, want.allProbes);
      reentryBelow += want.reentryBelow;
      reentryAbove += want.reentryAbove;

      const validate::EmpiricalEstimate serial =
          validate::estimateEmpiricalRadius(region, origin, opts);
      expectMatchesOracle(serial, want);
      for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        parallel::ThreadPool pool(threads);
        const validate::EmpiricalEstimate indexed =
            validate::estimateEmpiricalRadius(region, origin, opts, &pool);
        expectMatchesOracle(indexed, want);
        EXPECT_EQ(indexed.speculativeProbes, serial.speculativeProbes);

        lanes->store(0);
        const validate::EmpiricalEstimate blocked =
            validate::estimateEmpiricalRadius(block, origin, opts, &pool);
        expectMatchesOracle(blocked, want);
        EXPECT_EQ(blocked.speculativeProbes, serial.speculativeProbes);
        // Every ladder lane is classified once, whatever the split.
        EXPECT_EQ(lanes->load(), blocked.classifications +
                                     blocked.speculativeProbes + 1);
      }
    }
  }
  // The regions exercise what the block ladder must get right: rungs
  // past the first unsafe one that are safe again, below and above the
  // best distance.
  EXPECT_GT(reentryBelow, 0u);
  EXPECT_GT(reentryAbove, 0u);
}

TEST(ValidatePolish, FeatureSetLadderMatchesOracleAndCountsEveryLane) {
  feature::FeatureSet phi;
  phi.add(std::make_shared<feature::LinearFeature>(
              "lin", la::Vector{1.0, 0.7, -0.3}),
          feature::FeatureBounds::upper(5.0));
  phi.add(std::make_shared<feature::QuadraticFeature>(
              "quad", 2.0 * la::identity(3), la::Vector{0.1, 0.0, 0.0}),
          feature::FeatureBounds::upper(30.0));
  const la::Vector origin{0.5, 0.5, 0.5};
  const Region region = [&phi](const la::Vector& x, std::size_t) {
    return phi.allWithinBounds(x);
  };
  std::size_t speculative = 0;
  for (const Config& config : configs()) {
    SCOPED_TRACE(config.name());
    const validate::EstimatorOptions opts = config.options(32.0);
    const OracleEstimate want = Oracle(region, origin, opts).run();
    ASSERT_TRUE(std::isfinite(want.radius));
    EXPECT_LT(want.prunedProbes, want.allProbes);
    for (const std::size_t threads : {0u, 1u, 2u, 3u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      std::unique_ptr<parallel::ThreadPool> pool;
      if (threads > 0) pool = std::make_unique<parallel::ThreadPool>(threads);
      const validate::EmpiricalEstimate est =
          validate::estimateEmpiricalRadius(phi, origin, opts, pool.get());
      expectMatchesOracle(est, want);
      EXPECT_EQ(est.classifyStats.lanes,
                est.classifications + est.speculativeProbes + 1);
      if (threads == 0) speculative += est.speculativeProbes;
    }
  }
  // Some ladder was classified past its first unsafe rung, so the lane
  // identity above covers speculative rungs.
  EXPECT_GT(speculative, 0u);
}
