// The Monte-Carlo validation engine: directional estimates against known
// geometry, input validation, censoring, and the analytic-vs-empirical
// acceptance check on the paper's linear (Section 3 worked example) and
// quadratic (Figure 1 curved boundary) systems.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "feature/linear.hpp"
#include "feature/quadratic.hpp"
#include "la/geometry.hpp"
#include "la/matrix.hpp"
#include "radius/fepia.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "units/unit.hpp"
#include "validate/empirical.hpp"
#include "support/tolerances.hpp"
#include "validate/report.hpp"
#include "validate/scheme.hpp"

namespace validate = fepia::validate;
namespace feature = fepia::feature;
namespace radius = fepia::radius;
namespace perturb = fepia::perturb;
namespace la = fepia::la;
namespace units = fepia::units;
namespace rng = fepia::rng;

namespace {

/// The README / Section 3 worked example: two execution times (seconds)
/// and one message length (bytes), end-to-end delay and stage budget.
radius::FepiaProblem linearExample() {
  radius::FepiaProblem problem;
  problem.addPerturbation(perturb::PerturbationParameter(
      "execution-times", units::Unit::seconds(), la::Vector{2.0, 3.0}));
  problem.addPerturbation(perturb::PerturbationParameter(
      "message-lengths", units::Unit::bytes(), la::Vector{1.0e6}));
  problem.addFeature(std::make_shared<feature::LinearFeature>(
                         "delay", la::Vector{1.0, 1.0, 1e-6}),
                     feature::FeatureBounds::upper(9.0));
  problem.addFeature(std::make_shared<feature::LinearFeature>(
                         "stage-2", la::Vector{0.0, 1.0, 0.0}),
                     feature::FeatureBounds::upper(5.0));
  return problem;
}

/// The quadratic (Figure 1 style) system: phi = e² + m² over two
/// one-element kinds with originals (3, 4), curved boundary at 100.
radius::FepiaProblem quadraticExample() {
  radius::FepiaProblem problem;
  problem.addPerturbation(perturb::PerturbationParameter(
      "e", units::Unit::seconds(), la::Vector{3.0}));
  problem.addPerturbation(perturb::PerturbationParameter(
      "m", units::Unit::bytes(), la::Vector{4.0}));
  problem.addFeature(std::make_shared<feature::QuadraticFeature>(
                         "energy", 2.0 * la::identity(2),
                         la::Vector{0.0, 0.0}),
                     feature::FeatureBounds::upper(100.0));
  return problem;
}

validate::EstimatorOptions fastOptions(std::size_t directions = 2048) {
  validate::EstimatorOptions opts;
  opts.directions = directions;
  opts.chunkSize = 128;
  opts.seed = 42;
  opts.horizon = 64.0;
  return opts;
}

}  // namespace

TEST(EmpiricalRadius, HalfspaceMatchesPointPlaneDistance) {
  // phi = 2x + y <= 8 from (1, 1): radius = (8 - 3)/sqrt(5).
  feature::FeatureSet phi;
  phi.add(std::make_shared<feature::LinearFeature>("lin", la::Vector{2.0, 1.0}),
          feature::FeatureBounds::upper(8.0));
  const la::Vector orig{1.0, 1.0};
  const double analytic = la::Hyperplane(la::Vector{2.0, 1.0}, 8.0).distance(orig);

  const auto est = validate::estimateEmpiricalRadius(phi, orig, fastOptions());
  ASSERT_TRUE(est.finite());
  // A directional minimum can only overestimate the true distance.
  EXPECT_GE(est.radius, analytic - 1e-12);
  EXPECT_NEAR(est.radius, analytic, 1e-3 * analytic);
  EXPECT_GE(analytic, est.ci.lo);
  EXPECT_LE(analytic, est.ci.hi);
  EXPECT_EQ(est.directions, 2048u);
  EXPECT_GT(est.boundaryHits, 0u);
  EXPECT_GT(est.classifications, est.directions);  // march + bisection probes
}

TEST(EmpiricalRadius, BallRegionIsExactInEveryDirection) {
  // phi = ‖pi‖² <= 4 from the centre: every direction hits at exactly 2.
  feature::FeatureSet phi;
  phi.add(std::make_shared<feature::QuadraticFeature>(
              "ball", 2.0 * la::identity(3), la::Vector{0.0, 0.0, 0.0}),
          feature::FeatureBounds::upper(4.0));
  const auto est = validate::estimateEmpiricalRadius(
      phi, la::Vector{0.0, 0.0, 0.0}, fastOptions(256));
  ASSERT_TRUE(est.finite());
  EXPECT_EQ(est.boundaryHits, est.directions);
  EXPECT_NEAR(est.radius, 2.0, fepia::testing::kExactGeometryTol);
  EXPECT_NEAR(est.distanceSummary.max, 2.0, fepia::testing::kExactGeometryTol);
  EXPECT_NEAR(est.distanceSummary.mean, 2.0, fepia::testing::kExactGeometryTol);
}

TEST(EmpiricalRadius, UnboundedRegionIsFullyCensored) {
  feature::FeatureSet phi;
  phi.add(std::make_shared<feature::LinearFeature>("lin", la::Vector{1.0, 1.0}),
          feature::FeatureBounds::upper(
              std::numeric_limits<double>::infinity()));
  const auto est = validate::estimateEmpiricalRadius(
      phi, la::Vector{0.0, 0.0}, fastOptions(64));
  EXPECT_FALSE(est.finite());
  EXPECT_EQ(est.boundaryHits, 0u);
  EXPECT_EQ(validate::violationFraction(est, 1e6), 0.0);
}

TEST(EmpiricalRadius, ViolatingOriginThrows) {
  feature::FeatureSet phi;
  phi.add(std::make_shared<feature::LinearFeature>("lin", la::Vector{1.0}),
          feature::FeatureBounds::upper(1.0));
  EXPECT_THROW(
      (void)validate::estimateEmpiricalRadius(phi, la::Vector{2.0},
                                              fastOptions(8)),
      std::domain_error);
}

TEST(EmpiricalRadius, RejectsBadInputs) {
  feature::FeatureSet phi;
  phi.add(std::make_shared<feature::LinearFeature>("lin", la::Vector{1.0}),
          feature::FeatureBounds::upper(1.0));
  validate::EstimatorOptions opts;
  opts.directions = 0;
  EXPECT_THROW((void)validate::estimateEmpiricalRadius(phi, la::Vector{0.0}, opts),
               std::invalid_argument);
  opts = {};
  opts.chunkSize = 0;
  EXPECT_THROW((void)validate::estimateEmpiricalRadius(phi, la::Vector{0.0}, opts),
               std::invalid_argument);
  opts = {};
  opts.horizon = 0.0;
  EXPECT_THROW((void)validate::estimateEmpiricalRadius(phi, la::Vector{0.0}, opts),
               std::invalid_argument);
  opts = {};
  opts.confidence = 1.0;
  EXPECT_THROW((void)validate::estimateEmpiricalRadius(phi, la::Vector{0.0}, opts),
               std::invalid_argument);
  // Dimension mismatch between origin and feature set.
  EXPECT_THROW((void)validate::estimateEmpiricalRadius(phi, la::Vector{0.0, 0.0}),
               std::invalid_argument);
  // Null predicate.
  EXPECT_THROW((void)validate::estimateEmpiricalRadius(validate::SafePredicate{},
                                                       la::Vector{0.0}),
               std::invalid_argument);
}

TEST(EmpiricalRadius, ViolationFractionIsZeroBelowRadiusAndMonotonic) {
  feature::FeatureSet phi;
  phi.add(std::make_shared<feature::LinearFeature>("lin", la::Vector{1.0, 0.5}),
          feature::FeatureBounds::upper(4.0));
  const auto est = validate::estimateEmpiricalRadius(
      phi, la::Vector{0.0, 0.0}, fastOptions(512));
  ASSERT_TRUE(est.finite());
  EXPECT_EQ(validate::violationFraction(est, 0.5 * est.radius), 0.0);
  double prev = 0.0;
  for (double r = est.radius; r < 10.0 * est.radius; r *= 1.5) {
    const double f = validate::violationFraction(est, r);
    EXPECT_GE(f, prev);
    EXPECT_LE(f, 1.0);
    prev = f;
  }
  EXPECT_GT(prev, 0.0);
}

namespace {

/// P*(min* <= x) under the exact bootstrap law: 1 - (#{d > x}/N)^N.
double resampledMinimumCdf(const std::vector<double>& sample, double x) {
  const double n = static_cast<double>(sample.size());
  const auto above = std::count_if(sample.begin(), sample.end(),
                                   [x](double d) { return d > x; });
  return 1.0 - std::pow(static_cast<double>(above) / n, n);
}

}  // namespace

TEST(BootstrapMinimum, QuantileIsTheClosedFormOnDistinctValues) {
  // Distinct values 10, 10.5, 11, ... in shuffled order; the quantile is
  // the value of rank r, r the smallest c with (1 - c/N)^N <= tail. At
  // tail 0.005 the finite-N law stops at rank 5 for N = 37 where the
  // e^-c bound (and N = 16000) needs rank 6.
  struct Case {
    std::size_t n;
    double tail;
    std::size_t rank;
  };
  for (const Case c : {Case{2, 0.025, 2}, Case{3, 0.025, 3},
                       Case{37, 0.025, 4}, Case{16000, 0.025, 4},
                       Case{37, 0.005, 5}, Case{16000, 0.005, 6},
                       Case{3, 0.3, 1}, Case{37, 0.3, 2}}) {
    std::vector<double> sample(c.n);
    for (std::size_t i = 0; i < c.n; ++i) {
      sample[i] = 10.0 + 0.5 * static_cast<double>(i);
    }
    rng::Xoshiro256StarStar g(c.n);
    std::shuffle(sample.begin(), sample.end(), g);
    SCOPED_TRACE("n=" + std::to_string(c.n) +
                 " tail=" + std::to_string(c.tail));
    EXPECT_EQ(validate::bootstrapMinimumQuantile(sample, c.tail),
              10.0 + 0.5 * static_cast<double>(c.rank - 1));
  }
}

TEST(BootstrapMinimum, EqualValuesCountAsOneStep) {
  const auto withHead = [](std::vector<double> head) {
    std::vector<double> sample = std::move(head);
    for (int i = 0; sample.size() < 37; ++i) sample.push_back(20.0 + i);
    std::reverse(sample.begin(), sample.end());
    return sample;
  };
  // Three copies of the minimum leave (34/37)^37 = 0.044 above it, so
  // the quantile is the next value; four copies leave 0.015.
  EXPECT_EQ(validate::bootstrapMinimumQuantile(withHead({1, 1, 1}), 0.025),
            20.0);
  EXPECT_EQ(validate::bootstrapMinimumQuantile(withHead({1, 1, 1, 1}), 0.025),
            1.0);
  // Ties across the fourth smallest value, where the selection splits.
  EXPECT_EQ(validate::bootstrapMinimumQuantile(withHead({1, 2, 2, 2, 2}), 0.025),
            2.0);
  EXPECT_EQ(validate::bootstrapMinimumQuantile(std::vector<double>(16000, 5.0),
                                               0.025),
            5.0);
  EXPECT_EQ(validate::bootstrapMinimumQuantile({7.0}, 0.025), 7.0);
}

TEST(BootstrapMinimum, MatchesBruteForceResampling) {
  // The Monte-Carlo bootstrap the exact law replaces: B resampled minima
  // of N draws each, serially from one stream. Its empirical CDF must
  // match the law within 5 binomial standard errors at every value it
  // can take near the quantile, and its quantile must be the law's
  // (F = 0.956 and 0.985 on either side of 0.975 are ~12 errors away).
  const std::size_t n = 40;
  const std::size_t resamples = 20000;
  std::vector<double> sample{1.0, 1.5, 1.5};
  for (std::size_t i = 3; i < n; ++i) {
    sample.push_back(1.0 + 0.5 * static_cast<double>(i - 1));
  }
  std::reverse(sample.begin(), sample.end());
  rng::Xoshiro256StarStar g(0xB007ull);
  std::vector<double> mins(resamples);
  for (double& best : mins) {
    best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      best = std::min(best, sample[rng::uniformIndex(g, 0, n - 1)]);
    }
  }
  const double tail = 0.025;
  double mcQuantile = std::numeric_limits<double>::infinity();
  for (const double x : {1.0, 1.5, 2.0, 2.5, 3.0}) {
    const double f = resampledMinimumCdf(sample, x);
    const double fHat =
        static_cast<double>(std::count_if(mins.begin(), mins.end(),
                                          [x](double m) { return m <= x; })) /
        static_cast<double>(resamples);
    const double se = std::sqrt(f * (1.0 - f) / static_cast<double>(resamples));
    EXPECT_NEAR(fHat, f, 5.0 * se + 1e-12) << "x=" << x;
    if (fHat >= 1.0 - tail) mcQuantile = std::min(mcQuantile, x);
  }
  EXPECT_EQ(mcQuantile, 2.0);
  EXPECT_EQ(validate::bootstrapMinimumQuantile(sample, tail), mcQuantile);
}

TEST(BootstrapMinimum, RejectsBadInputs) {
  EXPECT_THROW((void)validate::bootstrapMinimumQuantile({}, 0.025),
               std::invalid_argument);
  for (const double tail :
       {0.0, 1.0, -0.5, std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW((void)validate::bootstrapMinimumQuantile({1.0, 2.0}, tail),
                 std::invalid_argument);
  }
}

TEST(SchemeValidation, LinearExampleAgreesWithNormalizedClosedForm) {
  const radius::FepiaProblem problem = linearExample();
  const auto v = validate::validateMergedScheme(
      problem, radius::MergeScheme::NormalizedByOriginal, fastOptions());

  ASSERT_EQ(v.perFeature.size(), 2u);
  for (const validate::Comparison& c : v.perFeature) {
    ASSERT_TRUE(c.empirical.finite()) << c.label;
    EXPECT_TRUE(c.analyticWithinCI) << c.label;
    EXPECT_LT(std::abs(c.relativeError), 1e-2) << c.label;
  }
  EXPECT_TRUE(v.rho.analyticWithinCI);
  EXPECT_NEAR(v.rho.analyticRadius,
              problem.rho(radius::MergeScheme::NormalizedByOriginal), 0.0);
  ASSERT_TRUE(v.joint.has_value());
  EXPECT_TRUE(v.joint->analyticWithinCI);
  EXPECT_LT(std::abs(v.joint->relativeError), 1e-2);
}

TEST(SchemeValidation, LinearExampleSensitivitySchemeValidates) {
  const radius::FepiaProblem problem = linearExample();
  const auto v = validate::validateMergedScheme(
      problem, radius::MergeScheme::Sensitivity, fastOptions());
  ASSERT_EQ(v.perFeature.size(), 2u);
  for (const validate::Comparison& c : v.perFeature) {
    ASSERT_TRUE(c.empirical.finite()) << c.label;
    EXPECT_TRUE(c.analyticWithinCI) << c.label;
  }
  EXPECT_FALSE(v.joint.has_value());
  EXPECT_TRUE(v.rho.analyticWithinCI);
}

TEST(SchemeValidation, QuadraticExampleAgreesWithQuadricClosedForm) {
  const radius::FepiaProblem problem = quadraticExample();
  const auto v = validate::validateMergedScheme(
      problem, radius::MergeScheme::NormalizedByOriginal, fastOptions());
  ASSERT_EQ(v.perFeature.size(), 1u);
  const validate::Comparison& c = v.perFeature[0];
  ASSERT_TRUE(c.empirical.finite());
  EXPECT_TRUE(c.analyticWithinCI);
  EXPECT_LT(std::abs(c.relativeError), 1e-2);
  ASSERT_TRUE(v.joint.has_value());
  EXPECT_TRUE(v.joint->analyticWithinCI);
}

TEST(ValidationReport, TableAndJsonRenderRows) {
  const radius::FepiaProblem problem = linearExample();
  const auto v = validate::validateMergedScheme(
      problem, radius::MergeScheme::NormalizedByOriginal, fastOptions(256));
  const auto rows = v.allRows();
  ASSERT_EQ(rows.size(), 4u);  // 2 features + rho + joint

  const fepia::report::Table table = validate::comparisonTable(rows);
  EXPECT_EQ(table.rowCount(), rows.size());
  EXPECT_EQ(table.columnCount(), 8u);

  std::ostringstream json;
  validate::writeComparisonJson(json, rows);
  const std::string text = json.str();
  EXPECT_NE(text.find("\"rows\": ["), std::string::npos);
  EXPECT_NE(text.find("\"label\": \"delay\""), std::string::npos);
  EXPECT_NE(text.find("\"within_ci\": true"), std::string::npos);
}
