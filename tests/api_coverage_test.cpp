// Coverage for public API paths not exercised elsewhere: writer error
// paths and the umbrella header itself (this file includes fepia.hpp, so
// it breaks if the umbrella ever goes stale).
#include <gtest/gtest.h>

#include <sstream>

#include "fepia.hpp"

using namespace fepia;

TEST(ApiCoverage, WriteProblemRejectsNonLinearFeatures) {
  radius::FepiaProblem problem;
  problem.addPerturbation(perturb::PerturbationParameter(
      "e", units::Unit::seconds(), la::Vector{1.0, 1.0}));
  problem.addFeature(
      std::make_shared<feature::QuadraticFeature>(
          "q", la::identity(2), la::Vector{0.0, 0.0}),
      feature::FeatureBounds::upper(10.0));
  std::ostringstream out;
  EXPECT_THROW(io::writeProblem(out, problem), std::invalid_argument);
}

TEST(ApiCoverage, RadiusResultDefaultsAreSane) {
  const radius::RadiusResult r;
  EXPECT_FALSE(r.finite());
  EXPECT_EQ(r.side, radius::BoundSide::None);
  EXPECT_TRUE(r.boundaryPoint.empty());
}

TEST(ApiCoverage, MergedReportFiniteFlag) {
  radius::MergedRobustnessReport rep;
  EXPECT_FALSE(rep.finite());
  rep.rho = 1.0;
  EXPECT_TRUE(rep.finite());
}

TEST(ApiCoverage, QuadraticUnitPropagatesThroughTransforms) {
  const auto quad = std::make_shared<feature::QuadraticFeature>(
      "q", la::identity(2), la::Vector{1.0, 0.0}, 0.0,
      units::Unit::seconds());
  const auto scaled =
      feature::precomposeDiagonal(quad, la::Vector{2.0, 3.0});
  EXPECT_TRUE(scaled->unit() == units::Unit::seconds());
  const auto shifted = feature::shiftValue(
      std::static_pointer_cast<const feature::PerformanceFeature>(quad), 1.0);
  EXPECT_TRUE(shifted->unit() == units::Unit::seconds());
}

TEST(ApiCoverage, ReferenceSystemAccessorsBoundsChecked) {
  const auto ref = hiperd::makeReferenceSystem();
  EXPECT_THROW((void)ref.system.sensor(99), std::out_of_range);
  EXPECT_THROW((void)ref.system.machine(99), std::out_of_range);
  EXPECT_THROW((void)ref.system.link(99), std::out_of_range);
  EXPECT_THROW((void)ref.system.application(99), std::out_of_range);
  EXPECT_THROW((void)ref.system.message(99), std::out_of_range);
  EXPECT_THROW((void)ref.system.path(99), std::out_of_range);
  EXPECT_THROW((void)ref.system.machineComputeSeconds(
                   99, ref.system.originalLoads()),
               std::out_of_range);
  EXPECT_THROW(
      (void)ref.system.linkCommSeconds(99, ref.system.originalLoads()),
      std::out_of_range);
}

TEST(ApiCoverage, EcdfSortedAccessor) {
  const std::vector<double> xs = {3.0, 1.0, 2.0};
  const stats::Ecdf f(xs);
  ASSERT_EQ(f.sorted().size(), 3u);
  EXPECT_DOUBLE_EQ(f.sorted().front(), 1.0);
  EXPECT_DOUBLE_EQ(f.sorted().back(), 3.0);
}
