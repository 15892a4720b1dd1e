#include "radius/diagnostics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>

#include "feature/linear.hpp"
#include "radius/rho.hpp"

namespace radius = fepia::radius;
namespace feature = fepia::feature;
namespace la = fepia::la;

TEST(RadiusDiagnostics, AttributionSumsToOneAndFindsDominant) {
  // phi = x + 3y, bound 10, orig (1, 1): boundary displacement is along
  // the normal (1, 3)/sqrt(10) — y carries 9x the share of x.
  const feature::LinearFeature phi("phi", la::Vector{1.0, 3.0});
  const auto r = radius::featureRadius(phi, feature::FeatureBounds::upper(10.0),
                                       la::Vector{1.0, 1.0});
  const radius::FragilityAttribution attr =
      radius::attributeFragility(r, la::Vector{1.0, 1.0});
  ASSERT_EQ(attr.share.size(), 2u);
  EXPECT_NEAR(attr.share[0] + attr.share[1], 1.0, 1e-12);
  EXPECT_NEAR(attr.share[1] / attr.share[0], 9.0, 1e-9);
  EXPECT_EQ(attr.dominantElement, 1u);
  // Displacement points toward increasing phi.
  EXPECT_GT(attr.displacement[0], 0.0);
  EXPECT_GT(attr.displacement[1], 0.0);
}

TEST(RadiusDiagnostics, AttributionValidation) {
  radius::RadiusResult empty;
  EXPECT_THROW((void)radius::attributeFragility(empty, la::Vector{1.0}),
               std::invalid_argument);
  const feature::LinearFeature phi("phi", la::Vector{1.0});
  const auto r = radius::featureRadius(phi, feature::FeatureBounds::upper(2.0),
                                       la::Vector{1.0});
  EXPECT_THROW((void)radius::attributeFragility(r, la::Vector{1.0, 2.0}),
               std::invalid_argument);
}

