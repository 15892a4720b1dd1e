#include <gtest/gtest.h>

#include <stdexcept>

#include "perturb/parameter.hpp"
#include "perturb/space.hpp"

namespace perturb = fepia::perturb;
namespace la = fepia::la;
namespace units = fepia::units;

namespace {

perturb::PerturbationParameter execTimes() {
  return {"execution-times", units::Unit::seconds(), la::Vector{1.0, 2.0, 3.0}};
}

perturb::PerturbationParameter messageLengths() {
  return {"message-lengths", units::Unit::bytes(), la::Vector{100.0, 200.0}};
}

}  // namespace

TEST(PerturbParameter, BasicProperties) {
  const auto p = execTimes();
  EXPECT_EQ(p.name(), "execution-times");
  EXPECT_EQ(p.size(), 3u);
  EXPECT_TRUE(p.unit() == units::Unit::seconds());
  EXPECT_DOUBLE_EQ(p.original()[1], 2.0);
}

TEST(PerturbParameter, RejectsEmptyAndBadLabels) {
  EXPECT_THROW(perturb::PerturbationParameter("x", units::Unit::seconds(),
                                              la::Vector{}),
               std::invalid_argument);
  EXPECT_THROW(perturb::PerturbationParameter("x", units::Unit::seconds(),
                                              la::Vector{1.0, 2.0}, {"only-one"}),
               std::invalid_argument);
}

TEST(PerturbParameter, ElementLabels) {
  const perturb::PerturbationParameter labelled(
      "loads", units::Unit::objectsPerDataSet(), la::Vector{10.0, 20.0},
      {"radar", "sonar"});
  EXPECT_EQ(labelled.elementLabel(0), "radar");
  EXPECT_EQ(labelled.elementLabel(1), "sonar");
  EXPECT_THROW((void)labelled.elementLabel(2), std::out_of_range);

  const auto anon = execTimes();
  EXPECT_EQ(anon.elementLabel(2), "execution-times[2]");
}

TEST(PerturbSpace, LayoutOffsetsAndLabels) {
  perturb::PerturbationSpace space;
  EXPECT_EQ(space.add(execTimes()), 0u);
  EXPECT_EQ(space.add(messageLengths()), 1u);
  EXPECT_EQ(space.kindCount(), 2u);
  EXPECT_EQ(space.totalDimension(), 5u);
  EXPECT_EQ(space.blockOffset(0), 0u);
  EXPECT_EQ(space.blockOffset(1), 3u);
  EXPECT_EQ(space.flatLabel(0), "execution-times[0]");
  EXPECT_EQ(space.flatLabel(4), "message-lengths[1]");
  EXPECT_THROW((void)space.flatLabel(5), std::out_of_range);
  EXPECT_THROW((void)space.kind(2), std::out_of_range);
}

TEST(PerturbSpace, ConcatenatedOriginal) {
  perturb::PerturbationSpace space;
  space.add(execTimes());
  space.add(messageLengths());
  const la::Vector orig = space.concatenatedOriginal();
  ASSERT_EQ(orig.size(), 5u);
  EXPECT_DOUBLE_EQ(orig[0], 1.0);
  EXPECT_DOUBLE_EQ(orig[3], 100.0);
}

TEST(PerturbSpace, PlainConcatenationRequiresHomogeneousUnits) {
  // The paper's Section 3 objection: one cannot assemble e_j and m_k in
  // one pi without adjusting for units.
  perturb::PerturbationSpace mixed;
  mixed.add(execTimes());
  mixed.add(messageLengths());
  EXPECT_FALSE(mixed.homogeneousUnits());
  const std::vector<la::Vector> vals = {la::Vector{1.0, 2.0, 3.0},
                                        la::Vector{100.0, 200.0}};
  EXPECT_THROW((void)mixed.concatenate(vals), units::MismatchError);
  // The unchecked form (used internally by weighted merges) succeeds.
  const la::Vector flat = mixed.concatenateUnchecked(vals);
  EXPECT_EQ(flat.size(), 5u);
}

TEST(PerturbSpace, HomogeneousConcatenationWorks) {
  perturb::PerturbationSpace space;
  space.add(execTimes());
  space.add(perturb::PerturbationParameter("more-times", units::Unit::seconds(),
                                           la::Vector{4.0}));
  EXPECT_TRUE(space.homogeneousUnits());
  const std::vector<la::Vector> vals = {la::Vector{1.0, 2.0, 3.0},
                                        la::Vector{4.0}};
  const la::Vector flat = space.concatenate(vals);
  EXPECT_DOUBLE_EQ(flat[3], 4.0);
}

TEST(PerturbSpace, ConcatenateValidatesShape) {
  perturb::PerturbationSpace space;
  space.add(execTimes());
  const std::vector<la::Vector> wrongCount = {};
  EXPECT_THROW((void)space.concatenateUnchecked(wrongCount),
               std::invalid_argument);
  const std::vector<la::Vector> wrongDim = {la::Vector{1.0}};
  EXPECT_THROW((void)space.concatenateUnchecked(wrongDim),
               std::invalid_argument);
}

TEST(PerturbSpace, SplitRoundTrips) {
  perturb::PerturbationSpace space;
  space.add(execTimes());
  space.add(messageLengths());
  const la::Vector flat{9.0, 8.0, 7.0, 6.0, 5.0};
  const auto parts = space.split(flat);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_DOUBLE_EQ(parts[0][2], 7.0);
  EXPECT_DOUBLE_EQ(parts[1][0], 6.0);
  EXPECT_TRUE(
      la::approxEqual(space.concatenateUnchecked(parts), flat, 0.0));
  EXPECT_THROW((void)space.split(la::Vector{1.0}), std::invalid_argument);
}
