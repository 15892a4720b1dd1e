// Unit tests of the cost-model scheduler over a local BackendRegistry of
// fakes: capability filtering, deterministic (cost, name) tie-breaking,
// fallback-chain ordering and contents, graceful accuracy/deadline
// relaxation, override diagnostics, and the composition of the global
// registry.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "radius/registry/scheduler.hpp"
#include "support/instance_gen.hpp"

namespace rb = fepia::radius::backend;
namespace radius = fepia::radius;
namespace ft = fepia::testing;

namespace {

/// A configurable fake kernel. unitsPerSecond is 1, so `cost` doubles as
/// the wall-clock estimate for deadline tests.
class FakeBackend final : public rb::Backend {
 public:
  struct Config {
    std::string name;
    rb::Capability capability{};
    double cost = 1.0;
    double accuracy = 1e-6;
    double rho = 1.0;
    bool failWith = false;           ///< throw runtime_error from solve
    bool failInvalidArgument = false;  ///< throw invalid_argument instead
  };

  explicit FakeBackend(Config cfg) : cfg_(std::move(cfg)) {}

  const std::string& name() const noexcept override { return cfg_.name; }
  const rb::Capability& capability() const noexcept override {
    return cfg_.capability;
  }
  double cost(const rb::RadiusProblem&, const rb::RadiusRequest&)
      const override {
    return cfg_.cost;
  }
  double unitsPerSecond() const noexcept override { return 1.0; }
  double accuracy(const rb::RadiusProblem&, const rb::RadiusRequest&)
      const override {
    return cfg_.accuracy;
  }
  rb::RadiusOutcome solve(const rb::RadiusProblem&, const rb::RadiusRequest&,
                          fepia::parallel::ThreadPool*) const override {
    if (cfg_.failInvalidArgument) {
      throw std::invalid_argument("malformed call from " + cfg_.name);
    }
    if (cfg_.failWith) {
      throw std::runtime_error("boom from " + cfg_.name);
    }
    rb::RadiusOutcome out;
    out.rho = cfg_.rho;
    out.envelope = rb::relativeEnvelope(cfg_.rho, cfg_.accuracy);
    return out;
  }

 private:
  Config cfg_;
};

void add(rb::BackendRegistry& registry, FakeBackend::Config cfg) {
  (void)registry.add(std::make_unique<FakeBackend>(std::move(cfg)));
}

/// A problem every problem-capable fake can solve.
struct Fixture {
  radius::FepiaProblem problem = ft::makeLinearInstance(1, 2);
  rb::RadiusProblem rp;
  Fixture() { rp.problem = &problem; }
};

}  // namespace

TEST(BackendScheduler, CapabilityFilterSkipsWithReason) {
  Fixture fx;
  rb::BackendRegistry registry;
  add(registry, {.name = "needs-system",
                 .capability = {.requiresProblem = false,
                                .requiresSystem = true,
                                .classifiesByDes = true},
                 .cost = 0.1});
  add(registry, {.name = "plain", .cost = 10.0, .rho = 2.5});

  const rb::RadiusOutcome out = rb::solveRadius(registry, fx.rp, {});
  EXPECT_EQ(out.backendName, "plain");
  EXPECT_EQ(out.rho, 2.5);
  ASSERT_EQ(out.fallbacks.size(), 1u);
  EXPECT_EQ(out.fallbacks[0].backend, "needs-system");
  EXPECT_EQ(out.fallbacks[0].reason,
            "skipped: requires a DES-backed reference system");
}

TEST(BackendScheduler, NoCapableBackendThrowsWithChain) {
  Fixture fx;
  rb::BackendRegistry registry;
  add(registry, {.name = "des-only",
                 .capability = {.requiresProblem = false,
                                .requiresSystem = true,
                                .classifiesByDes = true}});
  try {
    (void)rb::solveRadius(registry, fx.rp, {});
    FAIL() << "expected BackendError";
  } catch (const rb::BackendError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no registered radius backend"), std::string::npos);
    EXPECT_NE(what.find("des-only"), std::string::npos);
  }
}

TEST(BackendScheduler, CheapestCapableWins) {
  Fixture fx;
  rb::BackendRegistry registry;
  add(registry, {.name = "expensive", .cost = 100.0, .rho = 1.0});
  add(registry, {.name = "cheap", .cost = 1.0, .rho = 2.0});

  const rb::RadiusOutcome out = rb::solveRadius(registry, fx.rp, {});
  EXPECT_EQ(out.backendName, "cheap");
  EXPECT_TRUE(out.fallbacks.empty());
}

TEST(BackendScheduler, CostTiesBreakByNameDeterministically) {
  Fixture fx;
  // Register in reverse-alphabetical order; the tie must still resolve
  // to the alphabetically first name.
  rb::BackendRegistry registry;
  add(registry, {.name = "zeta", .cost = 5.0, .rho = 1.0});
  add(registry, {.name = "alpha", .cost = 5.0, .rho = 2.0});
  for (int i = 0; i < 3; ++i) {
    const rb::RadiusOutcome out = rb::solveRadius(registry, fx.rp, {});
    EXPECT_EQ(out.backendName, "alpha");
  }
}

TEST(BackendScheduler, FallbackChainRecordsFailuresInCostOrder) {
  Fixture fx;
  rb::BackendRegistry registry;
  add(registry, {.name = "first", .cost = 1.0, .failWith = true});
  add(registry, {.name = "second", .cost = 2.0, .failWith = true});
  add(registry, {.name = "third", .cost = 3.0, .rho = 7.0});

  const rb::RadiusOutcome out = rb::solveRadius(registry, fx.rp, {});
  EXPECT_EQ(out.backendName, "third");
  EXPECT_EQ(out.rho, 7.0);
  ASSERT_EQ(out.fallbacks.size(), 2u);
  EXPECT_EQ(out.fallbacks[0].backend, "first");
  EXPECT_EQ(out.fallbacks[0].reason, "failed: boom from first");
  EXPECT_EQ(out.fallbacks[1].backend, "second");
  EXPECT_EQ(out.fallbacks[1].reason, "failed: boom from second");
}

TEST(BackendScheduler, AllFailingThrowsWithFullChain) {
  Fixture fx;
  rb::BackendRegistry registry;
  add(registry, {.name = "a", .cost = 1.0, .failWith = true});
  add(registry, {.name = "b", .cost = 2.0, .failWith = true});
  try {
    (void)rb::solveRadius(registry, fx.rp, {});
    FAIL() << "expected BackendError";
  } catch (const rb::BackendError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("every capable radius backend failed"),
              std::string::npos);
    EXPECT_NE(what.find("a: failed: boom from a"), std::string::npos);
    EXPECT_NE(what.find("b: failed: boom from b"), std::string::npos);
  }
}

TEST(BackendScheduler, InvalidArgumentIsNotSwallowedIntoFallback) {
  // invalid_argument means the *call* is malformed; retrying another
  // backend would hide the caller's bug.
  Fixture fx;
  rb::BackendRegistry registry;
  add(registry, {.name = "picky", .cost = 1.0, .failInvalidArgument = true});
  add(registry, {.name = "other", .cost = 2.0, .rho = 1.0});
  EXPECT_THROW((void)rb::solveRadius(registry, fx.rp, {}),
               std::invalid_argument);
}

TEST(BackendScheduler, AccuracyFilterPrefersAccurateThenRelaxes) {
  Fixture fx;
  rb::BackendRegistry registry;
  add(registry, {.name = "sloppy", .cost = 1.0, .accuracy = 0.5, .rho = 1.0});
  add(registry,
      {.name = "precise", .cost = 100.0, .accuracy = 1e-9, .rho = 2.0});

  // Default request (accuracy 1e-2): the cheap-but-sloppy kernel is
  // skipped even though it wins on cost.
  rb::RadiusRequest req;
  const rb::RadiusOutcome out = rb::solveRadius(registry, fx.rp, req);
  EXPECT_EQ(out.backendName, "precise");
  ASSERT_EQ(out.fallbacks.size(), 1u);
  EXPECT_EQ(out.fallbacks[0].backend, "sloppy");
  EXPECT_NE(out.fallbacks[0].reason.find("accuracy"), std::string::npos);

  // When nothing meets the bound the scheduler relaxes instead of
  // failing, and says so in the chain.
  req.accuracy = 1e-12;
  const rb::RadiusOutcome relaxed = rb::solveRadius(registry, fx.rp, req);
  EXPECT_EQ(relaxed.backendName, "sloppy");  // cheapest after relaxation
  ASSERT_FALSE(relaxed.fallbacks.empty());
  EXPECT_EQ(relaxed.fallbacks[0].backend, "(scheduler)");
  EXPECT_NE(relaxed.fallbacks[0].reason.find("relaxing the accuracy bound"),
            std::string::npos);
}

TEST(BackendScheduler, DeadlineFilterSkipsSlowThenRelaxes) {
  Fixture fx;
  rb::BackendRegistry registry;
  add(registry, {.name = "slow", .cost = 1.0e6, .rho = 1.0});  // 1e6 s
  add(registry, {.name = "fast", .cost = 2.0e6, .rho = 2.0});

  rb::RadiusRequest req;
  req.deadlineSeconds = 1.5e6;
  const rb::RadiusOutcome out = rb::solveRadius(registry, fx.rp, req);
  EXPECT_EQ(out.backendName, "slow");
  ASSERT_EQ(out.fallbacks.size(), 1u);
  EXPECT_EQ(out.fallbacks[0].backend, "fast");
  EXPECT_NE(out.fallbacks[0].reason.find("deadline"), std::string::npos);

  req.deadlineSeconds = 1.0;  // impossible: relax, take the cheapest
  const rb::RadiusOutcome relaxed = rb::solveRadius(registry, fx.rp, req);
  EXPECT_EQ(relaxed.backendName, "slow");
  ASSERT_FALSE(relaxed.fallbacks.empty());
  EXPECT_EQ(relaxed.fallbacks[0].backend, "(scheduler)");
  EXPECT_NE(relaxed.fallbacks[0].reason.find("deadline"), std::string::npos);
}

TEST(BackendScheduler, UnknownOverrideNamesTheAvailableBackends) {
  Fixture fx;
  rb::BackendRegistry registry;
  add(registry, {.name = "only", .rho = 1.0});
  rb::RadiusRequest req;
  req.backendOverride = "bogus";
  try {
    (void)rb::solveRadius(registry, fx.rp, req);
    FAIL() << "expected BackendError";
  } catch (const rb::BackendError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown radius backend 'bogus'"), std::string::npos);
    EXPECT_NE(what.find("only"), std::string::npos);
  }
}

TEST(BackendScheduler, IncapableOverrideExplainsWhy) {
  Fixture fx;
  rb::BackendRegistry registry;
  add(registry, {.name = "des-only",
                 .capability = {.requiresProblem = false,
                                .requiresSystem = true,
                                .classifiesByDes = true}});
  rb::RadiusRequest req;
  req.backendOverride = "des-only";
  try {
    (void)rb::solveRadius(registry, fx.rp, req);
    FAIL() << "expected BackendError";
  } catch (const rb::BackendError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cannot solve this problem"), std::string::npos);
    EXPECT_NE(what.find("DES-backed reference system"), std::string::npos);
  }
}

TEST(BackendScheduler, OverrideSkipsAccuracyAndDeadlineFilters) {
  // --backend is an explicit user decision: the bounds that would have
  // skipped the kernel do not apply.
  Fixture fx;
  rb::BackendRegistry registry;
  add(registry, {.name = "sloppy", .cost = 1.0e9, .accuracy = 0.9, .rho = 3.0});
  rb::RadiusRequest req;
  req.backendOverride = "sloppy";
  req.accuracy = 1e-9;
  req.deadlineSeconds = 1e-3;
  const rb::RadiusOutcome out = rb::solveRadius(registry, fx.rp, req);
  EXPECT_EQ(out.backendName, "sloppy");
  EXPECT_EQ(out.rho, 3.0);
  EXPECT_TRUE(out.fallbacks.empty());
}

TEST(BackendScheduler, RegistryRejectsDuplicatesAndNulls) {
  rb::BackendRegistry registry;
  add(registry, {.name = "dup"});
  EXPECT_THROW(add(registry, {.name = "dup"}), std::invalid_argument);
  EXPECT_THROW((void)registry.add(nullptr), std::invalid_argument);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(BackendScheduler, GlobalRegistryHoldsExactlyTheFourKernels) {
  std::vector<std::string> names;
  for (const rb::Backend* b : rb::BackendRegistry::instance().all()) {
    names.push_back(b->name());
  }
  const std::vector<std::string> expected{"analytic", "degraded", "empirical",
                                          "numeric"};
  EXPECT_EQ(names, expected);
}
