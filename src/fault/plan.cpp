#include "fault/plan.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "rng/xoshiro.hpp"

namespace fepia::fault {
namespace {

constexpr double kNever = std::numeric_limits<double>::infinity();

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("fault::FaultPlan: " + what);
}

void requireFinite(double v, const char* what) {
  if (!std::isfinite(v)) fail(std::string(what) + " must be finite");
}

/// Uniform double in [0, 1) from the top 53 bits of a 64-bit draw.
double toUnit(std::uint64_t bits) noexcept {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

void FaultPlan::validateAgainst(const hiperd::System& sys) const {
  const std::size_t m = sys.machineCount();
  const std::size_t l = sys.linkCount();
  for (const MachineCrash& c : crashes) {
    if (c.machine >= m) fail("crash machine index out of range");
    requireFinite(c.atSeconds, "crash time");
    if (c.atSeconds < 0.0) fail("crash time must be >= 0");
    if (c.backup.has_value()) {
      if (*c.backup >= m) fail("crash backup index out of range");
      if (*c.backup == c.machine) fail("crash backup equals crashed machine");
    }
  }
  for (const Slowdown& s : slowdowns) {
    const std::size_t bound = s.target == Slowdown::Target::Machine ? m : l;
    if (s.index >= bound) fail("slowdown target index out of range");
    requireFinite(s.fromSeconds, "slowdown window start");
    requireFinite(s.toSeconds, "slowdown window end");
    if (s.fromSeconds < 0.0) fail("slowdown window start must be >= 0");
    if (s.toSeconds < s.fromSeconds) fail("slowdown window ends before it starts");
    requireFinite(s.factor, "slowdown factor");
    if (s.factor <= 0.0) fail("slowdown factor must be > 0");
  }
  for (const MessageLoss& ml : losses) {
    if (ml.link >= l) fail("loss link index out of range");
    if (!(ml.probability >= 0.0 && ml.probability <= 1.0)) {
      fail("loss probability must be in [0, 1]");
    }
  }
  requireFinite(policy.detectionTimeoutSeconds, "detection timeout");
  if (policy.detectionTimeoutSeconds < 0.0) fail("detection timeout must be >= 0");
  requireFinite(policy.initialBackoffSeconds, "initial backoff");
  if (policy.initialBackoffSeconds < 0.0) fail("initial backoff must be >= 0");
  requireFinite(policy.backoffFactor, "backoff factor");
  if (policy.backoffFactor < 1.0) fail("backoff factor must be >= 1");
  requireFinite(policy.maxBackoffSeconds, "backoff cap");
  if (policy.maxBackoffSeconds < 0.0) fail("backoff cap must be >= 0");
}

PlanInjector::PlanInjector(const FaultPlan& plan, const hiperd::System& sys) {
  plan.validateAgainst(sys);
  policy_ = plan.policy;
  lossSeed_ = plan.lossSeed;
  crashAt_.assign(sys.machineCount(), kNever);
  backup_.assign(sys.machineCount(), std::nullopt);
  machineWindows_.assign(sys.machineCount(), {});
  linkWindows_.assign(sys.linkCount(), {});
  lossProb_.assign(sys.messageCount(), 0.0);

  for (const MachineCrash& c : plan.crashes) {
    // The earliest crash of a machine wins; its backup configuration
    // travels with it.
    if (c.atSeconds < crashAt_[c.machine]) {
      crashAt_[c.machine] = c.atSeconds;
      backup_[c.machine] = c.backup;
    }
  }
  for (const Slowdown& s : plan.slowdowns) {
    auto& windows = s.target == Slowdown::Target::Machine
                        ? machineWindows_[s.index]
                        : linkWindows_[s.index];
    windows.push_back(Window{s.fromSeconds, s.toSeconds, s.factor});
  }
  // Loss is configured per link; the hook is queried per message.
  for (const MessageLoss& ml : plan.losses) {
    for (std::size_t k = 0; k < sys.messageCount(); ++k) {
      if (sys.message(k).link == ml.link) {
        // Independent loss processes on one link compose: the attempt
        // survives only when every process spares it.
        lossProb_[k] = 1.0 - (1.0 - lossProb_[k]) * (1.0 - ml.probability);
      }
    }
  }
}

FaultPlan samplePlan(const hiperd::System& sys, const SamplerOptions& opts,
                     std::uint64_t seed) {
  if (!(opts.horizonSeconds > 0.0) || !std::isfinite(opts.horizonSeconds)) {
    throw std::invalid_argument("fault::samplePlan: bad horizon");
  }
  if (!(opts.maxSlowdownFactor >= 1.0) || !std::isfinite(opts.maxSlowdownFactor)) {
    throw std::invalid_argument("fault::samplePlan: bad slowdown factor bound");
  }
  if (!(opts.maxLossProbability >= 0.0 && opts.maxLossProbability <= 1.0)) {
    throw std::invalid_argument("fault::samplePlan: bad loss probability bound");
  }
  rng::Xoshiro256StarStar gen(seed);
  const auto unit = [&gen]() { return toUnit(gen()); };
  const auto pick = [&gen](std::size_t n) {
    return static_cast<std::size_t>(gen() % n);
  };

  FaultPlan plan;
  plan.lossSeed = rng::SplitMix64(seed ^ 0xFA01B5EEDull).next();

  const std::size_t m = sys.machineCount();
  const std::size_t l = sys.linkCount();
  if (m > 0) {
    for (std::size_t i = 0; i < opts.crashes; ++i) {
      MachineCrash c;
      c.machine = pick(m);
      // Crashes land in the middle half of the horizon so the pipeline
      // is warmed up but still has work in flight.
      c.atSeconds = opts.horizonSeconds * (0.25 + 0.5 * unit());
      if (m > 1) {
        c.backup = (c.machine + 1 + pick(m - 1)) % m;
        if (*c.backup == c.machine) c.backup = (c.machine + 1) % m;
      }
      plan.crashes.push_back(c);
    }
  }
  for (std::size_t i = 0; i < opts.slowdowns; ++i) {
    Slowdown s;
    const bool onLink = (i % 2 == 1) && l > 0;
    s.target = onLink ? Slowdown::Target::Link : Slowdown::Target::Machine;
    const std::size_t bound = onLink ? l : m;
    if (bound == 0) continue;
    s.index = pick(bound);
    s.fromSeconds = opts.horizonSeconds * unit() * 0.75;
    s.toSeconds = s.fromSeconds + opts.horizonSeconds * (0.05 + 0.2 * unit());
    s.factor = 1.0 + (opts.maxSlowdownFactor - 1.0) * unit();
    plan.slowdowns.push_back(s);
  }
  if (l > 0) {
    for (std::size_t i = 0; i < opts.losses; ++i) {
      MessageLoss ml;
      ml.link = pick(l);
      ml.probability = opts.maxLossProbability * unit();
      plan.losses.push_back(ml);
    }
  }
  return plan;
}

}  // namespace fepia::fault
