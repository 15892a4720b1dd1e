#include "sweep/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "alloc/allocation.hpp"
#include "alloc/eval_engine.hpp"
#include "alloc/heuristics.hpp"
#include "etc/etc.hpp"
#include "fault/degraded.hpp"
#include "fault/plan.hpp"
#include "feature/linear.hpp"
#include "hiperd/factory.hpp"
#include "io/system_io.hpp"
#include "obs/clock.hpp"
#include "obs/json.hpp"
#include "obs/span.hpp"
#include "radius/closed_forms.hpp"
#include "radius/fepia.hpp"
#include "radius/registry/scheduler.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "sweep/cache.hpp"
#include "sweep/journal.hpp"
#include "sweep/pcache.hpp"
#include "validate/scheme.hpp"

namespace fepia::sweep {
namespace {

namespace rbackend = radius::backend;

/// A completed shard slower than this multiple of the median completed
/// shard wall time triggers a straggler warning event (needs telemetry
/// and at least 4 completed shards).
constexpr double kStragglerFactor = 4.0;

// ---- linear workload (the S3.1/S3.2 family) ---------------------------

/// One generated (k, pi^orig) linear instance — shared by every (scheme,
/// beta) combination over the same (n, kscale, origscale) coordinates.
struct LinearInstance {
  la::Vector k;
  la::Vector orig;
};

std::shared_ptr<const LinearInstance> makeLinearInstance(
    std::size_t n, double kScale, double origScale, std::uint64_t seed) {
  auto inst = std::make_shared<LinearInstance>();
  inst->k = la::Vector(n);
  inst->orig = la::Vector(n);
  rng::Xoshiro256StarStar g(seed);
  for (std::size_t j = 0; j < n; ++j) {
    // The generation recipe of bench_sensitivity_invariance: positive
    // coefficients and originals with controllable scales.
    inst->k[j] = kScale * rng::uniform(g, 0.1, 3.0);
    inst->orig[j] = origScale * rng::uniform(g, 0.2, 20.0);
  }
  return inst;
}

radius::FepiaProblem makeLinearProblem(const LinearInstance& inst,
                                       double beta) {
  radius::FepiaProblem problem;
  const std::size_t n = inst.k.size();
  for (std::size_t j = 0; j < n; ++j) {
    // Cycling base units makes the kinds deliberately incommensurable —
    // the mixed-kind setting the merge schemes exist for.
    problem.addPerturbation(perturb::PerturbationParameter(
        "pi" + std::to_string(j),
        units::Unit::base(static_cast<units::Dimension>(j % 4)),
        la::Vector{inst.orig[j]}));
  }
  const auto lin = std::make_shared<feature::LinearFeature>("phi", inst.k);
  problem.addFeature(lin,
                     feature::FeatureBounds::upper(beta * lin->evaluate(inst.orig)));
  return problem;
}

// ---- alloc workload (the makespan case study) -------------------------

/// One generated ETC matrix plus the MCT reference makespan that anchors
/// tau — shared by every (heuristic, taufactor) combination.
struct AllocInstance {
  la::Matrix etcMatrix{1, 1};
  double mctMakespan = 0.0;
};

/// A cached EvalEngine bound to a cached instance. EvalEngine::evaluate
/// mutates internal state (memo cache), so concurrent shards hitting the
/// same engine serialize on the box mutex; the instance shared_ptr keeps
/// the referenced matrix alive for the engine's lifetime.
struct EngineBox {
  EngineBox(std::shared_ptr<const AllocInstance> instance, double tau)
      : inst(std::move(instance)),
        engine(inst->etcMatrix,
               alloc::EngineConfig{alloc::EngineObjective::Rho, tau,
                                   /*cacheCapacity=*/1u << 12,
                                   /*chunkSize=*/64},
               nullptr) {}

  std::shared_ptr<const AllocInstance> inst;
  mutable std::mutex mutex;
  mutable alloc::EvalEngine engine;
};

alloc::Heuristic heuristicFromToken(const std::string& token) {
  for (const alloc::Heuristic h : alloc::allHeuristics()) {
    if (token == alloc::heuristicName(h)) return h;
  }
  throw std::invalid_argument("sweep: unknown heuristic '" + token + "'");
}

etc::Heterogeneity heterogeneityFromToken(const std::string& token) {
  for (const etc::Heterogeneity h :
       {etc::Heterogeneity::HiHi, etc::Heterogeneity::HiLo,
        etc::Heterogeneity::LoHi, etc::Heterogeneity::LoLo}) {
    if (token == etc::heterogeneityName(h)) return h;
  }
  throw std::invalid_argument("sweep: unknown heterogeneity '" + token + "'");
}

// ---- hiperd workload (the DES pipeline) -------------------------------

struct HiperdInstance {
  hiperd::ReferenceSystem ref;
  double analyticRho = 0.0;
};

/// Cached empirical estimates carry only what the surface records.
struct EmpiricalPoint {
  double radius = 0.0;
  std::uint64_t classifications = 0;
};

// ---- the per-point evaluator ------------------------------------------

/// Live progress counters for the telemetry sampler: relaxed atomics
/// bumped on the worker threads, read by the hub's source callback.
/// Nothing in the sweep ever reads them back.
struct LiveSweepStats {
  std::atomic<std::uint64_t> pointsDone{0};
  std::atomic<std::uint64_t> shardsDone{0};
  std::atomic<std::uint64_t> classifications{0};
  fault::LiveFaultStats faults;
};

class Evaluator {
 public:
  Evaluator(const SweepSpec& spec, ResultCache& cache,
            std::string backendOverride, LiveSweepStats* live = nullptr,
            PersistentCache* persistent = nullptr)
      : spec_(spec),
        cache_(cache),
        backendOverride_(std::move(backendOverride)),
        live_(live),
        persistent_(persistent) {}

  [[nodiscard]] PointResult evaluate(std::size_t id) const {
    switch (spec_.workload) {
      case Workload::Linear: return evaluateLinear(id);
      case Workload::Alloc: return evaluateAlloc(id);
      case Workload::Hiperd: return evaluateHiperd(id);
    }
    throw std::logic_error("sweep: unknown workload");
  }

 private:
  [[nodiscard]] std::string tok(std::size_t id, std::string_view axis) const {
    return spec_.valueAt(id, axis).token;
  }
  [[nodiscard]] double num(std::size_t id, std::string_view axis) const {
    return spec_.valueAt(id, axis).number;
  }

  // ---- routed radius solves -------------------------------------------
  // The analytic-rho column goes through the scheduler (which picks the
  // closed-form kernel for every built-in workload) unless --backend
  // forces one; the empirical/degraded columns pin their namesake
  // kernels with the exact options the old direct calls used, so the
  // surface stays byte-identical to the pre-registry engine. Inner
  // solves always run with pool = nullptr and metrics = nullptr: shards
  // already saturate the pool, and obs::Registry is not thread-safe.

  [[nodiscard]] double solveRho(const radius::FepiaProblem& problem,
                                radius::MergeScheme scheme) const {
    rbackend::RadiusProblem rp;
    rp.problem = &problem;
    rp.scheme = scheme;
    rbackend::RadiusRequest req;
    req.backendOverride = backendOverride_;
    return rbackend::solveRadius(rp, req, nullptr).rho;
  }

  /// Estimator options for the estimate cached under `key`: the spec's
  /// sample count and a content-derived seed.
  [[nodiscard]] validate::EstimatorOptions estimatorOptions(
      const std::string& key) const {
    validate::EstimatorOptions eo;
    eo.directions = spec_.samples;
    eo.seed = deriveSeed(spec_.seed, key);
    return eo;
  }

  [[nodiscard]] std::shared_ptr<EmpiricalPoint> solveEmpirical(
      const radius::FepiaProblem& problem, radius::MergeScheme scheme,
      const std::string& key) const {
    rbackend::RadiusProblem rp;
    rp.problem = &problem;
    rp.scheme = scheme;
    rbackend::RadiusRequest req;
    // Radii and classification counts are bit-identical in every
    // classify mode; the S3.1 surface guard
    // (tools/baselines/s31_surface.json) holds the sweep to that.
    req.backendOverride = "empirical";
    req.estimator = estimatorOptions(key);
    if (live_ != nullptr) {
      req.estimator.liveClassifications = &live_->classifications;
    }
    const rbackend::RadiusOutcome out = rbackend::solveRadius(rp, req, nullptr);
    auto p = std::make_shared<EmpiricalPoint>();
    p->radius = out.rho;
    p->classifications = out.classifications;
    return p;
  }

  [[nodiscard]] std::shared_ptr<EmpiricalPoint> solveDegraded(
      const hiperd::ReferenceSystem& ref, std::vector<fault::FaultPlan> plans,
      const std::string& key, const fault::DegradedOptions& dopts) const {
    rbackend::RadiusProblem rp;
    rp.system = &ref;
    rp.scenarios = std::move(plans);
    rp.desClassification = true;
    rbackend::RadiusRequest req;
    req.backendOverride = "degraded";
    req.estimator = estimatorOptions(key);
    req.degraded = dopts;
    if (live_ != nullptr) {
      req.estimator.liveClassifications = &live_->classifications;
      req.degraded.live = &live_->faults;
    }
    const rbackend::RadiusOutcome out = rbackend::solveRadius(rp, req, nullptr);
    auto p = std::make_shared<EmpiricalPoint>();
    p->radius = out.rho;
    p->classifications = out.classifications;
    return p;
  }

  /// Cached empirical/degraded estimate: in-memory entry first, then
  /// the persistent on-disk cache, then `compute`. A persistent hit is
  /// bit-identical to recomputation (content-derived seeds, exact
  /// hexfloat storage), so the layering is invisible in the surface.
  template <typename Fn>
  [[nodiscard]] std::shared_ptr<const EmpiricalPoint> cachedEstimate(
      const std::string& key, Fn&& compute) const {
    return cache_.get<EmpiricalPoint>(key, [&] {
      if (persistent_ != nullptr) {
        if (const std::optional<PersistentCache::Value> v =
                persistent_->lookup(key)) {
          auto p = std::make_shared<EmpiricalPoint>();
          p->radius = v->radius;
          p->classifications = v->classifications;
          return p;
        }
      }
      std::shared_ptr<EmpiricalPoint> p = compute();
      if (persistent_ != nullptr) {
        persistent_->store(key,
                           PersistentCache::Value{p->radius,
                                                  p->classifications});
      }
      return p;
    });
  }

  [[nodiscard]] PointResult evaluateLinear(std::size_t id) const {
    const std::size_t n = static_cast<std::size_t>(num(id, "n"));
    const double beta = num(id, "beta");
    const radius::MergeScheme scheme = tok(id, "scheme") == "sensitivity"
                                           ? radius::MergeScheme::Sensitivity
                                           : radius::MergeScheme::NormalizedByOriginal;
    const std::string instKey = "lin;n=" + tok(id, "n") +
                                ";kscale=" + tok(id, "kscale") +
                                ";origscale=" + tok(id, "origscale");
    const std::shared_ptr<const LinearInstance> inst =
        cache_.get<LinearInstance>(instKey, [&] {
          return makeLinearInstance(n, num(id, "kscale"), num(id, "origscale"),
                                    deriveSeed(spec_.seed, instKey));
        });

    const radius::FepiaProblem problem = makeLinearProblem(*inst, beta);
    PointResult r;
    r.analyticRho = solveRho(problem, scheme);
    r.closedForm = scheme == radius::MergeScheme::Sensitivity
                       ? radius::sensitivityLinearRadius(n)
                       : radius::normalizedLinearRadius(inst->k, inst->orig, beta);
    r.classifications = 1;
    if (spec_.empirical) {
      const std::string empKey = instKey + ";scheme=" + tok(id, "scheme") +
                                 ";beta=" + tok(id, "beta") +
                                 ";emp;samples=" + std::to_string(spec_.samples);
      const std::shared_ptr<const EmpiricalPoint> emp =
          cachedEstimate(empKey, [&] {
            return solveEmpirical(problem, scheme, empKey);
          });
      r.empirical = emp->radius;
      r.classifications += emp->classifications;
    }
    return r;
  }

  [[nodiscard]] PointResult evaluateAlloc(std::size_t id) const {
    const std::string instKey = "alloc;tasks=" + tok(id, "tasks") +
                                ";machines=" + tok(id, "machines") +
                                ";het=" + tok(id, "het");
    const std::shared_ptr<const AllocInstance> inst =
        cache_.get<AllocInstance>(instKey, [&] {
          auto a = std::make_shared<AllocInstance>();
          rng::Xoshiro256StarStar g(deriveSeed(spec_.seed, instKey));
          a->etcMatrix = etc::generateCvb(
              static_cast<std::size_t>(num(id, "tasks")),
              static_cast<std::size_t>(num(id, "machines")),
              etc::cvbPreset(heterogeneityFromToken(tok(id, "het"))), g);
          a->mctMakespan =
              alloc::makespan(alloc::mct(a->etcMatrix), a->etcMatrix);
          return a;
        });

    const std::string muKey = instKey + ";h=" + tok(id, "heuristic");
    const std::shared_ptr<const alloc::Allocation> mu =
        cache_.get<alloc::Allocation>(muKey, [&] {
          return std::make_shared<const alloc::Allocation>(alloc::runHeuristic(
              heuristicFromToken(tok(id, "heuristic")), inst->etcMatrix));
        });

    const std::string engineKey = instKey + ";taufactor=" + tok(id, "taufactor");
    const std::shared_ptr<const EngineBox> box =
        cache_.get<EngineBox>(engineKey, [&] {
          return std::make_shared<const EngineBox>(
              inst, num(id, "taufactor") * inst->mctMakespan);
        });

    PointResult r;
    {
      const std::lock_guard<std::mutex> lock(box->mutex);
      r.analyticRho = box->engine.evaluate(*mu);
    }
    r.makespan = alloc::makespan(*mu, inst->etcMatrix);
    r.classifications = 1;
    return r;
  }

  [[nodiscard]] PointResult evaluateHiperd(std::size_t id) const {
    const std::string instKey =
        "hiperd;system=" +
        (spec_.systemPath.empty() ? std::string("builtin") : spec_.systemPath);
    const std::shared_ptr<const HiperdInstance> inst =
        cache_.get<HiperdInstance>(instKey, [&] {
          auto h = std::make_shared<HiperdInstance>();
          h->ref = spec_.systemPath.empty() ? hiperd::makeReferenceSystem()
                                            : io::loadSystem(spec_.systemPath);
          const radius::FepiaProblem problem =
              h->ref.system.executionMessageProblem(h->ref.qos);
          h->analyticRho =
              solveRho(problem, radius::MergeScheme::NormalizedByOriginal);
          return h;
        });

    PointResult r;
    r.analyticRho = inst->analyticRho;
    r.classifications = 1;
    if (spec_.empirical) {
      // Independent of jitter/faults/des — one estimate serves the whole
      // grid (the cache-hit demonstration of docs/sweep.md).
      const std::string empKey =
          instKey + ";emp;samples=" + std::to_string(spec_.samples);
      const std::shared_ptr<const EmpiricalPoint> emp =
          cachedEstimate(empKey, [&] {
            const radius::FepiaProblem problem =
                inst->ref.system.executionMessageProblem(inst->ref.qos);
            return solveEmpirical(
                problem, radius::MergeScheme::NormalizedByOriginal, empKey);
          });
      r.empirical = emp->radius;
      r.classifications += emp->classifications;
    }
    if (tok(id, "des") == "on") {
      const std::string degKey =
          instKey + ";deg;faults=" + tok(id, "faults") +
          ";jitter=" + tok(id, "jitter") +
          ";samples=" + std::to_string(spec_.samples) +
          ";gens=" + std::to_string(spec_.generations);
      const std::shared_ptr<const EmpiricalPoint> deg =
          cachedEstimate(degKey, [&] {
            std::vector<fault::FaultPlan> plans;
            if (tok(id, "faults") == "on") {
              plans.push_back(fault::samplePlan(
                  inst->ref.system, fault::SamplerOptions{},
                  deriveSeed(spec_.seed, instKey + ";plan")));
            }
            fault::DegradedOptions dopts;
            dopts.generations = spec_.generations;
            dopts.explicitDirections = true;
            dopts.serviceJitterCov = num(id, "jitter");
            return solveDegraded(inst->ref, std::move(plans), degKey, dopts);
          });
      r.degraded = deg->radius;
      r.classifications += deg->classifications;
    }
    return r;
  }

  const SweepSpec& spec_;
  ResultCache& cache_;
  std::string backendOverride_;
  LiveSweepStats* live_ = nullptr;
  PersistentCache* persistent_ = nullptr;
};

}  // namespace

ShardLedger::ShardLedger(const SweepSpec& spec, std::size_t chunkOverride,
                         const std::string& journalPath, bool resume,
                         std::size_t maxShards) {
  if (resume && journalPath.empty()) {
    throw std::invalid_argument("sweep: --resume requires a journal");
  }
  if (maxShards > 0 && journalPath.empty()) {
    throw std::invalid_argument(
        "sweep: stopping early requires a journal (the partial work would "
        "be lost)");
  }
  surface_.points = spec.pointCount();
  surface_.chunk = std::max<std::size_t>(
      chunkOverride > 0 ? chunkOverride : spec.chunk, 1);
  surface_.shards = (surface_.points + surface_.chunk - 1) / surface_.chunk;
  surface_.results.assign(surface_.points, PointResult{});
  surface_.computed.assign(surface_.points, 0);
  if (resume) {
    const JournalContents replay =
        readJournal(journalPath, spec.hash(), surface_.points, surface_.chunk,
                    surface_.shards);
    for (std::size_t s = 0; s < surface_.shards; ++s) {
      if (replay.shardDone[s]) store(s, replay.results.data() + first(s));
    }
    surface_.resumedShards = replay.doneShards;
  }
  if (!journalPath.empty()) {
    journal_.open(journalPath, /*append=*/resume, spec.hash(),
                  surface_.points, surface_.chunk);
  }
  for (std::size_t s = 0; s < surface_.shards; ++s) {
    if (surface_.computed[first(s)] != 0) continue;
    if (maxShards > 0 && pending_.size() == maxShards) {
      truncated_ = true;
      break;
    }
    pending_.push_back(s);
    pendingPoints_ += count(s);
  }
}

void ShardLedger::store(std::size_t s, const PointResult* results) {
  const auto at = static_cast<std::ptrdiff_t>(first(s));
  std::copy_n(results, count(s), surface_.results.begin() + at);
  std::fill_n(surface_.computed.begin() + at, count(s), std::uint8_t{1});
}

void ShardLedger::commit(std::size_t s, const PointResult* results) {
  store(s, results);
  journal_.appendShard(s, first(s), results, count(s));
}

SweepSurface ShardLedger::finish(double wallSeconds) {
  surface_.computedShards = pending_.size();
  surface_.complete = !truncated_;
  for (std::size_t id = 0; id < surface_.points; ++id) {
    if (surface_.computed[id] != 0) {
      surface_.classifications += surface_.results[id].classifications;
    }
  }
  surface_.wallSeconds = wallSeconds;
  surface_.pointsPerSec =
      wallSeconds > 0.0 ? static_cast<double>(pendingPoints_) / wallSeconds
                        : 0.0;
  return std::move(surface_);
}

SweepSurface runSweep(const SweepSpec& spec, const SweepOptions& opts,
                      parallel::ThreadPool* pool) {
  ShardLedger ledger(spec, opts.chunkOverride, opts.journalPath, opts.resume,
                     opts.stopAfterShards);
  const std::vector<std::size_t>& pending = ledger.pending();
  const std::size_t pendingPoints = ledger.pendingPoints();
  std::mutex journalMutex;

  // A caller-supplied shared cache (a resident server's warm cache)
  // substitutes for the per-run one; entries are content-keyed, so only
  // the wall clock can tell the difference. Hit/miss counters on a
  // shared cache are cumulative across runs, so the surface reports
  // this call's delta against the baseline read here.
  ResultCache localCache(opts.cacheEnabled);
  ResultCache& cache = (opts.sharedCache != nullptr && opts.cacheEnabled)
                           ? *opts.sharedCache
                           : localCache;
  const std::uint64_t cacheHits0 = cache.hits();
  const std::uint64_t cacheMisses0 = cache.misses();
  // The persistent estimate cache is opened per call: loading is one
  // directory scan, and per-call hit/miss deltas come free.
  std::unique_ptr<PersistentCache> persistent;
  if (!opts.cacheDir.empty() && opts.cacheEnabled) {
    persistent = std::make_unique<PersistentCache>(opts.cacheDir);
  }
  LiveSweepStats live;
  const Evaluator evaluator(spec, cache, opts.backendOverride,
                            opts.telemetry != nullptr ? &live : nullptr,
                            persistent.get());
  const obs::Stopwatch sw;

  // Telemetry wiring. The source callback runs on the hub's sampler
  // thread and reads only relaxed atomics; heartbeats/stragglers are
  // emitted under journalMutex, which already serialises shard commits.
  obs::TelemetryHub* const hub = opts.telemetry;
  const bool watchdogOn = hub != nullptr && opts.stallDeadlineSeconds > 0.0;
  const obs::SourceGuard liveGauges(
      hub, [&live, &cache, cacheHits0, cacheMisses0, pendingPoints,
            pc = persistent.get(),
            totalShards = pending.size()](obs::Registry& reg) {
        reg.setGauge("sweep.live_points_done",
                     static_cast<double>(
                         live.pointsDone.load(std::memory_order_relaxed)));
        reg.setGauge("sweep.live_points_total",
                     static_cast<double>(pendingPoints));
        reg.setGauge("sweep.live_shards_done",
                     static_cast<double>(
                         live.shardsDone.load(std::memory_order_relaxed)));
        reg.setGauge("sweep.live_shards_total",
                     static_cast<double>(totalShards));
        reg.setGauge("sweep.live_classifications",
                     static_cast<double>(live.classifications.load(
                         std::memory_order_relaxed)));
        reg.setGauge("sweep.live_cache_hits",
                     static_cast<double>(cache.hits() - cacheHits0));
        reg.setGauge("sweep.live_cache_misses",
                     static_cast<double>(cache.misses() - cacheMisses0));
        if (pc != nullptr) {
          reg.setGauge("sweep.live_persistent_hits",
                       static_cast<double>(pc->hits()));
          reg.setGauge("sweep.live_persistent_misses",
                       static_cast<double>(pc->misses()));
        }
        live.faults.writeGauges(reg);
      });
  const std::size_t watchdogId =
      watchdogOn ? hub->addWatchdog("sweep", opts.stallDeadlineSeconds) : 0;
  std::vector<double> shardSeconds;  // completed shards, under journalMutex
  shardSeconds.reserve(pending.size());

  const auto runShard = [&](std::size_t i) {
    FEPIA_SPAN("sweep.shard");
    const obs::Stopwatch shardSw;
    const std::size_t s = pending[i];
    std::vector<PointResult> rows(ledger.count(s));
    for (std::size_t k = 0; k < rows.size(); ++k) {
      rows[k] = evaluator.evaluate(ledger.first(s) + k);
      if (hub != nullptr) {
        live.pointsDone.fetch_add(1, std::memory_order_relaxed);
        if (watchdogOn) hub->noteProgress(watchdogId);
      }
    }
    const double shardWall = shardSw.elapsedSeconds();
    const std::lock_guard<std::mutex> lock(journalMutex);
    ledger.commit(s, rows.data());
    if (hub == nullptr && !opts.progress) return;
    live.shardsDone.fetch_add(1, std::memory_order_relaxed);

    // Progress model over committed work: rate from the run's wall clock
    // so cache-accelerated shards raise it honestly; ETA over the points
    // this call still owes.
    const std::uint64_t done =
        live.pointsDone.load(std::memory_order_relaxed);
    const double elapsed = sw.elapsedSeconds();
    const double rate =
        elapsed > 0.0 ? static_cast<double>(done) / elapsed : 0.0;
    const std::uint64_t left =
        pendingPoints > done ? pendingPoints - done : 0;
    const double eta = rate > 0.0 ? static_cast<double>(left) / rate : 0.0;

    if (hub != nullptr) {
      hub->emit("heartbeat", obs::JsonFields()
                                 .count("shard", s)
                                 .count("points_done", done)
                                 .count("points_total", pendingPoints)
                                 .num("shard_seconds", shardWall)
                                 .num("points_per_sec", rate)
                                 .num("eta_seconds", eta));

      // Straggler check against the median completed shard so far. Needs
      // a few completed shards before "median" means anything.
      shardSeconds.push_back(shardWall);
      if (shardSeconds.size() >= 4) {
        std::vector<double> sorted = shardSeconds;
        std::sort(sorted.begin(), sorted.end());
        const double median = sorted[sorted.size() / 2];
        if (median > 0.0 && shardWall > kStragglerFactor * median) {
          hub->emit("warning", obs::JsonFields()
                                   .str("kind", "straggler")
                                   .count("shard", s)
                                   .num("shard_seconds", shardWall)
                                   .num("median_seconds", median)
                                   .num("factor", shardWall / median));
        }
      }
    }

    if (opts.progress) {
      std::fprintf(stderr,
                   "\rsweep: %llu/%llu points (%.1f pts/s, ETA %.0fs)   ",
                   static_cast<unsigned long long>(done),
                   static_cast<unsigned long long>(pendingPoints), rate, eta);
      std::fflush(stderr);
    }
  };

  if (pool != nullptr && pending.size() > 1) {
    parallel::parallelFor(*pool, pending.size(), runShard);
  } else {
    for (std::size_t i = 0; i < pending.size(); ++i) runShard(i);
  }

  if (opts.progress && !pending.empty()) {
    std::fprintf(stderr, "\n");
    std::fflush(stderr);
  }
  if (watchdogOn) hub->removeWatchdog(watchdogId);

  SweepSurface surface = ledger.finish(sw.elapsedSeconds());
  surface.cacheEnabled = cache.enabled();
  surface.cacheHits = cache.hits() - cacheHits0;
  surface.cacheMisses = cache.misses() - cacheMisses0;
  if (persistent != nullptr) {
    surface.persistentHits = persistent->hits();
    surface.persistentMisses = persistent->misses();
  }
  if (opts.metrics != nullptr) {
    obs::Registry& reg = *opts.metrics;
    reg.counters().bump("sweep.points_computed", pendingPoints);
    reg.counters().bump("sweep.shards_computed", surface.computedShards);
    reg.counters().bump("sweep.shards_resumed", surface.resumedShards);
    reg.counters().bump("sweep.cache_hits", surface.cacheHits);
    reg.counters().bump("sweep.cache_misses", surface.cacheMisses);
    reg.counters().bump("sweep.persistent_hits", surface.persistentHits);
    reg.counters().bump("sweep.persistent_misses", surface.persistentMisses);
    reg.counters().bump("sweep.classifications", surface.classifications);
    reg.setGauge("sweep.points_per_sec", surface.pointsPerSec);
  }
  return surface;
}

void evaluatePointRange(const SweepSpec& spec, ResultCache& cache,
                        PersistentCache* persistent,
                        const std::string& backendOverride, std::size_t first,
                        std::size_t count, PointResult* out) {
  const Evaluator evaluator(spec, cache, backendOverride, nullptr, persistent);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = evaluator.evaluate(first + i);
  }
}

}  // namespace fepia::sweep
