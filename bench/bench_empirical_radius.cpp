// Experiment VALRATE — throughput of the Monte-Carlo validation engine.
//
// The empirical robustness estimator's unit of work is one
// classification: evaluating the safe-region predicate (the full feature
// stack) at one perturbation vector. This bench measures classifications
// per second (samples/sec) and probe directions per second for the
// legacy closure predicate (the pre-batching hot path: one virtual
// feature evaluation per gathered point, plus a P-space unmap allocation
// per sample) and for the batched SoA engine, in both classify modes
// (scalar reference / batched), serial and for thread pools of growing
// size, on the paper's mixed-kind HiPer-D problem mapped to normalized
// P-space.
//
// Determinism contract on display: within each engine family every run
// below returns the same radius bit-for-bit — thread counts and classify
// modes only change the wall clock. The raw-kernel section times the
// classification kernels alone (no march/bisection logic) on a fixed
// block of P-space points, which is where the batched-vs-scalar speedup
// is measured. The structured results are also written to
// BENCH_validation.json (override the path with FEPIA_BENCH_JSON).
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fepia.hpp"
#include "claim.hpp"
#include "obs/clock.hpp"
#include "obs/manifest.hpp"
#include "obs/telemetry.hpp"

namespace {

using namespace fepia;

obs::RunManifest g_manifest;

bool smokeMode() {
  const char* env = std::getenv("FEPIA_BENCH_SMOKE");
  return env != nullptr && std::strcmp(env, "0") != 0;
}

/// The P-space joint safe region of the HiPer-D mixed-kind problem — the
/// workload validate::validateMergedScheme runs per feature, joined.
struct Workload {
  hiperd::ReferenceSystem ref = hiperd::makeReferenceSystem();
  radius::FepiaProblem problem = ref.system.executionMessageProblem(ref.qos);
  radius::MergedAnalysis analysis =
      problem.merged(radius::MergeScheme::NormalizedByOriginal);
  radius::DiagonalMap map{
      analysis.report().features[analysis.report().criticalFeature].mapWeights};
  la::Vector pOrig = map.toP(problem.space().concatenatedOriginal());
  feature::FeatureSet pPhi = makePFeatureSet();

  /// The legacy hot path: per sample, unmap P -> pi (allocates) and walk
  /// the feature stack through virtual scalar evaluate calls.
  [[nodiscard]] validate::SafePredicate safe() const {
    return [this](const la::Vector& P) {
      return problem.features().allWithinBounds(map.fromP(P));
    };
  }

  /// The same safe region expressed directly over P-space, so the
  /// estimator's FeatureSet overload can classify whole blocks through
  /// the SoA kernels: f_i(P) = phi_i(D^{-1} P) via precomposition.
  [[nodiscard]] feature::FeatureSet makePFeatureSet() const {
    feature::FeatureSet out;
    const la::Vector invW = map.inverseWeights();
    for (const feature::BoundedFeature& bf : problem.features()) {
      out.add(feature::precomposeDiagonal(bf.feature, invW), bf.bounds);
    }
    return out;
  }
};

struct Run {
  std::string engine;       ///< "closure" or a classify mode name
  std::size_t threads = 0;  ///< 0 = serial (no pool)
  double seconds = 0.0;
  validate::EmpiricalEstimate est;
};

Run timedClosureRun(const Workload& w, const validate::EstimatorOptions& opts,
                    std::size_t threads) {
  Run r;
  r.engine = "closure";
  r.threads = threads;
  std::unique_ptr<parallel::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<parallel::ThreadPool>(threads);
  const obs::Stopwatch sw;
  r.est = validate::estimateEmpiricalRadius(w.safe(), w.pOrig, opts,
                                            pool.get());
  r.seconds = sw.elapsedSeconds();
  return r;
}

Run timedBatchedRun(const Workload& w, validate::EstimatorOptions opts,
                    classify::Mode mode, std::size_t threads) {
  Run r;
  r.engine = mode == classify::Mode::Scalar ? "scalar" : "batched";
  r.threads = threads;
  opts.classifyMode = mode;
  std::unique_ptr<parallel::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<parallel::ThreadPool>(threads);
  const obs::Stopwatch sw;
  r.est = validate::estimateEmpiricalRadius(w.pPhi, w.pOrig, opts, pool.get());
  r.seconds = sw.elapsedSeconds();
  return r;
}

/// Raw kernel throughput: lanes classified per second on a fixed block
/// of P-space points, march/bisection logic excluded. The "scalar" row
/// is the pre-batching per-point path (gather + closure predicate); the
/// batched row runs classify::BlockClassifier on the same lanes.
struct KernelRates {
  double scalarPerSec = 0.0;
  double batchedPerSec = 0.0;
  bool verdictsAgree = true;
};

KernelRates rawKernelRates(const Workload& w, bool smoke) {
  const std::size_t lanes = 1024;
  const std::size_t dim = w.pPhi.dimension();
  const double minSeconds = smoke ? 0.05 : 0.5;

  // Mixed-verdict block: points on a shell of P-space radii straddling
  // the robust boundary, so short-circuiting behaves as in a real sweep.
  rng::Xoshiro256StarStar g(0x5EEDB10Cull);
  la::PointBlock block(dim, lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    la::Vector p(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      p[j] = w.pOrig[j] + rng::uniform(g, -0.6, 0.6);
    }
    block.setPoint(l, p.span());
  }

  const validate::SafePredicate safe = w.safe();
  std::vector<std::uint8_t> expected(lanes);
  la::Vector gathered(dim);
  for (std::size_t l = 0; l < lanes; ++l) {
    block.gatherPoint(l, gathered.span());
    expected[l] = safe(gathered) ? 1 : 0;
  }

  KernelRates rates;
  {  // Legacy scalar path: gather each lane, run the closure predicate.
    const auto expectedSafe = static_cast<std::size_t>(
        std::count(expected.begin(), expected.end(), std::uint8_t{1}));
    std::uint64_t classified = 0;
    const obs::Stopwatch sw;
    do {
      std::size_t safeCount = 0;
      for (std::size_t l = 0; l < lanes; ++l) {
        block.gatherPoint(l, gathered.span());
        safeCount += safe(gathered) ? 1 : 0;
      }
      rates.verdictsAgree = rates.verdictsAgree && safeCount == expectedSafe;
      classified += lanes;
    } while (sw.elapsedSeconds() < minSeconds);
    rates.scalarPerSec = static_cast<double>(classified) / sw.elapsedSeconds();
  }
  {
    classify::BlockClassifier cls(w.pPhi, classify::Mode::Batched);
    std::vector<std::uint8_t> out(lanes);
    std::uint64_t classified = 0;
    const obs::Stopwatch sw;
    do {
      cls.classify(block, out);
      classified += lanes;
    } while (sw.elapsedSeconds() < minSeconds);
    rates.batchedPerSec =
        static_cast<double>(classified) / sw.elapsedSeconds();
    rates.verdictsAgree = rates.verdictsAgree && out == expected;
  }
  return rates;
}

/// Telemetry tax on the hot path: the same batched estimate with and
/// without a live TelemetryHub sampling the estimator's progress atomic
/// at a short interval. The instrumentation is one relaxed fetch_add per
/// chunk plus a sampler thread reading the atomic — the guard asserts
/// that stays under a few percent of wall time (and that the radius is
/// bit-identical, since the sampler must never feed back into the
/// computation).
struct TelemetryOverhead {
  double offPerSec = 0.0;    ///< classifications/sec, hub detached
  double onPerSec = 0.0;     ///< classifications/sec, hub sampling
  double ratio = 0.0;        ///< best-on wall / best-off wall
  double maxRatio = 0.0;     ///< threshold the run was judged against
  bool radiusIdentical = true;
  bool ok = true;
};

TelemetryOverhead telemetryOverhead(const Workload& w,
                                    validate::EstimatorOptions opts,
                                    bool smoke) {
  opts.classifyMode = classify::Mode::Batched;
  // Smoke runs are milliseconds long on an oversubscribed CI core, so the
  // wall-clock ratio is mostly scheduler noise there — judge smoke
  // leniently and keep the 2% contract for the full run. Best-of-N with
  // interleaved off/on reps evens out cache and frequency drift.
  const int reps = smoke ? 3 : 5;
  const char* env = std::getenv("FEPIA_BENCH_TELEMETRY_MAX_RATIO");
  TelemetryOverhead t;
  t.maxRatio = env != nullptr ? std::atof(env) : (smoke ? 1.50 : 1.02);

  double bestOff = std::numeric_limits<double>::infinity();
  double bestOn = bestOff;
  double radiusOff = 0.0;
  double radiusOn = 0.0;
  std::uint64_t classifications = 0;
  for (int rep = 0; rep < reps; ++rep) {
    {
      const obs::Stopwatch sw;
      const validate::EmpiricalEstimate est =
          validate::estimateEmpiricalRadius(w.pPhi, w.pOrig, opts);
      const double s = sw.elapsedSeconds();
      if (s < bestOff) bestOff = s;
      radiusOff = est.radius;
      classifications = est.classifications;
    }
    {
      std::atomic<std::uint64_t> live{0};
      obs::TelemetryOptions topt;
      topt.intervalMillis = 10;
      std::ostringstream sink;  // every record is serialised and written
      obs::TelemetryHub hub(topt, &sink);
      hub.addSource([&live](obs::Registry& r) {
        r.setGauge("bench.live_classifications",
                   static_cast<double>(
                       live.load(std::memory_order_relaxed)));
      });
      validate::EstimatorOptions on = opts;
      on.liveClassifications = &live;
      hub.start();
      const obs::Stopwatch sw;
      const validate::EmpiricalEstimate est =
          validate::estimateEmpiricalRadius(w.pPhi, w.pOrig, on);
      const double s = sw.elapsedSeconds();
      hub.stop();
      if (s < bestOn) bestOn = s;
      radiusOn = est.radius;
    }
  }
  t.offPerSec = static_cast<double>(classifications) / bestOff;
  t.onPerSec = static_cast<double>(classifications) / bestOn;
  t.ratio = bestOn / bestOff;
  t.radiusIdentical = radiusOff == radiusOn;
  t.ok = t.radiusIdentical && t.ratio <= t.maxRatio;
  return t;
}

int printExperiment() {
  const obs::Stopwatch wall;
  const bool smoke = smokeMode();
  const Workload w;
  validate::EstimatorOptions opts;
  opts.directions = smoke ? 512 : 8192;
  opts.chunkSize = 64;
  opts.seed = 0x5EEDD1CEull;
  opts.horizon = 16.0;

  std::cout << "=== VALRATE: empirical-radius estimator throughput ===\n\n"
            << "HiPer-D mixed-kind problem, normalized P-space, "
            << opts.directions << " directions, seed 0x5eedd1ce"
            << (smoke ? "  [smoke mode]" : "") << "\n\n";

  const std::vector<std::size_t> threadCounts =
      smoke ? std::vector<std::size_t>{2} : std::vector<std::size_t>{1, 2, 4, 8};

  std::vector<Run> runs;
  runs.push_back(timedClosureRun(w, opts, 0));
  for (const std::size_t t : threadCounts) {
    runs.push_back(timedClosureRun(w, opts, t));
  }
  for (const classify::Mode mode :
       {classify::Mode::Scalar, classify::Mode::Batched}) {
    runs.push_back(timedBatchedRun(w, opts, mode, 0));
    for (const std::size_t t : threadCounts) {
      runs.push_back(timedBatchedRun(w, opts, mode, t));
    }
  }

  report::Table table({"engine", "threads", "radius", "classifications",
                       "samples/sec", "directions/sec", "wall (s)"});
  for (const Run& r : runs) {
    table.addRow({r.engine,
                  r.threads == 0 ? "serial" : std::to_string(r.threads),
                  report::num(r.est.radius, 8),
                  std::to_string(r.est.classifications),
                  report::num(static_cast<double>(r.est.classifications) /
                                  r.seconds,
                              4),
                  report::num(static_cast<double>(r.est.directions) /
                                  r.seconds,
                              4),
                  report::num(r.seconds, 3)});
  }
  table.print(std::cout);

  // Determinism: the closure family and the batched family each return
  // one radius bit-for-bit regardless of threads; the batched family is
  // additionally mode-invariant (scalar reference == batched).
  bool closureIdentical = true;
  bool batchedMatchesScalar = true;
  const Run* firstBatched = nullptr;
  for (const Run& r : runs) {
    if (r.engine == "closure") {
      closureIdentical &= r.est.radius == runs[0].est.radius;
    } else {
      if (firstBatched == nullptr) firstBatched = &r;
      batchedMatchesScalar &=
          r.est.radius == firstBatched->est.radius &&
          r.est.classifications == firstBatched->est.classifications;
    }
  }
  const bool identical = closureIdentical && batchedMatchesScalar;
  std::cout << "\nradius identical within each engine family: "
            << (identical ? "yes" : "NO — determinism contract broken")
            << "\nbatched modes match the scalar reference: "
            << (batchedMatchesScalar ? "yes" : "NO — batching changed verdicts")
            << "\n\n";

  const KernelRates rates = rawKernelRates(w, smoke);
  std::cout << "raw kernel (lanes/sec, " << w.pPhi.size() << " features, dim "
            << w.pPhi.dimension() << "):\n"
            << "  scalar       " << report::num(rates.scalarPerSec, 4) << "\n"
            << "  batched      " << report::num(rates.batchedPerSec, 4) << "  ("
            << report::num(rates.batchedPerSec / rates.scalarPerSec, 3)
            << "x)\n"
            << "  verdicts agree with scalar predicate: "
            << (rates.verdictsAgree ? "yes" : "NO") << "\n\n";

  const TelemetryOverhead tel = telemetryOverhead(w, opts, smoke);
  std::cout << "telemetry overhead (batched serial, 10ms sampling):\n"
            << "  off  " << report::num(tel.offPerSec, 4)
            << " classifications/sec\n"
            << "  on   " << report::num(tel.onPerSec, 4)
            << " classifications/sec\n"
            << "  wall ratio on/off: " << report::num(tel.ratio, 4)
            << "  (limit " << report::num(tel.maxRatio, 3) << ")\n"
            << "  radius identical with hub attached: "
            << (tel.radiusIdentical ? "yes" : "NO — sampler fed back")
            << "\n  within budget: "
            << (tel.ok ? "yes" : "NO — telemetry regressed the hot path")
            << "\n\n";

  const std::size_t hc = std::thread::hardware_concurrency();
  return writeBenchJson(
      "empirical_radius", "BENCH_validation.json", g_manifest, wall,
      [&](obs::JsonWriter& doc) {
        doc.boolean("smoke", smoke).count("seed", opts.seed);
        doc.count("directions", opts.directions);
        doc.count("chunk_size", opts.chunkSize);
        doc.num("classify_scalar_per_sec", rates.scalarPerSec);
        doc.num("classify_batched_per_sec", rates.batchedPerSec);
        doc.boolean("classify_kernel_verdicts_agree", rates.verdictsAgree);
        doc.boolean("radius_identical", identical);
        doc.boolean("batched_matches_scalar", batchedMatchesScalar);
        doc.num("telemetry_off_per_sec", tel.offPerSec);
        doc.num("telemetry_on_per_sec", tel.onPerSec);
        doc.num("telemetry_overhead_ratio", tel.ratio);
        doc.num("telemetry_max_ratio", tel.maxRatio);
        doc.boolean("telemetry_radius_identical", tel.radiusIdentical);
        doc.boolean("telemetry_overhead_ok", tel.ok);
        doc.array("runs", obs::JsonLayout::Lines);
        for (const Run& r : runs) {
          const auto perSec = [&r](std::size_t n) {
            return static_cast<double>(n) / r.seconds;
          };
          doc.object().str("engine", r.engine).count("threads", r.threads);
          doc.count("hardware_concurrency", hc);
          doc.count("classifications", r.est.classifications);
          doc.num("samples_per_sec", perSec(r.est.classifications));
          doc.num("directions_per_sec", perSec(r.est.directions));
          doc.num("wall_seconds", r.seconds).num("radius", r.est.radius);
          if (r.engine != "closure") {
            doc.count("classify_lanes", r.est.classifyStats.lanes);
          }
          doc.end();
        }
        doc.end();
      });
}

}  // namespace

int main(int argc, char** argv) {
  g_manifest = obs::RunManifest::collect("bench_empirical_radius", argc, argv);
  return printExperiment();
}
