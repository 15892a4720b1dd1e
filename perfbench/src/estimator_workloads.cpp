// validate-hiperd and faultsim-des: repeated queries through the shared
// server/query runners, the same code `fepia_cli validate` and
// `fepia_cli fault-sim` run, on one long-lived compute pool.
#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "classify/block_classifier.hpp"
#include "des/pipeline.hpp"
#include "fault/plan.hpp"
#include "feature/transform.hpp"
#include "hiperd/factory.hpp"
#include "io/system_io.hpp"
#include "obs/clock.hpp"
#include "radius/merge.hpp"
#include "server/query.hpp"
#include "spans.hpp"
#include "validate/empirical.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace fepia;

using Runner = server::QueryResult (*)(const std::vector<std::string>&,
                                       std::ostream&, server::QueryContext&);

/// The parts of a query's result that must repeat bit for bit at a fixed
/// seed: exit code, stdout, the JSON report minus its manifest (radii and
/// CIs at 17 digits) and the estimator's classification count.
struct Fingerprint {
  int exitCode = -1;
  std::string output;
  std::string json;
  std::uint64_t classifications = 0;

  bool operator==(const Fingerprint&) const = default;
};

struct QueryRun {
  Fingerprint print;
  obs::Registry registry;
  double seconds = 0.0;
};

QueryRun runQuery(Runner runner, const std::vector<std::string>& args,
                  parallel::ThreadPool& pool) {
  QueryRun run;
  obs::RunManifest manifest;
  const obs::Stopwatch wall;
  server::QueryContext ctx;
  ctx.registry = &run.registry;
  ctx.manifest = &manifest;
  ctx.wall = &wall;
  ctx.sharedPool = &pool;
  ctx.captureJson = true;
  std::ostringstream out;
  server::QueryResult result;
  {
    const obs::Span span("bench.query");
    result = runner(args, out, ctx);
  }
  run.seconds = wall.elapsedSeconds();
  run.print.exitCode = result.exitCode;
  run.print.output = out.str();
  run.print.json = dropManifest(result.json);
  run.print.classifications =
      run.registry.counters().value("validate.classifications");
  return run;
}

/// The validate/classify/registry counters of `reg`, per query.
void readEstimatorCounters(const obs::Registry& reg, std::size_t ops,
                           LayerReadings& out) {
  const obs::CounterSet& c = reg.counters();
  const double n = ops > 0 ? static_cast<double>(ops) : 1.0;
  out.registryFallbacks =
      static_cast<double>(c.value("registry.fallbacks")) / n;
  out.validateClassifications =
      static_cast<double>(c.value("validate.classifications")) / n;
  const double directions = static_cast<double>(c.value("validate.directions"));
  out.validateBoundaryHitFrac =
      directions > 0.0
          ? static_cast<double>(c.value("validate.boundary_hits")) / directions
          : 0.0;
  out.classifyLanes = static_cast<double>(c.value("classify.lanes")) / n;
  const double blocks = static_cast<double>(c.value("classify.blocks"));
  out.classifyLanesPerBlock =
      blocks > 0.0 ? static_cast<double>(c.value("classify.lanes")) / blocks
                   : 0.0;
}

/// Per-workload hook for the traced run: readings the spans cannot give.
using Calibrate =
    std::function<void(LayerReadings&, parallel::ThreadPool&, Outcome&)>;

Outcome runQueries(const Options& opt, Runner runner,
                   const std::vector<std::string>& args, const char* rateName,
                   const char* latencyName, const Calibrate& calibrate) {
  Outcome o;
  const std::size_t threads = opt.cpus;
  o.threadsUsed = threads;

  std::unique_ptr<parallel::ThreadPool> pool;
  const double prepare = medianSetupSeconds([&] {
    pool.reset();
    pool = std::make_unique<parallel::ThreadPool>(threads);
  });
  // The warm-up query is the reference every timed query must repeat.
  const QueryRun ref = runQuery(runner, args, *pool);
  const double setup = prepare + ref.seconds;

  // One checked query; false when it threw or its output differed.
  const auto attempt = [&](QueryRun& run) {
    ++o.attempted;
    try {
      run = runQuery(runner, args, *pool);
    } catch (const std::exception& e) {
      ++o.failed;
      o.fail(std::string("query failed: ") + e.what());
      return false;
    }
    if (!(run.print == ref.print)) {
      ++o.failed;
      o.fail("query result differs from the set-up reference at the same "
             "seed");
      return false;
    }
    return true;
  };

  const obs::Stopwatch window;
  if (!opt.trace) {
    std::vector<double> latencies;
    double classifications = 0.0;
    while (latencies.empty() || window.elapsedSeconds() < opt.seconds) {
      QueryRun run;
      if (attempt(run)) {
        latencies.push_back(run.seconds);
        classifications += static_cast<double>(run.print.classifications);
      } else if (o.failed > 3) {
        break;
      }
    }
    const double rate =
        latencies.empty() ? 0.0 : classifications / sum(latencies);
    const double p50 = median(latencies) * 1e3;
    o.add("setup_s", setup, "s");
    o.add("work_per_s", rate, "1/s");
    o.add("op_p50_ms", p50, "ms");
    o.addNamed(rateName, rate, "classifications/s");
    o.addNamed(latencyName, p50, "ms");
    o.addNamed("queries", static_cast<double>(latencies.size()), "count");
    return o;
  }

  // Traced run: alternate an untraced and a traced query so both see the
  // same machine state; per-layer numbers come from the traced ones.
  TraceSession trace;
  std::vector<double> plain;
  std::vector<double> traced;
  obs::Registry counters;
  while (traced.empty() || window.elapsedSeconds() < opt.seconds) {
    QueryRun a;
    if (attempt(a)) plain.push_back(a.seconds);
    QueryRun b;
    trace.begin();
    bool ok = false;
    {
      const obs::Span span("bench.window");
      ok = attempt(b);
    }
    trace.end();
    if (ok) {
      traced.push_back(b.seconds);
      counters.merge(b.registry);
    } else if (o.failed > 3) {
      break;
    }
  }

  LayerReadings in;
  in.ops = traced.size();
  in.poolThreads = threads;
  readEstimatorCounters(counters, in.ops, in);
  obs::Registry poolMetrics;
  pool->exportMetrics(poolMetrics);
  if (const obs::Histogram* wait = poolMetrics.findHistogram("pool.wait_us")) {
    in.poolWaitUsP50 = histogramQuantile(*wait, 0.5);
  }
  in.traceOverheadFrac = relativeIncrease(plain, traced);
  calibrate(in, *pool, o);
  addLayerMetrics(o, in, trace.records());
  trace.writeChromeTrace(opt.outDir + "/" + opt.workload + ".trace.json");
  return o;
}

/// Times BlockClassifier::classify inside one estimate of the joint
/// normalized safe region of `problem` (the region validate's "rho
/// (joint region)" row samples), driven through a timed
/// BlockSafePredicate. The adapter must not change a bit of the result.
struct KernelTiming {
  double kernelSeconds = 0.0;  ///< summed over all threads
  double cpuSeconds = 0.0;     ///< process CPU time of the same estimate
  bool identical = false;
};

KernelTiming timeClassifyKernel(const radius::FepiaProblem& problem,
                                const validate::EstimatorOptions& opts,
                                parallel::ThreadPool& pool) {
  const radius::MergedAnalysis analysis =
      problem.merged(radius::MergeScheme::NormalizedByOriginal);
  const la::Vector orig = problem.space().concatenatedOriginal();
  const la::Vector& weights = analysis.report().features.front().mapWeights;
  la::Vector scale(weights.size());
  la::Vector shift(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    scale[i] = weights[i] != 0.0 ? 1.0 / weights[i] : 0.0;
    shift[i] = weights[i] != 0.0 ? 0.0 : orig[i];
  }
  feature::FeatureSet joint;
  for (const feature::BoundedFeature& bf : problem.features()) {
    joint.add(feature::precomposeAffineDiagonal(bf.feature, scale, shift),
              bf.bounds);
  }
  const la::Vector origin = radius::DiagonalMap(weights).toP(orig);

  const validate::EmpiricalEstimate plain =
      validate::estimateEmpiricalRadius(joint, origin, opts, &pool);

  std::atomic<std::uint64_t> kernelNs{0};
  std::atomic<std::uint64_t> lanes{0};
  // The estimator copies the predicate once per chunk before calling
  // it, so every copy builds its own classifier (not shareable across
  // threads) on first use.
  const validate::BlockSafePredicate timed =
      [&joint, &kernelNs, &lanes,
       classifier = std::shared_ptr<classify::BlockClassifier>()](
          const la::PointBlock& block, std::span<const std::size_t>,
          std::span<std::uint8_t> safeOut) mutable {
        if (!classifier) {
          classifier = std::make_shared<classify::BlockClassifier>(joint);
        }
        const std::uint64_t start = obs::nowNanos();
        classifier->classify(block, safeOut);
        kernelNs.fetch_add(obs::nowNanos() - start, std::memory_order_relaxed);
        lanes.fetch_add(block.lanes(), std::memory_order_relaxed);
      };
  const double cpuBefore = processCpuSeconds();
  const validate::EmpiricalEstimate adapted =
      validate::estimateEmpiricalRadius(timed, origin, opts, &pool);
  KernelTiming t;
  t.cpuSeconds = processCpuSeconds() - cpuBefore;
  t.kernelSeconds = static_cast<double>(kernelNs.load()) * 1e-9;
  t.identical = std::bit_cast<std::uint64_t>(plain.radius) ==
                    std::bit_cast<std::uint64_t>(adapted.radius) &&
                plain.classifications == adapted.classifications &&
                plain.classifyStats.lanes == lanes.load();
  return t;
}

}  // namespace

Outcome runValidateHiperd(const Options& opt) {
  const std::string path = opt.root + "/examples/data/fusion_pipeline.hiperd";
  const std::size_t samples = opt.tiny ? 512 : 32768;
  const std::vector<std::string> args = {"--hiperd", path, "--samples",
                                         std::to_string(samples), "--seed",
                                         std::to_string(opt.seed)};
  const Calibrate calibrate = [&](LayerReadings& in, parallel::ThreadPool& pool,
                                  Outcome& o) {
    in.ioParseMs = meanMillis([&] { (void)io::loadSystem(path); });
    const hiperd::ReferenceSystem ref = io::loadSystem(path);
    validate::EstimatorOptions eo;
    eo.directions = samples;
    eo.seed = opt.seed;
    const KernelTiming k = timeClassifyKernel(
        ref.system.executionMessageProblem(ref.qos), eo, pool);
    if (!k.identical) {
      o.fail("the timed classify adapter changed the radius, the "
             "classification count or the lane count");
    }
    in.classifyKernelS = k.kernelSeconds;
    in.classifyKernelFrac = k.cpuSeconds > 0.0 ? k.kernelSeconds / k.cpuSeconds
                                               : 0.0;
  };
  return runQueries(opt, &server::runValidateQuery, args,
                    "validate.samples_per_s", "validate.query_p50_ms",
                    calibrate);
}

Outcome runFaultsimDes(const Options& opt) {
  // The BENCH_fault.json scenario at 50 generations instead of 200: one
  // 200-generation query takes 7-10 s here, too few per run to be steady.
  const std::size_t generations = opt.tiny ? 20 : 50;
  const std::vector<std::string> args = {
      "--crash",  "1:0.5:0",  "--slow",    "machine:0:2:4:1.5",
      "--loss",   "0:0.05",   "--detect",  "0.01",
      "--gens",   std::to_string(generations),
      "--samples", opt.tiny ? "8" : "32",
      "--seed",   std::to_string(opt.seed)};
  const Calibrate calibrate = [&](LayerReadings& in, parallel::ThreadPool&,
                                  Outcome&) {
    // DES kernel rate on the nominal run of the same plan.
    const hiperd::ReferenceSystem ref = hiperd::makeReferenceSystem();
    fault::FaultPlan plan;
    plan.crashes.push_back({1, 0.5, std::size_t{0}});
    fault::Slowdown slow;
    slow.target = fault::Slowdown::Target::Machine;
    slow.index = 0;
    slow.fromSeconds = 2.0;
    slow.toSeconds = 4.0;
    slow.factor = 1.5;
    plan.slowdowns.push_back(slow);
    plan.losses.push_back({0, 0.05});
    plan.policy.detectionTimeoutSeconds = 0.01;
    const fault::PlanInjector injector(plan, ref.system);
    des::PipelineOptions po;
    po.generations = generations;
    po.faults = &injector;
    std::uint64_t events = 0;
    std::size_t highWater = 0;
    const double ms = meanMillis(
        [&] {
          const des::PipelineResult r = des::simulateAtLoads(
              ref.system, ref.system.originalLoads(), ref.qos.minThroughput,
              po);
          events = r.eventsProcessed;
          highWater = std::max(highWater, r.queueHighWater);
        },
        5, 0.2);
    in.desEventsPerS = static_cast<double>(events) / (ms * 1e-3);
    in.desQueueHighWater = static_cast<double>(highWater);
  };
  return runQueries(opt, &server::runFaultSimQuery, args,
                    "fault.classifications_per_s", "fault.query_p50_ms",
                    calibrate);
}

}  // namespace perfbench
