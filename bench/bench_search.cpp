// Experiment SEARCHRATE — throughput of the allocation-evaluation engine.
//
// The rho-driven searches of src/alloc used to recompute every machine
// finish time for every candidate move: O(tasks x machines) per score.
// alloc::EvalEngine scores a single-task move incrementally in
// O(n_from + n_to) and fans whole move scans / GA populations across a
// thread pool with fixed chunking. This bench quantifies both effects on
// one steepest-ascent local search over a 256-task x 16-machine CVB
// instance:
//
//   * naive        — the pre-engine serial path: localSearch with the
//                    rho objective hidden behind an opaque lambda, so
//                    every candidate is a full recomputation;
//   * engine       — incremental scoring, no pool (serial);
//   * engine-T     — incremental scoring across T threads.
//
// Determinism contract on display: every engine run returns the same
// best allocation and rho bit-for-bit at any thread count. Results land
// in BENCH_search.json (override with FEPIA_BENCH_JSON). Set
// FEPIA_BENCH_SMOKE=1 for a small instance suitable for CI smoke runs.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "fepia.hpp"
#include "claim.hpp"
#include "obs/clock.hpp"
#include "obs/manifest.hpp"

namespace {

using namespace fepia;

obs::RunManifest g_manifest;

bool smokeMode() {
  const char* env = std::getenv("FEPIA_BENCH_SMOKE");
  return env != nullptr && std::strcmp(env, "0") != 0;
}

struct Workload {
  la::Matrix etcMatrix;
  alloc::Allocation start;
  double tau;

  static Workload make(std::size_t tasks, std::size_t machines) {
    rng::Xoshiro256StarStar g(0x5EA2C4A7Eull);
    la::Matrix e = etc::generateCvb(tasks, machines,
                                    etc::cvbPreset(etc::Heterogeneity::HiHi), g);
    alloc::Allocation seed = alloc::mct(e);
    const double tau = 1.4 * alloc::makespan(seed, e);
    return Workload{std::move(e), std::move(seed), tau};
  }
};

struct Run {
  std::string mode;
  std::size_t threads;  ///< 0 = no pool
  double seconds;
  alloc::Allocation best;
  double rho;
};

/// The pre-engine baseline: the objective is wrapped in a plain lambda so
/// localSearch cannot recognise the rho functor — every move score is a
/// full O(tasks x machines) recomputation, as before the engine existed.
Run naiveRun(const Workload& w) {
  const auto functor = alloc::rhoObjective(w.tau);
  const alloc::AllocationObjective opaque =
      [&functor](const alloc::Allocation& mu, const la::Matrix& e) {
        return functor(mu, e);
      };
  const obs::Stopwatch sw;
  alloc::Allocation best = alloc::localSearch(w.start, w.etcMatrix, opaque);
  const double seconds = sw.elapsedSeconds();
  const double rho = functor(best, w.etcMatrix);
  return Run{"naive", 0, seconds, std::move(best), rho};
}

Run engineRun(const Workload& w, std::size_t threads) {
  std::unique_ptr<parallel::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<parallel::ThreadPool>(threads);
  alloc::EngineConfig cfg;
  cfg.objective = alloc::EngineObjective::Rho;
  cfg.tau = w.tau;
  alloc::EvalEngine engine(w.etcMatrix, cfg, pool.get());
  const obs::Stopwatch sw;
  alloc::Allocation best = alloc::localSearch(engine, w.start);
  const double seconds = sw.elapsedSeconds();
  const double rho = engine.evaluate(best);
  return Run{threads == 0 ? "engine" : "engine-" + std::to_string(threads),
             threads, seconds, std::move(best), rho};
}

int printExperiment() {
  const obs::Stopwatch wall;
  const bool smoke = smokeMode();
  const std::size_t tasks = smoke ? 48 : 256;
  const std::size_t machines = smoke ? 6 : 16;
  const Workload w = Workload::make(tasks, machines);

  std::cout << "=== SEARCHRATE: engine-driven local search throughput ===\n\n"
            << tasks << " tasks x " << machines << " machines, CVB hi-hi, tau "
            << report::num(w.tau, 6) << (smoke ? "  [smoke mode]" : "")
            << "\n\n";

  std::vector<Run> runs;
  runs.push_back(naiveRun(w));
  runs.push_back(engineRun(w, 0));
  for (const std::size_t t : {1, 2, 8}) runs.push_back(engineRun(w, t));

  report::Table table({"mode", "rho", "wall (s)", "speedup vs naive"});
  for (const Run& r : runs) {
    table.addRow({r.mode, report::num(r.rho, 8), report::num(r.seconds, 4),
                  report::num(runs[0].seconds / r.seconds, 2)});
  }
  table.print(std::cout);

  // Engine runs must agree bit-for-bit at every thread count; the naive
  // run is a different (full-recompute) code path and is only required
  // to land on an allocation of equal quality.
  bool identical = true;
  for (std::size_t i = 2; i < runs.size(); ++i) {
    identical &= runs[i].best.assignment() == runs[1].best.assignment();
    identical &= runs[i].rho == runs[1].rho;
  }
  const bool naiveAgrees = runs[0].best.assignment() == runs[1].best.assignment();
  double bestSpeedup = 0.0;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    bestSpeedup = std::max(bestSpeedup, runs[0].seconds / runs[i].seconds);
  }
  std::cout << "\nengine runs bit-identical across thread counts: "
            << (identical ? "yes" : "NO — determinism contract broken")
            << "\nnaive path reaches the same allocation: "
            << (naiveAgrees ? "yes" : "no") << "\nbest speedup vs naive: "
            << report::num(bestSpeedup, 2) << "x\n\n";

  return writeBenchJson(
      "search", "BENCH_search.json", g_manifest, wall,
      [&](obs::JsonWriter& doc) {
        doc.boolean("smoke", smoke).count("tasks", tasks);
        doc.count("machines", machines).num("tau", w.tau);
        doc.array("runs", obs::JsonLayout::Lines);
        for (const Run& r : runs) {
          doc.object().str("mode", r.mode).count("threads", r.threads);
          doc.num("wall_seconds", r.seconds).num("rho", r.rho);
          doc.num("speedup_vs_naive", runs[0].seconds / r.seconds).end();
        }
        doc.end().num("best_speedup_vs_naive", bestSpeedup);
        doc.boolean("engine_runs_identical", identical);
      });
}

}  // namespace

int main(int argc, char** argv) {
  g_manifest = obs::RunManifest::collect("bench_search", argc, argv);
  return printExperiment();
}
