// Experiment SWEEP — throughput and determinism of the sweep
// orchestrator.
//
// One linear (S3.1/S3.2-family) grid with empirical estimation on, run
// serial and at growing thread counts, plus once with the result cache
// disabled, plus distributed through the coordinator/worker lease
// protocol at 1, 2 and 4 in-process workers. Four properties on
// display: (1) the surface is bit-identical at every thread count,
// (2) cache-on equals cache-off bit-for-bit (the cache only changes
// throughput), (3) the points/sec scaling of shard-level parallelism,
// and (4) the distributed surface is bit-identical at every worker
// count, with dist_1worker_efficiency_per_sec quantifying the wire
// protocol's overhead against the in-process serial run. Structured
// results land in BENCH_sweep.json (override with FEPIA_BENCH_JSON).
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fepia.hpp"
#include "claim.hpp"
#include "obs/clock.hpp"
#include "obs/manifest.hpp"
#include "server/dist_sweep.hpp"

namespace {

using namespace fepia;

obs::RunManifest g_manifest;

bool smokeMode() {
  const char* env = std::getenv("FEPIA_BENCH_SMOKE");
  return env != nullptr && std::strcmp(env, "0") != 0;
}

sweep::SweepSpec makeSpec(bool smoke) {
  std::string text = "sweep bench\nworkload linear\n";
  text += "axis scheme sensitivity normalized\n";
  text += smoke ? "axis n 2 4\n" : "axis n 2 4 8 16\n";
  text += "axis beta 1.05 1.5 3.0\n";
  text += "axis kscale 1.0 100.0\n";
  text += "empirical on\n";
  text += smoke ? "samples 8\n" : "samples 32\n";
  text += "seed 42\nchunk 8\n";
  return sweep::parseSweepSpecString(text);
}

struct Run {
  std::size_t threads = 0;  ///< 0 = serial (no pool)
  double seconds = 0.0;
  sweep::SweepSurface surface;
};

Run timedRun(const sweep::SweepSpec& spec, std::size_t threads,
             bool cacheEnabled) {
  Run r;
  r.threads = threads;
  std::unique_ptr<parallel::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<parallel::ThreadPool>(threads);
  sweep::SweepOptions opts;
  opts.cacheEnabled = cacheEnabled;
  const obs::Stopwatch sw;
  r.surface = sweep::runSweep(spec, opts, pool.get());
  r.seconds = sw.elapsedSeconds();
  return r;
}

struct DistRun {
  std::size_t workers = 0;
  double seconds = 0.0;
  sweep::SweepSurface surface;
  server::SweepCoordinator::Stats stats;
};

/// In-process coordinator + N worker threads over loopback: the full
/// wire protocol (frames, leases, hexfloat commits), minus process
/// boundaries — which is what the 1-worker overhead figure isolates.
DistRun timedDistRun(const sweep::SweepSpec& spec, std::size_t workers) {
  DistRun r;
  r.workers = workers;
  server::SweepCoordinator coordinator(spec, {});
  std::string error;
  if (!coordinator.start(&error)) {
    throw std::runtime_error("bench_sweep: coordinator start: " + error);
  }
  const obs::Stopwatch sw;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < workers; ++i) {
    threads.emplace_back([&spec, &coordinator, i] {
      server::SweepWorkerConfig wc;
      wc.port = coordinator.port();
      wc.name = "bench-w" + std::to_string(i);
      (void)server::runSweepWorker(spec, wc);
    });
  }
  r.surface = coordinator.wait();
  for (std::thread& t : threads) t.join();
  r.seconds = sw.elapsedSeconds();
  r.stats = coordinator.stats();
  return r;
}

bool sameSurface(const sweep::SweepSurface& a, const sweep::SweepSurface& b) {
  if (a.results.size() != b.results.size()) return false;
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    if (!sweep::bitIdentical(a.results[i], b.results[i])) return false;
  }
  return true;
}

int printExperiment() {
  const obs::Stopwatch wall;
  const bool smoke = smokeMode();
  const sweep::SweepSpec spec = makeSpec(smoke);

  std::cout << "=== SWEEP: sharded sweep orchestrator throughput ===\n\n"
            << "linear workload, " << spec.pointCount() << " points in shards"
            << " of " << spec.chunk << ", empirical on (" << spec.samples
            << " directions/point)" << (smoke ? "  [smoke mode]" : "")
            << "\n\n";

  std::vector<Run> runs;
  runs.push_back(timedRun(spec, 0, true));
  for (const std::size_t t : smoke ? std::vector<std::size_t>{2}
                                   : std::vector<std::size_t>{1, 2, 4, 8}) {
    runs.push_back(timedRun(spec, t, true));
  }
  const Run noCache = timedRun(spec, 0, false);

  report::Table table({"threads", "points", "cache hits", "cache misses",
                       "points/s", "wall (s)"});
  for (const Run& r : runs) {
    table.addRow({r.threads == 0 ? "serial" : std::to_string(r.threads),
                  std::to_string(r.surface.points),
                  std::to_string(r.surface.cacheHits),
                  std::to_string(r.surface.cacheMisses),
                  report::num(r.surface.pointsPerSec, 5),
                  report::num(r.seconds, 3)});
  }
  table.addRow({"serial/no-cache", std::to_string(noCache.surface.points),
                "0", std::to_string(noCache.surface.cacheMisses),
                report::num(noCache.surface.pointsPerSec, 5),
                report::num(noCache.seconds, 3)});
  table.print(std::cout);

  std::vector<DistRun> dist;
  for (const std::size_t w : {1u, 2u, 4u}) dist.push_back(timedDistRun(spec, w));

  report::Table distTable({"workers", "points", "commits", "duplicates",
                           "steals", "points/s", "wall (s)"});
  for (const DistRun& r : dist) {
    distTable.addRow({std::to_string(r.workers),
                      std::to_string(r.surface.points),
                      std::to_string(r.stats.commits),
                      std::to_string(r.stats.duplicateCommits),
                      std::to_string(r.stats.steals),
                      report::num(r.surface.pointsPerSec, 5),
                      report::num(r.seconds, 3)});
  }
  std::cout << "\ndistributed (coordinator + N local workers over the wire "
               "protocol):\n";
  distTable.print(std::cout);

  bool identical = true;
  for (const Run& r : runs) identical &= sameSurface(r.surface, runs[0].surface);
  const bool cacheIdentity = sameSurface(noCache.surface, runs[0].surface);
  bool distIdentical = true;
  for (const DistRun& r : dist) {
    distIdentical &= sameSurface(r.surface, runs[0].surface);
  }
  // The wire protocol's toll at parity conditions: 1 distributed worker
  // vs the in-process serial run (>= 1.0 would mean free distribution).
  const double serialPps = runs[0].surface.pointsPerSec;
  const double distEfficiency =
      serialPps > 0.0 ? dist[0].surface.pointsPerSec / serialPps : 0.0;
  std::cout << "\nsurface identical across all thread counts: "
            << (identical ? "yes" : "NO — determinism contract broken")
            << "\ncache-off surface identical to cache-on: "
            << (cacheIdentity ? "yes" : "NO — the cache changed results")
            << "\ndistributed surface identical at 1/2/4 workers: "
            << (distIdentical ? "yes" : "NO — worker-count invariance broken")
            << "\n1-worker distributed efficiency vs serial: "
            << report::num(distEfficiency, 4) << "\n\n";

  return writeBenchJson(
      "sweep", "BENCH_sweep.json", g_manifest, wall,
      [&](obs::JsonWriter& doc) {
        doc.boolean("smoke", smoke).count("seed", spec.seed);
        doc.count("points", runs[0].surface.points);
        doc.boolean("surface_identical", identical);
        doc.boolean("cache_identity", cacheIdentity);
        doc.boolean("dist_surface_identical", distIdentical);
        doc.num("dist_1worker_efficiency_per_sec", distEfficiency);
        doc.object("cache").count("hits", runs[0].surface.cacheHits);
        doc.count("misses", runs[0].surface.cacheMisses).end();
        doc.array("runs", obs::JsonLayout::Lines);
        for (const Run& r : runs) {
          doc.object().count("threads", r.threads);
          doc.count("points", r.surface.points);
          doc.count("classifications", r.surface.classifications);
          doc.num("points_per_sec", r.surface.pointsPerSec);
          doc.num("wall_seconds", r.seconds).end();
        }
        doc.end().array("distributed", obs::JsonLayout::Lines);
        for (const DistRun& r : dist) {
          doc.object().count("workers", r.workers);
          doc.count("points", r.surface.points);
          doc.count("commits", r.stats.commits);
          doc.count("duplicate_commits", r.stats.duplicateCommits);
          doc.count("steals", r.stats.steals);
          doc.num("dist_points_per_sec", r.surface.pointsPerSec);
          doc.num("wall_seconds", r.seconds).end();
        }
        doc.end();
      });
}

}  // namespace

int main(int argc, char** argv) {
  g_manifest = obs::RunManifest::collect("bench_sweep", argc, argv);
  return printExperiment();
}
