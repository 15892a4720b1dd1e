// The sweep engine's determinism contract, bit for bit: the surface is
// identical serial and at thread counts 1, 2 and 8; identical with the
// result cache on or off; and identical whether computed cold or across
// an interrupt/resume cycle at any thread count — including the rendered
// JSON document, which is what CI byte-compares.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "sweep/engine.hpp"
#include "sweep/output.hpp"
#include "sweep/spec.hpp"
#include "support/temp_path.hpp"

namespace {

using namespace fepia;

using fepia::testing::tmpPath;

/// A grid touching every dedup path of the linear family, with the
/// empirical estimator on so Monte-Carlo substreams are exercised too.
sweep::SweepSpec referenceSpec() {
  return sweep::parseSweepSpecString(
      "sweep determinism\nworkload linear\n"
      "axis scheme sensitivity normalized\naxis n 2 4\n"
      "axis beta 1.2 2.0\naxis kscale 1.0 100.0\n"
      "empirical on\nsamples 8\nseed 33\nchunk 2\n");
}

sweep::SweepSurface run(const sweep::SweepSpec& spec, std::size_t threads,
                        const sweep::SweepOptions& opts = {}) {
  std::unique_ptr<parallel::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<parallel::ThreadPool>(threads);
  return sweep::runSweep(spec, opts, pool.get());
}

/// The full per-point payload, bit for bit.
void expectSameSurface(const sweep::SweepSurface& a,
                       const sweep::SweepSurface& b, const char* what) {
  ASSERT_EQ(a.results.size(), b.results.size()) << what;
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_TRUE(sweep::bitIdentical(a.results[i], b.results[i]))
        << what << " diverges at point " << i;
  }
}

/// Renders the JSON document (without a manifest, which carries
/// run-specific wall times) for whole-document string comparison.
std::string renderJson(const sweep::SweepSpec& spec,
                       const sweep::SweepSurface& surface) {
  std::ostringstream os;
  sweep::writeSurfaceJson(os, spec, surface);
  return os.str();
}

/// Drops the run-metadata lines ("resumed_shards", "cache") that
/// legitimately differ between a cold and a resumed run — the same
/// filter CI applies for its byte comparison. Every result line stays.
std::string stripRunMetadata(const std::string& json) {
  std::istringstream in(json);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t start = line.find_first_not_of(' ');
    const std::string_view body =
        start == std::string::npos ? std::string_view{}
                                   : std::string_view(line).substr(start);
    if (body.rfind("\"resumed_shards\"", 0) == 0) continue;
    if (body.rfind("\"cache\"", 0) == 0) continue;
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace

TEST(SweepDeterminism, SurfaceIsThreadCountInvariant) {
  const sweep::SweepSpec spec = referenceSpec();
  const sweep::SweepSurface serial = run(spec, 0);
  ASSERT_TRUE(serial.complete);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const sweep::SweepSurface pooled = run(spec, threads);
    expectSameSurface(serial, pooled,
                      ("threads=" + std::to_string(threads)).c_str());
    // The rendered document must match verbatim, not just the doubles.
    EXPECT_EQ(renderJson(spec, serial), renderJson(spec, pooled))
        << "JSON diverges at threads=" << threads;
  }
}

TEST(SweepDeterminism, CacheOnAndOffAgreeBitForBit) {
  const sweep::SweepSpec spec = referenceSpec();
  const sweep::SweepSurface on = run(spec, 2);
  sweep::SweepOptions opts;
  opts.cacheEnabled = false;
  const sweep::SweepSurface off = run(spec, 2, opts);
  expectSameSurface(on, off, "cache on vs off");
  EXPECT_GT(on.cacheHits, 0u);   // the cache actually deduplicated
  EXPECT_EQ(off.cacheHits, 0u);  // and was actually off
}

TEST(SweepDeterminism, InterruptedThenResumedEqualsColdRun) {
  const sweep::SweepSpec spec = referenceSpec();
  const sweep::SweepSurface cold = run(spec, 0);

  // Interrupt at every possible shard boundary, resume at a different
  // thread count than the cold run or the first leg used.
  for (std::size_t stop = 1; stop < cold.shards; ++stop) {
    const std::string journal =
        tmpPath("sweep_det_resume_" + std::to_string(stop) + ".journal");
    std::remove(journal.c_str());
    sweep::SweepOptions first;
    first.journalPath = journal;
    first.stopAfterShards = stop;
    const sweep::SweepSurface partial = run(spec, 8, first);
    ASSERT_FALSE(partial.complete);

    sweep::SweepOptions second;
    second.journalPath = journal;
    second.resume = true;
    const sweep::SweepSurface resumed = run(spec, 2, second);
    ASSERT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.resumedShards, stop);
    expectSameSurface(cold, resumed,
                      ("stop=" + std::to_string(stop)).c_str());
    EXPECT_EQ(stripRunMetadata(renderJson(spec, cold)),
              stripRunMetadata(renderJson(spec, resumed)))
        << "JSON diverges after resume at stop=" << stop;
  }
}

TEST(SweepDeterminism, RepeatedRunsAreReproducible) {
  // Same spec, same process, fresh caches: byte-identical documents.
  const sweep::SweepSpec spec = referenceSpec();
  EXPECT_EQ(renderJson(spec, run(spec, 2)), renderJson(spec, run(spec, 2)));
}
