// Unit coverage of the sweep subsystem: spec parsing (defaults, axis
// validation, grid decode order, error line numbers), the exact-round-
// trip journal encoding, checkpoint journal replay (header validation,
// torn tails), the keyed result cache, and small end-to-end sweeps per
// workload including the closed-form agreement of the linear family.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "io/problem_io.hpp"
#include "radius/closed_forms.hpp"
#include "sweep/cache.hpp"
#include "sweep/engine.hpp"
#include "sweep/journal.hpp"
#include "sweep/output.hpp"
#include "sweep/spec.hpp"
#include "support/temp_path.hpp"
#include "support/tolerances.hpp"

namespace {

using namespace fepia;

using fepia::testing::tmpPath;

/// Asserts that parsing `text` throws io::ParseError on `line` with a
/// message containing `expect`.
void expectParseError(const std::string& text, std::size_t line,
                      const std::string& expect) {
  try {
    (void)sweep::parseSweepSpecString(text);
    FAIL() << "no ParseError for:\n" << text;
  } catch (const io::ParseError& e) {
    EXPECT_EQ(e.line(), line) << e.what();
    EXPECT_NE(std::string(e.what()).find(expect), std::string::npos)
        << "message was: " << e.what();
  }
}

}  // namespace

TEST(SweepSpec, MinimalLinearSpecGetsCanonicalDefaults) {
  const sweep::SweepSpec spec =
      sweep::parseSweepSpecString("workload linear\n");
  EXPECT_EQ(spec.workload, sweep::Workload::Linear);
  ASSERT_EQ(spec.axes.size(), 5u);
  // Defaulted axes appear in canonical order, one value each.
  const char* names[] = {"scheme", "n", "beta", "kscale", "origscale"};
  for (std::size_t a = 0; a < 5; ++a) {
    EXPECT_EQ(spec.axes[a].name, names[a]);
    EXPECT_EQ(spec.axes[a].values.size(), 1u);
  }
  EXPECT_EQ(spec.axes[0].values[0].token, "normalized");
  EXPECT_EQ(spec.axes[1].values[0].number, 4.0);
  EXPECT_EQ(spec.pointCount(), 1u);
  EXPECT_FALSE(spec.empirical);
  EXPECT_EQ(spec.chunk, 16u);
  EXPECT_EQ(spec.seed, 0x5EEDD1CEull);
}

TEST(SweepSpec, DeclaredAxesKeepOrderAndDefaultsAppend) {
  const sweep::SweepSpec spec = sweep::parseSweepSpecString(
      "sweep demo\nworkload linear\naxis beta 1.5 2.0\naxis n 2 4 8\n");
  EXPECT_EQ(spec.name, "demo");
  ASSERT_EQ(spec.axes.size(), 5u);
  EXPECT_EQ(spec.axes[0].name, "beta");
  EXPECT_EQ(spec.axes[1].name, "n");
  EXPECT_EQ(spec.axes[2].name, "scheme");  // defaults follow declarations
  EXPECT_EQ(spec.pointCount(), 6u);
}

TEST(SweepSpec, DecodeEnumeratesLastAxisFastest) {
  const sweep::SweepSpec spec = sweep::parseSweepSpecString(
      "workload linear\naxis beta 1.5 2.0\naxis n 2 4 8\n");
  // Grid is beta(2) x n(3) x three singleton defaults: id = b*3 + i.
  EXPECT_EQ(spec.valueAt(0, "beta").token, "1.5");
  EXPECT_EQ(spec.valueAt(0, "n").token, "2");
  EXPECT_EQ(spec.valueAt(2, "n").token, "8");
  EXPECT_EQ(spec.valueAt(3, "beta").token, "2.0");
  EXPECT_EQ(spec.valueAt(3, "n").token, "2");
  EXPECT_EQ(spec.valueAt(5, "n").token, "8");
  EXPECT_THROW((void)spec.valueAt(0, "frobnicate"), std::out_of_range);
}

TEST(SweepSpec, PointKeyIsCanonicalAndHashIgnoresCosmetics) {
  const sweep::SweepSpec a = sweep::parseSweepSpecString(
      "sweep one\nworkload linear\naxis n 2 4\nchunk 2\n");
  const sweep::SweepSpec b = sweep::parseSweepSpecString(
      "sweep two\nworkload linear\naxis n 2 4\nchunk 8\n");
  EXPECT_EQ(a.pointKey(1),
            "n=4;scheme=normalized;beta=1.2;kscale=1;origscale=1");
  // Name and chunk are cosmetic/layout: same computation, same hash.
  EXPECT_EQ(a.hash(), b.hash());
  const sweep::SweepSpec c =
      sweep::parseSweepSpecString("workload linear\naxis n 2 8\n");
  EXPECT_NE(a.hash(), c.hash());
  const sweep::SweepSpec d =
      sweep::parseSweepSpecString("workload linear\naxis n 2 4\nseed 7\n");
  EXPECT_NE(a.hash(), d.hash());
}

TEST(SweepSpec, MalformedSpecsReportLineNumbers) {
  expectParseError("", 1, "missing 'workload'");
  expectParseError("workload turbo\n", 1, "unknown workload");
  expectParseError("axis n 2\nworkload linear\n", 1, "before 'workload'");
  expectParseError("workload linear\naxis n\n", 2, "at least one value");
  expectParseError("workload linear\naxis frob 1\n", 2, "unknown axis");
  expectParseError("workload linear\naxis n 0\n", 2, "bad value");
  expectParseError("workload linear\naxis beta 1.0\n", 2, "must be > 1");
  expectParseError("workload linear\naxis kscale -2\n", 2, "must be > 0");
  expectParseError("workload hiperd\naxis jitter -0.5\n", 2, "must be >= 0");
  expectParseError("workload linear\naxis scheme turbo\n", 2, "bad value");
  expectParseError("workload linear\naxis n 2\naxis n 4\n", 3,
                   "duplicate axis");
  expectParseError("workload linear\nworkload linear\n", 2,
                   "duplicate 'workload'");
  expectParseError("workload linear\nseed banana\n", 2, "'seed'");
  expectParseError("workload linear\nempirical maybe\n", 2, "on|off");
  expectParseError("workload linear\nfrobnicate 3\n", 2, "unknown directive");
  expectParseError("workload linear\nsystem topo.hiperd\n", 2,
                   "only valid for the hiperd workload");
  expectParseError("workload alloc\naxis taufactor 0.9\n", 2, "must be > 1");
  expectParseError("workload alloc\naxis heuristic greedy\n", 2, "bad value");
}

TEST(SweepSpec, CommentsAndBlankLinesIgnored) {
  const sweep::SweepSpec spec = sweep::parseSweepSpecString(
      "# a comment\n\nworkload linear # trailing\naxis n 2 4  # two sizes\n");
  EXPECT_EQ(spec.axes[0].values.size(), 2u);
}

TEST(SweepSpec, DeriveSeedIsContentKeyed) {
  const std::uint64_t a = sweep::deriveSeed(42, "lin;n=4");
  EXPECT_EQ(a, sweep::deriveSeed(42, "lin;n=4"));
  EXPECT_NE(a, sweep::deriveSeed(42, "lin;n=8"));
  EXPECT_NE(a, sweep::deriveSeed(43, "lin;n=4"));
}

TEST(SweepJournal, DoubleEncodingRoundTripsExactly) {
  const double cases[] = {0.0,
                          -0.0,
                          1.0,
                          -1.0 / 3.0,
                          1e-310,  // subnormal
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::min(),
                          std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()};
  for (const double v : cases) {
    const std::string text = sweep::formatJournalDouble(v);
    double back = 12345.0;
    ASSERT_TRUE(sweep::parseJournalDouble(text, back)) << text;
    EXPECT_TRUE(sweep::bitIdentical(v, back)) << text;
  }
  double out = 0.0;
  EXPECT_FALSE(sweep::parseJournalDouble("banana", out));
  EXPECT_FALSE(sweep::parseJournalDouble("1.5x", out));
  EXPECT_FALSE(sweep::parseJournalDouble("", out));
}

TEST(SweepJournal, WriteThenReadRecoversCommittedShards) {
  const std::string path = tmpPath("sweep_journal_rt.txt");
  const std::uint64_t hash = 0xabcdef0123456789ull;
  std::vector<sweep::PointResult> points(4);
  points[0].analyticRho = 1.0 / 3.0;
  points[0].closedForm = std::numeric_limits<double>::infinity();
  points[0].classifications = 7;
  points[1].empirical = 1e-310;
  points[2].degraded = -0.0;
  points[3].makespan = 123.456;

  sweep::JournalWriter writer;
  writer.open(path, /*append=*/false, hash, /*points=*/4, /*chunk=*/2);
  ASSERT_TRUE(writer.active());
  writer.appendShard(0, 0, points.data(), 2);
  writer.appendShard(1, 2, points.data() + 2, 2);

  const sweep::JournalContents got = sweep::readJournal(path, hash, 4, 2, 2);
  EXPECT_EQ(got.doneShards, 2u);
  ASSERT_EQ(got.results.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(sweep::bitIdentical(got.results[i], points[i])) << i;
  }
}

TEST(SweepJournal, HeaderMismatchesAreRefused) {
  const std::string path = tmpPath("sweep_journal_hdr.txt");
  sweep::JournalWriter writer;
  writer.open(path, false, 0x1111ull, 4, 2);
  EXPECT_THROW((void)sweep::readJournal(path, 0x2222ull, 4, 2, 2),
               std::runtime_error);  // different spec
  EXPECT_THROW((void)sweep::readJournal(path, 0x1111ull, 8, 2, 4),
               std::runtime_error);  // different grid
  EXPECT_THROW((void)sweep::readJournal(path, 0x1111ull, 4, 4, 1),
               std::runtime_error);  // different shard layout
  EXPECT_THROW(
      (void)sweep::readJournal(tmpPath("no_such_journal.txt"), 1, 4, 2, 2),
      std::runtime_error);
  std::ofstream(path) << "not a journal\n";
  EXPECT_THROW((void)sweep::readJournal(path, 0x1111ull, 4, 2, 2),
               std::runtime_error);
  // A v1 journal counts classifications differently: refused, by type,
  // with both versions named.
  std::ofstream(path) << "fepia-sweep-journal v1\n"
                      << "spec 0000000000001111 points 4 chunk 2\n";
  try {
    (void)sweep::readJournal(path, 0x1111ull, 4, 2, 2);
    ADD_FAILURE() << "v1 journal was accepted";
  } catch (const sweep::JournalVersionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("v1"), std::string::npos) << what;
    EXPECT_NE(what.find("v2"), std::string::npos) << what;
  }
}

TEST(SweepJournal, TornTailIsToleratedNotCommitted) {
  const std::string path = tmpPath("sweep_journal_torn.txt");
  std::vector<sweep::PointResult> points(2);
  points[0].analyticRho = 0.5;
  sweep::JournalWriter writer;
  writer.open(path, false, 0x42ull, 4, 2);
  writer.appendShard(0, 0, points.data(), 2);
  // Simulate a crash mid-append: point lines without a commit marker,
  // the last one torn mid-token.
  std::ofstream out(path, std::ios::app);
  out << "point 2 " << sweep::formatJournalDouble(1.0)
      << " nan nan nan nan 0\npoint 3 0x1.8p+0 na";
  out.close();
  const sweep::JournalContents got = sweep::readJournal(path, 0x42ull, 4, 2, 2);
  EXPECT_EQ(got.doneShards, 1u);
  ASSERT_EQ(got.shardDone.size(), 2u);
  EXPECT_TRUE(got.shardDone[0]);
  EXPECT_FALSE(got.shardDone[1]);  // no marker: the tail does not count
}

TEST(SweepJournal, AppendAfterTornTailQuarantinesTheDebris) {
  const std::string path = tmpPath("sweep_journal_repair.txt");
  std::vector<sweep::PointResult> points(4);
  points[0].analyticRho = 0.25;
  points[2].analyticRho = 0.75;
  sweep::JournalWriter first;
  first.open(path, /*append=*/false, 0x42ull, 4, 2);
  first.appendShard(0, 0, points.data(), 2);
  // Crash mid-append of shard 1: a torn, newline-less final line.
  std::ofstream(path, std::ios::app) << "point 2 0x1.8p";

  // The resuming writer must start on a fresh line so its first record
  // does not concatenate onto the debris.
  sweep::JournalWriter second;
  second.open(path, /*append=*/true, 0x42ull, 4, 2);
  second.appendShard(1, 2, points.data() + 2, 2);

  const sweep::JournalContents got = sweep::readJournal(path, 0x42ull, 4, 2, 2);
  EXPECT_EQ(got.doneShards, 2u);
  EXPECT_TRUE(got.shardDone[0]);
  EXPECT_TRUE(got.shardDone[1]);
  EXPECT_TRUE(sweep::bitIdentical(got.results[2], points[2]));
}

TEST(SweepJournal, ShardsCommittedAfterAMalformedLineStillCount) {
  const std::string path = tmpPath("sweep_journal_after_torn.txt");
  std::vector<sweep::PointResult> points(4);
  points[1].analyticRho = 0.5;
  points[3].makespan = 9.0;
  sweep::JournalWriter writer;
  writer.open(path, /*append=*/false, 0x42ull, 4, 2);
  writer.appendShard(0, 0, points.data(), 2);
  // Old crash debris mid-file (as left by a pre-repair resume).
  std::ofstream(path, std::ios::app) << "point 2 0x1.8p\n";
  sweep::JournalWriter again;
  again.open(path, /*append=*/true, 0x42ull, 4, 2);
  again.appendShard(1, 2, points.data() + 2, 2);

  // Replay skips the debris instead of stopping, so shard 1's work is
  // not silently recomputed on every future resume.
  const sweep::JournalContents got = sweep::readJournal(path, 0x42ull, 4, 2, 2);
  EXPECT_EQ(got.doneShards, 2u);
  EXPECT_TRUE(got.shardDone[1]);
  EXPECT_TRUE(sweep::bitIdentical(got.results[1], points[1]));
  EXPECT_TRUE(sweep::bitIdentical(got.results[3], points[3]));
}

TEST(SweepCache, DeduplicatesByKeyAndCounts) {
  sweep::ResultCache cache;
  int computes = 0;
  const auto make = [&] {
    ++computes;
    return std::make_shared<const int>(computes);
  };
  const auto a = cache.get<int>("k1", make);
  const auto b = cache.get<int>("k1", make);
  const auto c = cache.get<int>("k2", make);
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(*a, 1);
  EXPECT_EQ(a.get(), b.get());  // same object, not a copy
  EXPECT_EQ(*c, 2);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);

  sweep::ResultCache off(/*enabled=*/false);
  computes = 0;
  (void)off.get<int>("k1", make);
  (void)off.get<int>("k1", make);
  EXPECT_EQ(computes, 2);  // disabled: always computes
  EXPECT_EQ(off.hits(), 0u);
  EXPECT_EQ(off.misses(), 2u);
}

TEST(SweepEngine, LinearSweepMatchesClosedForms) {
  const sweep::SweepSpec spec = sweep::parseSweepSpecString(
      "workload linear\naxis scheme sensitivity normalized\n"
      "axis n 2 4 8\naxis beta 1.2 2.0\nseed 42\nchunk 4\n");
  const sweep::SweepSurface surface = sweep::runSweep(spec);
  EXPECT_TRUE(surface.complete);
  EXPECT_EQ(surface.points, 12u);
  ASSERT_EQ(surface.results.size(), 12u);
  for (std::size_t id = 0; id < surface.points; ++id) {
    ASSERT_TRUE(surface.computed[id]);
    const sweep::PointResult& r = surface.results[id];
    ASSERT_TRUE(std::isfinite(r.analyticRho)) << id;
    ASSERT_TRUE(std::isfinite(r.closedForm)) << id;
    // The optimizer-found rho agrees with the paper's closed form.
    EXPECT_NEAR(r.analyticRho, r.closedForm,
                fepia::testing::kClosedFormAgreementTol)
        << spec.pointKey(id);
    if (spec.valueAt(id, "scheme").token == "sensitivity") {
      const double n = spec.valueAt(id, "n").number;
      EXPECT_NEAR(r.closedForm, radius::sensitivityLinearRadius(
                                    static_cast<std::size_t>(n)),
                  1e-12)
          << spec.pointKey(id);
    }
  }
  // The per-scheme instance is shared across beta values: dedup must
  // have registered cache traffic.
  EXPECT_GT(surface.cacheHits, 0u);
  EXPECT_GT(surface.cacheMisses, 0u);
}

TEST(SweepEngine, SensitivityRadiusIsConstantAcrossScales) {
  // S3.1 in miniature: the sensitivity-weighted radius depends only on n.
  const sweep::SweepSpec spec = sweep::parseSweepSpecString(
      "workload linear\naxis scheme sensitivity\naxis n 4\n"
      "axis beta 1.1 2.0 5.0\naxis kscale 1.0 100.0\n"
      "axis origscale 0.01 1.0\nseed 9\nchunk 4\n");
  const sweep::SweepSurface surface = sweep::runSweep(spec);
  ASSERT_TRUE(surface.complete);
  const double expected = radius::sensitivityLinearRadius(4);
  for (std::size_t id = 0; id < surface.points; ++id) {
    EXPECT_NEAR(surface.results[id].analyticRho, expected,
                fepia::testing::kClosedFormAgreementTol)
        << spec.pointKey(id);
  }
}

TEST(SweepEngine, AllocSweepProducesFiniteRhoAndMakespan) {
  const sweep::SweepSpec spec = sweep::parseSweepSpecString(
      "workload alloc\naxis heuristic mct min-min\naxis tasks 16\n"
      "axis machines 4\naxis taufactor 1.3 1.6\nseed 5\nchunk 2\n");
  const sweep::SweepSurface surface = sweep::runSweep(spec);
  ASSERT_TRUE(surface.complete);
  EXPECT_EQ(surface.points, 4u);
  for (std::size_t id = 0; id < surface.points; ++id) {
    const sweep::PointResult& r = surface.results[id];
    EXPECT_TRUE(std::isfinite(r.analyticRho)) << spec.pointKey(id);
    EXPECT_GE(r.analyticRho, 0.0) << spec.pointKey(id);
    EXPECT_GT(r.makespan, 0.0) << spec.pointKey(id);
  }
  // Looser tau admits more perturbation before violation.
  EXPECT_GT(surface.results[1].analyticRho, surface.results[0].analyticRho);
}

TEST(SweepEngine, HiperdSweepComputesAnalyticRho) {
  const sweep::SweepSpec spec = sweep::parseSweepSpecString(
      "workload hiperd\naxis jitter 0.0\naxis des off\nseed 3\nchunk 1\n");
  const sweep::SweepSurface surface = sweep::runSweep(spec);
  ASSERT_TRUE(surface.complete);
  ASSERT_EQ(surface.points, 1u);
  EXPECT_TRUE(std::isfinite(surface.results[0].analyticRho));
  EXPECT_GT(surface.results[0].analyticRho, 0.0);
  EXPECT_TRUE(std::isnan(surface.results[0].degraded));  // des off
}

TEST(SweepEngine, ResumeRequiresAJournal) {
  const sweep::SweepSpec spec =
      sweep::parseSweepSpecString("workload linear\naxis n 2 4\nchunk 1\n");
  sweep::SweepOptions opts;
  opts.resume = true;
  EXPECT_THROW((void)sweep::runSweep(spec, opts), std::invalid_argument);
  sweep::SweepOptions stop;
  stop.stopAfterShards = 1;
  EXPECT_THROW((void)sweep::runSweep(spec, stop), std::invalid_argument);
}

TEST(SweepEngine, CheckpointThenResumeCompletesTheSurface) {
  const sweep::SweepSpec spec = sweep::parseSweepSpecString(
      "workload linear\naxis scheme sensitivity normalized\n"
      "axis n 2 4\naxis beta 1.5 2.5\nseed 17\nchunk 2\n");
  const sweep::SweepSurface cold = sweep::runSweep(spec);
  ASSERT_TRUE(cold.complete);

  const std::string journal = tmpPath("sweep_engine_resume.journal");
  std::remove(journal.c_str());
  sweep::SweepOptions first;
  first.journalPath = journal;
  first.stopAfterShards = 2;
  const sweep::SweepSurface partial = sweep::runSweep(spec, first);
  EXPECT_FALSE(partial.complete);
  EXPECT_EQ(partial.computedShards, 2u);

  sweep::SweepOptions second;
  second.journalPath = journal;
  second.resume = true;
  const sweep::SweepSurface resumed = sweep::runSweep(spec, second);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.resumedShards, 2u);
  ASSERT_EQ(resumed.results.size(), cold.results.size());
  for (std::size_t i = 0; i < cold.results.size(); ++i) {
    EXPECT_TRUE(sweep::bitIdentical(resumed.results[i], cold.results[i])) << i;
  }

  // Resuming the same journal against a different spec is refused.
  const sweep::SweepSpec other = sweep::parseSweepSpecString(
      "workload linear\naxis scheme sensitivity normalized\n"
      "axis n 2 4\naxis beta 1.5 2.5\nseed 18\nchunk 2\n");
  EXPECT_THROW((void)sweep::runSweep(other, second), std::runtime_error);
}

TEST(SweepOutput, SummaryAndTablesCoverComputedPoints) {
  const sweep::SweepSpec spec = sweep::parseSweepSpecString(
      "workload linear\naxis n 2 4\naxis beta 1.5 2.5\nseed 1\nchunk 2\n");
  const sweep::SweepSurface surface = sweep::runSweep(spec);
  const sweep::SurfaceSummary summary = sweep::summarize(surface);
  EXPECT_EQ(summary.finitePoints, 4u);
  EXPECT_LE(summary.rhoMin, summary.rhoMax);
  EXPECT_LT(summary.worstClosedFormDeviation,
            fepia::testing::kClosedFormAgreementTol);

  std::ostringstream json;
  sweep::writeSurfaceJson(json, spec, surface);
  for (const char* key :
       {"\"sweep\"", "\"workload\": \"linear\"", "\"points\": 4",
        "\"complete\": true", "\"analytic_rho\"", "\"cache\""}) {
    EXPECT_NE(json.str().find(key), std::string::npos) << "missing " << key;
  }
}
