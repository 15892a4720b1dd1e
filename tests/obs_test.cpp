// Unit tests for the observability layer: JSON primitives, metrics
// (counters / gauges / histograms / registry), run manifests, span
// nesting, Chrome trace export, and the zero-cost-when-disabled
// contract.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/clock.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "server/wire.hpp"

namespace {

using namespace fepia;

// ----- allocation counting (for the disabled-span zero-cost test) ------
//
// Replacing the global allocation functions lets a test assert a code
// region performs no heap allocation at all. Only the counting matters;
// everything forwards to malloc/free.

std::atomic<std::uint64_t> g_allocations{0};

void* countedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* countedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return countedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return countedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

std::string jsonString(std::string_view s) {
  std::ostringstream os;
  obs::writeJsonString(os, s);
  return os.str();
}

// ----- JSON primitives -------------------------------------------------

TEST(ObsJson, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(jsonString("plain"), "\"plain\"");
  EXPECT_EQ(jsonString("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(jsonString("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(jsonString("a\nb\tc"), "\"a\\nb\\tc\"");
  EXPECT_EQ(jsonString(std::string_view("\x01", 1)), "\"\\u0001\"");
}

TEST(ObsJson, NumbersRoundTripAndNonFiniteIsNull) {
  std::ostringstream os;
  obs::writeJsonNumber(os, 0.1);
  EXPECT_EQ(std::stod(os.str()), 0.1);
  std::ostringstream inf;
  obs::writeJsonNumber(inf, std::numeric_limits<double>::infinity());
  EXPECT_EQ(inf.str(), "null");
  std::ostringstream nan;
  obs::writeJsonNumber(nan, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(nan.str(), "null");
}

TEST(ObsJson, FieldsWriteMembersInCallOrder) {
  obs::JsonFields fields;
  fields.str("k\"ey", "a\\b")
      .num("x", 0.5)
      .num("inf", std::numeric_limits<double>::infinity())
      .count("n", 18446744073709551615ull)
      .boolean("ok", true)
      .raw("list", "[1,2]");
  const std::string members =
      ",\"k\\\"ey\":\"a\\\\b\",\"x\":0.5,\"inf\":null,"
      "\"n\":18446744073709551615,\"ok\":true,\"list\":[1,2]";
  EXPECT_EQ(fields.members(), members);
  EXPECT_EQ(fields.object(), "{" + members.substr(1) + "}");
  EXPECT_TRUE(server::parseJson(fields.object()).has_value());
  EXPECT_EQ(obs::JsonFields().object(), "{}");
  EXPECT_EQ(obs::JsonFields().members(), "");
}

// The tests below check emitted documents with server::parseJson, the
// tree's one JSON parser; these two pin that it is strict enough to.
TEST(ObsJson, ValidatorAcceptsAndRejects) {
  EXPECT_TRUE(server::parseJson("{}").has_value());
  EXPECT_TRUE(
      server::parseJson(R"({"a": [1, 2.5, -3e4], "b": "x\ny"})").has_value());
  EXPECT_TRUE(server::parseJson(" [true, false, null] ").has_value());
  EXPECT_FALSE(server::parseJson("").has_value());
  EXPECT_FALSE(server::parseJson("{").has_value());
  EXPECT_FALSE(server::parseJson("{\"a\": 1,}").has_value());
  EXPECT_FALSE(server::parseJson("[1] [2]").has_value());
  EXPECT_FALSE(server::parseJson("{'a': 1}").has_value());
  EXPECT_FALSE(server::parseJson("[01]").has_value());
}

/// The 17-significant-digit contract at the edges of the double grid:
/// the printed text must strtod back to the exact same bits.
TEST(ObsJson, NumberRoundTripsExtremeDoubles) {
  const double cases[] = {
      5e-324,                                    // smallest subnormal
      2.2250738585072014e-308,                   // DBL_MIN
      4.9406564584124654e-310,                   // mid-subnormal
      1.7976931348623157e308,                    // DBL_MAX
      -1.7976931348623157e308,
      0.0,
      9007199254740993.0,                        // 2^53 + 1 territory
      1.0 / 3.0,
  };
  for (const double x : cases) {
    std::ostringstream os;
    obs::writeJsonNumber(os, x);
    const std::string text = os.str();
    SCOPED_TRACE(text);
    EXPECT_TRUE(server::parseJson(text).has_value());
    char* end = nullptr;
    const double back = std::strtod(text.c_str(), &end);
    EXPECT_EQ(end, text.c_str() + text.size());
    EXPECT_EQ(std::memcmp(&back, &x, sizeof x), 0)
        << "bits changed across the round trip";
  }
  // Negative zero must keep its sign through the writer.
  std::ostringstream nz;
  obs::writeJsonNumber(nz, -0.0);
  const double back = std::strtod(nz.str().c_str(), nullptr);
  EXPECT_TRUE(std::signbit(back));
}

TEST(ObsJson, ValidatorNumberAndDepthEdgeCases) {
  // Number torture: a lone minus, bare dots, dangling exponents.
  EXPECT_FALSE(server::parseJson("-").has_value());
  EXPECT_FALSE(server::parseJson("[-]").has_value());
  EXPECT_FALSE(server::parseJson("-.").has_value());
  EXPECT_FALSE(server::parseJson("1.").has_value());
  EXPECT_FALSE(server::parseJson(".5").has_value());
  EXPECT_FALSE(server::parseJson("1e").has_value());
  EXPECT_FALSE(server::parseJson("1e+").has_value());
  EXPECT_TRUE(server::parseJson("-0").has_value());
  EXPECT_TRUE(server::parseJson("1e+9").has_value());
  EXPECT_TRUE(server::parseJson("-0.5E-3").has_value());

  // Trailing garbage after a complete value.
  EXPECT_FALSE(server::parseJson("123x").has_value());
  EXPECT_FALSE(server::parseJson("{} extra").has_value());
  EXPECT_FALSE(server::parseJson("truee").has_value());
  EXPECT_FALSE(server::parseJson("\"unterminated").has_value());

  // Nesting depth: the parser's cap parses, the recursion bomb is
  // rejected instead of overflowing the parser's stack.
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_TRUE(server::parseJson(nested(64)).has_value());
  EXPECT_FALSE(server::parseJson(nested(100'000)).has_value());
}

// ----- counters (the escaping fix shared with src/trace) ---------------

TEST(ObsCounters, WriteJsonEscapesHostileNames) {
  obs::CounterSet counters;
  counters.bump("cache \"hot\" path\n", 3);
  counters.bump("plain", 1);
  std::ostringstream os;
  counters.writeJson(os);
  EXPECT_TRUE(server::parseJson(os.str()).has_value()) << os.str();
  EXPECT_NE(os.str().find("\\\"hot\\\""), std::string::npos);
}

TEST(ObsCounters, BumpSetMergeValue) {
  obs::CounterSet a;
  a.bump("x");
  a.bump("x", 4);
  a.set("y", 7);
  obs::CounterSet b;
  b.bump("x", 10);
  b.bump("z", 2);
  a.merge(b);
  EXPECT_EQ(a.value("x"), 15u);
  EXPECT_EQ(a.value("y"), 7u);
  EXPECT_EQ(a.value("z"), 2u);
  EXPECT_EQ(a.value("missing"), 0u);
}

// ----- histograms ------------------------------------------------------

TEST(ObsHistogram, BucketBoundariesAreInclusiveUpper) {
  obs::Histogram h({1.0, 10.0, 100.0});
  h.record(0.5);    // <= 1
  h.record(1.0);    // boundary: still the first bucket (le semantics)
  h.record(1.0001); // second bucket
  h.record(10.0);   // second bucket boundary
  h.record(100.0);  // third bucket boundary
  h.record(100.5);  // overflow
  const std::vector<std::uint64_t> expected{2, 2, 1, 1};
  EXPECT_EQ(h.bucketCounts(), expected);
  EXPECT_EQ(h.overflowCount(), 1u);
  EXPECT_EQ(h.count(), 6u);
}

TEST(ObsHistogram, OverflowBucketHandlesInfinityAndIgnoresNaN) {
  obs::Histogram h({1.0});
  h.record(std::numeric_limits<double>::infinity());
  h.record(std::numeric_limits<double>::quiet_NaN());
  h.record(0.5);
  EXPECT_EQ(h.count(), 2u);  // NaN dropped
  EXPECT_EQ(h.overflowCount(), 1u);
  EXPECT_EQ(h.sum(), 0.5);  // +inf excluded from the moments
  EXPECT_EQ(h.minSeen(), 0.5);
  EXPECT_EQ(h.maxSeen(), 0.5);
}

TEST(ObsHistogram, RejectsBadBounds) {
  EXPECT_THROW(obs::Histogram({}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({1.0, std::numeric_limits<double>::infinity()}),
               std::invalid_argument);
  EXPECT_THROW(obs::Histogram::exponential(0.0, 2.0, 4), std::invalid_argument);
  EXPECT_THROW(obs::Histogram::exponential(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(obs::Histogram::exponential(1.0, 2.0, 0), std::invalid_argument);
}

TEST(ObsHistogram, ExponentialLadderAndMerge) {
  obs::Histogram a = obs::Histogram::exponential(1.0, 4.0, 3);
  const std::vector<double> bounds{1.0, 4.0, 16.0};
  EXPECT_EQ(a.upperBounds(), bounds);

  obs::Histogram b = obs::Histogram::exponential(1.0, 4.0, 3);
  a.record(0.5);
  b.record(3.0);
  b.record(1e9);  // overflow
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.overflowCount(), 1u);
  EXPECT_EQ(a.minSeen(), 0.5);
  EXPECT_EQ(a.maxSeen(), 1e9);

  obs::Histogram mismatched({2.0});
  EXPECT_THROW(a.merge(mismatched), std::invalid_argument);
}

TEST(ObsHistogram, WriteJsonMarksOverflowAsNullBound) {
  obs::Histogram h({5.0});
  h.record(3.0);
  h.record(7.0);
  std::ostringstream os;
  h.writeJson(os);
  EXPECT_TRUE(server::parseJson(os.str()).has_value()) << os.str();
  EXPECT_NE(os.str().find("\"le\": null"), std::string::npos);
}

// ----- registry --------------------------------------------------------

TEST(ObsRegistry, GaugesSetAndHighWater) {
  obs::Registry r;
  r.setGauge("depth", 4.0);
  r.maxGauge("depth", 2.0);  // lower: ignored
  EXPECT_EQ(r.gauge("depth"), 4.0);
  r.maxGauge("depth", 9.0);
  EXPECT_EQ(r.gauge("depth"), 9.0);
  EXPECT_EQ(r.gauge("absent"), 0.0);
}

TEST(ObsRegistry, MergeAddsCountersMaxesGaugesMergesHistograms) {
  obs::Registry a;
  a.counters().bump("evals", 10);
  a.setGauge("queue", 3.0);
  a.histogram("lat", {1.0, 2.0}).record(0.5);

  obs::Registry b;
  b.counters().bump("evals", 5);
  b.setGauge("queue", 8.0);
  b.histogram("lat", {1.0, 2.0}).record(1.5);

  a.merge(b);
  EXPECT_EQ(a.counters().value("evals"), 15u);
  EXPECT_EQ(a.gauge("queue"), 8.0);
  const obs::Histogram* h = a.findHistogram("lat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 2u);
}

// Regression: merging registries whose same-named histograms disagree on
// bucket bounds used to die on a bare assert deep in Histogram::merge.
// It must surface as a typed error that names the offending histogram
// and both bound sets, so a sharded sweep can report which metric was
// misconfigured.
TEST(ObsRegistry, MergeMismatchedHistogramBoundsThrowsNamedError) {
  obs::Registry a;
  a.histogram("shard_ms", {1.0, 2.0, 4.0}).record(0.5);
  obs::Registry b;
  b.histogram("shard_ms", {1.0, 2.0, 8.0}).record(0.5);

  try {
    a.merge(b);
    FAIL() << "merge with mismatched bounds did not throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard_ms"), std::string::npos) << what;
    EXPECT_NE(what.find('4'), std::string::npos) << what;
    EXPECT_NE(what.find('8'), std::string::npos) << what;
  }

  // The failed merge must not corrupt the destination.
  const obs::Histogram* h = a.findHistogram("shard_ms");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);

  // Matching bounds still merge fine after the error.
  obs::Registry c;
  c.histogram("shard_ms", {1.0, 2.0, 4.0}).record(3.0);
  a.merge(c);
  EXPECT_EQ(a.findHistogram("shard_ms")->count(), 2u);
}

TEST(ObsRegistry, WriteJsonIsValidAndInsertionOrdered) {
  obs::Registry r;
  r.counters().bump("b_first", 1);
  r.counters().bump("a_second", 2);
  r.setGauge("g", 1.5);
  r.histogram("h", {1.0}).record(0.5);
  std::ostringstream os;
  r.writeJson(os);
  const std::string doc = os.str();
  EXPECT_TRUE(server::parseJson(doc).has_value()) << doc;
  EXPECT_LT(doc.find("b_first"), doc.find("a_second"));
}

// ----- run manifest ----------------------------------------------------

TEST(ObsManifest, CollectFillsProvenanceAndWriteJsonParses) {
  const char* argv[] = {"tool", "search", "--seed", "42"};
  obs::RunManifest m = obs::RunManifest::collect("tool search", 4, argv);
  EXPECT_EQ(m.tool, "tool search");
  EXPECT_FALSE(m.gitSha.empty());
  EXPECT_FALSE(m.compiler.empty());
  ASSERT_EQ(m.args.size(), 3u);  // argv[0] excluded
  EXPECT_EQ(m.args[0], "search");
  m.seed = 42;
  m.threads = 2;
  m.wallSeconds = 1.25;
  std::ostringstream os;
  m.writeJson(os);
  EXPECT_TRUE(server::parseJson(os.str()).has_value()) << os.str();
  EXPECT_NE(os.str().find("\"git_sha\""), std::string::npos);
  EXPECT_NE(os.str().find("\"wall_seconds\""), std::string::npos);
}

// ----- spans -----------------------------------------------------------

TEST(ObsSpan, HierarchicalIdsFollowNesting) {
  obs::TraceCollector& tc = obs::TraceCollector::instance();
  tc.start();
  {
    obs::Span outer("outer");
    { obs::Span inner("inner"); }
    { obs::Span inner2("inner2"); }
  }
  { obs::Span root2("root2"); }
  tc.stop();
  const std::vector<obs::SpanRecord> recs = tc.collect();
  ASSERT_EQ(recs.size(), 4u);

  // Records close innermost-first: inner, inner2, outer, root2.
  const obs::SpanRecord& inner = recs[0];
  const obs::SpanRecord& inner2 = recs[1];
  const obs::SpanRecord& outer = recs[2];
  const obs::SpanRecord& root2 = recs[3];
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_STREQ(root2.name, "root2");
  EXPECT_EQ(inner.id, outer.id + ".0");
  EXPECT_EQ(inner2.id, outer.id + ".1");
  EXPECT_NE(outer.id, root2.id);
  EXPECT_EQ(outer.tid, root2.tid);
  EXPECT_GE(outer.durNs, inner.durNs);
}

TEST(ObsSpan, ArgsAreRecorded) {
  obs::TraceCollector& tc = obs::TraceCollector::instance();
  tc.start();
  { FEPIA_SPAN_ARG("work", "chunk", 17); }
  tc.stop();
  const std::vector<obs::SpanRecord> recs = tc.collect();
  ASSERT_EQ(recs.size(), 1u);
  ASSERT_NE(recs[0].argName, nullptr);
  EXPECT_STREQ(recs[0].argName, "chunk");
  EXPECT_EQ(recs[0].arg, 17u);
}

TEST(ObsSpan, ChromeTraceExportIsValidJson) {
  obs::TraceCollector& tc = obs::TraceCollector::instance();
  tc.start();
  {
    obs::Span outer("outer \"quoted\"");
    { FEPIA_SPAN_ARG("inner", "gen", 3); }
  }
  tc.stop();
  const std::vector<obs::SpanRecord> recs = tc.collect();
  std::ostringstream os;
  obs::writeChromeTrace(os, recs, tc.baseNanos());
  EXPECT_TRUE(server::parseJson(os.str()).has_value()) << os.str();
  EXPECT_NE(os.str().find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(os.str().find("\"ph\": \"X\""), std::string::npos);
}

TEST(ObsSpan, DisabledSpansAllocateNothing) {
  obs::TraceCollector& tc = obs::TraceCollector::instance();
  tc.stop();
  (void)tc.collect();  // flush so nothing is pending
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    FEPIA_SPAN("disabled");
    FEPIA_SPAN_ARG("disabled_arg", "i", i);
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before)
      << "disabled spans must not touch the heap (zero-cost contract)";
}

TEST(ObsSpan, TimingFlagDefaultsOffAndToggles) {
  // Other tests may have left it on; establish both transitions.
  obs::setTimingEnabled(false);
  EXPECT_FALSE(obs::timingEnabled());
  obs::setTimingEnabled(true);
  EXPECT_TRUE(obs::timingEnabled());
  obs::setTimingEnabled(false);
}

// ----- clock -----------------------------------------------------------

TEST(ObsClock, StopwatchIsMonotonic) {
  const obs::Stopwatch sw;
  const std::uint64_t a = sw.elapsedNanos();
  const std::uint64_t b = sw.elapsedNanos();
  EXPECT_GE(b, a);
  obs::Stopwatch sw2;
  sw2.restart();
  EXPECT_GE(sw2.elapsedSeconds(), 0.0);
}

}  // namespace
