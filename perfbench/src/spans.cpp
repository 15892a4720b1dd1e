#include "spans.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string_view>

namespace perfbench {

namespace obs = fepia::obs;
using obs::SpanRecord;

namespace {

struct Interval {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

Interval of(const SpanRecord& r) { return {r.startNs, r.startNs + r.durNs}; }

bool is(const SpanRecord& r, std::string_view name) { return r.name == name; }

bool fromBench(const SpanRecord& r) {
  return std::string_view(r.name).rfind("bench.", 0) == 0;
}

double seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Sorted, disjoint union of `v`.
std::vector<Interval> merged(std::vector<Interval> v) {
  std::sort(v.begin(), v.end(), [](const Interval& a, const Interval& b) {
    return a.begin < b.begin;
  });
  std::vector<Interval> out;
  for (const Interval& i : v) {
    if (i.end <= i.begin) continue;
    if (!out.empty() && i.begin <= out.back().end) {
      out.back().end = std::max(out.back().end, i.end);
    } else {
      out.push_back(i);
    }
  }
  return out;
}

std::uint64_t length(const std::vector<Interval>& disjoint) {
  std::uint64_t total = 0;
  for (const Interval& i : disjoint) total += i.end - i.begin;
  return total;
}

/// Length of (union of a) ∩ (union of b).
std::uint64_t overlap(std::vector<Interval> a, std::vector<Interval> b) {
  const std::vector<Interval> x = merged(std::move(a));
  const std::vector<Interval> y = merged(std::move(b));
  std::uint64_t total = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < x.size() && j < y.size()) {
    const std::uint64_t lo = std::max(x[i].begin, y[j].begin);
    const std::uint64_t hi = std::min(x[i].end, y[j].end);
    if (hi > lo) total += hi - lo;
    if (x[i].end < y[j].end) {
      ++i;
    } else {
      ++j;
    }
  }
  return total;
}

bool contains(const Interval& outer, std::uint64_t t) {
  return t >= outer.begin && t <= outer.end;
}

/// The estimator's march/tail split. A chunk belongs to the estimate on
/// its own thread that contains it (serial path), else to the one
/// estimate whose interval holds its start (pool path); a chunk that
/// several concurrent estimates could own is left out.
struct EstimateSplit {
  std::size_t estimates = 0;
  double estimateS = 0.0;
  double marchS = 0.0;
  double tailS = 0.0;
  double imbalanceSum = 0.0;
};

EstimateSplit splitEstimates(const std::vector<SpanRecord>& records) {
  std::vector<const SpanRecord*> estimates;
  for (const SpanRecord& r : records) {
    if (is(r, "validate.estimate")) estimates.push_back(&r);
  }
  std::vector<std::vector<const SpanRecord*>> chunks(estimates.size());
  for (const SpanRecord& c : records) {
    if (!is(c, "validate.chunk")) continue;
    std::size_t owner = estimates.size();
    std::size_t candidates = 0;
    for (std::size_t e = 0; e < estimates.size(); ++e) {
      if (!contains(of(*estimates[e]), c.startNs)) continue;
      if (estimates[e]->tid == c.tid) {
        owner = e;
        candidates = 1;
        break;
      }
      ++candidates;
      owner = e;
    }
    if (candidates == 1) chunks[owner].push_back(&c);
  }
  EstimateSplit split;
  for (std::size_t e = 0; e < estimates.size(); ++e) {
    if (chunks[e].empty()) continue;
    const Interval est = of(*estimates[e]);
    std::uint64_t lastEnd = est.begin;
    double longest = 0.0;
    double total = 0.0;
    for (const SpanRecord* c : chunks[e]) {
      lastEnd = std::max(lastEnd, std::min(of(*c).end, est.end));
      longest = std::max(longest, seconds(c->durNs));
      total += seconds(c->durNs);
    }
    ++split.estimates;
    split.estimateS += seconds(est.end - est.begin);
    split.marchS += seconds(lastEnd - est.begin);
    split.tailS += seconds(est.end - lastEnd);
    const double mean = total / static_cast<double>(chunks[e].size());
    split.imbalanceSum += mean > 0.0 ? longest / mean : 1.0;
  }
  return split;
}

/// Length of `i` ∩ `disjoint` (sorted, disjoint intervals).
std::uint64_t overlapSorted(const Interval& i,
                            const std::vector<Interval>& disjoint) {
  auto it = std::lower_bound(
      disjoint.begin(), disjoint.end(), i.begin,
      [](const Interval& d, std::uint64_t t) { return d.end < t; });
  std::uint64_t total = 0;
  for (; it != disjoint.end() && it->begin < i.end; ++it) {
    const std::uint64_t lo = std::max(it->begin, i.begin);
    const std::uint64_t hi = std::min(it->end, i.end);
    if (hi > lo) total += hi - lo;
  }
  return total;
}

/// registry.solve time minus the validate.estimate spans it contains on
/// its own thread.
double registrySelfSeconds(const std::vector<SpanRecord>& records) {
  std::vector<const SpanRecord*> estimates;
  for (const SpanRecord& r : records) {
    if (is(r, "validate.estimate")) estimates.push_back(&r);
  }
  double total = 0.0;
  for (const SpanRecord& solve : records) {
    if (!is(solve, "registry.solve")) continue;
    const Interval s = of(solve);
    std::vector<Interval> inside;
    for (const SpanRecord* e : estimates) {
      if (e->tid == solve.tid && contains(s, e->startNs)) {
        inside.push_back(of(*e));
      }
    }
    total += seconds(s.end - s.begin) -
             seconds(overlap(std::move(inside), {s}));
  }
  return total;
}

struct Totals {
  double seconds = 0.0;
  std::size_t count = 0;
};

Totals totalOf(const std::vector<SpanRecord>& records, std::string_view name) {
  Totals t;
  for (const SpanRecord& r : records) {
    if (!is(r, name)) continue;
    t.seconds += seconds(r.durNs);
    ++t.count;
  }
  return t;
}

/// Share of the pool's thread time inside estimates spent in tasks.
double poolBusyFrac(const std::vector<SpanRecord>& records,
                    std::size_t threads) {
  if (threads == 0) return 0.0;
  std::vector<Interval> estimates;
  for (const SpanRecord& r : records) {
    if (is(r, "validate.estimate")) estimates.push_back(of(r));
  }
  const std::vector<Interval> disjoint = merged(std::move(estimates));
  const std::uint64_t wall = length(disjoint);
  if (wall == 0) return 0.0;
  std::uint64_t busy = 0;
  for (const SpanRecord& r : records) {
    if (is(r, "pool.task")) busy += overlapSorted(of(r), disjoint);
  }
  return static_cast<double>(busy) /
         (static_cast<double>(threads) * static_cast<double>(wall));
}

/// 1 - (time program spans cover on each bench.worker thread) / (that
/// thread's bench.worker time), over all such threads.
double workerIdleFrac(const std::vector<SpanRecord>& records) {
  std::uint64_t wall = 0;
  std::uint64_t busy = 0;
  for (const SpanRecord& w : records) {
    if (!is(w, "bench.worker")) continue;
    const Interval wi = of(w);
    std::vector<Interval> work;
    for (const SpanRecord& r : records) {
      if (r.tid == w.tid && !fromBench(r) && contains(wi, r.startNs)) {
        work.push_back(of(r));
      }
    }
    wall += wi.end - wi.begin;
    busy += overlap(std::move(work), {wi});
  }
  if (wall == 0) return 0.0;
  return 1.0 - static_cast<double>(busy) / static_cast<double>(wall);
}

}  // namespace

double shardSeconds(const std::vector<SpanRecord>& records) {
  return totalOf(records, "sweep.shard").seconds;
}

void addLayerMetrics(Outcome& out, const LayerReadings& in,
                     const std::vector<SpanRecord>& records) {
  const double ops = in.ops > 0 ? static_cast<double>(in.ops) : 1.0;

  std::vector<Interval> windows;
  std::vector<Interval> anySpan;
  std::vector<Interval> programSpan;
  for (const SpanRecord& r : records) {
    if (is(r, "bench.window")) {
      windows.push_back(of(r));
      continue;
    }
    anySpan.push_back(of(r));
    if (!fromBench(r)) programSpan.push_back(of(r));
  }
  const std::uint64_t wall = length(merged(windows));
  const double wallD = wall > 0 ? static_cast<double>(wall) : 1.0;
  const double covered = static_cast<double>(overlap(anySpan, windows)) / wallD;
  const double programCovered =
      static_cast<double>(overlap(programSpan, windows)) / wallD;

  const EstimateSplit split = splitEstimates(records);
  const Totals des = totalOf(records, "des.pipeline");
  const double sweepShard =
      in.sweepShardS >= 0.0 ? in.sweepShardS : shardSeconds(records) / ops;

  out.add("io.parse_ms", in.ioParseMs, "ms");
  out.add("server.ping_rtt_us", in.serverPingRttUs, "us");
  out.add("server.roundtrip_overhead_ms", in.serverRoundtripOverheadMs, "ms");
  out.add("server.session_hit_frac", in.serverSessionHitFrac, "ratio");
  out.add("server.overloaded", in.serverOverloaded, "count");
  out.add("server.deadline_expired", in.serverDeadlineExpired, "count");
  out.add("registry.self_s", registrySelfSeconds(records) / ops, "s");
  out.add("registry.fallbacks", in.registryFallbacks, "count");
  out.add("validate.estimate_s", split.estimateS / ops, "s");
  out.add("validate.march_s", split.marchS / ops, "s");
  out.add("validate.tail_s", split.tailS / ops, "s");
  out.add("validate.chunk_imbalance",
          split.estimates > 0
              ? split.imbalanceSum / static_cast<double>(split.estimates)
              : 0.0,
          "ratio");
  out.add("validate.classifications", in.validateClassifications, "count");
  out.add("validate.boundary_hit_frac", in.validateBoundaryHitFrac, "ratio");
  out.add("classify.kernel_s", in.classifyKernelS, "s");
  out.add("classify.kernel_frac", in.classifyKernelFrac, "ratio");
  out.add("classify.lanes_per_block", in.classifyLanesPerBlock, "count");
  out.add("classify.lanes", in.classifyLanes, "count");
  out.add("pool.busy_frac", poolBusyFrac(records, in.poolThreads), "ratio");
  out.add("pool.wait_us_p50", in.poolWaitUsP50, "us");
  out.add("des.pipeline_s", des.seconds / ops, "s");
  out.add("des.pipelines", static_cast<double>(des.count) / ops, "count");
  out.add("des.events_per_s", in.desEventsPerS, "1/s");
  out.add("des.queue_high_water", in.desQueueHighWater, "count");
  out.add("sweep.shard_s", sweepShard, "s");
  out.add("sweep.cache_hit_frac", in.sweepCacheHitFrac, "ratio");
  out.add("dist.worker_idle_frac", workerIdleFrac(records), "ratio");
  out.add("dist.useful_commit_frac", in.distUsefulCommitFrac, "ratio");
  out.add("dist.steals", in.distSteals, "count");
  out.add("dist.reissues", in.distReissues, "count");
  out.add("trace.overhead_frac", in.traceOverheadFrac, "ratio");
  out.add("trace.unattributed_frac", 1.0 - covered, "ratio");
  out.add("trace.program_frac", programCovered, "ratio");

  if (wall == 0) {
    out.fail("traced run recorded no bench.window span");
  } else if (covered < 0.9) {
    std::ostringstream msg;
    msg << "spans cover only " << covered * 100.0
        << "% of the traced wall time (need >= 90%)";
    out.fail(msg.str());
  }
  if (split.estimateS > 0.0) {
    const double gap = std::fabs(split.marchS + split.tailS - split.estimateS) /
                       split.estimateS;
    if (gap > 0.05) {
      std::ostringstream msg;
      msg << "validate.march_s + validate.tail_s misses the estimate span "
             "time by "
          << gap * 100.0 << "%";
      out.fail(msg.str());
    }
  }
}

}  // namespace perfbench
