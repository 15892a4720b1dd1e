#include "des/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/span.hpp"
#include "rng/distributions.hpp"

namespace fepia::des {

namespace {

/// Least-squares slope of y against its index.
double slope(const std::vector<double>& y) {
  const std::size_t n = y.size();
  if (n < 2) return 0.0;
  const double nn = static_cast<double>(n);
  const double meanX = (nn - 1.0) / 2.0;
  double meanY = 0.0;
  for (double v : y) meanY += v;
  meanY /= nn;
  double sxy = 0.0, sxx = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = static_cast<double>(i) - meanX;
    sxy += dx * (y[i] - meanY);
    sxx += dx * dx;
  }
  return sxx == 0.0 ? 0.0 : sxy / sxx;
}

/// Leading generations excluded from statistics.
std::size_t warmupOf(const PipelineOptions& opts) {
  return static_cast<std::size_t>(opts.warmupFraction *
                                  static_cast<double>(opts.generations));
}

}  // namespace

/// Static wiring of a pipeline, derived once per system.
struct PipelineKernel::Wiring {
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  std::size_t apps = 0, messages = 0, machines = 0, links = 0;
  std::vector<std::uint32_t> appMachine;
  std::vector<std::uint32_t> inDegree;
  std::vector<std::uint32_t> sources;  ///< apps without inputs, ascending
  std::vector<std::vector<std::uint32_t>> outgoing;  ///< app -> messages
  std::vector<std::uint32_t> msgDst;
  std::vector<std::uint32_t> msgLink;
  std::vector<double> msgBandwidth;
  /// Row of app a in the completion-time table, or kNoSlot when no path
  /// ends at a (its completion times are never read).
  std::vector<std::uint32_t> terminalSlot;
  std::vector<std::uint32_t> pathSlot;  ///< row of each path's last app
  std::size_t terminals = 0;

  explicit Wiring(const hiperd::System& sys)
      : apps(sys.applicationCount()),
        messages(sys.messageCount()),
        machines(sys.machineCount()),
        links(sys.linkCount()) {
    // Events carry app, message and machine ids in 32 bits and failover
    // hop counts (< machines) in 16.
    constexpr std::size_t kMax32 = std::numeric_limits<std::uint32_t>::max();
    if (apps > kMax32 || messages > kMax32 || links > kMax32 ||
        machines > std::size_t{1} << 16) {
      throw std::invalid_argument(
          "des::simulatePipeline: system too large for the event encoding");
    }
    for (std::size_t a = 0; a < apps; ++a) {
      appMachine.push_back(
          static_cast<std::uint32_t>(sys.application(a).machine));
    }
    inDegree.assign(apps, 0);
    outgoing.resize(apps);
    for (std::size_t k = 0; k < messages; ++k) {
      const hiperd::Message& msg = sys.message(k);
      ++inDegree[msg.dstApp];
      outgoing[msg.srcApp].push_back(static_cast<std::uint32_t>(k));
      msgDst.push_back(static_cast<std::uint32_t>(msg.dstApp));
      msgLink.push_back(static_cast<std::uint32_t>(msg.link));
      msgBandwidth.push_back(sys.link(msg.link).bandwidthBytesPerSec);
    }
    for (std::size_t a = 0; a < apps; ++a) {
      if (inDegree[a] == 0) sources.push_back(static_cast<std::uint32_t>(a));
    }

    // The pipeline protocol requires an acyclic message graph: an app in
    // a cycle would wait forever for its own downstream output
    // (deadlock). Detect via Kahn's algorithm and fail loudly instead.
    std::vector<std::uint32_t> degree = inDegree;
    std::vector<std::uint32_t> ready = sources;
    std::size_t visited = 0;
    while (!ready.empty()) {
      const std::uint32_t a = ready.back();
      ready.pop_back();
      ++visited;
      for (const std::uint32_t k : outgoing[a]) {
        if (--degree[msgDst[k]] == 0) ready.push_back(msgDst[k]);
      }
    }
    if (visited != apps) {
      throw std::invalid_argument(
          "des::simulatePipeline: the message graph contains a cycle; the "
          "pipeline protocol requires a DAG");
    }

    terminalSlot.assign(apps, kNoSlot);
    for (std::size_t p = 0; p < sys.pathCount(); ++p) {
      const std::size_t last = sys.path(p).apps.back();
      if (terminalSlot[last] == kNoSlot) {
        terminalSlot[last] = static_cast<std::uint32_t>(terminals++);
      }
      pathSlot.push_back(terminalSlot[last]);
    }
  }
};

enum class PipelineKernel::Kind : std::uint8_t {
  Emit,      ///< generation `gen` leaves the sensors
  Compute,   ///< app `id` finished generation `gen`
  Transfer,  ///< attempt `aux` of message `id`, generation `gen`, arrived
  Failover,  ///< re-dispatch app `id` to machine `aux` after `hops` hops
  Retry,     ///< retransmit message `id` after attempt `aux` was lost
};

PipelineKernel::PipelineKernel(const hiperd::System& sys)
    : wiring_(std::make_shared<const Wiring>(sys)) {
  static_assert(sizeof(Event) == 32);
}

void PipelineKernel::check(const la::Vector& execSeconds,
                           const la::Vector& messageBytes, double arrivalRate,
                           const PipelineOptions& opts) const {
  if (execSeconds.size() != wiring_->apps) {
    throw std::invalid_argument("des::simulatePipeline: one time per app");
  }
  if (messageBytes.size() != wiring_->messages) {
    throw std::invalid_argument("des::simulatePipeline: one size per message");
  }
  if (arrivalRate <= 0.0 || !std::isfinite(arrivalRate)) {
    throw std::invalid_argument("des::simulatePipeline: bad arrival rate");
  }
  if (opts.generations == 0) {
    throw std::invalid_argument("des::simulatePipeline: zero generations");
  }
  if (opts.generations > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("des::simulatePipeline: too many generations");
  }
  for (double e : execSeconds) {
    if (e < 0.0) throw std::invalid_argument("des::simulatePipeline: negative time");
  }
  for (double b : messageBytes) {
    if (b < 0.0) throw std::invalid_argument("des::simulatePipeline: negative size");
  }
  if (opts.serviceJitterCov < 0.0) {
    throw std::invalid_argument("des::simulatePipeline: negative jitter CoV");
  }
  if (!(opts.warmupFraction >= 0.0 && opts.warmupFraction < 1.0)) {
    throw std::invalid_argument(
        "des::simulatePipeline: warmupFraction must lie in [0, 1)");
  }
  if (!(opts.driftTolerance >= 0.0) || !std::isfinite(opts.driftTolerance)) {
    throw std::invalid_argument(
        "des::simulatePipeline: driftTolerance must be finite and "
        "nonnegative");
  }
  // Emission g fires at g * period, which grows with g.
  const double period = 1.0 / arrivalRate;
  if (!std::isfinite(period) ||
      !std::isfinite(static_cast<double>(opts.generations - 1) * period)) {
    throw std::invalid_argument(
        "des::simulatePipeline: emission times overflow");
  }
}

bool PipelineKernel::run(const la::Vector& execSeconds,
                         const la::Vector& messageBytes, double period,
                         const PipelineOptions& opts, double stopAbove) {
  const Wiring& w = *wiring_;
  const std::size_t gens = opts.generations;
  const std::size_t warmup = warmupOf(opts);
  const FaultInjector* const faults = opts.faults;

  queue_.clear();
  machines_.assign(w.machines, Server{});
  links_.assign(w.links, Server{});
  // arrived_[a * gens + g] counts input messages received by app a for
  // generation g; finish_[slot * gens + g] is the completion time of the
  // terminal app in row `slot` on generation g.
  arrived_.assign(w.apps * gens, 0);
  finish_.assign(w.terminals * gens, -1.0);
  faults_ = FaultCounters{};
  now_ = 0.0;
  events_ = 0;
  highWater_ = 0;

  // Per-job multiplicative service noise (mean 1); deterministic when
  // the CoV is zero.
  rng::Xoshiro256StarStar jitterGen(opts.jitterSeed);
  const auto jitter = [&]() {
    return opts.serviceJitterCov > 0.0
               ? rng::gammaMeanCov(jitterGen, 1.0, opts.serviceJitterCov)
               : 1.0;
  };

  // Emissions own seqs 0..gens-1; every other event takes the next seq
  // as it is scheduled. Event times are `now + delay`, as a scheduler
  // handed relative delays computes them.
  std::uint64_t nextSeq = gens;
  const auto push = [&](const Event& ev) {
    queue_.push(ev);
    highWater_ = std::max(highWater_, queue_.size());
  };
  const auto schedule = [&](double delay, Kind kind, std::uint32_t id,
                            std::uint32_t g, std::uint32_t aux = 0,
                            std::uint16_t hops = 0) {
    if (delay < 0.0 || !std::isfinite(delay)) {
      throw std::invalid_argument("des::simulatePipeline: bad event delay");
    }
    push(Event{now_ + delay, nextSeq++, id, g, aux, hops, kind});
  };
  // FIFO single-server submission: service starts when the server frees
  // up, and the completion event fires at departure.
  const auto submit = [&](Server& s, double service, Kind kind,
                          std::uint32_t id, std::uint32_t g,
                          std::uint32_t aux) {
    if (service < 0.0 || !std::isfinite(service)) {
      throw std::invalid_argument("des::simulatePipeline: bad service time");
    }
    const double start = std::max(now_, s.busyUntil);
    s.busyUntil = start + service;
    s.busy += service;
    schedule(s.busyUntil - now_, kind, id, g, aux);
  };

  // Fault path: a compute job stranded on crashed machine `from`.
  const auto failover = [&](std::uint32_t a, std::uint32_t g,
                            std::uint32_t from, std::uint16_t hops) {
    const std::optional<std::size_t> backup = faults->backupFor(from);
    // The hop cap breaks crash chains that cycle through dead machines
    // (with a zero detection timeout such a cycle would spin at one
    // simulation instant forever).
    if (!backup.has_value() || hops + 1u >= w.machines) {
      ++faults_.unrecoveredJobs;  // the generation surfaces as incomplete
      return;
    }
    ++faults_.failovers;
    // The crash of `from` is detected (and becomes common knowledge) one
    // detection timeout after it happens. Jobs stranded before that wait
    // for detection; jobs dispatched once the failure is known reroute
    // to the backup immediately.
    const double detectedAt =
        faults->crashTime(from) + faults->detectionTimeout();
    schedule(std::max(0.0, detectedAt - now_), Kind::Failover, a, g,
             static_cast<std::uint32_t>(*backup),
             static_cast<std::uint16_t>(hops + 1));
  };

  // Fault path: a compute job headed for machine `m`. Because service
  // demands are known at dispatch and service is FIFO non-preemptive,
  // the job's start and completion times are decided here — so whether
  // the crash of `m` catches the job (while queued or in service) is
  // decided here too, without rewinding the server.
  const auto dispatch = [&](std::uint32_t a, std::uint32_t g, std::uint32_t m,
                            std::uint16_t hops) {
    const double tc = faults->crashTime(m);
    const double now = now_;
    if (now >= tc) {
      // Dispatched to a machine that is already down: fail over. The
      // failover charges the detection delay only while the failure is
      // not yet known.
      failover(a, g, m, hops);
      return;
    }
    Server& s = machines_[m];
    const double start = std::max(now, s.busyUntil);
    const double service =
        execSeconds[a] * faults->computeFactor(m, start) * jitter();
    if (!(service >= 0.0) || !std::isfinite(service)) {
      throw std::invalid_argument(
          "des::simulatePipeline: fault injector produced a bad compute "
          "factor");
    }
    const double ct = start + service;
    if (start >= tc || ct > tc) {
      // The crash catches the job in queue or mid-service: work done up
      // to the crash is wasted, and the machine serves nothing
      // afterwards. Failure manifests at the crash instant.
      s.busy += std::max(0.0, std::min(ct, tc) - start);
      s.busyUntil = tc;
      failover(a, g, m, hops);
      return;
    }
    s.busyUntil = ct;
    s.busy += service;
    schedule(ct - now, Kind::Compute, a, g);
  };

  const auto startApp = [&](std::uint32_t a, std::uint32_t g) {
    if (faults == nullptr) {
      submit(machines_[w.appMachine[a]], execSeconds[a] * jitter(),
             Kind::Compute, a, g, 0);
    } else {
      dispatch(a, g, w.appMachine[a], 0);
    }
  };

  // Transfer attempt `attempt` (0-based) of message k, generation g. A
  // lost attempt still occupied the link (the bytes were sent; the loss
  // is discovered at the receiving end), then backs off and retransmits
  // until the retry budget runs out.
  const auto sendMessage = [&](std::uint32_t k, std::uint32_t g,
                               std::uint32_t attempt) {
    Server& s = links_[w.msgLink[k]];
    double service = messageBytes[k] / w.msgBandwidth[k];
    if (faults != nullptr) {
      const double startEst = std::max(now_, s.busyUntil);
      service = service * faults->transferFactor(w.msgLink[k], startEst);
    }
    submit(s, service * jitter(), Kind::Transfer, k, g, attempt);
  };

  queue_.push(Event{0.0, 0, 0, 0, 0, 0, Kind::Emit});
  FEPIA_SPAN_ARG("des.pipeline", "generations", gens);
  while (!queue_.empty()) {
    const Event ev = queue_.pop();
    now_ = ev.time;
    ++events_;
    switch (ev.kind) {
      case Kind::Emit: {
        // Sensors emit synchronized generations; source apps (no message
        // inputs) become eligible at the emission instant.
        const std::uint32_t next = ev.gen + 1;
        if (next < gens) {
          push(Event{static_cast<double>(next) * period, next, 0, next, 0, 0,
                     Kind::Emit});
        }
        for (const std::uint32_t a : w.sources) startApp(a, ev.gen);
        break;
      }
      case Kind::Compute: {
        const std::uint32_t slot = w.terminalSlot[ev.id];
        if (slot != Wiring::kNoSlot) {
          finish_[slot * gens + ev.gen] = now_;
          if (ev.gen >= warmup &&
              now_ - static_cast<double>(ev.gen) * period > stopAbove) {
            return true;
          }
        }
        for (const std::uint32_t k : w.outgoing[ev.id]) {
          sendMessage(k, ev.gen, 0);
        }
        break;
      }
      case Kind::Transfer: {
        if (faults != nullptr && faults->messageLost(ev.id, ev.gen, ev.aux)) {
          ++faults_.lostMessages;
          if (ev.aux >= faults->maxRetries()) {
            ++faults_.droppedMessages;  // receiver never fires for this gen
            break;
          }
          if (ev.aux == std::numeric_limits<std::uint32_t>::max()) {
            throw std::length_error(
                "des::simulatePipeline: retry count exceeds the event "
                "encoding");
          }
          ++faults_.retries;
          const double backoff = faults->retryBackoff(ev.aux);
          faults_.backoffWaitSeconds += backoff;
          schedule(backoff, Kind::Retry, ev.id, ev.gen, ev.aux);
          break;
        }
        const std::uint32_t dst = w.msgDst[ev.id];
        if (++arrived_[dst * gens + ev.gen] == w.inDegree[dst]) {
          startApp(dst, ev.gen);
        }
        break;
      }
      case Kind::Failover:
        dispatch(ev.id, ev.gen, ev.aux, ev.hops);
        break;
      case Kind::Retry:
        sendMessage(ev.id, ev.gen, ev.aux + 1);
        break;
    }
  }
  return false;
}

void PipelineKernel::observe(const PipelineOptions& opts, double period,
                             bool keepLatencies, PipelineResult& res) {
  const std::size_t gens = opts.generations;
  res.generations = gens;
  res.simulatedSeconds = now_;
  double worstSlope = 0.0;
  for (const std::uint32_t slot : wiring_->pathSlot) {
    latencies_.clear();
    const double* finish = finish_.data() + slot * gens;
    for (std::size_t g = warmupOf(opts); g < gens; ++g) {
      if (finish[g] < 0.0) {
        ++res.incompleteObservations;  // lost to a fault, or bad wiring
        continue;
      }
      latencies_.push_back(finish[g] - static_cast<double>(g) * period);
    }
    worstSlope = std::max(worstSlope, slope(latencies_));
    for (double v : latencies_) {
      res.maxObservedLatency = std::max(res.maxObservedLatency, v);
    }
    if (keepLatencies) res.pathLatencies.push_back(latencies_);
  }
  res.latencyGrowthPerGeneration = worstSlope;
  res.throughputSustained =
      worstSlope * static_cast<double>(gens) <= opts.driftTolerance * period;
}

void PipelineKernel::addDowntime(const FaultInjector* faults) {
  if (faults == nullptr) return;
  // Machine-seconds of downtime within the simulated horizon.
  for (std::size_t m = 0; m < wiring_->machines; ++m) {
    const double tc = faults->crashTime(m);
    if (tc < now_) faults_.downtimeSeconds += now_ - tc;
  }
}

PipelineResult PipelineKernel::simulate(const la::Vector& execSeconds,
                                        const la::Vector& messageBytes,
                                        double arrivalRate,
                                        const PipelineOptions& opts) {
  check(execSeconds, messageBytes, arrivalRate, opts);
  const double period = 1.0 / arrivalRate;
  run(execSeconds, messageBytes, period, opts,
      std::numeric_limits<double>::infinity());
  addDowntime(opts.faults);

  PipelineResult res;
  observe(opts, period, true, res);
  res.eventsProcessed = events_;
  res.queueHighWater = highWater_;
  const double span = res.simulatedSeconds > 0.0 ? res.simulatedSeconds : 1.0;
  for (const Server& s : machines_) {
    res.machineUtilization.push_back(s.busy / span);
  }
  for (const Server& s : links_) res.linkUtilization.push_back(s.busy / span);
  res.faults = faults_;
  return res;
}

PipelineVerdict PipelineKernel::verdict(const la::Vector& execSeconds,
                                        const la::Vector& messageBytes,
                                        double arrivalRate,
                                        double maxLatencySeconds,
                                        const PipelineOptions& opts) {
  check(execSeconds, messageBytes, arrivalRate, opts);
  const double period = 1.0 / arrivalRate;
  PipelineVerdict v;
  v.stoppedEarly =
      run(execSeconds, messageBytes, period, opts, maxLatencySeconds);
  addDowntime(opts.faults);
  v.faults = faults_;
  if (!v.stoppedEarly) {
    PipelineResult res;
    observe(opts, period, false, res);
    v.satisfies = res.satisfies(maxLatencySeconds);
  }
  return v;
}

PipelineResult simulatePipeline(const hiperd::System& sys,
                                const la::Vector& execSeconds,
                                const la::Vector& messageBytes,
                                double arrivalRate,
                                const PipelineOptions& opts) {
  return PipelineKernel(sys).simulate(execSeconds, messageBytes, arrivalRate,
                                      opts);
}

PipelineResult simulateAtLoads(const hiperd::System& sys,
                               const la::Vector& loads, double arrivalRate,
                               const PipelineOptions& opts) {
  la::Vector exec(sys.applicationCount());
  for (std::size_t a = 0; a < exec.size(); ++a) {
    exec[a] = sys.appComputeSeconds(a, loads);
  }
  la::Vector bytes(sys.messageCount());
  for (std::size_t k = 0; k < bytes.size(); ++k) {
    bytes[k] = sys.messageBytes(k, loads);
  }
  return simulatePipeline(sys, exec, bytes, arrivalRate, opts);
}

}  // namespace fepia::des
