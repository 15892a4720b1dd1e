// Distributed sweep: coordinator/worker shard leasing over the fepiad
// wire protocol.
//
// `fepia_cli sweep --serve HOST:PORT` runs a SweepCoordinator: it owns
// the surface slots, the shard lease table (sweep::LeaseTable) and the
// hexfloat journal as the durable commit log, and serves pull-based
// workers over the same 4-byte length-prefixed JSON frames fepiad
// speaks (server/wire). `fepia_cli sweep --worker HOST:PORT` runs
// runSweepWorker: connect, verify the spec hash, then lease shards,
// compute them through the registry-dispatched engine
// (sweep::evaluatePointRange) and stream the results back until the
// coordinator reports the sweep drained.
//
// Wire kinds, read and answered with fepiad's codec (server/wire.hpp):
// replies echo the request's id as {"id", "ok": true, ...} or
// {"id", "ok": false, "error": {"code", "message"}}, and an oversized
// frame, a non-JSON payload or a request without a string kind gets
// the typed bad_frame / bad_request errors. Numeric fields go through
// server::toCount: a negative, non-finite or out-of-range shard is a
// bad_request, and a worker refuses such a number in a reply.
//
//   hello      {spec_hash, points, worker}  -> {kind:"welcome",
//              lease_ms, points, chunk, shards} — refused with code "spec_mismatch" when the
//              worker's spec (or grid size) differs from the
//              coordinator's: a lease must never be computed against a
//              different sweep.
//   lease      {worker} -> {kind:"lease", shard, first, count,
//              generation, stolen} | {kind:"drained"} — a request
//              nothing can grant yet is held (re-checked every 100 ms
//              for lease expiry and steals) until a shard is grantable
//              or the last shard commits; a coordinator torn down
//              meanwhile closes the connection without a reply.
//   commit     {worker, shard, results: [[id, analytic, closed,
//              empirical, degraded, makespan, classifications], ...]
//              (doubles as exact hexfloat strings, counts as decimal
//              strings)} -> {committed: bool} — false marks a
//              duplicate (a stolen or reissued shard that lost the
//              race); the coordinator keeps the first commit only, so
//              stealing never changes a bit.
//   heartbeat  {worker, shard} -> {} — renews the lease; sent on a
//              second connection so a long-running shard's heartbeats
//              never interleave with the compute connection's frames.
//   done       {worker} -> {} — the worker drained and is leaving.
//
// Determinism: every result double crosses the wire in the journal's
// exact hexfloat form, lands in its preallocated index slot, and the
// final reduction runs in index order — so the surface is byte-
// identical to the single-process sweep regardless of worker count,
// arrival order, steals, reissues or worker deaths (proved by
// tests/sweep_distributed_test.cpp and the tools/ci.sh smokes).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "server/wire.hpp"
#include "sweep/engine.hpp"
#include "sweep/spec.hpp"

namespace fepia::server {

/// Coordinator knobs.
struct DistSweepConfig {
  std::string bindAddress = "127.0.0.1";
  std::uint16_t port = 0;           ///< 0 = ephemeral
  std::size_t chunkOverride = 0;    ///< overrides the spec's shard size
  double leaseSeconds = 10.0;       ///< lease expiry (and heartbeat renewal)
  std::string journalPath;          ///< durable commit log; empty disables
  bool resume = false;              ///< replay journalPath's committed shards
  /// Abort (std::runtime_error from wait()) when no shard commits for
  /// this long while work remains — the CI harness's guard against a
  /// sweep whose workers all died. <= 0 waits forever.
  double drainTimeoutSeconds = 0.0;
  obs::Registry* metrics = nullptr;
  obs::TelemetryHub* telemetry = nullptr;
  /// Coordinator event log (lease grants, reissues, steals, worker
  /// arrivals/losses) — the CLI passes its stdout; nullptr is silent.
  std::ostream* log = nullptr;
  std::size_t maxFrameBytes = kDefaultMaxFrameBytes;
};

/// The coordinator: bind/listen on construction via start(), then
/// wait() blocks until every shard is committed and returns the reduced
/// surface. One reader thread per worker connection; all shared state
/// (lease table, result slots, journal writer) is serialized under one
/// mutex — commits are tiny compared to shard compute times.
class SweepCoordinator {
 public:
  SweepCoordinator(sweep::SweepSpec spec, DistSweepConfig cfg);
  /// Joins every thread; a coordinator destroyed before completion
  /// aborts its connections.
  ~SweepCoordinator();

  SweepCoordinator(const SweepCoordinator&) = delete;
  SweepCoordinator& operator=(const SweepCoordinator&) = delete;

  /// Binds and starts accepting workers. False (with *error set) on
  /// bind/listen failure. Throws std::runtime_error on a journal that
  /// cannot be opened or resumed.
  [[nodiscard]] bool start(std::string* error = nullptr);

  /// The bound port (after start(); useful with port = 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Blocks until all shards are committed, then closes up shop and
  /// returns the surface — byte-identical to runSweep on the same spec.
  /// Throws std::runtime_error when drainTimeoutSeconds elapses with no
  /// commit while work remains.
  [[nodiscard]] sweep::SweepSurface wait();

  struct Stats {
    std::size_t workersSeen = 0;       ///< distinct worker names hello'd
    std::uint64_t commits = 0;         ///< first commits accepted
    std::uint64_t duplicateCommits = 0;
    std::uint64_t reissues = 0;
    std::uint64_t steals = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::uint16_t port_ = 0;
};

/// Worker knobs.
struct SweepWorkerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string name;             ///< empty: "worker-<pid>"
  std::string cacheDir;         ///< shared persistent estimate cache
  std::string backendOverride;  ///< forwarded to the engine (--backend)
  bool cacheEnabled = true;
  obs::Registry* metrics = nullptr;
  obs::TelemetryHub* telemetry = nullptr;
  std::ostream* log = nullptr;  ///< per-lease progress lines; nullptr silent
  std::size_t maxFrameBytes = kDefaultMaxFrameBytes;
};

/// What a worker did.
struct SweepWorkerReport {
  std::size_t shardsComputed = 0;
  std::size_t pointsComputed = 0;
  std::uint64_t duplicateCommits = 0;  ///< lost steal/reissue races
  std::uint64_t persistentHits = 0;
  std::uint64_t persistentMisses = 0;
  double wallSeconds = 0.0;
};

/// Pull-based worker loop: lease, compute, commit, until drained.
/// Throws std::runtime_error on connect failure or a coordinator
/// refusal (spec-hash mismatch included).
[[nodiscard]] SweepWorkerReport runSweepWorker(const sweep::SweepSpec& spec,
                                               const SweepWorkerConfig& cfg);

}  // namespace fepia::server
