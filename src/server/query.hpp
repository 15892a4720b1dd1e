// The four fepia query runners (radius, validate, fault-sim, sweep),
// extracted verbatim from tools/fepia_cli.cpp so the one-shot CLI and
// the resident fepiad server execute the *same code* — byte-identical
// responses by construction, not by parallel maintenance
// (tests/server_equivalence_test.cpp pins it).
//
// A runner takes the mode's argument tokens (everything after the
// subcommand word), the stream that plays the role of stdout, and a
// QueryContext bundling the per-invocation observability state the CLI
// used to keep in globals. It returns the process exit code the CLI
// would have produced plus, when a JSON report was requested (--json
// FILE or QueryContext::captureJson), the exact bytes of that report.
//
// Each runner parses its tokens through its flag table (server/flags.hpp).
// Error contract: malformed/unknown arguments raise UsageError (the CLI
// maps it to its usage() text, the server to a typed bad_request), a
// bad or missing flag value its FlagValueError subclass (the CLI prints
// it after "error: "); every other failure propagates as an ordinary
// exception whose what() is exactly the text the CLI prints after
// "error: ".
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "parallel/thread_pool.hpp"
#include "radius/fepia.hpp"
#include "report/table.hpp"
#include "server/flags.hpp"

namespace fepia::obs {
class Stopwatch;
}

namespace fepia::server {

class SessionCache;

/// Per-invocation state a runner needs. The CLI fills it from its
/// process-wide observability globals; the server builds a fresh one
/// per request (own registry/manifest/stopwatch) around shared
/// long-lived pieces (thread pool, session cache).
struct QueryContext {
  obs::Registry* registry = nullptr;        ///< required: metrics sink
  obs::RunManifest* manifest = nullptr;     ///< required: stamped into JSON
  const obs::Stopwatch* wall = nullptr;     ///< required: wall_seconds
  obs::TelemetryHub* hub = nullptr;         ///< optional: live gauges/events
  /// Optional long-lived compute pool; when set it wins over --threads
  /// (results are bit-identical at any thread count, so only the wall
  /// clock can tell).
  parallel::ThreadPool* sharedPool = nullptr;
  /// Optional warm cache of parsed inputs + sweep sub-computations.
  SessionCache* cache = nullptr;
  /// Capture the --json document bytes even when no --json FILE was
  /// given (the server always wants them in the response).
  bool captureJson = false;
  /// The args came from a fepiad client: the flags that write files,
  /// open sockets or write to the server's stderr (--json, --journal,
  /// --cache-dir, --serve, --worker, --progress) are refused.
  bool remote = false;
};

struct QueryResult {
  int exitCode = 0;
  bool hasJson = false;
  std::string json;  ///< exact bytes `--json FILE` writes, when captured
};

/// Default problem-file mode: `fepia_cli <file> [--scheme ...]
/// [--check ...] [--backend NAME] [--csv] [--echo]`. args[0] is the
/// problem path.
QueryResult runRadiusQuery(const std::vector<std::string>& args,
                           std::ostream& out, QueryContext& ctx);

/// `fepia_cli validate ...` — args are the tokens after "validate".
QueryResult runValidateQuery(const std::vector<std::string>& args,
                             std::ostream& out, QueryContext& ctx);

/// `fepia_cli fault-sim ...`.
QueryResult runFaultSimQuery(const std::vector<std::string>& args,
                             std::ostream& out, QueryContext& ctx);

/// `fepia_cli sweep <spec> ...`.
QueryResult runSweepQuery(const std::vector<std::string>& args,
                          std::ostream& out, QueryContext& ctx);

using QueryRunner = QueryResult (*)(const std::vector<std::string>&,
                                    std::ostream&, QueryContext&);

/// One query kind: its fepiad kind and CLI subcommand word (the CLI's
/// radius mode has no word), its flags, and its runner.
struct Query {
  std::string_view kind;
  std::span<const Flag> flags;
  QueryRunner run;
};

/// The query of `kind` (radius, validate, fault-sim, sweep), or nullptr.
const Query* findQuery(std::string_view kind);

// ---------------------------------------------------------------------
// Shared helpers the CLI-only modes (search, profile, --hiperd) use.

/// Prints `table` (plain or CSV) followed by a blank line.
void emitTable(std::ostream& out, const report::Table& table, bool csv);

/// Solves and prints one merged-scheme radius block through the backend
/// registry (used by the radius runner and the CLI's --hiperd mode).
void printMerged(std::ostream& out, const radius::FepiaProblem& problem,
                 radius::MergeScheme scheme, bool csv, obs::Registry* metrics,
                 const std::string& backendOverride = {});

}  // namespace fepia::server
