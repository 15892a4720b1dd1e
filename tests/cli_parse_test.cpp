// Hardening of the fepia_cli argument surface: malformed numeric flag
// values ("abc", "1.5x", "inf"), malformed fault-spec flags and
// malformed input files must exit with a one-line usage/parse error and
// status 1 — never an uncaught exception (which would terminate on a
// signal). The binary path is injected by CMake via FEPIA_CLI_PATH.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "support/temp_path.hpp"

namespace {

using fepia::testing::tmpPath;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Runs the CLI, asserting the process exited normally (no signal — an
/// uncaught exception aborts) and returning its exit status.
int exitCode(const std::string& args, const std::string& stderrFile = {}) {
  std::string cmd = std::string(FEPIA_CLI_PATH) + " " + args + " > /dev/null";
  cmd += " 2> " + (stderrFile.empty() ? std::string("/dev/null") : stderrFile);
  const int status = std::system(cmd.c_str());
  EXPECT_TRUE(WIFEXITED(status)) << "CLI killed by signal for: " << args;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Asserts `args` fails with status 1 and an error naming `expect`.
void expectParseError(const std::string& args, const std::string& expect) {
  const std::string err = tmpPath("cli_parse_err.txt");
  EXPECT_EQ(exitCode(args, err), 1) << args;
  const std::string text = slurp(err);
  EXPECT_NE(text.find(expect), std::string::npos)
      << "stderr for '" << args << "' was: " << text;
}

}  // namespace

TEST(CliParse, MalformedFlagValuesNameTheFlag) {
  expectParseError("search --tasks 16 --machines 4 --seed abc",
                   "bad value for --seed");
  expectParseError("search --tau-factor inf", "bad value for --tau-factor");
  expectParseError("search --generations 1.5x", "bad value for --generations");
  expectParseError("profile --tasks 12.5", "bad value for --tasks");
  expectParseError("fault-sim --detect nan", "bad value for --detect");
  expectParseError("fault-sim --samples 1.5x", "bad value for --samples");
  expectParseError("fault-sim --gens -3", "bad value for --gens");
}

TEST(CliParse, MalformedValidateFlagsExitOne) {
  // validate parses its flags before touching the input file, so the
  // flag error must win even with a nonexistent file.
  expectParseError("validate /nonexistent.fepia --samples abc",
                   "bad value for --samples");
  expectParseError("validate /nonexistent.fepia --seed 0x",
                   "bad value for --seed");
}

TEST(CliParse, MalformedCheckListExitsOne) {
  expectParseError("/nonexistent.fepia --check 1.0,2.0x", "--check");
}

TEST(CliParse, MalformedFaultSpecsExitOne) {
  expectParseError("fault-sim --crash banana", "--crash");
  expectParseError("fault-sim --crash 0", "--crash");        // missing time
  expectParseError("fault-sim --crash 0:1.0abc", "--crash"); // partial token
  expectParseError("fault-sim --loss 0", "--loss");          // missing p
  expectParseError("fault-sim --slow machine:0:1.0", "--slow");
  expectParseError("fault-sim --slow turbo:0:1.0:2.0:2.0", "--slow");
}

TEST(CliParse, OutOfRangeFaultSpecsExitOne) {
  // Well-formed numbers, invalid against the system: the plan validator
  // must reject them with a clean error, not a crash mid-simulation.
  expectParseError("fault-sim --crash 99:1.0", "machine");
  expectParseError("fault-sim --loss 0:1.5", "probability");
}

TEST(CliParse, MalformedSystemFileExitsOne) {
  const std::string sys = tmpPath("cli_parse_bad.hiperd");
  std::ofstream(sys) << "sensor s1 10abc\n";
  expectParseError("fault-sim --hiperd " + sys + " --no-faults", "line 1");
  expectParseError("validate --hiperd " + sys, "line 1");
}

TEST(CliParse, UnknownFlagPrintsUsage) {
  expectParseError("fault-sim --frobnicate", "usage:");
  expectParseError("search --frobnicate", "usage:");
  // Operands and flags a mode does not take are refused, never dropped.
  const std::string sys =
      std::string(FEPIA_SOURCE_DIR) + "/examples/data/fusion_pipeline.hiperd";
  const std::string prob =
      std::string(FEPIA_SOURCE_DIR) + "/examples/data/streaming_stage.fepia";
  expectParseError("--hiperd " + sys + " --frobnicate", "usage:");
  expectParseError("--hiperd " + sys + " --backend nosuch", "usage:");
  expectParseError("--hiperd " + sys + " --json " + tmpPath("h.json"),
                   "usage:");
  expectParseError("--hiperd " + sys + " extra --csv", "usage:");
  expectParseError("validate " + prob + " --hiperd " + sys, "usage:");
}

TEST(CliParse, MissingFlagValueNamesTheFlag) {
  expectParseError("validate /nonexistent.fepia --seed",
                   "missing value for --seed");
  expectParseError("search --het", "missing value for --het");
  expectParseError("serve --port", "missing value for --port");
  expectParseError("--trace", "missing value for --trace");
}

TEST(CliParse, SearchJsonDiffersOnlyInTheManifest) {
  // The GA and local-search timings come from spans, not counters, so
  // two runs with one seed write the same report apart from the manifest.
  const auto report = [](const std::string& leaf) {
    const std::string path = tmpPath(leaf);
    EXPECT_EQ(exitCode("search --tasks 24 --machines 4 --generations 4 "
                       "--population 8 --seed 3 --json " + path),
              0);
    std::istringstream in(slurp(path));
    std::string kept;
    for (std::string line; std::getline(in, line);) {
      if (line.rfind("  \"manifest\"", 0) != 0) kept += line + '\n';
    }
    return kept;
  };
  const std::string first = report("search_a.json");
  EXPECT_NE(first.find("\"counters\""), std::string::npos) << first;
  EXPECT_EQ(first, report("search_b.json"));
}

TEST(CliParse, SweepModeRejectsBadInputsCleanly) {
  // Missing/flag-like spec operand prints usage.
  expectParseError("sweep", "usage:");
  expectParseError("sweep --threads 2", "usage:");
  expectParseError("sweep /nonexistent.sweep --frobnicate", "usage:");
  // Nonexistent and malformed spec files exit 1 with one-line errors.
  expectParseError("sweep /nonexistent.sweep", "cannot open sweep spec");
  const std::string bad = tmpPath("cli_parse_bad.sweep");
  std::ofstream(bad) << "axis n 2\nworkload linear\n";
  expectParseError("sweep " + bad, "line 1");
  std::ofstream(bad) << "workload linear\naxis beta 0.5\n";
  expectParseError("sweep " + bad, "line 2");
  // Malformed flag values name the flag.
  const std::string ok = tmpPath("cli_parse_ok.sweep");
  std::ofstream(ok) << "workload linear\naxis n 2\n";
  expectParseError("sweep " + ok + " --threads abc", "bad value for --threads");
  expectParseError("sweep " + ok + " --chunk 0", "bad value for --chunk");
  expectParseError("sweep " + ok + " --stop-after 0",
                   "bad value for --stop-after");
  // --resume / --stop-after without a journal are option errors.
  expectParseError("sweep " + ok + " --resume", "journal");
  expectParseError("sweep " + ok + " --stop-after 1", "journal");
}

TEST(CliParse, TelemetryIntervalIsRangeChecked) {
  // 0 would busy-spin the sampler; absurd values would silently disable
  // sampling for a resident server's lifetime. Both are one-line
  // diagnostics with exit 1, like every other checked flag.
  expectParseError("--telemetry-interval 0",
                   "bad value for --telemetry-interval");
  expectParseError("--telemetry-interval 250000000",
                   "bad value for --telemetry-interval");
  expectParseError("--telemetry-interval abc",
                   "bad value for --telemetry-interval");
  expectParseError("--telemetry-interval -5",
                   "bad value for --telemetry-interval");
}

TEST(CliParse, BackendOverrideDiagnosticsExitOne) {
  // --backend failures are one-line scheduler errors with status 1:
  // unknown names enumerate the registry, incapable backends explain
  // why, and validate refuses backends without an empirical comparison.
  const std::string prob = tmpPath("cli_parse_backend.fepia");
  std::ofstream(prob) << "kind k s 1.0\n"
                      << "feature \"f\" upper 2.0 coeff 1.0\n";
  expectParseError(prob + " --backend bogus", "unknown radius backend");
  expectParseError(prob + " --backend degraded", "cannot solve this problem");
  expectParseError("validate " + prob + " --backend analytic --samples 16",
                   "does not produce an empirical comparison");
  expectParseError("fault-sim --no-faults --samples 4 --gens 40 "
                   "--backend empirical",
                   "cannot solve this problem");
  const std::string spec = tmpPath("cli_parse_backend.sweep");
  std::ofstream(spec) << "workload linear\naxis n 2\n";
  expectParseError("sweep " + spec + " --backend degraded",
                   "cannot solve this problem");
  expectParseError("sweep " + spec + " --backend bogus",
                   "unknown radius backend");
}

TEST(CliParse, ValidSweepRunExitsZeroAndWritesJson) {
  const std::string spec = tmpPath("cli_parse_sweep.sweep");
  std::ofstream(spec) << "sweep tiny\nworkload linear\naxis n 2 4\n"
                      << "axis beta 1.5 2.0\nseed 3\nchunk 2\n";
  const std::string out = tmpPath("cli_parse_sweep.json");
  EXPECT_EQ(exitCode("sweep " + spec + " --response n --json " + out), 0);
  const std::string doc = slurp(out);
  for (const char* key :
       {"\"sweep\": \"tiny\"", "\"workload\": \"linear\"", "\"points\": 4",
        "\"complete\": true", "\"results\"", "\"manifest\""}) {
    EXPECT_NE(doc.find(key), std::string::npos) << "missing: " << key;
  }
}

TEST(CliParse, ValidFaultSimRunExitsZero) {
  // A healthy fault-free run exits 0 and writes the JSON document.
  const std::string out = tmpPath("cli_parse_faultsim.json");
  EXPECT_EQ(exitCode("fault-sim --no-faults --samples 4 --gens 40 --json " +
                     out),
            0);
  const std::string doc = slurp(out);
  for (const char* key : {"\"degraded\"", "\"nominal\"", "\"analytic\""}) {
    EXPECT_NE(doc.find(key), std::string::npos) << "missing: " << key;
  }
}