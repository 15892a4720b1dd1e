// End-to-end check of the fepia_cli observability surface: `search
// --trace` must emit a Chrome-trace JSON document with the expected
// span names, `--json` output must carry the run manifest, and tracing
// must not change the reported result. The binary path is injected by
// CMake via FEPIA_CLI_PATH.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "server/wire.hpp"
#include "support/temp_path.hpp"

namespace server = fepia::server;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

int runCli(const std::string& args) {
  const std::string cmd = std::string(FEPIA_CLI_PATH) + " " + args;
  return std::system(cmd.c_str());
}

using fepia::testing::tmpPath;

/// Extracts the value of a top-level-ish JSON key as raw text, from the
/// key to the next key at the same nesting (good enough to compare the
/// "allocations" array between two runs of the same tool).
std::string sliceArray(const std::string& doc, const std::string& key) {
  const std::size_t at = doc.find("\"" + key + "\"");
  if (at == std::string::npos) return {};
  const std::size_t open = doc.find('[', at);
  if (open == std::string::npos) return {};
  int depth = 0;
  for (std::size_t i = open; i < doc.size(); ++i) {
    if (doc[i] == '[') ++depth;
    if (doc[i] == ']' && --depth == 0) return doc.substr(open, i - open + 1);
  }
  return {};
}

constexpr const char* kSearchArgs =
    "search --tasks 32 --machines 4 --generations 3 --threads 2 --seed 7";

}  // namespace

TEST(CliTrace, SearchEmitsParseableChromeTrace) {
  const std::string trace = tmpPath("cli_trace.json");
  const int rc = runCli(std::string(kSearchArgs) + " --trace " + trace +
                        " > /dev/null");
  ASSERT_EQ(rc, 0);

  const std::string doc = slurp(trace);
  ASSERT_FALSE(doc.empty()) << "trace file not written: " << trace;
  EXPECT_TRUE(server::parseJson(doc).has_value());
  for (const char* name :
       {"search.heuristics", "search.local_search", "search.ga",
        "ga.generation", "\"ph\": \"X\""}) {
    EXPECT_NE(doc.find(name), std::string::npos) << "missing: " << name;
  }
}

TEST(CliTrace, JsonOutputCarriesManifest) {
  const std::string out = tmpPath("cli_manifest.json");
  const int rc = runCli(std::string(kSearchArgs) + " --json " + out +
                        " > /dev/null");
  ASSERT_EQ(rc, 0);
  const std::string doc = slurp(out);
  EXPECT_TRUE(server::parseJson(doc).has_value());
  for (const char* key :
       {"\"manifest\"", "\"git_sha\"", "\"compiler\"", "\"wall_seconds\"",
        "\"allocations\""}) {
    EXPECT_NE(doc.find(key), std::string::npos) << "missing: " << key;
  }
}

TEST(CliTrace, TracingDoesNotChangeTheResult) {
  const std::string plain = tmpPath("cli_plain.json");
  const std::string traced = tmpPath("cli_traced.json");
  ASSERT_EQ(runCli(std::string(kSearchArgs) + " --json " + plain +
                   " > /dev/null"),
            0);
  ASSERT_EQ(runCli(std::string(kSearchArgs) + " --json " + traced +
                   " --trace " + tmpPath("cli_tr2.json") + " > /dev/null"),
            0);
  const std::string a = sliceArray(slurp(plain), "allocations");
  const std::string b = sliceArray(slurp(traced), "allocations");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(CliTrace, ProfileSubcommandPrintsTimingTree) {
  const std::string out = tmpPath("cli_profile.txt");
  const int rc =
      runCli("profile --tasks 24 --machines 4 --threads 2 > " + out);
  ASSERT_EQ(rc, 0);
  const std::string text = slurp(out);
  for (const char* phase : {"profile.search", "profile.radius", "profile.des",
                            "profile.validate"}) {
    EXPECT_NE(text.find(phase), std::string::npos) << "missing: " << phase;
  }
}
