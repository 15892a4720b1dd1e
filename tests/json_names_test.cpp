// Every --json document survives hostile names. validate, fault-sim and
// sweep run on inputs whose names hold `"`, `\`, a tab and a control
// character; each report must parse with server::parseJson and give the
// name back unchanged.
//
// No input format carries all four: a quoted .fepia/.hiperd name ends at
// the next `"`, an unquoted one at whitespace, and a .sweep token at
// whitespace. So each file is written once per spelling that can carry
// the characters, and the names no file can carry are built in-process.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/clock.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "server/query.hpp"
#include "server/wire.hpp"
#include "support/temp_path.hpp"
#include "sweep/output.hpp"
#include "sweep/spec.hpp"
#include "validate/report.hpp"

namespace {

namespace obs = fepia::obs;
namespace server = fepia::server;
namespace sweep = fepia::sweep;
namespace validate = fepia::validate;

/// A name and how a line-oriented input file spells it.
struct Spelling {
  std::string name;
  std::string token;
};

/// An unquoted token carries `"`, `\` and \x01; a quoted one carries
/// `\`, a tab and \x01.
const std::vector<Spelling> kSpellings = {
    {"q\"b\\s\x01", "q\"b\\s\x01"},
    {"t\tb\\s\x01", "\"t\tb\\s\x01\""},
};

/// All four characters, for names built in-process.
const std::string kHostile = "q\"b\\t\tc\x01";

using Runner = server::QueryResult (*)(const std::vector<std::string>&,
                                       std::ostream&, server::QueryContext&);

server::JsonValue runJson(Runner runner, const std::vector<std::string>& args) {
  obs::Registry registry;
  obs::RunManifest manifest;
  const obs::Stopwatch wall;
  server::QueryContext ctx;
  ctx.registry = &registry;
  ctx.manifest = &manifest;
  ctx.wall = &wall;
  ctx.captureJson = true;
  std::ostringstream text;
  const server::QueryResult res = runner(args, text, ctx);
  EXPECT_TRUE(res.hasJson);
  std::optional<server::JsonValue> doc = server::parseJson(res.json);
  EXPECT_TRUE(doc.has_value()) << res.json;
  return doc.value_or(server::JsonValue{});
}

std::string writeFile(const std::string& leaf, const std::string& text) {
  const std::string path = fepia::testing::tmpPath(leaf);
  std::ofstream(path) << text;
  return path;
}

/// The labels of a validate report's rows.
std::vector<std::string> labels(const server::JsonValue& doc) {
  std::vector<std::string> out;
  if (const server::JsonValue* rows = doc.find("rows")) {
    for (const server::JsonValue& row : rows->array) {
      if (const server::JsonValue* label = row.find("label")) {
        out.push_back(label->string);
      }
    }
  }
  return out;
}

/// The reference system's text with every path named `name`-radar,
/// `name`-sonar and `name`-ais (spelled `token`...).
std::string hostilePaths(const Spelling& s) {
  std::ifstream in(FEPIA_SOURCE_DIR "/examples/data/fusion_pipeline.hiperd");
  std::stringstream text;
  text << in.rdbuf();
  std::string system = text.str();
  for (const std::string path : {"radar", "sonar", "ais"}) {
    const std::string from = "path-" + path;
    // A quoted token keeps its closing quote after the suffix.
    std::string to = s.token;
    if (to.front() == '"') {
      to.insert(to.size() - 1, path);
    } else {
      to += path;
    }
    for (std::size_t at = system.find(from); at != std::string::npos;
         at = system.find(from, at + to.size())) {
      system.replace(at, from.size(), to);
    }
  }
  return system;
}

TEST(JsonNames, ValidateProblemFile) {
  for (const Spelling& s : kSpellings) {
    const std::string path = writeFile(
        "names.fepia", "kind execution-times s 2.0 3.0\nfeature " + s.token +
                           " upper 9.0 coeff 1.0 1.0\n");
    const std::vector<std::string> got = labels(runJson(
        &server::runValidateQuery, {path, "--samples", "16", "--seed", "7"}));
    ASSERT_FALSE(got.empty());
    EXPECT_EQ(got[0], "scheme: normalized: " + s.name);
  }
}

TEST(JsonNames, ValidateSystemFile) {
  for (const Spelling& s : kSpellings) {
    const std::string path = writeFile("names.hiperd", hostilePaths(s));
    const std::vector<std::string> got =
        labels(runJson(&server::runValidateQuery,
                       {"--hiperd", path, "--samples", "8", "--seed", "7"}));
    EXPECT_NE(std::find(got.begin(), got.end(),
                        "scheme: normalized: latency(" + s.name + "radar)"),
              got.end());
  }
}

TEST(JsonNames, ValidateRowsBuiltInProcess) {
  validate::EmpiricalEstimate est;
  est.radius = 1.0;
  est.ci = {0.5, 1.0};
  const std::vector<validate::Comparison> rows = {
      validate::compare(kHostile, 1.0, est)};
  obs::RunManifest manifest;
  manifest.tool = kHostile;
  manifest.args = {kHostile};
  std::ostringstream os;
  validate::writeComparisonJson(os, rows, &manifest);
  const std::optional<server::JsonValue> doc = server::parseJson(os.str());
  ASSERT_TRUE(doc.has_value()) << os.str();
  EXPECT_EQ(labels(*doc), std::vector<std::string>{kHostile});
  EXPECT_EQ(doc->find("manifest")->find("tool")->string, kHostile);
}

TEST(JsonNames, FaultSimSystemFile) {
  for (const Spelling& s : kSpellings) {
    const std::string path = writeFile("names.hiperd", hostilePaths(s));
    const server::JsonValue doc =
        runJson(&server::runFaultSimQuery, {"--hiperd", path, "--samples", "4",
                                            "--gens", "10", "--seed", "7"});
    const server::JsonValue* analytic = doc.find("analytic");
    ASSERT_NE(analytic, nullptr);
    const std::string feature = analytic->find("critical_feature")->string;
    EXPECT_EQ(feature.rfind("latency(" + s.name, 0), 0u) << feature;
  }
}

TEST(JsonNames, SweepSpecFile) {
  // A .sweep token holds `"`, `\` and \x01 but no whitespace.
  const std::string name = kSpellings[0].name;
  const std::string path =
      writeFile("names.sweep", "sweep " + name +
                                   "\nworkload linear\naxis n 2\nchunk 1\n");
  const server::JsonValue doc = runJson(&server::runSweepQuery, {path});
  EXPECT_EQ(doc.find("sweep")->string, name);
}

TEST(JsonNames, SweepSurfaceBuiltInProcess) {
  sweep::SweepSpec spec = sweep::parseSweepSpecString(
      "workload linear\naxis n 2\nchunk 1\n");
  spec.name = kHostile;
  spec.axes[0].name = kHostile;
  spec.axes[0].values[0].token = kHostile;
  sweep::SweepSurface surface;
  surface.points = 1;
  surface.computed = {1};
  surface.results.resize(1);
  std::ostringstream os;
  sweep::writeSurfaceJson(os, spec, surface);
  const std::optional<server::JsonValue> doc = server::parseJson(os.str());
  ASSERT_TRUE(doc.has_value()) << os.str();
  EXPECT_EQ(doc->find("sweep")->string, kHostile);
  const server::JsonValue& point =
      *doc->find("results")->array.at(0).find("point");
  EXPECT_EQ(point.find(kHostile)->string, kHostile);
}

}  // namespace
