// How the bench programs end main(): an experiment program checks its
// paper claims, a perf program writes its BENCH_*.json record.
#pragma once

#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>

#include "obs/clock.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"

/// Prints "CLAIM MISSED: <what>" to stderr for each claim that does not
/// hold, and returns main()'s exit status: 0 when every claim holds,
/// 1 otherwise. ctest runs the programs under the `paper` label.
inline int checkClaims(
    std::initializer_list<std::pair<bool, std::string_view>> claims) {
  int status = 0;
  for (const auto& [holds, what] : claims) {
    if (!holds) {
      std::cerr << "CLAIM MISSED: " << what << "\n";
      status = 1;
    }
  }
  return status;
}

/// Writes the BENCH record of `bench` to $FEPIA_BENCH_JSON, or to
/// `defaultPath` when that is unset: "bench", then `manifest` stamped
/// with the wall time so far, then what `body` writes, one member per
/// line. Returns main()'s exit status: 0, or 1 when the record cannot be
/// written (and says so on stderr).
template <class Body>
int writeBenchJson(std::string_view bench, const char* defaultPath,
                   fepia::obs::RunManifest& manifest,
                   const fepia::obs::Stopwatch& wall, Body&& body) {
  manifest.wallSeconds = wall.elapsedSeconds();
  const char* env = std::getenv("FEPIA_BENCH_JSON");
  const std::string path = env != nullptr ? env : defaultPath;
  std::ofstream out(path);  // a stream that failed to open writes nothing
  fepia::obs::JsonWriter w(out);
  w.object(fepia::obs::JsonLayout::Lines).str("bench", bench);
  manifest.writeJson(w.key("manifest").valueStream());
  body(w);
  w.end();
  out << '\n';
  out.close();
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  std::cout << "wrote " << path << "\n\n";
  return 0;
}
