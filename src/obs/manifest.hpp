// Run manifests: provenance stamped into every structured output.
//
// A BENCH_*.json or CLI --json file is a claim about performance or
// correctness; without the machine, build, seed, and arguments that
// produced it, the claim cannot be rechecked. RunManifest::collect()
// gathers what the build baked in (git SHA, compiler, flags, build
// type — captured at CMake configure time) plus what the run knows
// (hostname, thread count, seed, argv), and writeJson() emits it as the
// "manifest" object every bench/CLI JSON writer embeds.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace fepia::obs {

struct RunManifest {
  std::string tool;          ///< e.g. "fepia_cli search" or "bench_search"
  std::string gitSha;        ///< configure-time HEAD ("unknown" outside git)
  std::string compiler;      ///< compiler id and version
  std::string buildType;     ///< CMAKE_BUILD_TYPE
  std::string cxxFlags;      ///< CMAKE_CXX_FLAGS
  std::string hostname;
  std::size_t hardwareConcurrency = 0;
  /// Worker threads the run actually used (0 = serial / no pool).
  std::size_t threads = 0;
  std::uint64_t seed = 0;
  std::vector<std::string> args;  ///< argv[1..]
  /// Wall time of the measured run, filled by the caller just before
  /// writing (0 when the tool does not time itself).
  double wallSeconds = 0.0;

  /// Fills the build/host fields and copies argv[1..] into args.
  /// threads/seed/wallSeconds stay at their defaults for the caller.
  [[nodiscard]] static RunManifest collect(std::string tool, int argc,
                                           const char* const* argv);

  /// {"tool": ..., "git_sha": ..., "compiler": ..., "build_type": ...,
  ///  "cxx_flags": ..., "hostname": ..., "hardware_concurrency": ...,
  ///  "threads": ..., "seed": ..., "args": [...], "wall_seconds": ...}
  /// on one line.
  void writeJson(std::ostream& os) const;
};

}  // namespace fepia::obs
