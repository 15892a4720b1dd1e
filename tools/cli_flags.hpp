// The flag tables of fepia_cli's own modes (search, profile, --hiperd)
// and of the observability flags every subcommand accepts, plus the
// command list the usage text is rendered from. The query and serve
// tables live with their runners in src/server.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "alloc/genetic.hpp"
#include "etc/etc.hpp"
#include "obs/alert.hpp"
#include "server/flags.hpp"
#include "server/query.hpp"
#include "server/server.hpp"

namespace fepia::cli {

using server::field;
using server::Flag;
using server::FlagKind;
using server::FlagValue;

/// The observability flags: taken out of argv wherever they stand,
/// before a mode parses its own flags.
struct ObsArgs {
  std::string tracePath;
  bool metrics = false;
  std::string telemetryPath;
  std::uint64_t telemetryIntervalMs = 250;
  std::vector<obs::AlertRule> alerts;
  std::string promPath;
};

using OA = ObsArgs;
inline constexpr Flag kObsFlags[] = {
    field<&OA::tracePath>("--trace", "FILE"),
    field<&OA::metrics>("--metrics"),
    field<&OA::telemetryPath>("--telemetry", "FILE"),
    // 0 would busy-spin the sampler, and a fat-fingered 250000000 would
    // silently disable sampling for the lifetime of a resident server.
    field<&OA::telemetryIntervalMs>("--telemetry-interval", "MS")
        .atLeast(1)
        .atMost(3'600'000),
    Flag{"--alert", FlagKind::Text, "METRIC{>|>=|<|<=}VALUE",
         [](void* o, const FlagValue& v) {
           static_cast<OA*>(o)->alerts.push_back(obs::parseAlertRule(v.text));
         }}
        .repeated(),
    field<&OA::promPath>("--prom", "FILE"),
};

/// `--hiperd <system-file>`: the load-space and multi-kind analyses of a
/// HiPer-D topology.
struct HiperdArgs {
  bool csv = false;
};

inline constexpr Flag kHiperdFlags[] = {field<&HiperdArgs::csv>("--csv")};

/// `search`: a robust allocation for a synthetic CVB workload.
struct SearchArgs {
  std::size_t tasks = 128;
  std::size_t machines = 8;
  etc::Heterogeneity het = etc::Heterogeneity::HiHi;
  double tauFactor = 1.4;
  std::uint64_t seed = 0x5EEDD1CEull;
  std::optional<std::size_t> threads;
  alloc::GeneticOptions ga;
  std::size_t maxMoves = 10000;
  bool csv = false;
  std::string jsonPath;
};

using SE = SearchArgs;
using GA = alloc::GeneticOptions;
inline constexpr Flag kSearchFlags[] = {
    field<&SE::tasks>("--tasks", "N"),
    field<&SE::machines>("--machines", "M"),
    // The words in etc::Heterogeneity's order.
    Flag{"--het", FlagKind::Choice, "hi-hi|hi-lo|lo-hi|lo-lo",
         [](void* o, const FlagValue& v) {
           static_cast<SE*>(o)->het = static_cast<etc::Heterogeneity>(v.choice);
         }},
    field<&SE::tauFactor>("--tau-factor", "F"),
    field<&SE::seed>("--seed", "S"),
    field<&SE::threads>("--threads", "T").atMost(server::kMaxThreads),
    field<&SE::ga, &GA::generations>("--generations", "N"),
    field<&SE::ga, &GA::populationSize>("--population", "N"),
    field<&SE::maxMoves>("--max-moves", "N"),
    field<&SE::csv>("--csv"),
    field<&SE::jsonPath>("--json", "FILE"),
};

/// `profile`: one representative workload per subsystem, traced.
struct ProfileArgs {
  std::size_t tasks = 64;
  std::size_t machines = 8;
  std::uint64_t seed = 0x5EEDD1CEull;
  std::size_t threads = 2;
  std::string jsonPath;
};

using PA = ProfileArgs;
inline constexpr Flag kProfileFlags[] = {
    field<&PA::tasks>("--tasks", "N"),
    field<&PA::machines>("--machines", "M"),
    field<&PA::seed>("--seed", "S"),
    field<&PA::threads>("--threads", "T").atMost(server::kMaxThreads),
    field<&PA::jsonPath>("--json", "FILE"),
};

/// Every subcommand with its flags, in usage order.
inline std::vector<server::Command> cliCommands() {
  const auto query = [](std::string_view kind) {
    return server::findQuery(kind)->flags;
  };
  return {{"", "<problem-file>", query("radius")},
          {"--hiperd", "<system-file>", kHiperdFlags},
          {"validate", "[<problem-file>]", query("validate")},
          {"search", "", kSearchFlags},
          {"fault-sim", "", query("fault-sim")},
          {"sweep", "<spec-file>", query("sweep")},
          {"profile", "", kProfileFlags},
          {"serve", "", server::serveFlags()}};
}

inline void writeCliUsage(std::ostream& os, std::string_view argv0) {
  server::writeUsage(os, argv0, cliCommands(), kObsFlags);
}

}  // namespace fepia::cli
