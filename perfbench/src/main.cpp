// fepia_perfbench — runs one benchmark workload and prints its metrics.
//
//   fepia_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--root DIR] [--out-dir DIR] [--size full|tiny]
//
// Workloads: validate-hiperd, faultsim-des, fepiad-mixed, sweep-dist.
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (and writes <out-dir>/<workload>.trace.json for Perfetto). The last
// line of standard output is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and <out-dir>/<workload>.seed<N>.trace<T>.json keeps it together with
// the run manifest. Usage errors exit 2 before any result is printed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "io/parse.hpp"
#include "obs/clock.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Outcome;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "fepia_perfbench: " << why
            << "\nusage: fepia_perfbench --workload validate-hiperd|"
               "faultsim-des|fepiad-mixed|sweep-dist --seed N --seconds S "
               "--trace 0|1 [--root DIR] [--out-dir DIR] [--size full|tiny]\n";
  std::exit(2);
}

Options parseArgs(int argc, char** argv) {
  Options opt;
  opt.outDir = "perfbench-results";
  bool haveSeed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      const auto v = fepia::io::parseUint64(value);
      if (!v) usage("bad --seed '" + value + "'");
      opt.seed = *v;
      haveSeed = true;
    } else if (flag == "--seconds") {
      const auto v = fepia::io::parseFiniteDouble(value);
      if (!v || *v <= 0.0 || *v > 600.0) usage("bad --seconds '" + value + "'");
      opt.seconds = *v;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace '" + value + "'");
      opt.trace = value == "1";
    } else if (flag == "--root") {
      opt.root = value;
    } else if (flag == "--out-dir") {
      opt.outDir = value;
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") {
        usage("bad --size '" + value + "'");
      }
      opt.tiny = value == "tiny";
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!haveSeed) usage("--seed is required");
  if (opt.workload != "validate-hiperd" && opt.workload != "faultsim-des" &&
      opt.workload != "fepiad-mixed" && opt.workload != "sweep-dist") {
    usage("unknown workload '" + opt.workload + "'");
  }
  if (!std::filesystem::exists(opt.root +
                               "/examples/data/fusion_pipeline.hiperd")) {
    usage("no example data under '" + opt.root + "'");
  }
  opt.cpus = perfbench::availableCpus();
  return opt;
}

Outcome dispatch(const Options& opt) {
  if (opt.workload == "validate-hiperd") {
    return perfbench::runValidateHiperd(opt);
  }
  if (opt.workload == "faultsim-des") return perfbench::runFaultsimDes(opt);
  if (opt.workload == "fepiad-mixed") return perfbench::runFepiadMixed(opt);
  return perfbench::runSweepDist(opt);
}

void writeMetrics(std::ostream& os, const std::vector<Metric>& metrics) {
  os << '{';
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ", ";
    fepia::obs::writeJsonString(os, metrics[i].name);
    os << ": {\"value\": ";
    fepia::obs::writeJsonNumber(os, metrics[i].value);
    os << ", \"unit\": ";
    fepia::obs::writeJsonString(os, metrics[i].unit);
    os << '}';
  }
  os << '}';
}

}  // namespace

int main(int argc, char** argv) {
  const fepia::obs::Stopwatch wall;
  const Options opt = parseArgs(argc, argv);
  std::filesystem::create_directories(opt.outDir);

  fepia::obs::RunManifest manifest = fepia::obs::RunManifest::collect(
      "fepia_perfbench " + opt.workload, argc, argv);
  manifest.seed = opt.seed;

  Outcome out;
  try {
    out = dispatch(opt);
  } catch (const std::exception& e) {
    std::cerr << "fepia_perfbench: " << opt.workload << ": " << e.what()
              << "\n";
    return 1;
  }
  if (!opt.trace) out.add("peak_rss_mb", perfbench::peakRssMb(), "MB");
  for (Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) {
      out.fail("metric " + m.name + " is not finite");
      m.value = 0.0;
    }
  }
  manifest.threads = out.threadsUsed;
  manifest.wallSeconds = wall.elapsedSeconds();
  // Scaling numbers mean something only when every compute thread and
  // client connection had a core of its own.
  const bool scalingMeasured = out.threadsUsed <= opt.cpus;

  std::ostringstream result;
  result << "{\"correct\": " << (out.correct ? "true" : "false")
         << ", \"attempted\": " << out.attempted
         << ", \"failed\": " << out.failed << ", \"metrics\": ";
  writeMetrics(result, out.metrics);
  result << '}';

  std::ostringstream record;
  record << "{\n  \"manifest\": ";
  manifest.writeJson(record);
  record << ",\n  \"nproc\": " << opt.cpus
         << ",\n  \"hardware_concurrency\": "
         << std::thread::hardware_concurrency() << ",\n  \"scaling\": \""
         << (scalingMeasured ? "measured" : "not measured")
         << "\",\n  \"workload\": ";
  fepia::obs::writeJsonString(record, opt.workload);
  record << ",\n  \"trace\": " << (opt.trace ? "true" : "false")
         << ",\n  \"named\": ";
  writeMetrics(record, out.named);
  record << ",\n  \"result\": " << result.str() << "\n}\n";
  const std::string recordPath = opt.outDir + "/" + opt.workload + ".seed" +
                                 std::to_string(opt.seed) + ".trace" +
                                 (opt.trace ? "1" : "0") + ".json";
  std::ofstream(recordPath) << record.str();

  std::cout << "workload " << opt.workload << "  seed " << opt.seed
            << "  seconds " << opt.seconds << "  trace " << opt.trace << "\n"
            << "manifest: ";
  manifest.writeJson(std::cout);
  std::cout << "\nnproc " << opt.cpus << ", threads+connections "
            << out.threadsUsed << ": scaling "
            << (scalingMeasured ? "measured" : "not measured") << "\n";
  for (const Metric& m : out.named) {
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : out.metrics) {
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  %-34s %16.6g ratio\n", "failed_frac",
              out.attempted > 0 ? static_cast<double>(out.failed) /
                                      static_cast<double>(out.attempted)
                                : 0.0);
  for (const std::string& p : out.problems) {
    std::cout << "CHECK FAILED: " << p << "\n";
  }
  std::cout << "wrote " << recordPath << "\n" << result.str() << std::endl;
  return 0;
}
