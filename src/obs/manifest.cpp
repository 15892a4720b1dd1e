#include "obs/manifest.hpp"

#include <thread>

#include "obs/json.hpp"

#if defined(_WIN32)
#include <winsock2.h>
#else
#include <unistd.h>
#endif

#ifndef FEPIA_GIT_SHA
#define FEPIA_GIT_SHA "unknown"
#endif
#ifndef FEPIA_BUILD_TYPE
#define FEPIA_BUILD_TYPE "unknown"
#endif
#ifndef FEPIA_CXX_FLAGS
#define FEPIA_CXX_FLAGS ""
#endif

namespace fepia::obs {

namespace {

std::string compilerId() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#elif defined(_MSC_VER)
  return "msvc " + std::to_string(_MSC_VER);
#else
  return "unknown";
#endif
}

std::string hostName() {
  char buf[256] = {0};
#if defined(_WIN32)
  if (gethostname(buf, sizeof(buf) - 1) != 0) return "unknown";
#else
  if (::gethostname(buf, sizeof(buf) - 1) != 0) return "unknown";
#endif
  buf[sizeof(buf) - 1] = '\0';
  return buf[0] != '\0' ? std::string(buf) : std::string("unknown");
}

}  // namespace

RunManifest RunManifest::collect(std::string tool, int argc,
                                 const char* const* argv) {
  RunManifest m;
  m.tool = std::move(tool);
  m.gitSha = FEPIA_GIT_SHA;
  m.compiler = compilerId();
  m.buildType = FEPIA_BUILD_TYPE;
  m.cxxFlags = FEPIA_CXX_FLAGS;
  m.hostname = hostName();
  m.hardwareConcurrency = std::thread::hardware_concurrency();
  for (int i = 1; i < argc; ++i) m.args.emplace_back(argv[i]);
  return m;
}

void RunManifest::writeJson(std::ostream& os) const {
  JsonWriter w(os);
  w.object().str("tool", tool).str("git_sha", gitSha);
  w.str("compiler", compiler).str("build_type", buildType);
  w.str("cxx_flags", cxxFlags).str("hostname", hostname);
  w.count("hardware_concurrency", hardwareConcurrency);
  w.count("threads", threads).count("seed", seed).array("args");
  for (const std::string& a : args) w.str(a);
  w.end().num("wall_seconds", wallSeconds).end();
}

}  // namespace fepia::obs
