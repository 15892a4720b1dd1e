// Thread-safety of the backend registry and scheduler: static
// registration happens exactly once no matter how many threads race on
// first use, and concurrent solveRadius calls (request.metrics null, as
// the contract requires) return answers bit-identical to a serial run —
// at 1, 2 and 8 threads. The tsan preset (tools/ci.sh tsan) runs this
// suite under ThreadSanitizer.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include "radius/registry/scheduler.hpp"
#include "support/instance_gen.hpp"

namespace rb = fepia::radius::backend;
namespace radius = fepia::radius;
namespace ft = fepia::testing;

namespace {

/// Bit pattern of a double — equality of patterns is the strongest
/// possible determinism claim (no tolerance).
std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

struct Job {
  radius::FepiaProblem problem;
  radius::MergeScheme scheme = radius::MergeScheme::NormalizedByOriginal;
  std::string backend;  ///< forced backend ("" = scheduler's choice)
};

std::vector<Job> makeJobs() {
  std::vector<Job> jobs;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const char* backend : {"", "analytic", "numeric", "empirical"}) {
      Job j;
      j.problem = ft::makeLinearInstance(seed, 3);
      j.scheme = seed % 2 == 0 ? radius::MergeScheme::Sensitivity
                               : radius::MergeScheme::NormalizedByOriginal;
      j.backend = backend;
      jobs.push_back(std::move(j));
    }
  }
  return jobs;
}

double solveJob(const Job& job) {
  rb::RadiusProblem rp;
  rp.problem = &job.problem;
  rp.scheme = job.scheme;
  rb::RadiusRequest req;
  req.backendOverride = job.backend;
  req.estimator.directions = 64;
  req.estimator.chunkSize = 32;
  // req.metrics stays null: obs::Registry is not thread-safe and the
  // scheduler documents that concurrent callers must not pass one.
  return rb::solveRadius(rp, req).rho;
}

/// Solves every job, fanned out over `threads` std::threads (job i goes
/// to thread i % threads); results land in preallocated slots.
std::vector<std::uint64_t> solveAll(const std::vector<Job>& jobs,
                                    std::size_t threads) {
  std::vector<std::uint64_t> out(jobs.size(), 0);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = t; i < jobs.size(); i += threads) {
        out[i] = bits(solveJob(jobs[i]));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  return out;
}

}  // namespace

TEST(BackendRegistryThread, StaticRegistrationIsOneTimeAndStable) {
  // instance() builds the registry once on first use; racing it from
  // many threads must observe the same fully built registry (same
  // object, same four kernels) with no re-registration.
  constexpr std::size_t kThreads = 8;
  std::vector<const rb::BackendRegistry*> seen(kThreads, nullptr);
  std::vector<std::size_t> sizes(kThreads, 0);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const rb::BackendRegistry& r = rb::BackendRegistry::instance();
      seen[t] = &r;
      sizes[t] = r.size();
    });
  }
  for (std::thread& w : workers) w.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], &rb::BackendRegistry::instance());
    EXPECT_EQ(sizes[t], 4u);
  }
}

TEST(BackendRegistryThread, ConcurrentLookupsDuringSolves) {
  // find()/all() race against active solves without corruption.
  const std::vector<Job> jobs = makeJobs();
  std::thread reader([] {
    for (int i = 0; i < 2000; ++i) {
      EXPECT_NE(rb::BackendRegistry::instance().find("analytic"), nullptr);
      EXPECT_EQ(rb::BackendRegistry::instance().all().size(), 4u);
    }
  });
  (void)solveAll(jobs, 4);
  reader.join();
}

TEST(BackendRegistryThread, SolvesAreBitIdenticalAcrossThreadCounts) {
  const std::vector<Job> jobs = makeJobs();
  const std::vector<std::uint64_t> serial = solveAll(jobs, 1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const std::vector<std::uint64_t> parallel = solveAll(jobs, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i], serial[i])
          << "job " << i << " differs at " << threads << " threads";
    }
  }
}
