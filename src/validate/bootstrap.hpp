// Bootstrap resampling core of the empirical estimator's confidence
// interval, split into blocks that run across a thread pool with every
// output bit equal to the serial loop.
//
// The serial loop draws resample after resample from one xoshiro256**
// stream. Each draw consumes exactly one generator step unless it is
// rejected (probability below span / 2^64), so resample b starts at
// stream offset b * draws. Blocks of kBootstrapBlock resamples therefore
// start at known offsets, reached with Xoshiro256StarStar::discard. A
// block that meets a rejected draw shifts every later offset; the serial
// loop then redoes the resamples from that block on.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"

namespace fepia::validate {

/// Resamples per parallel block. Fixed, so the block -> stream-offset
/// map never depends on the pool (the bits do not depend on it either).
inline constexpr std::size_t kBootstrapBlock = 32;

/// Writes to mins[b] the minimum of `draws` values valueAt(i), each i
/// drawn uniformly from [0, span) by rng::IndexSampler, resample after
/// resample from the stream `start`. Serial when `pool` is null or has
/// one thread; in blocks across the pool otherwise — bit-identical.
template <typename ValueAt>
void bootstrapMinima(const rng::Xoshiro256StarStar& start, std::size_t draws,
                     std::uint64_t span, const ValueAt& valueAt,
                     std::span<double> mins, parallel::ThreadPool* pool) {
  const rng::IndexSampler pick(span);
  const auto serialFrom = [&](std::size_t first) {
    rng::Xoshiro256StarStar g = start;
    g.discard(first * draws);
    for (std::size_t b = first; b < mins.size(); ++b) {
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < draws; ++i) {
        best = std::min(best, valueAt(pick(g)));
      }
      mins[b] = best;
    }
  };

  const std::size_t blocks =
      (mins.size() + kBootstrapBlock - 1) / kBootstrapBlock;
  if (pool == nullptr || pool->threadCount() < 2 || blocks < 2) {
    serialFrom(0);
    return;
  }
  std::vector<std::uint8_t> rejected(blocks, 0);
  parallel::parallelFor(*pool, blocks, [&](std::size_t k) {
    const std::size_t first = k * kBootstrapBlock;
    const std::size_t last = std::min(first + kBootstrapBlock, mins.size());
    rng::Xoshiro256StarStar g = start;
    g.discard(first * draws);
    for (std::size_t b = first; b < last; ++b) {
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < draws; ++i) {
        const std::uint64_t v = g();
        if (!pick.accepts(v)) {
          rejected[k] = 1;
          return;
        }
        best = std::min(best, valueAt(pick.index(v)));
      }
      mins[b] = best;
    }
  });
  const auto firstRejected = std::find(rejected.begin(), rejected.end(), 1);
  if (firstRejected != rejected.end()) {
    serialFrom(static_cast<std::size_t>(firstRejected - rejected.begin()) *
               kBootstrapBlock);
  }
}

}  // namespace fepia::validate
