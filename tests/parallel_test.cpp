#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace parallel = fepia::parallel;

TEST(ParallelPool, RunsSubmittedTasksAndReturnsValues) {
  parallel::ThreadPool pool(4);
  EXPECT_EQ(pool.threadCount(), 4u);
  auto f1 = pool.submit([] { return 21 * 2; });
  auto f2 = pool.submit([] { return std::string("done"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "done");
}

TEST(ParallelPool, DefaultsToHardwareConcurrency) {
  parallel::ThreadPool pool;
  EXPECT_GE(pool.threadCount(), 1u);
}

TEST(ParallelPool, ExceptionsTravelThroughFutures) {
  parallel::ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW((void)f.get(), std::runtime_error);
}

TEST(ParallelPool, ManyTasksAllComplete) {
  parallel::ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 500; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 500);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  parallel::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel::parallelFor(pool, hits.size(),
                        [&hits](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, IdleWorkersTakeTheIndicesBehindABlockedOne) {
  // Index 0 waits, with a bound, until the other 63 indices have run.
  // Self-scheduled indices let the three other workers run them all.
  // Static blocks would queue some of them behind index 0 on its own
  // worker, and the wait could only time out.
  parallel::ThreadPool pool(4);
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t others = 0;
  bool released = false;
  parallel::parallelFor(pool, 64, [&](std::size_t i) {
    std::unique_lock<std::mutex> lock(mutex);
    if (i == 0) {
      released = cv.wait_for(lock, std::chrono::seconds(10),
                             [&] { return others == 63; });
    } else if (++others == 63) {
      cv.notify_all();
    }
  });
  EXPECT_TRUE(released) << "index 0 timed out with " << others
                        << " of the other 63 indices run";
}

TEST(ParallelFor, SkewedCostsRunEveryIndexExactlyOnce) {
  for (const std::size_t threads : {2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    parallel::ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(300);
    parallel::parallelFor(pool, hits.size(), [&hits](std::size_t i) {
      // A few heavy indices, bunched at the front and scattered after.
      if (i < 3 || i % 41 == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      ++hits[i];
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ParallelFor, ZeroCountIsNoop) {
  parallel::ThreadPool pool(2);
  bool touched = false;
  parallel::parallelFor(pool, 0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
  EXPECT_THROW(parallel::parallelFor(pool, 5, nullptr), std::invalid_argument);
}

TEST(ParallelFor, FirstExceptionPropagates) {
  parallel::ThreadPool pool(4);
  EXPECT_THROW(parallel::parallelFor(pool, 100,
                                     [](std::size_t i) {
                                       if (i == 37) {
                                         throw std::domain_error("bad index");
                                       }
                                     }),
               std::domain_error);
}

TEST(ParallelFor, SuppressedFailuresAreCounted) {
  // When several tasks fail, the rethrown error must say how many extra
  // failures were swallowed instead of dropping them silently.
  parallel::ThreadPool pool(4);
  try {
    parallel::parallelFor(pool, 100, [](std::size_t i) {
      if (i % 10 == 0) throw std::domain_error("bad index " + std::to_string(i));
    });
    FAIL() << "parallelFor should have thrown";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bad index"), std::string::npos) << what;
    EXPECT_NE(what.find("additional task failure"), std::string::npos) << what;
    EXPECT_NE(what.find("suppressed"), std::string::npos) << what;
  }
}

TEST(ParallelFor, SingleFailureKeepsOriginalExceptionType) {
  // Exactly one failing index: the original exception must be rethrown
  // unmodified (no aggregation suffix), preserving its dynamic type.
  parallel::ThreadPool pool(4);
  try {
    parallel::parallelFor(pool, 100, [](std::size_t i) {
      if (i == 42) throw std::domain_error("lonely failure");
    });
    FAIL() << "parallelFor should have thrown";
  } catch (const std::domain_error& e) {
    EXPECT_STREQ(e.what(), "lonely failure");
  }
}

TEST(ParallelFor, SingleWorkerPoolRunsInlineWithSameSemantics) {
  // A one-worker pool executes parallelFor on the calling thread (no
  // queue round-trip — the fix for the threads=1 fault-bench
  // regression). Semantics must match the pooled path exactly: full
  // coverage, first-exception propagation, suppressed-failure counting.
  parallel::ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::vector<int> hits(257, 0);
  std::thread::id seen{};
  parallel::parallelFor(pool, hits.size(), [&](std::size_t i) {
    ++hits[i];
    seen = std::this_thread::get_id();
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
  EXPECT_EQ(seen, caller) << "threads=1 should not bounce through a worker";

  EXPECT_THROW(parallel::parallelFor(pool, 10,
                                     [](std::size_t i) {
                                       if (i == 3) {
                                         throw std::domain_error("inline");
                                       }
                                     }),
               std::domain_error);
  try {
    // Every index fails: the smallest propagates, the rest are counted
    // into the message.
    parallel::parallelFor(pool, 4, [](std::size_t i) {
      throw std::domain_error("bad index " + std::to_string(i));
    });
    FAIL() << "parallelFor should have thrown";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bad index 0"), std::string::npos) << what;
    EXPECT_NE(what.find("3 additional task failure"), std::string::npos)
        << what;
  }
}

TEST(ForkJoin, CallerRunsTheFirstPieceAndWorkersTheRest) {
  parallel::ThreadPool pool(3);
  const auto caller = std::this_thread::get_id();
  std::vector<int> hits(5, 0);
  std::vector<std::thread::id> ran(5);
  parallel::forkJoin(pool, hits.size(), [&](std::size_t i) {
    ++hits[i];
    ran[i] = std::this_thread::get_id();
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
  EXPECT_EQ(ran[0], caller);
  for (std::size_t i = 1; i < ran.size(); ++i) EXPECT_NE(ran[i], caller);
  parallel::forkJoin(pool, 0, [](std::size_t) { FAIL(); });
}

TEST(ForkJoin, WaitsForEveryPieceAndAggregatesFailures) {
  parallel::ThreadPool pool(2);
  std::atomic<int> finished{0};
  try {
    // The caller's piece fails at once; the others must still finish
    // before the failure propagates (they use the caller's frame).
    parallel::forkJoin(pool, 4, [&](std::size_t i) {
      if (i == 0) throw std::domain_error("caller piece");
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      finished.fetch_add(1);
      if (i == 3) throw std::domain_error("worker piece");
    });
    FAIL() << "forkJoin should have thrown";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("caller piece"), std::string::npos) << what;
    EXPECT_NE(what.find("1 additional task failure"), std::string::npos)
        << what;
  }
  EXPECT_EQ(finished.load(), 3);
}

TEST(ParallelPool, SubmitAfterShutdownThrows) {
  parallel::ThreadPool pool(2);
  auto f = pool.submit([] { return 1; });
  EXPECT_EQ(f.get(), 1);
  pool.shutdown();
  EXPECT_THROW((void)pool.submit([] { return 2; }), std::runtime_error);
}

TEST(ParallelPool, ShutdownIsIdempotent) {
  parallel::ThreadPool pool(2);
  pool.shutdown();
  pool.shutdown();  // second call is a no-op, not a crash
  EXPECT_THROW((void)pool.submit([] {}), std::runtime_error);
}

// Regression for the resident-server audit of the catch (...) sites:
// a task exception must never be silently dropped, at any pool size.
// threads=1 takes the inline path, threads>1 the queued path; both must
// deliver the thrown error (with the repo's aggregation contract) while
// still running every non-throwing iteration.
TEST(ParallelFor, TaskExceptionsNeverDroppedAtAnyThreadCount) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    parallel::ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(64);
    bool threw = false;
    try {
      parallel::parallelFor(pool, hits.size(), [&hits](std::size_t i) {
        if (i == 17) throw std::runtime_error("task 17 failed");
        ++hits[i];
      });
    } catch (const std::exception& e) {
      threw = true;
      EXPECT_NE(std::string(e.what()).find("task 17 failed"),
                std::string::npos)
          << e.what();
    }
    EXPECT_TRUE(threw);
    for (std::size_t i = 0; i < hits.size(); ++i) {
      // A failing index does not stop its worker: every other index ran.
      if (i != 17) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
      }
    }
  }
}

TEST(ParallelFor, EveryFailingThreadCountAggregatesAllFailures) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    parallel::ThreadPool pool(threads);
    try {
      parallel::parallelFor(pool, 256, [](std::size_t i) {
        throw std::runtime_error("bad index " + std::to_string(i));
      });
      FAIL() << "parallelFor swallowed every failure";
    } catch (const std::exception& e) {
      const std::string what = e.what();
      // The smallest failing index is the one rethrown, and the other
      // 255 failures are counted, not dropped.
      EXPECT_NE(what.find("bad index 0"), std::string::npos) << what;
      EXPECT_NE(what.find("255 additional task failure"), std::string::npos)
          << what;
    }
  }
}

// A submit() that fails mid-fan-out (pool already shutting down) must
// not abandon the tasks it managed to queue: parallelFor waits for
// them — they reference the caller's frame — and the shutdown error is
// reported instead of being masked or leaking a use-after-free.
TEST(ParallelFor, SubmitFailureStillDrainsSubmittedChunks) {
  parallel::ThreadPool pool(2);
  pool.shutdown();
  std::atomic<int> ran{0};
  EXPECT_THROW(
      parallel::parallelFor(pool, 64, [&ran](std::size_t) { ++ran; }),
      std::runtime_error);
  EXPECT_EQ(ran.load(), 0);  // nothing was queued, nothing ran
}

