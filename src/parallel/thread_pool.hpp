// Minimal fixed-size thread pool and a blocking parallel-for.
//
// The robustness analyses decompose naturally over independent units —
// per-feature radii, per-direction probes, per-replication traces — so a
// simple fork-join pool covers the library's parallel needs without
// imposing a runtime. Exceptions thrown by tasks are captured and
// rethrown to the caller: the first one wins, and when several
// iterations fail the rethrown error message carries the count of the
// suppressed ones, keeping the error contract of the serial code paths
// without silently discarding failures.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace fepia::parallel {

/// Fixed-size worker pool. Threads start in the constructor and join in
/// the destructor (after draining the queue).
class ThreadPool {
 public:
  /// Creates `threads` workers; 0 selects the hardware concurrency
  /// (at least 1). Throws nothing beyond thread-creation failures.
  explicit ThreadPool(std::size_t threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains pending work and joins the workers.
  ~ThreadPool();

  /// Number of worker threads.
  [[nodiscard]] std::size_t threadCount() const noexcept {
    return workers_.size();
  }

  /// Stops accepting work, drains the queue and joins the workers.
  /// Idempotent; the destructor calls it. After shutdown(), submit()
  /// throws instead of enqueueing tasks that would never run.
  void shutdown();

  /// Schedules a task; the future carries its result or exception.
  /// Throws std::runtime_error when the pool is shutting down — work
  /// enqueued past that point could be dropped without ever running.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using Result = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<Result()>>(
        std::forward<Fn>(fn));
    std::future<Result> out = task->get_future();
    // Submit-time stamp for the wait histogram; 0 when latency sampling
    // is off so the uninstrumented hot path never reads the clock.
    const std::uint64_t submitNs = obs::timingEnabled() ? obs::nowNanos() : 0;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) {
        throw std::runtime_error(
            "parallel::ThreadPool::submit: pool is shutting down");
      }
      queue_.emplace(Task{[task] { (*task)(); }, submitNs});
      ++submitted_;
      queueDepth_.fetch_add(1, std::memory_order_relaxed);
    }
    wake_.notify_one();
    return out;
  }

  /// Copies the pool's metrics into `out`: per-worker executed-task
  /// counters ("pool.worker<i>.tasks"), total submissions, and — when
  /// obs::timingEnabled() was on during the run — the submit-to-start
  /// wait histogram "pool.wait_us". Safe to call while workers run
  /// (counters are read relaxed; the histogram under the queue lock).
  void exportMetrics(obs::Registry& out);

  /// Tasks enqueued but not yet picked up by a worker. A relaxed load —
  /// an instantaneous reading for dashboards, not a synchronisation
  /// point.
  [[nodiscard]] std::size_t queueDepth() const noexcept {
    return queueDepth_.load(std::memory_order_relaxed);
  }

  /// Workers currently inside a task body (relaxed load, same caveat).
  [[nodiscard]] std::size_t activeWorkers() const noexcept {
    return activeWorkers_.load(std::memory_order_relaxed);
  }

  /// Writes the pool's instantaneous occupancy gauges into `out`:
  /// "pool.threads", "pool.queue_depth", "pool.active_workers". This is
  /// the telemetry sampler's live-gauge source — purely relaxed atomic
  /// reads, no pool lock taken.
  void liveGauges(obs::Registry& out) const;

  /// Records the one task of a parallelFor executed inline on the
  /// caller's thread (single-worker fast path): it counts against worker
  /// 0 and the submission total, so exportMetrics and span consumers
  /// see the same task structure as the queued path.
  void noteInlineTask() {
    workerTasks_[0].fetch_add(1, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(mutex_);
    ++submitted_;
  }

 private:
  struct Task {
    std::function<void()> fn;
    std::uint64_t submitNs = 0;  ///< 0 = wait not sampled
  };

  void workerLoop(std::size_t workerIndex);

  std::vector<std::thread> workers_;
  std::queue<Task> queue_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
  std::uint64_t submitted_ = 0;                          ///< under mutex_
  obs::Histogram waitHist_ = obs::Histogram::exponential(1.0, 4.0, 10);
  std::unique_ptr<std::atomic<std::uint64_t>[]> workerTasks_;
  std::atomic<std::size_t> queueDepth_{0};     ///< enqueued, not started
  std::atomic<std::size_t> activeWorkers_{0};  ///< inside a task body
};

/// Runs body(i) for i in [0, count) across the pool and blocks until all
/// complete. The indices are self-scheduled: one task per worker (at
/// most `count`) claims the next unclaimed index from one shared cursor
/// until none is left, so a slow index holds up only the worker that
/// runs it and the others take the rest. Indices are claimed in
/// ascending order, so a caller that puts its heaviest work first gets
/// it started first; the body must not assume any other ordering. A
/// failing index does not stop its worker. The exception of the
/// smallest failing index is rethrown; when other indices also failed,
/// the rethrown message is augmented with their number. A single-worker
/// pool runs its one task inline on the calling thread — same failure
/// handling, none of the queue overhead — so threads=1 costs the same as
/// not using a pool. Throws std::invalid_argument on a null body.
void parallelFor(ThreadPool& pool, std::size_t count,
                 const std::function<void(std::size_t)>& body);

/// Runs body(0) on the calling thread and body(1) .. body(count-1) as
/// one pool task each, and blocks until all complete. For a few
/// equal-sized pieces of short work, where the caller would otherwise
/// sit idle for one wake-up per fork-join. Failures are aggregated as
/// in parallelFor. Throws std::invalid_argument on a null body.
void forkJoin(ThreadPool& pool, std::size_t count,
              const std::function<void(std::size_t)>& body);

}  // namespace fepia::parallel
