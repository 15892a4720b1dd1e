#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <string>

namespace fepia::parallel {

ThreadPool::ThreadPool(std::size_t threads) {
  std::size_t n = threads;
  if (n == 0) {
    n = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workerTasks_ = std::make_unique<std::atomic<std::uint64_t>[]>(n);
  for (std::size_t i = 0; i < n; ++i) workerTasks_[i].store(0);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { workerLoop(i); });
  }
}

void ThreadPool::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::workerLoop(std::size_t workerIndex) {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
      queueDepth_.fetch_sub(1, std::memory_order_relaxed);
      if (task.submitNs != 0) {
        const std::uint64_t now = obs::nowNanos();
        waitHist_.record(static_cast<double>(now >= task.submitNs
                                                 ? now - task.submitNs
                                                 : 0) /
                         1e3);
      }
    }
    workerTasks_[workerIndex].fetch_add(1, std::memory_order_relaxed);
    activeWorkers_.fetch_add(1, std::memory_order_relaxed);
    FEPIA_SPAN_ARG("pool.task", "worker", workerIndex);
    task.fn();  // packaged_task captures exceptions into the future
    activeWorkers_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void ThreadPool::liveGauges(obs::Registry& out) const {
  out.setGauge("pool.threads", static_cast<double>(workers_.size()));
  out.setGauge("pool.queue_depth", static_cast<double>(queueDepth()));
  out.setGauge("pool.active_workers", static_cast<double>(activeWorkers()));
}

void ThreadPool::exportMetrics(obs::Registry& out) {
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    out.counters().bump(
        "pool.worker" + std::to_string(i) + ".tasks",
        workerTasks_[i].load(std::memory_order_relaxed));
  }
  obs::Histogram waits = obs::Histogram::exponential(1.0, 4.0, 10);
  std::uint64_t submitted = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    waits.merge(waitHist_);
    submitted = submitted_;
  }
  out.counters().bump("pool.submitted", submitted);
  if (waits.count() > 0) {
    out.histogram("pool.wait_us", waits.upperBounds()).merge(waits);
  }
}

namespace {

/// Rethrows `first`; when other tasks failed too, as a runtime_error
/// whose message names `caller` and counts the suppressed failures.
[[noreturn]] void rethrowAggregated(const std::exception_ptr& first,
                                    std::size_t suppressed,
                                    const char* caller) {
  if (suppressed == 0) std::rethrow_exception(first);
  const std::string suffix = std::string(" [") + caller + ": " +
                             std::to_string(suppressed) +
                             " additional task failure(s) suppressed]";
  try {
    std::rethrow_exception(first);
  } catch (const std::exception& e) {
    throw std::runtime_error(e.what() + suffix);
  } catch (...) {
    throw std::runtime_error("non-standard exception" + suffix);
  }
}

/// Waits for every future, folding its failure into (first, suppressed).
void drain(std::vector<std::future<void>>& futures, std::exception_ptr& first,
           std::size_t& suppressed) {
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first) {
        first = std::current_exception();
      } else {
        ++suppressed;
      }
    }
  }
}

/// The failed indices of one parallelFor: the exception of the smallest
/// one, so the rethrown error does not depend on scheduling, and how
/// many failed.
struct IndexFailures {
  std::mutex mutex;
  std::exception_ptr first;
  std::size_t firstIndex = 0;
  std::size_t count = 0;

  void record(std::size_t index, std::exception_ptr error) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (!first || index < firstIndex) {
      first = std::move(error);
      firstIndex = index;
    }
    ++count;
  }
};

/// Runs body(i) for each index claimed from `cursor` until all `count`
/// are taken. A failing index is recorded and the loop goes on, so one
/// failure never strands the indices behind it.
void claimIndices(std::atomic<std::size_t>& cursor, std::size_t count,
                  const std::function<void(std::size_t)>& body,
                  IndexFailures& failures) {
  for (std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
       i < count; i = cursor.fetch_add(1, std::memory_order_relaxed)) {
    try {
      body(i);
    } catch (...) {
      failures.record(i, std::current_exception());
    }
  }
}

}  // namespace

void parallelFor(ThreadPool& pool, std::size_t count,
                 const std::function<void(std::size_t)>& body) {
  if (!body) throw std::invalid_argument("parallel::parallelFor: null body");
  if (count == 0) return;

  std::atomic<std::size_t> cursor{0};
  IndexFailures failures;

  // A single-worker pool gains nothing from the queue: submitting would
  // only add packaged_task/future/condition-variable overhead on top of
  // strictly serial execution (measured ~40% slower on the fault-sweep
  // bench). Its one task runs inline, with the failure handling of the
  // pooled path.
  if (pool.threadCount() == 1) {
    pool.noteInlineTask();
    {
      FEPIA_SPAN_ARG("pool.task", "worker", std::size_t{0});
      claimIndices(cursor, count, body, failures);
    }
    if (failures.first) {
      rethrowAggregated(failures.first, failures.count - 1, "parallelFor");
    }
    return;
  }

  // Submission can itself fail (submit throws once shutdown started).
  // Propagating that immediately would abandon the tasks already
  // queued: they still reference `body` on this frame — a use-after-free
  // once the caller unwinds. So a submit failure only stops
  // *submitting*; the already-queued futures are always drained below
  // and the failure joins the aggregate like any task failure. This is
  // the audit contract for every catch site in this file: a task
  // exception is either rethrown or counted into the rethrown message —
  // never silently swallowed (load-bearing for the resident fepiad
  // server, where a swallowed exception is an invisibly wrong reply).
  const std::size_t tasks = std::min(count, pool.threadCount());
  std::vector<std::future<void>> futures;
  futures.reserve(tasks);
  std::exception_ptr submitFailure;
  for (std::size_t t = 0; t < tasks; ++t) {
    try {
      futures.push_back(pool.submit([&cursor, count, &body, &failures] {
        claimIndices(cursor, count, body, failures);
      }));
    } catch (...) {
      submitFailure = std::current_exception();
      break;
    }
  }
  // Propagate the smallest index's failure; every further failure (of
  // an index, a task or a submission) is counted into the rethrown
  // message instead of vanishing silently.
  std::exception_ptr first;
  std::size_t suppressed = 0;
  drain(futures, first, suppressed);  // after this, no task is running
  if (failures.first) {
    suppressed += failures.count - 1 + (first ? 1 : 0);
    first = failures.first;
  }
  if (submitFailure) {
    if (!first) {
      first = submitFailure;
    } else {
      ++suppressed;
    }
  }
  if (first) rethrowAggregated(first, suppressed, "parallelFor");
}

void forkJoin(ThreadPool& pool, std::size_t count,
              const std::function<void(std::size_t)>& body) {
  if (!body) throw std::invalid_argument("parallel::forkJoin: null body");
  if (count == 0) return;
  // Same audit contract as parallelFor: queued tasks reference `body`,
  // so they are always drained before any failure propagates.
  std::vector<std::future<void>> futures;
  futures.reserve(count - 1);
  std::exception_ptr first;
  std::size_t suppressed = 0;
  try {
    for (std::size_t i = 1; i < count; ++i) {
      futures.push_back(pool.submit([&body, i] { body(i); }));
    }
    body(0);
  } catch (...) {
    first = std::current_exception();
  }
  drain(futures, first, suppressed);
  if (first) rethrowAggregated(first, suppressed, "forkJoin");
}

}  // namespace fepia::parallel
