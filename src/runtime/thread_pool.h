// Fixed-size thread pool whose one primitive is parallel_for(n, body): the
// execution substrate of the sweep engine (src/runtime/sweep.h).
//
//   * body(i) runs exactly once for every i in [0, n); the calling thread
//     works alongside the workers (a 1-worker pool runs on two threads).
//   * Indices are claimed one at a time from an atomic cursor, so bodies
//     must write only state owned by their index; results are then
//     bit-identical for any pool width.
//   * After a throw, unclaimed indices are skipped and the first exception
//     is rethrown to the caller. The pool stays usable.
//   * One outside fan-out runs at a time (outside callers queue on a
//     mutex). A parallel_for issued from a body of this pool's fan-out,
//     directly or through a fan-out on another pool, runs inline.
//
// shared() is the process-wide pool sized to the hardware and the sweep
// engine's default; construct a dedicated ThreadPool only to pin a width
// (the benches' --threads N, or a test that needs a 1-worker pool).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ihbd::runtime {

/// Cap on pool threads (the benches' --threads) and forked sweep workers
/// (ihbd-sweepd run --workers); parsers reject more before starting any.
inline constexpr int kMaxWorkers = 1024;

class ThreadPool {
 public:
  /// threads == 0 picks default_threads(); at most kMaxWorkers. Workers
  /// start immediately and live until destruction.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Hardware concurrency with a floor of 1 (hardware_concurrency may
  /// report 0 on exotic platforms) and a ceiling of kMaxWorkers.
  static int default_threads();

  /// The lazily-created process-wide pool (default_threads() workers).
  static ThreadPool& shared();

  /// Run body(i) for every i in [0, n); see the contract above.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

 private:
  struct Job;

  void worker_loop();
  /// Claim and run `job`'s indices until none are left or a body threw.
  void work_on(Job& job);
  void stop_and_join();

  std::mutex caller_mu_;  ///< held by the one outside fan-out in progress
  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers: generation_ moved or stop_
  std::condition_variable done_cv_;  ///< caller: job_->active reached 0
  Job* job_ = nullptr;               ///< guarded by mu_; open to joiners
  std::uint64_t generation_ = 0;     ///< guarded by mu_; bumped per job
  bool stop_ = false;                ///< guarded by mu_
  std::vector<std::thread> workers_;
};

/// Resolves run_sweep*'s (threads, pool) pair: an explicit `pool` wins
/// (borrowed); else threads == 0 borrows shared() and threads > 0 owns a
/// dedicated pool of that width for the PoolRef's lifetime.
class PoolRef {
 public:
  explicit PoolRef(int threads, ThreadPool* pool = nullptr)
      : owned_(pool != nullptr || threads == 0
                   ? nullptr
                   : std::make_unique<ThreadPool>(threads)),
        pool_(pool != nullptr ? pool
              : owned_        ? owned_.get()
                              : &ThreadPool::shared()) {}

  ThreadPool* get() const { return pool_; }
  ThreadPool& operator*() const { return *pool_; }
  ThreadPool* operator->() const { return pool_; }

 private:
  std::unique_ptr<ThreadPool> owned_;
  ThreadPool* pool_;
};

}  // namespace ihbd::runtime
