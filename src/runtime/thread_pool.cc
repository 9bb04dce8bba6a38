#include "src/runtime/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

#include "src/common/contracts.h"

namespace ihbd::runtime {

namespace {

// One link of the chain of fan-outs whose bodies this thread is running,
// innermost first. A worker's chain continues with the poster's chain, so a
// fan-out nested through another pool is recognised; a caller restores its
// chain afterwards, so a worker of one pool can call into another.
struct Frame {
  const ThreadPool* pool;
  const Frame* outer;
};
thread_local const Frame* tls_frames = nullptr;

}  // namespace

/// One parallel_for call, on the caller's stack until no worker is inside.
struct ThreadPool::Job {
  std::size_t n;
  const std::function<void(std::size_t)>* body;
  const Frame* outer;  ///< the posting thread's fan-out chain
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;  ///< first thrown; guarded by ThreadPool::mu_
  int active = 0;            ///< workers inside work_on; guarded by mu_
};

int ThreadPool::default_threads() {
  return static_cast<int>(std::clamp<unsigned>(
      std::thread::hardware_concurrency(), 1, unsigned{kMaxWorkers}));
}

ThreadPool& ThreadPool::shared() {
  // Meyers singleton: created on first use, joined at normal process exit.
  static ThreadPool pool(0);
  return pool;
}

ThreadPool::ThreadPool(int threads) {
  IHBD_EXPECTS(threads >= 0 && threads <= kMaxWorkers);
  if (threads == 0) threads = default_threads();
  try {
    for (int i = 0; i < threads; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  } catch (...) {  // a thread failed to start: join those that did
    stop_and_join();
    throw;
  }
}

ThreadPool::~ThreadPool() { stop_and_join(); }

void ThreadPool::stop_and_join() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    Job* job = job_;
    if (job == nullptr) continue;  // finished before this worker woke
    ++job->active;
    lock.unlock();
    const Frame frame{this, job->outer};
    tls_frames = &frame;
    work_on(*job);  // never throws
    tls_frames = nullptr;
    lock.lock();
    if (--job->active == 0) done_cv_.notify_one();
  }
}

void ThreadPool::work_on(Job& job) {
  try {
    for (;;) {
      if (job.failed.load(std::memory_order_relaxed)) return;
      const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= job.n) return;
      (*job.body)(i);
    }
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!job.error) job.error = std::current_exception();
    job.failed.store(true, std::memory_order_relaxed);
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  for (const Frame* f = tls_frames; f != nullptr; f = f->outer) {
    if (f->pool != this) continue;
    // This pool is already busy with the fan-out this body belongs to.
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  const std::lock_guard<std::mutex> one_caller(caller_mu_);
  Job job{n, &body, tls_frames, {0}, {false}, nullptr, 0};
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &job;
    ++generation_;
  }
  work_cv_.notify_all();
  const Frame frame{this, tls_frames};
  tls_frames = &frame;
  work_on(job);
  tls_frames = frame.outer;
  std::unique_lock<std::mutex> lock(mu_);
  job_ = nullptr;  // workers that wake from here on skip it
  done_cv_.wait(lock, [&] { return job.active == 0; });
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace ihbd::runtime
