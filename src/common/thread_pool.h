#ifndef SDMS_COMMON_THREAD_POOL_H_
#define SDMS_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace sdms {

/// A fixed-size worker pool for CPU-bound fan-out (batch indexing,
/// parallel analysis). Tasks are plain callables; Submit returns a
/// future for the callable's result. The pool is created with a fixed
/// thread count and joins all workers on destruction, after draining
/// the queue.
///
/// Thread-safety: Submit/ParallelFor may be called from any thread,
/// including from inside a pool task (ParallelFor detects that case and
/// runs inline to avoid deadlocking a fully-occupied pool).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  /// Enqueues `fn`; the future resolves with its result (or exception).
  template <typename Fn, typename R = std::invoke_result_t<Fn>>
  std::future<R> Submit(Fn&& fn) {
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> future = task->get_future();
    Enqueue([task] { (*task)(); });
    return future;
  }

  /// Splits [0, n) into per-worker ranges and runs
  /// `body(begin, end)` for each, blocking until all complete. Runs
  /// inline when the pool has one worker, when n is tiny, or when
  /// called from a pool thread.
  void ParallelFor(size_t n,
                   const std::function<void(size_t, size_t)>& body);

  /// True when the calling thread is one of this pool's workers.
  bool InPool() const;

 private:
  void Enqueue(std::function<void()> task);
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

/// Number of threads the default pool uses: the SDMS_THREADS
/// environment variable when set (clamped to [1, 64]), otherwise
/// std::thread::hardware_concurrency(). `0` and negative values clamp
/// to 1, which turns the pool off (work runs sequentially). A value
/// that does not parse as a number is ignored, as if unset.
size_t DefaultThreadCount();

/// Lazily-constructed process-wide pool sized by DefaultThreadCount().
/// Never destroyed (workers live for the process). Returns nullptr when
/// the default thread count is 1 — callers then run sequentially.
ThreadPool* DefaultThreadPool();

}  // namespace sdms

#endif  // SDMS_COMMON_THREAD_POOL_H_
