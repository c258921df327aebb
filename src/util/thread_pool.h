// Fixed-size thread pool with two ways in.
//
// submit() queues a task and returns its future. The serving workers use it,
// as do tests and tools that want plain task parallelism.
//
// fork_join() runs one call split into ranges and returns when every range
// has finished. It is the path under kernels::parallel_for_ranges, so the
// runtime's kernel pool (one per MultiGpuRuntime, shared by every replica's
// workspace and the merge) runs each parallel kernel through it, from the
// scheduler thread in deterministic mode and from the GPU-manager threads of
// the threaded executor. The caller runs range 0 and takes any range no
// worker has claimed, so a fork never waits for a busy worker to start.
// Workers of a pool that forks poll with sched_yield() for a short while
// before they park: a parked worker woken by the caller is often placed on
// the caller's CPU, where it cannot run in parallel with it. DESIGN.md
// ("Kernel execution") has the measurements.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace hetero::util {

class ThreadPool {
 public:
  /// Creates `num_threads` workers (at least 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; returns a future for its completion/result.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
      ++queued_;
    }
    cv_.notify_one();
    return fut;
  }

  /// Runs fn(r) for every r in [0, ranges) and returns once all of them
  /// have finished. The caller runs range 0 itself; idle workers claim the
  /// others and the caller runs any that are still unclaimed. A fork made
  /// while another fork holds the pool (a nested call from inside a range,
  /// or a concurrent call from another thread) runs its ranges in order on
  /// the calling thread instead. If ranges throw, the first exception is
  /// rethrown after every range has finished. Allocates nothing.
  template <typename Fn>
  void fork_join(std::size_t ranges, Fn&& fn) {
    using F = std::remove_reference_t<Fn>;
    fork_join_erased(
        ranges, [](void* f, std::size_t r) { (*static_cast<F*>(f))(r); },
        const_cast<void*>(static_cast<const void*>(std::addressof(fn))));
  }

  /// Runs f(i) for i in [0, n) across the pool and waits for completion;
  /// indices are handed out dynamically over min(n, size()) fork ranges.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& f);

  std::size_t size() const { return workers_.size(); }

 private:
  using RangeFn = void (*)(void*, std::size_t);

  void fork_join_erased(std::size_t ranges, RangeFn invoke, void* fn);
  // Claims the next unclaimed range of the current fork and runs it.
  // Returns false when the fork has no unclaimed range left.
  bool run_claimed_range();
  void run_range(std::size_t r);
  bool fork_claimable() const;
  bool take_task(std::function<void()>& task);
  void worker_loop();

  // Task queue (submit). queued_ mirrors queue_.size() so spinning workers
  // can poll it without the lock.
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::atomic<std::size_t> queued_{0};
  std::atomic<std::size_t> parked_{0};  // workers waiting on cv_
  std::atomic<bool> stop_{false};

  // The fork that holds the pool. fork_owned_ admits one fork at a time.
  // fork_claim_ = (ranges << 32) | next unclaimed range; a range is claimed
  // by a compare-exchange of that word, so a claim always names a range of
  // the fork that currently holds the pool. The owner writes the fields
  // below before it publishes the word, and rewrites them only after
  // fork_pending_ reached zero, so a worker that claimed a range reads them
  // unchanged.
  std::atomic<bool> fork_owned_{false};
  std::atomic<std::uint64_t> fork_claim_{0};
  std::atomic<std::size_t> fork_pending_{0};  // ranges not yet finished
  std::atomic<bool> fork_failed_{false};
  RangeFn fork_invoke_ = nullptr;
  void* fork_fn_ = nullptr;
  std::exception_ptr fork_error_;  // first exception; set by the first thrower

  std::vector<std::thread> workers_;  // last: started after the state above
};

}  // namespace hetero::util
