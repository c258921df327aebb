#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace hetero::util {

namespace {

constexpr std::uint64_t kRangeMask = 0xffffffffULL;

// How long a worker of a forking pool keeps polling before it parks. It
// covers the serial stretches between the kernels of one training step.
constexpr auto kSpinFor = std::chrono::milliseconds(2);

// Busy-wait iterations before a waiting fork owner starts yielding.
constexpr int kOwnerPauseSpins = 256;

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  num_threads = std::max<std::size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::fork_claimable() const {
  const std::uint64_t claim = fork_claim_;
  return (claim & kRangeMask) < (claim >> 32);
}

bool ThreadPool::run_claimed_range() {
  std::uint64_t claim = fork_claim_;
  for (;;) {
    const std::uint64_t r = claim & kRangeMask;
    if (r >= (claim >> 32)) return false;
    if (fork_claim_.compare_exchange_weak(claim, claim + 1)) {
      run_range(static_cast<std::size_t>(r));
      return true;
    }
  }
}

void ThreadPool::run_range(std::size_t r) {
  try {
    fork_invoke_(fork_fn_, r);
  } catch (...) {
    if (!fork_failed_.exchange(true)) fork_error_ = std::current_exception();
  }
  --fork_pending_;
}

void ThreadPool::fork_join_erased(std::size_t ranges, RangeFn invoke,
                                  void* fn) {
  if (ranges == 0) return;
  bool idle = false;
  if (ranges == 1 || ranges > kRangeMask ||
      !fork_owned_.compare_exchange_strong(idle, true)) {
    // Inline: same ranges, same order, on this thread.
    std::exception_ptr error;
    for (std::size_t r = 0; r < ranges; ++r) {
      try {
        invoke(fn, r);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }

  fork_invoke_ = invoke;
  fork_fn_ = fn;
  fork_pending_ = ranges;
  fork_claim_ = (static_cast<std::uint64_t>(ranges) << 32) | 1;  // 0 is ours
  if (parked_ > 0) {
    { std::lock_guard<std::mutex> lock(mutex_); }
    cv_.notify_all();
  }
  run_range(0);
  while (run_claimed_range()) {
  }
  for (int spins = 0; fork_pending_ != 0;) {
    if (spins < kOwnerPauseSpins) {
      ++spins;
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
  std::exception_ptr error = std::exchange(fork_error_, nullptr);
  fork_failed_ = false;
  fork_owned_ = false;
  if (error) std::rethrow_exception(error);
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& f) {
  if (n == 0) return;
  std::atomic<std::size_t> next{0};
  fork_join(std::min(n, size()), [&](std::size_t) {
    for (std::size_t i = next++; i < n; i = next++) f(i);
  });
}

bool ThreadPool::take_task(std::function<void()>& task) {
  if (queued_ == 0) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  if (queue_.empty()) return false;
  task = std::move(queue_.front());
  queue_.pop_front();
  --queued_;
  return true;
}

void ThreadPool::worker_loop() {
  using Clock = std::chrono::steady_clock;
  std::function<void()> task;
  bool spinning = false;
  Clock::time_point idle_since;
  for (;;) {
    if (run_claimed_range()) {
      spinning = false;
      continue;
    }
    if (take_task(task)) {
      task();
      task = nullptr;
      spinning = false;
      continue;
    }
    if (stop_) return;
    // Only pools that fork poll: a queue-only pool parks at once, as a
    // plain task pool does.
    if (fork_claim_ != 0) {
      const auto now = Clock::now();
      if (!spinning) {
        spinning = true;
        idle_since = now;
      }
      if (now - idle_since < kSpinFor) {
        std::this_thread::yield();
        continue;
      }
    }
    spinning = false;
    std::unique_lock<std::mutex> lock(mutex_);
    ++parked_;
    cv_.wait(lock,
             [this] { return stop_ || !queue_.empty() || fork_claimable(); });
    --parked_;
  }
}

}  // namespace hetero::util
