// Concurrent online-inference server.
//
// N worker threads (util::ThreadPool) pull sparse queries from a bounded
// MPMC queue and serve them against the SnapshotStore's current snapshot.
// Three policies from DESIGN.md §12:
//
//   Work-conserving waves — a worker that wakes takes every queued
//   request, up to max_batch, into one wave (a single CSR spmm forward)
//   and starts it at once; it never waits for more arrivals. A wave's
//   compute grows linearly with its size and has little fixed cost
//   (DESIGN.md §12), so holding a wave open would only add queue wait.
//   Waves grow from backlog that built up while every worker was busy.
//
//   Backpressure — once the queue holds queue_cap requests, submissions
//   are shed synchronously: the future resolves immediately with
//   shed=true and a retry_after_us hint, and the shed is counted. Memory
//   stays bounded under overload.
//
//   Hot-swap — each wave re-reads store.current(); a merge boundary
//   publishing a new version is picked up by the next wave with no pause.
//   Responses carry the snapshot version and how many versions it trails
//   the store by, so clients can see how stale their answer is.
//
// Determinism: per-request results are bit-stable regardless of worker
// count or how requests are grouped into waves, because every kernel on
// the serving path computes each output row from its own input row only,
// and top-k tie-breaking is by label id (nn/topk.h).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "serve/snapshot.h"
#include "sparse/csr.h"
#include "util/thread_pool.h"

namespace hetero::serve {

struct ServerConfig {
  std::size_t workers = 2;
  std::size_t max_batch = 8;           // wave size cap
  std::size_t queue_cap = 1024;        // backpressure threshold
  // Returned to shed requests as Response::retry_after_us; waves do not
  // wait on it (they start as soon as a worker is free).
  std::uint64_t latency_budget_us = 2000;
  std::size_t topk = 5;                // default k (Request::k = 0)
  bool use_lsh = false;                // SLIDE candidate path
};

/// One sparse query: (feature, value) pairs, column-space = num_features.
struct Request {
  std::vector<sparse::Entry> features;
  std::size_t k = 0;  // 0 = ServerConfig::topk
};

struct Response {
  std::vector<ScoredLabel> topk;

  // Provenance.
  std::uint64_t snapshot_version = 0;
  std::uint64_t version_lag = 0;  // store version - serving version

  // Path taken.
  bool lsh_path = false;      // scored LSH candidates only
  bool lsh_fallback = false;  // LSH mode but candidates were thin

  // Backpressure.
  bool shed = false;
  std::uint64_t retry_after_us = 0;

  // Timing/shape (zero for shed responses).
  std::size_t wave_size = 0;
  std::uint64_t queue_us = 0;    // submit -> wave start
  std::uint64_t service_us = 0;  // submit -> response ready
};

struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  std::uint64_t waves = 0;
  std::uint64_t exact_rows = 0;
  std::uint64_t lsh_rows = 0;
  std::uint64_t lsh_fallback_rows = 0;
};

class Server {
 public:
  /// Starts cfg.workers serving threads immediately. The store must hold a
  /// snapshot already (publish the initial model, or publish_from_file,
  /// before constructing); throws std::invalid_argument otherwise, or on a
  /// zero-sized config.
  Server(SnapshotStore& store, ServerConfig cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  using Clock = std::chrono::steady_clock;

  /// Enqueues a query. Throws hetero::ParseError when a feature column is
  /// out of range for the served model. Under backpressure the returned
  /// future is already resolved with shed=true.
  std::future<Response> submit(Request req);

  /// Drains the queue, then stops and joins the workers. Idempotent;
  /// called by the destructor. submit() after stop() sheds.
  void stop();

  ServerStats stats() const;
  const ServerConfig& config() const { return cfg_; }

 private:
  struct Pending {
    Request req;
    std::promise<Response> promise;
    Clock::time_point enqueued;
  };

  void worker_loop();

  SnapshotStore& store_;
  ServerConfig cfg_;
  std::size_t num_features_ = 0;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stop_ = false;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> waves_{0};
  std::atomic<std::uint64_t> exact_rows_{0};
  std::atomic<std::uint64_t> lsh_rows_{0};
  std::atomic<std::uint64_t> lsh_fallback_rows_{0};

  std::vector<std::future<void>> worker_done_;
  std::unique_ptr<util::ThreadPool> pool_;  // last member: joins first
};

}  // namespace hetero::serve
