#include "serve/server.h"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/error.h"

namespace hetero::serve {

namespace {

std::uint64_t elapsed_us(Server::Clock::time_point from,
                         Server::Clock::time_point to);

}  // namespace

Server::Server(SnapshotStore& store, ServerConfig cfg)
    : store_(store), cfg_(cfg) {
  if (cfg_.workers == 0 || cfg_.max_batch == 0 || cfg_.queue_cap == 0 ||
      cfg_.topk == 0) {
    throw std::invalid_argument(
        "serve::Server: workers, max_batch, queue_cap, topk must be > 0");
  }
  const auto snap = store_.current();
  if (!snap) {
    throw std::invalid_argument(
        "serve::Server: store holds no snapshot; publish the initial model "
        "(or publish_from_file) before starting the server");
  }
  num_features_ = snap->info().num_features;
  pool_ = std::make_unique<util::ThreadPool>(cfg_.workers);
  worker_done_.reserve(cfg_.workers);
  for (std::size_t i = 0; i < cfg_.workers; ++i) {
    worker_done_.push_back(pool_->submit([this] { worker_loop(); }));
  }
}

Server::~Server() { stop(); }

std::future<Response> Server::submit(Request req) {
  for (const auto& e : req.features) {
    if (e.col >= num_features_) {
      throw ParseError("serve-request",
                       "feature column " + std::to_string(e.col) +
                           " out of range (num_features=" +
                           std::to_string(num_features_) + ")");
    }
  }
  std::promise<Response> promise;
  std::future<Response> fut = promise.get_future();
  const auto now = Clock::now();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stop_ || queue_.size() >= cfg_.queue_cap) {
      lock.unlock();
      shed_.fetch_add(1, std::memory_order_relaxed);
      Response r;
      r.shed = true;
      r.retry_after_us = cfg_.latency_budget_us;
      promise.set_value(std::move(r));
      return fut;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    queue_.push_back(Pending{std::move(req), std::move(promise), now});
  }
  cv_.notify_one();
  return fut;
}

void Server::worker_loop() {
  QueryScratch scratch;
  std::vector<Pending> wave;
  std::shared_ptr<const ModelSnapshot> snap;
  for (;;) {
    wave.clear();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop requested and queue drained
      const std::size_t n = std::min(queue_.size(), cfg_.max_batch);
      for (std::size_t i = 0; i < n; ++i) {
        wave.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }

    // Counted at formation, not completion: anyone who has observed all of
    // a wave's responses must also observe the wave in stats().
    waves_.fetch_add(1, std::memory_order_relaxed);
    const auto wave_start = Clock::now();
    // Re-validated per wave: this is the hot-swap point. Wait-free while
    // the cached snapshot is still newest; the store never goes back to
    // empty, so snap is non-null.
    snap = store_.refresh(std::move(snap));
    sparse::CsrBuilder builder(num_features_);
    for (const auto& p : wave) {
      builder.add_row(std::span<const sparse::Entry>(p.req.features));
    }
    const sparse::CsrMatrix x = builder.build();
    snap->forward_hidden(x, scratch);
    if (!cfg_.use_lsh) snap->score_output(scratch);

    const std::uint64_t latest_version = store_.version();
    for (std::size_t i = 0; i < wave.size(); ++i) {
      Pending& p = wave[i];
      const std::size_t k = p.req.k != 0 ? p.req.k : cfg_.topk;
      Response r;
      if (cfg_.use_lsh) {
        const bool used = snap->topk_lsh(i, k, scratch, r.topk);
        r.lsh_path = used;
        r.lsh_fallback = !used;
        (used ? lsh_rows_ : lsh_fallback_rows_)
            .fetch_add(1, std::memory_order_relaxed);
      } else {
        snap->topk_exact(scratch, i, k, r.topk);
        exact_rows_.fetch_add(1, std::memory_order_relaxed);
      }
      r.snapshot_version = snap->version();
      r.version_lag = latest_version - snap->version();
      r.wave_size = wave.size();
      r.queue_us = elapsed_us(p.enqueued, wave_start);
      r.service_us = elapsed_us(p.enqueued, Clock::now());
      served_.fetch_add(1, std::memory_order_relaxed);
      p.promise.set_value(std::move(r));
    }
  }
}

void Server::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& f : worker_done_) {
    if (f.valid()) f.get();
  }
  worker_done_.clear();
}

ServerStats Server::stats() const {
  ServerStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.served = served_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.waves = waves_.load(std::memory_order_relaxed);
  s.exact_rows = exact_rows_.load(std::memory_order_relaxed);
  s.lsh_rows = lsh_rows_.load(std::memory_order_relaxed);
  s.lsh_fallback_rows = lsh_fallback_rows_.load(std::memory_order_relaxed);
  return s;
}

namespace {

std::uint64_t elapsed_us(Server::Clock::time_point from,
                         Server::Clock::time_point to) {
  if (to <= from) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

}  // namespace

}  // namespace hetero::serve
