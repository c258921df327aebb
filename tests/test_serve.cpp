// Online-serving subsystem tests: deterministic top-k tie-breaking,
// snapshot/checkpoint bit-identity, serving from v1/v2/v3 checkpoints,
// hot-swap under concurrent readers (TSan target), work-conserving waves,
// backpressure shedding, and the SLIDE candidate path.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <future>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/adaptive_sgd.h"
#include "data/synthetic.h"
#include "fault/checkpoint.h"
#include "nn/serialize.h"
#include "pinned_run.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "sim/profiles.h"
#include "sparse/csr.h"
#include "util/error.h"
#include "util/rng.h"

namespace hetero {
namespace {

// ---- deterministic top-k --------------------------------------------------

TEST(ServeTopk, TieBreaksByLabelAscending) {
  const std::vector<float> scores{2.0f, 5.0f, 5.0f, 1.0f, 5.0f};
  std::vector<serve::ScoredLabel> out;
  serve::select_topk(scores, 4, out);
  ASSERT_EQ(out.size(), 4u);
  // Three-way tie at 5.0 resolves by ascending label id.
  EXPECT_EQ(out[0].label, 1u);
  EXPECT_EQ(out[1].label, 2u);
  EXPECT_EQ(out[2].label, 4u);
  EXPECT_EQ(out[3].label, 0u);
}

TEST(ServeTopk, CandidateOverloadMatchesDenseOnFullCoverage) {
  const std::vector<float> scores{0.5f, -1.0f, 0.5f, 3.0f, 0.25f, 3.0f};
  std::vector<serve::ScoredLabel> dense;
  serve::select_topk(scores, 3, dense);

  std::vector<serve::ScoredLabel> cands;
  for (std::size_t j = scores.size(); j-- > 0;) {
    cands.push_back({static_cast<std::uint32_t>(j), scores[j]});
  }
  std::vector<serve::ScoredLabel> sparse_out;
  serve::select_topk(cands, 3, sparse_out);

  ASSERT_EQ(sparse_out.size(), dense.size());
  for (std::size_t i = 0; i < dense.size(); ++i) {
    EXPECT_EQ(sparse_out[i].label, dense[i].label);
    EXPECT_EQ(sparse_out[i].score, dense[i].score);
  }
}

TEST(ServeTopk, KLargerThanInputReturnsEverythingSorted) {
  const std::vector<float> scores{1.0f, 4.0f, 2.0f};
  std::vector<serve::ScoredLabel> out;
  serve::select_topk(scores, 10, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].label, 1u);
  EXPECT_EQ(out[1].label, 2u);
  EXPECT_EQ(out[2].label, 0u);
}

// ---- fixture --------------------------------------------------------------

class ServeTest : public ::testing::Test {
 protected:
  ServeTest() : dataset_(data::generate_xml_dataset(data::tiny_profile())) {}

  core::TrainerConfig config() const {
    core::TrainerConfig cfg;
    cfg.hidden = 16;
    cfg.batch_max = 32;
    cfg.batches_per_megabatch = 8;
    cfg.eval_samples = 100;
    cfg.compute_scale = 100.0;
    cfg.num_megabatches = 4;
    return cfg;
  }

  static std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + name;
  }

  /// Publishes the (untrained) initial global model: cheap snapshot source
  /// for serving-behavior tests that don't care about model quality.
  void publish_initial(serve::SnapshotStore& store) const {
    core::AdaptiveSgdTrainer trainer(dataset_, config(),
                                     sim::v100_heterogeneous(2));
    store.publish(trainer.runtime().global_model(), 0.0);
  }

  serve::Request request_for_row(std::size_t row, std::size_t k = 0) const {
    const auto& q = dataset_.test.features;
    serve::Request req;
    req.k = k;
    const auto cols = q.row_cols(row % q.rows());
    const auto vals = q.row_values(row % q.rows());
    for (std::size_t i = 0; i < cols.size(); ++i) {
      req.features.push_back({cols[i], vals[i]});
    }
    return req;
  }

  static void expect_same_topk(const std::vector<serve::ScoredLabel>& a,
                               const std::vector<serve::ScoredLabel>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].label, b[i].label);
      EXPECT_EQ(a[i].score, b[i].score);  // bitwise, not approximate
    }
  }

  /// Exact top-k straight off a snapshot, bypassing the server.
  std::vector<serve::ScoredLabel> snapshot_topk(
      const serve::ModelSnapshot& snap, std::size_t row,
      std::size_t k) const {
    sparse::CsrBuilder builder(dataset_.test.features.cols());
    builder.add_row(request_for_row(row).features);
    serve::QueryScratch scratch;
    snap.forward_hidden(builder.build(), scratch);
    snap.score_output(scratch);
    std::vector<serve::ScoredLabel> out;
    snap.topk_exact(scratch, 0, k, out);
    return out;
  }

  data::XmlDataset dataset_;
};

// ---- snapshots vs checkpoints ---------------------------------------------

TEST_F(ServeTest, SnapshotAtMergeBoundaryMatchesCheckpointBlob) {
  const auto cfg = config();
  serve::SnapshotStore store;
  core::AdaptiveSgdTrainer trainer(dataset_, cfg, sim::v100_heterogeneous(2));
  trainer.runtime().set_publish_hook(
      [&](const nn::Model& m, double vtime) { store.publish(m, vtime); });
  const auto path = temp_path("serve_boundary.ckpt");
  fault::enable_periodic_checkpoint(trainer, path, 1);
  trainer.train();

  // One publish per merge boundary.
  EXPECT_EQ(store.version(), cfg.num_megabatches);
  const auto snap = store.current();
  ASSERT_NE(snap, nullptr);

  // The checkpoint written at the final boundary holds the exact bytes the
  // snapshot captured: serving and fault tolerance see one model state.
  std::ifstream in(path, std::ios::binary);
  const auto ckpt = fault::load_checkpoint(in);
  std::string global(snap->blob().size(), '\0');
  in.read(global.data(), static_cast<std::streamsize>(global.size()));
  EXPECT_EQ(snap->blob(), global);
  EXPECT_DOUBLE_EQ(snap->vtime(), ckpt.vtime);
  EXPECT_EQ(nn::model_blob(trainer.runtime().global_model()), snap->blob());
  std::remove(path.c_str());
}

TEST_F(ServeTest, PublishHookFiresAtEveryMergeBoundary) {
  const auto cfg = config();
  core::AdaptiveSgdTrainer trainer(dataset_, cfg, sim::v100_heterogeneous(2));
  std::size_t publishes = 0;
  double last_vtime = -1.0;
  trainer.runtime().set_publish_hook([&](const nn::Model&, double vtime) {
    ++publishes;
    EXPECT_GT(vtime, last_vtime);
    last_vtime = vtime;
  });
  trainer.train();
  EXPECT_EQ(publishes, cfg.num_megabatches);
}

TEST_F(ServeTest, ServeFromCheckpointMatchesInTrainingSnapshot) {
  serve::SnapshotStore in_training;
  core::AdaptiveSgdTrainer trainer(dataset_, config(),
                                   sim::v100_heterogeneous(2));
  trainer.runtime().set_publish_hook(
      [&](const nn::Model& m, double vtime) { in_training.publish(m, vtime); });
  trainer.train();
  const auto path = temp_path("serve_restart.ckpt");
  fault::save_checkpoint_file(path, fault::capture_checkpoint(trainer));

  serve::SnapshotStore restarted;
  restarted.publish_from_file(path);
  ASSERT_TRUE(restarted.has_snapshot());
  EXPECT_EQ(restarted.version(), 1u);
  EXPECT_EQ(restarted.current()->blob(), in_training.current()->blob());
  EXPECT_DOUBLE_EQ(restarted.current()->vtime(),
                   in_training.current()->vtime());

  // End-to-end: identical top-k from both stores for the same queries.
  serve::ServerConfig scfg;
  scfg.workers = 2;
  serve::Server live(in_training, scfg);
  serve::Server restored(restarted, scfg);
  for (std::size_t row = 0; row < 8; ++row) {
    auto a = live.submit(request_for_row(row)).get();
    auto b = restored.submit(request_for_row(row)).get();
    expect_same_topk(a.topk, b.topk);
  }
  std::remove(path.c_str());
}

TEST_F(ServeTest, ServesFromLegacyCheckpointVersions) {
  // A v4 checkpoint from a plain-sgd fp32 run carries a 1-byte
  // compressed=0 flag, the optimizer section (3 metadata bytes, a u64
  // replica count, and one u64 step per replica) and the 73-byte run
  // section immediately before the two size-prefixed model records. v3 =
  // v4 minus the run section, v2 = v3 minus the optimizer section; v1
  // additionally drops the flag byte. Synthesize them by byte surgery (the
  // writer always emits v4) and serve from each.
  core::AdaptiveSgdTrainer trainer(dataset_, config(),
                                   sim::v100_heterogeneous(2));
  trainer.train();
  const auto ckpt = fault::capture_checkpoint(trainer);
  const auto v4_path = temp_path("serve_v4.ckpt");
  fault::save_checkpoint_file(v4_path, ckpt);
  std::string bytes;
  {
    std::ifstream in(v4_path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = std::move(buf).str();
  }
  const std::string global = nn::model_blob(trainer.runtime().global_model());
  const std::size_t opt_section = 3 + 8 + 2 * 8;
  constexpr std::size_t kRunSection = 73;
  const std::size_t model_tail = 2 * (8 + global.size());
  const std::size_t run_at = bytes.size() - (kRunSection + model_tail);
  const std::size_t flag_at = run_at - (1 + opt_section);
  ASSERT_EQ(bytes[flag_at], 0);  // the compressed=0 flag

  const auto synthesize = [&](std::uint32_t version, std::size_t strip_at,
                              std::size_t strip_len) {
    std::string legacy = bytes;
    std::memcpy(legacy.data() + 4, &version, sizeof(version));
    legacy.erase(run_at, kRunSection);
    legacy.erase(strip_at, strip_len);
    const auto path = temp_path("serve_v" + std::to_string(version) + ".ckpt");
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(legacy.data(), static_cast<std::streamsize>(legacy.size()));
    return path;
  };
  const auto v3_path = synthesize(3, flag_at, 0);
  const auto v2_path = synthesize(2, flag_at + 1, opt_section);
  const auto v1_path = synthesize(1, flag_at, 1 + opt_section);

  serve::SnapshotStore s4, s3, s2, s1;
  s4.publish_from_file(v4_path);
  s3.publish_from_file(v3_path);
  s2.publish_from_file(v2_path);
  s1.publish_from_file(v1_path);
  for (const serve::SnapshotStore* s : {&s1, &s2, &s3, &s4}) {
    EXPECT_EQ((*s).current()->blob(), global);
    EXPECT_DOUBLE_EQ((*s).current()->vtime(), ckpt.vtime);
  }

  // Every version serves the same top-k as the in-training state.
  serve::ModelSnapshot reference(trainer.runtime().global_model(), 1,
                                 ckpt.vtime, serve::LshParams{});
  serve::ServerConfig scfg;
  for (serve::SnapshotStore* s : {&s1, &s2, &s3, &s4}) {
    serve::Server server(*s, scfg);
    for (std::size_t row = 0; row < 4; ++row) {
      const auto resp = server.submit(request_for_row(row)).get();
      expect_same_topk(resp.topk, snapshot_topk(reference, row, scfg.topk));
    }
  }
  std::remove(v4_path.c_str());
  std::remove(v3_path.c_str());
  std::remove(v2_path.c_str());
  std::remove(v1_path.c_str());
}

// ---- exact scores, frozen -------------------------------------------------

// One snapshot's exact path on a wave: the FNV-1a of the logits' bits, and
// (label, score bits) of the top 5 of rows 0, 31 and 63.
struct PinnedScores {
  std::uint64_t logits_fnv = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> top5;

  bool operator==(const PinnedScores&) const = default;
};

// gtest prints a mismatching PinnedScores as an initializer.
void PrintTo(const PinnedScores& p, std::ostream* os) {
  const auto flags = os->flags();
  *os << std::hex << "{0x" << p.logits_fnv << "ull,\n {";
  for (const auto& [label, bits] : p.top5) {
    *os << std::dec << "{" << label << ", 0x" << std::hex << bits << "u}, ";
  }
  *os << "}}";
  os->flags(flags);
}

PinnedScores pin_scores(const serve::ModelSnapshot& snap,
                        const sparse::CsrMatrix& wave) {
  serve::QueryScratch s;
  snap.forward_hidden(wave, s);
  snap.score_output(s);
  PinnedScores p;
  p.logits_fnv = core::fnv1a({s.logits.flat().begin(), s.logits.flat().end()});
  std::vector<serve::ScoredLabel> top;
  for (const std::size_t row : {0, 31, 63}) {
    snap.topk_exact(s, row, 5, top);
    for (const auto& t : top) {
      p.top5.emplace_back(t.label, std::bit_cast<std::uint32_t>(t.score));
    }
  }
  return p;
}

// The exact serving path frozen bit for bit on one 64-row wave (test rows
// 0..63): off the fixture's trained snapshot (one hidden layer), and off a
// seeded two-hidden-layer model with non-zero biases.
TEST_F(ServeTest, ExactScoresPinned) {
  core::AdaptiveSgdTrainer trainer(dataset_, config(),
                                   sim::v100_heterogeneous(2));
  trainer.train();
  serve::SnapshotStore trained;
  trained.publish(trainer.runtime().global_model(), 0.0);

  nn::Model deep(dataset_.test.features.cols(), {16, 8},
                 dataset_.test.labels.cols());
  util::Rng rng(28);
  deep.init(rng);
  for (std::size_t l = 0; l < deep.info().num_layers(); ++l) {
    for (float& b : deep.biases(l)) {
      b = static_cast<float>(rng.uniform(-0.5, 0.5));
    }
  }
  serve::SnapshotStore deep_store;
  deep_store.publish(deep, 0.0);

  const auto wave = dataset_.test.features.slice_rows(0, 64);
  const PinnedScores expect_trained{
      0xbfa2cf5e0c293d65ull,
      {{0, 0x401be790u},  {1, 0x3f9e2d8eu},  {2, 0x3f68413fu},
       {25, 0x3f5228dfu}, {41, 0x3f43b414u}, {0, 0x408b7a4cu},
       {1, 0x3fce21f8u},  {25, 0x3fa628b8u}, {41, 0x3fa01781u},
       {56, 0x3f899c48u}, {0, 0x3fc81d6bu},  {1, 0x3f5a88ccu},
       {4, 0x3f178871u},  {16, 0x3f16caf6u}, {10, 0x3ed138f1u}}};
  const PinnedScores expect_deep{
      0xc4a658c8687e0c2aull,
      {{11, 0x3f5e16aeu}, {7, 0x3f4cf8feu},  {18, 0x3f46eac2u},
       {8, 0x3f3a1d62u},  {12, 0x3f1ccfe4u}, {11, 0x3f252c62u},
       {7, 0x3f111a12u},  {26, 0x3f0e7a54u}, {12, 0x3f0760fau},
       {8, 0x3efd7392u},  {11, 0x3f3f125bu}, {7, 0x3f3bd00eu},
       {35, 0x3f1d8986u}, {12, 0x3f1a41e2u}, {58, 0x3f12631du}}};
  EXPECT_EQ(pin_scores(*trained.current(), wave), expect_trained);
  EXPECT_EQ(pin_scores(*deep_store.current(), wave), expect_deep);
}

// ---- serving behavior -----------------------------------------------------

TEST_F(ServeTest, ResultsBitStableAcrossWorkerCountsAndWaveShapes) {
  serve::SnapshotStore store;
  publish_initial(store);

  serve::ServerConfig one;
  one.workers = 1;
  one.max_batch = 1;  // every request its own wave
  serve::ServerConfig many;
  many.workers = 4;
  many.max_batch = 8;  // requests batched into shared waves

  const std::size_t n = 12;
  std::vector<serve::Response> a(n), b(n);
  {
    serve::Server s(store, one);
    std::vector<std::future<serve::Response>> fs;
    for (std::size_t i = 0; i < n; ++i) fs.push_back(s.submit(request_for_row(i)));
    for (std::size_t i = 0; i < n; ++i) a[i] = fs[i].get();
  }
  {
    serve::Server s(store, many);
    std::vector<std::future<serve::Response>> fs;
    for (std::size_t i = 0; i < n; ++i) fs.push_back(s.submit(request_for_row(i)));
    for (std::size_t i = 0; i < n; ++i) b[i] = fs[i].get();
  }
  for (std::size_t i = 0; i < n; ++i) expect_same_topk(a[i].topk, b[i].topk);
}

TEST_F(ServeTest, MicroBatchingServesEveryRequestWithBoundedWaves) {
  serve::SnapshotStore store;
  publish_initial(store);
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 4;
  cfg.latency_budget_us = 5000;
  serve::Server server(store, cfg);

  const std::size_t n = 24;
  std::vector<std::future<serve::Response>> fs;
  for (std::size_t i = 0; i < n; ++i) fs.push_back(server.submit(request_for_row(i)));
  for (auto& f : fs) {
    const auto r = f.get();
    EXPECT_FALSE(r.shed);
    EXPECT_GE(r.wave_size, 1u);
    EXPECT_LE(r.wave_size, cfg.max_batch);
    EXPECT_LE(r.queue_us, r.service_us);
    EXPECT_EQ(r.topk.size(), cfg.topk);
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.served, n);
  EXPECT_EQ(stats.exact_rows, n);
  EXPECT_GE(stats.waves, (n + cfg.max_batch - 1) / cfg.max_batch);
  EXPECT_LE(stats.waves, n);
}

TEST_F(ServeTest, LoneRequestIsNotHeldForAWindow) {
  // A worker starts a wave as soon as it holds a request: a lone request is
  // served at once, not held for arrivals that never come, however large
  // the latency budget.
  serve::SnapshotStore store;
  publish_initial(store);
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 8;
  cfg.latency_budget_us = 4'000'000;
  serve::Server server(store, cfg);
  const auto r = server.submit(request_for_row(0)).get();
  EXPECT_FALSE(r.shed);
  EXPECT_EQ(r.wave_size, 1u);
  EXPECT_LT(r.service_us, 500'000u);
}

TEST_F(ServeTest, RequestKOverridesConfigTopk) {
  serve::SnapshotStore store;
  publish_initial(store);
  serve::Server server(store, serve::ServerConfig{});
  EXPECT_EQ(server.submit(request_for_row(0, 9)).get().topk.size(), 9u);
  EXPECT_EQ(server.submit(request_for_row(0)).get().topk.size(),
            server.config().topk);
}

TEST_F(ServeTest, BackpressureShedsPastQueueCap) {
  serve::SnapshotStore store;
  publish_initial(store);
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 1;
  cfg.queue_cap = 1;
  serve::Server server(store, cfg);

  const std::size_t n = 256;
  std::vector<std::future<serve::Response>> fs;
  for (std::size_t i = 0; i < n; ++i) fs.push_back(server.submit(request_for_row(i)));
  std::size_t shed = 0;
  for (auto& f : fs) {
    const auto r = f.get();
    if (r.shed) {
      ++shed;
      EXPECT_TRUE(r.topk.empty());
      EXPECT_EQ(r.retry_after_us, cfg.latency_budget_us);
    } else {
      EXPECT_EQ(r.topk.size(), cfg.topk);
    }
  }
  // A single worker cannot dequeue between every pair of back-to-back
  // submissions with queue_cap=1, so overload is certain.
  EXPECT_GT(shed, 0u);
  const auto stats = server.stats();
  EXPECT_EQ(stats.shed, shed);
  EXPECT_EQ(stats.served + stats.shed, n);
}

TEST_F(ServeTest, SubmitAfterStopShedsImmediately) {
  serve::SnapshotStore store;
  publish_initial(store);
  serve::Server server(store, serve::ServerConfig{});
  server.stop();
  server.stop();  // idempotent
  auto f = server.submit(request_for_row(0));
  ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const auto r = f.get();
  EXPECT_TRUE(r.shed);
  EXPECT_GT(server.stats().shed, 0u);
}

TEST_F(ServeTest, RejectsOutOfRangeFeaturesAndBadConfigs) {
  serve::SnapshotStore store;
  {
    // No snapshot published yet: serving cannot start.
    EXPECT_THROW(serve::Server(store, serve::ServerConfig{}),
                 std::invalid_argument);
  }
  publish_initial(store);
  {
    serve::ServerConfig cfg;
    cfg.workers = 0;
    EXPECT_THROW(serve::Server(store, cfg), std::invalid_argument);
  }
  serve::Server server(store, serve::ServerConfig{});
  serve::Request req;
  req.features.push_back(
      {static_cast<std::uint32_t>(dataset_.test.features.cols()), 1.0f});
  EXPECT_THROW(server.submit(std::move(req)), hetero::ParseError);
}

TEST_F(ServeTest, PublishFromFileRejectsGarbage) {
  serve::SnapshotStore store;
  EXPECT_THROW(store.publish_from_file(temp_path("serve_missing.bin")),
               hetero::ParseError);
  const auto path = temp_path("serve_garbage.bin");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "JUNKJUNKJUNK";
  }
  EXPECT_THROW(store.publish_from_file(path), hetero::ParseError);
  std::remove(path.c_str());
  EXPECT_FALSE(store.has_snapshot());
}

TEST_F(ServeTest, DumpCurrentRoundTripsThroughHgpuBlob) {
  serve::SnapshotStore store;
  publish_initial(store);
  const auto path = temp_path("serve_dump.hgpu");
  store.dump_current(path);

  serve::SnapshotStore reloaded;
  reloaded.publish_from_file(path);
  EXPECT_EQ(reloaded.current()->blob(), store.current()->blob());
  EXPECT_EQ(reloaded.version(), 1u);
  EXPECT_DOUBLE_EQ(reloaded.current()->vtime(), 0.0);
  std::remove(path.c_str());
}

// ---- SLIDE candidate path -------------------------------------------------

TEST_F(ServeTest, LshBundleBuildsLazilyAndIsDeterministic) {
  serve::SnapshotStore store;
  publish_initial(store);
  const auto snap = store.current();
  EXPECT_FALSE(snap->lsh_built());

  serve::ServerConfig cfg;
  cfg.use_lsh = true;
  serve::Server server(store, cfg);
  const auto a = server.submit(request_for_row(0)).get();
  EXPECT_TRUE(snap->lsh_built());
  EXPECT_TRUE(a.lsh_path || a.lsh_fallback);
  const auto b = server.submit(request_for_row(0)).get();
  expect_same_topk(a.topk, b.topk);
  EXPECT_EQ(a.lsh_path, b.lsh_path);
}

TEST_F(ServeTest, LshThinCandidateFallbackMatchesExactScan) {
  // min_candidates above the class count forces the exact-scan fallback on
  // every query. The fallback scores with the candidate-path dot kernel
  // (self-consistency with the LSH path), so it agrees with the dense gemm
  // path on the ranking exactly and on scores up to kernel rounding.
  serve::LshParams lp;
  lp.min_candidates = dataset_.test.labels.cols() + 1;
  serve::SnapshotStore lsh_store(lp);
  serve::SnapshotStore exact_store;
  publish_initial(lsh_store);
  publish_initial(exact_store);

  serve::ServerConfig lsh_cfg;
  lsh_cfg.use_lsh = true;
  serve::Server lsh_server(lsh_store, lsh_cfg);
  serve::Server exact_server(exact_store, serve::ServerConfig{});
  for (std::size_t row = 0; row < 6; ++row) {
    const auto a = lsh_server.submit(request_for_row(row)).get();
    const auto b = exact_server.submit(request_for_row(row)).get();
    EXPECT_TRUE(a.lsh_fallback);
    EXPECT_FALSE(a.lsh_path);
    ASSERT_EQ(a.topk.size(), b.topk.size());
    for (std::size_t i = 0; i < a.topk.size(); ++i) {
      EXPECT_EQ(a.topk[i].label, b.topk[i].label);
      EXPECT_FLOAT_EQ(a.topk[i].score, b.topk[i].score);
    }
  }
  EXPECT_EQ(lsh_server.stats().lsh_fallback_rows, 6u);
  EXPECT_EQ(lsh_server.stats().lsh_rows, 0u);
}

// ---- hot swap under concurrent readers (TSan target) ----------------------

TEST_F(ServeTest, HotSwapUnderConcurrentReaders) {
  const auto cfg = config();
  serve::SnapshotStore store;
  core::AdaptiveSgdTrainer trainer(dataset_, cfg, sim::v100_heterogeneous(2));
  store.publish(trainer.runtime().global_model(), 0.0);
  trainer.runtime().set_publish_hook(
      [&](const nn::Model& m, double vtime) { store.publish(m, vtime); });

  // LSH serving stresses the lazy per-snapshot bundle build (call_once
  // among workers) across every hot swap.
  serve::ServerConfig scfg;
  scfg.workers = 3;
  scfg.use_lsh = true;
  serve::Server server(store, scfg);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> raw_reads{0};
  // A raw reader spinning on the store alongside the server's workers,
  // alternating the cold current() path and the version-gated refresh()
  // fast path; the store is the only synchronization with the publisher.
  std::thread raw_reader([&] {
    std::shared_ptr<const serve::ModelSnapshot> cached;
    while (!done.load(std::memory_order_acquire)) {
      const auto snap = (raw_reads.load(std::memory_order_relaxed) % 2 == 0)
                            ? store.current()
                            : (cached = store.refresh(std::move(cached)));
      ASSERT_NE(snap, nullptr);
      ASSERT_GE(snap->version(), 1u);
      ASSERT_LE(snap->version(), 1 + cfg.num_megabatches);
      raw_reads.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // Publish once the raw reader is spinning (or after 5 s, when the
  // expectation below fails), so the swaps race it even when the host is
  // slow to schedule the reader thread.
  std::thread publisher([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (raw_reads.load(std::memory_order_relaxed) == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    trainer.train();
  });

  std::uint64_t last_version = 0;
  std::size_t requests = 0;
  while (!done.load(std::memory_order_acquire)) {
    const auto r = server.submit(request_for_row(requests++)).get();
    if (r.shed) continue;
    EXPECT_EQ(r.topk.size(), scfg.topk);
    // Submit-then-get serializes this client: observed versions can only
    // move forward, and never past the published frontier.
    EXPECT_GE(r.snapshot_version, last_version);
    EXPECT_LE(r.snapshot_version + r.version_lag, 1 + cfg.num_megabatches);
    last_version = r.snapshot_version;
    if (store.version() == 1 + cfg.num_megabatches && requests > 64) {
      done.store(true, std::memory_order_release);
    }
  }
  publisher.join();
  raw_reader.join();
  server.stop();

  EXPECT_EQ(store.version(), 1 + cfg.num_megabatches);
  EXPECT_GT(raw_reads.load(), 0u);
  // The final snapshot is the final merged model, bit for bit.
  EXPECT_EQ(store.current()->blob(),
            nn::model_blob(trainer.runtime().global_model()));
}

}  // namespace
}  // namespace hetero
