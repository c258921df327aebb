// Model checkpointing and TrainResult export tests.
#include "nn/serialize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/result_io.h"
#include "nn/model.h"
#include "util/error.h"
#include "util/rng.h"

namespace hetero {
namespace {

// The paper's 3-layer model: one hidden layer, written as v1.
nn::Model small_model() {
  nn::Model model(20, {6}, 9);
  util::Rng rng(5);
  model.init(rng);
  return model;
}

TEST(Serialize, RoundTripPreservesModel) {
  const auto model = small_model();
  std::stringstream buffer;
  nn::save_model(buffer, model);
  const auto loaded = nn::load_any_model(buffer);
  EXPECT_EQ(loaded.info().num_features, 20u);
  EXPECT_EQ(loaded.info().hidden, (std::vector<std::size_t>{6}));
  EXPECT_EQ(loaded.info().num_classes, 9u);
  EXPECT_DOUBLE_EQ(loaded.squared_distance(model), 0.0);
}

TEST(Serialize, FileRoundTrip) {
  const auto model = small_model();
  const std::string path = ::testing::TempDir() + "/model.hgpu";
  nn::save_model_file(path, model);
  const auto loaded = nn::load_any_model_file(path);
  EXPECT_DOUBLE_EQ(loaded.squared_distance(model), 0.0);
  std::remove(path.c_str());
}

TEST(Serialize, BadMagicRejected) {
  std::stringstream buffer("NOPE rest of garbage");
  EXPECT_THROW(nn::load_any_model(buffer), std::runtime_error);
}

TEST(Serialize, TruncatedParametersRejected) {
  const auto model = small_model();
  std::stringstream buffer;
  nn::save_model(buffer, model);
  std::string data = buffer.str();
  data.resize(data.size() / 2);
  std::stringstream truncated(data);
  EXPECT_THROW(nn::load_any_model(truncated), std::runtime_error);
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(nn::load_any_model_file("/nonexistent/m.hgpu"),
               std::runtime_error);
  EXPECT_THROW(nn::save_model_file("/nonexistent/dir/m.hgpu", small_model()),
               std::runtime_error);
}

TEST(Serialize, V1BytesArePinned) {
  // A one-hidden-layer model must serialize to the exact legacy v1 byte
  // layout: "HGPU" | u32 1 | u64 F | u64 H | u64 C | float params.
  // Checkpoints written before the layer-list format existed must stay
  // readable, and new one-hidden-layer checkpoints must stay readable by
  // old builds.
  const auto model = small_model();
  std::stringstream buffer;
  nn::save_model(buffer, model);
  const std::string got = buffer.str();

  std::string expected = "HGPU";
  const auto append_pod = [&expected](const auto& value) {
    expected.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  append_pod(std::uint32_t{1});
  append_pod(std::uint64_t{20});
  append_pod(std::uint64_t{6});
  append_pod(std::uint64_t{9});
  for (const float p : model.to_flat()) append_pod(p);

  ASSERT_EQ(got.size(), expected.size());
  EXPECT_EQ(got, expected);
}

// The in-memory blob and the stream writer are one format, for v1 (one
// hidden layer) and v2 (a layer list).
TEST(Serialize, BlobEqualsStreamedBytes) {
  nn::Model deep(20, {10, 7}, 9);
  util::Rng rng(8);
  deep.init(rng);
  for (const nn::Model& model : {small_model(), deep}) {
    std::ostringstream out(std::ios::binary);
    nn::save_model(out, model);
    EXPECT_EQ(nn::model_blob(model), out.str())
        << model.info().hidden.size() << " hidden layer(s)";
  }
}

// load_model_into reads what load_any_model reads, straight into a model of
// the saved shape, and returns the bytes it consumed: serialized_size.
TEST(Serialize, LoadModelIntoReadsInPlace) {
  nn::Model deep(20, {10, 7}, 9);
  util::Rng rng(7);
  deep.init(rng);
  for (const nn::Model& model : {small_model(), deep}) {
    std::stringstream buffer;
    nn::save_model(buffer, model);
    EXPECT_EQ(buffer.str().size(), nn::serialized_size(model));
    nn::Model target(model.info().num_features, model.info().hidden,
                     model.info().num_classes);
    EXPECT_EQ(nn::load_model_into(buffer, target),
              nn::serialized_size(model));
    EXPECT_EQ(target.to_flat(), model.to_flat());
  }
}

// Another shape with the same parameter count is rejected, naming both
// shapes, before any parameter is read.
TEST(Serialize, LoadModelIntoRejectsAnotherShape) {
  const nn::Model impostor(50, {3}, 9);  // 189 parameters, as 20x6x9
  std::stringstream buffer;
  nn::save_model(buffer, impostor);
  auto target = small_model();
  ASSERT_EQ(target.num_parameters(), impostor.num_parameters());
  const auto before = target.to_flat();
  try {
    nn::load_model_into(buffer, target);
    ADD_FAILURE() << "loaded a 50x3x9 model into 20x6x9";
  } catch (const MismatchError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("50x3x9"), std::string::npos) << what;
    EXPECT_NE(what.find("20x6x9"), std::string::npos) << what;
  }
  EXPECT_EQ(target.to_flat(), before);
}

TEST(Serialize, DeepModelRoundTripsAsV2) {
  nn::Model model(20, {10, 7}, 9);
  util::Rng rng(6);
  model.init(rng);

  std::stringstream buffer;
  nn::save_model(buffer, model);
  // v2 header: magic + u32 version + u64 num_hidden.
  const std::string bytes = buffer.str();
  ASSERT_GE(bytes.size(), 16u);
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  EXPECT_EQ(version, 2u);

  const auto loaded = nn::load_any_model(buffer);
  EXPECT_EQ(loaded.info().num_features, 20u);
  EXPECT_EQ(loaded.info().hidden, (std::vector<std::size_t>{10, 7}));
  EXPECT_EQ(loaded.info().num_classes, 9u);
  EXPECT_EQ(loaded.to_flat(), model.to_flat());
}

TEST(Serialize, LoadAnyModelReadsV1AsMlp) {
  const auto model = small_model();
  std::stringstream buffer;
  nn::save_model(buffer, model);
  const auto loaded = nn::load_any_model(buffer);
  EXPECT_EQ(loaded.info().num_features, 20u);
  EXPECT_EQ(loaded.info().hidden, (std::vector<std::size_t>{6}));
  EXPECT_EQ(loaded.info().num_classes, 9u);
  EXPECT_EQ(loaded.to_flat(), model.to_flat());
}

TEST(Serialize, OneHiddenLayerV2StillLoads) {
  // `--model deep --hidden 64` wrote one-hidden-layer models as v2 before
  // the shape picked the format; save_model now writes v1 for them, so the
  // v2 bytes are built by hand: "HGPU" | u32 2 | u64 1 | u64 F | u64 H |
  // u64 C | float params.
  const auto model = small_model();
  std::string bytes = "HGPU";
  const auto append_pod = [&bytes](const auto& value) {
    bytes.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  append_pod(std::uint32_t{2});
  append_pod(std::uint64_t{1});
  append_pod(std::uint64_t{20});
  append_pod(std::uint64_t{6});
  append_pod(std::uint64_t{9});
  for (const float p : model.to_flat()) append_pod(p);

  std::stringstream buffer(bytes);
  const auto loaded = nn::load_any_model(buffer);
  EXPECT_EQ(loaded.info().num_features, 20u);
  EXPECT_EQ(loaded.info().hidden, (std::vector<std::size_t>{6}));
  EXPECT_EQ(loaded.info().num_classes, 9u);
  EXPECT_EQ(loaded.to_flat(), model.to_flat());

  // Written back, it takes the v1 bytes of the same model.
  std::stringstream v1, resaved;
  nn::save_model(v1, model);
  nn::save_model(resaved, loaded);
  EXPECT_EQ(resaved.str(), v1.str());
}

TEST(Serialize, V2FileRoundTrip) {
  nn::Model model(20, {10, 7}, 9);
  util::Rng rng(9);
  model.init(rng);

  const std::string path = ::testing::TempDir() + "/deep.hgpu";
  nn::save_model_file(path, model);
  const auto loaded = nn::load_any_model_file(path);
  EXPECT_EQ(loaded.to_flat(), model.to_flat());
  std::remove(path.c_str());
}

core::TrainResult sample_result() {
  core::TrainResult r;
  r.method = "adaptive-sgd";
  r.dataset = "tiny";
  r.num_gpus = 2;
  r.merges = 2;
  r.perturbed_merges = 1;
  r.total_vtime = 1.5;
  r.curve.push_back({0.0, 0, 0.0, 0, 0.01, 0.05, 4.0, 0.0});
  r.curve.push_back({1.5, 640, 0.32, 1, 0.5, 0.7, 2.0, 3.0});
  r.gpus.resize(2);
  r.gpus[0].batch_size = {64, 72};
  r.gpus[0].updates = {5, 6};
  r.gpus[0].total_updates = 11;
  r.gpus[0].busy_seconds = 1.2;
  r.gpus[1].batch_size = {64, 56};
  r.gpus[1].updates = {5, 4};
  return r;
}

TEST(ResultIo, CsvHasHeaderAndRows) {
  std::ostringstream out;
  core::write_curve_csv(out, sample_result());
  const auto text = out.str();
  EXPECT_NE(text.find("dataset,method,gpus,megabatch"), std::string::npos);
  EXPECT_NE(text.find("tiny,adaptive-sgd,2,1,1.5,640"), std::string::npos);
  // header + 2 rows = 3 lines.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
}

TEST(ResultIo, CsvMultipleResultsShareHeader) {
  std::ostringstream out;
  core::write_curve_csv(out, std::vector<core::TrainResult>{
                                 sample_result(), sample_result()});
  const auto text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 5);
}

TEST(ResultIo, JsonContainsSummaryAndTraces) {
  std::ostringstream out;
  core::write_result_json(out, sample_result());
  const auto json = out.str();
  EXPECT_NE(json.find("\"method\":\"adaptive-sgd\""), std::string::npos);
  EXPECT_NE(json.find("\"merges\":2"), std::string::npos);
  EXPECT_NE(json.find("\"batch_size\":[64,72]"), std::string::npos);
  EXPECT_NE(json.find("\"best_top1\":0.5"), std::string::npos);
  // Balanced braces / brackets (cheap well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(ResultIo, JsonFileWrite) {
  const std::string path = ::testing::TempDir() + "/result.json";
  core::write_result_json_file(path, sample_result());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_FALSE(json.empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hetero
