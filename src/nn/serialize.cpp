#include "nn/serialize.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/error.h"

namespace hetero::nn {

namespace {
constexpr char kMagic[4] = {'H', 'G', 'P', 'U'};
constexpr std::uint32_t kVersionOneHidden = 1;
constexpr std::uint32_t kVersionLayerList = 2;
// Sanity bound for v2 headers: a corrupt num_hidden must fail fast instead
// of driving a multi-gigabyte allocation.
constexpr std::uint64_t kMaxHiddenLayers = 1024;

[[noreturn]] void bad_blob(std::istream& in, const std::string& what) {
  in.clear();
  const auto pos = in.tellg();
  throw ParseError("model-checkpoint", what, ParseError::npos,
                   pos == std::istream::pos_type(-1)
                       ? ParseError::npos
                       : static_cast<std::size_t>(pos));
}

template <typename T>
void append_pod(std::string& out, const T& value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

// Magic, version and shape: everything before the float32 parameters.
std::string header_bytes(const ModelInfo& info) {
  std::string out(kMagic, sizeof(kMagic));
  if (info.hidden.size() == 1) {
    append_pod(out, kVersionOneHidden);
    append_pod(out, static_cast<std::uint64_t>(info.num_features));
    append_pod(out, static_cast<std::uint64_t>(info.hidden.front()));
    append_pod(out, static_cast<std::uint64_t>(info.num_classes));
  } else {
    append_pod(out, kVersionLayerList);
    append_pod(out, static_cast<std::uint64_t>(info.hidden.size()));
    append_pod(out, static_cast<std::uint64_t>(info.num_features));
    for (const std::size_t h : info.hidden) {
      append_pod(out, static_cast<std::uint64_t>(h));
    }
    append_pod(out, static_cast<std::uint64_t>(info.num_classes));
  }
  return out;
}

template <typename T>
T read_pod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) bad_blob(in, "truncated input");
  return value;
}

// A hostile header (e.g. num_features = 2^60) must not drive the model
// constructor into a huge allocation: the float32 parameter payload that a
// header implies has to actually be present in the stream. Parameter counts
// are accumulated in 128-bit so the overflow-prone products (features x
// hidden) cannot wrap before the check.
void check_params_present(std::istream& in, unsigned __int128 num_params) {
  const auto pos = in.tellg();
  if (pos == std::istream::pos_type(-1)) return;  // non-seekable: no bound
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  in.seekg(pos);
  if (end == std::istream::pos_type(-1) || end < pos) return;
  const auto remaining = static_cast<unsigned __int128>(end - pos);
  if (num_params * sizeof(float) > remaining) {
    bad_blob(in, "header implies more parameters than the stream holds");
  }
}

void read_params(std::istream& in, Model& model) {
  std::vector<float> flat(model.num_parameters());
  in.read(reinterpret_cast<char*>(flat.data()),
          static_cast<std::streamsize>(flat.size() * sizeof(float)));
  if (!in) bad_blob(in, "truncated parameters");
  model.from_flat(flat);
}
}  // namespace

void save_model(std::ostream& out, const Model& model) {
  const std::string header = header_bytes(model.info());
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  for (const auto seg : model.segment_views()) {
    out.write(reinterpret_cast<const char*>(seg.data()),
              static_cast<std::streamsize>(seg.size_bytes()));
  }
  if (!out) throw std::runtime_error("model checkpoint: write failed");
}

std::string model_blob(const Model& model) {
  std::string blob = header_bytes(model.info());
  blob.reserve(blob.size() + model.num_bytes());
  for (const auto seg : model.segment_views()) {
    blob.append(reinterpret_cast<const char*>(seg.data()), seg.size_bytes());
  }
  return blob;
}

void save_model_file(const std::string& path, const Model& model) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("model checkpoint: cannot open " + path);
  save_model(out, model);
}

Model load_any_model(std::istream& in) {
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    bad_blob(in, "bad magic");
  }
  const auto version = read_pod<std::uint32_t>(in);
  if (version == kVersionOneHidden) {
    const auto num_features = read_pod<std::uint64_t>(in);
    const auto hidden = read_pod<std::uint64_t>(in);
    const auto num_classes = read_pod<std::uint64_t>(in);
    if (num_features == 0 || hidden == 0 || num_classes == 0) {
      bad_blob(in, "zero model dimension");
    }
    // W1 + b1 + W2 + b2, in 128-bit so hostile dimensions cannot wrap.
    const auto params =
        static_cast<unsigned __int128>(num_features) * hidden + hidden +
        static_cast<unsigned __int128>(hidden) * num_classes + num_classes;
    check_params_present(in, params);
    Model model(static_cast<std::size_t>(num_features),
                {static_cast<std::size_t>(hidden)},
                static_cast<std::size_t>(num_classes));
    read_params(in, model);
    return model;
  }
  if (version == kVersionLayerList) {
    const auto num_hidden = read_pod<std::uint64_t>(in);
    if (num_hidden == 0 || num_hidden > kMaxHiddenLayers) {
      bad_blob(in, "bad hidden-layer count " + std::to_string(num_hidden));
    }
    const auto num_features =
        static_cast<std::size_t>(read_pod<std::uint64_t>(in));
    std::vector<std::size_t> hidden;
    for (std::uint64_t l = 0; l < num_hidden; ++l) {
      const auto width = read_pod<std::uint64_t>(in);
      if (width == 0) {
        bad_blob(in, "zero-width hidden layer");
      }
      hidden.push_back(static_cast<std::size_t>(width));
    }
    const auto num_classes =
        static_cast<std::size_t>(read_pod<std::uint64_t>(in));
    if (num_features == 0 || num_classes == 0) {
      bad_blob(in, "zero model dimension");
    }
    unsigned __int128 params = 0;
    std::uint64_t prev = static_cast<std::uint64_t>(num_features);
    for (const std::size_t h : hidden) {
      params += static_cast<unsigned __int128>(prev) * h + h;
      prev = h;
    }
    params += static_cast<unsigned __int128>(prev) * num_classes + num_classes;
    check_params_present(in, params);
    Model model(num_features, std::move(hidden), num_classes);
    read_params(in, model);
    return model;
  }
  bad_blob(in, "unsupported version " + std::to_string(version));
}

Model load_any_model_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("model checkpoint: cannot open " + path);
  return load_any_model(in);
}

}  // namespace hetero::nn
