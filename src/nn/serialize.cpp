#include "nn/serialize.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
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

// The shape a header declares and the header's own size in bytes.
struct Header {
  ModelInfo shape;
  std::size_t bytes = 0;
};

// Parses and validates magic, version and shape, leaving `in` at the
// parameters, which the caller reads. Shared by load_any_model and
// load_model_into.
Header read_header(std::istream& in) {
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    bad_blob(in, "bad magic");
  }
  const auto version = read_pod<std::uint32_t>(in);
  Header h;
  auto& shape = h.shape;
  if (version == kVersionOneHidden) {
    const auto num_features = read_pod<std::uint64_t>(in);
    const auto hidden = read_pod<std::uint64_t>(in);
    const auto num_classes = read_pod<std::uint64_t>(in);
    if (num_features == 0 || hidden == 0 || num_classes == 0) {
      bad_blob(in, "zero model dimension");
    }
    shape.num_features = static_cast<std::size_t>(num_features);
    shape.hidden = {static_cast<std::size_t>(hidden)};
    shape.num_classes = static_cast<std::size_t>(num_classes);
    h.bytes = sizeof(kMagic) + sizeof(std::uint32_t) + 3 * 8;
  } else if (version == kVersionLayerList) {
    const auto num_hidden = read_pod<std::uint64_t>(in);
    if (num_hidden == 0 || num_hidden > kMaxHiddenLayers) {
      bad_blob(in, "bad hidden-layer count " + std::to_string(num_hidden));
    }
    shape.num_features =
        static_cast<std::size_t>(read_pod<std::uint64_t>(in));
    for (std::uint64_t l = 0; l < num_hidden; ++l) {
      const auto width = read_pod<std::uint64_t>(in);
      if (width == 0) {
        bad_blob(in, "zero-width hidden layer");
      }
      shape.hidden.push_back(static_cast<std::size_t>(width));
    }
    shape.num_classes = static_cast<std::size_t>(read_pod<std::uint64_t>(in));
    if (shape.num_features == 0 || shape.num_classes == 0) {
      bad_blob(in, "zero model dimension");
    }
    h.bytes = sizeof(kMagic) + sizeof(std::uint32_t) +
              (3 + static_cast<std::size_t>(num_hidden)) * 8;
  } else {
    bad_blob(in, "unsupported version " + std::to_string(version));
  }
  // W_l + b_l per layer, in 128-bit so hostile dimensions cannot wrap.
  unsigned __int128 params = 0;
  unsigned __int128 prev = shape.num_features;
  for (const std::size_t width : shape.hidden) {
    params += prev * width + width;
    prev = width;
  }
  params += prev * shape.num_classes + shape.num_classes;
  check_params_present(in, params);
  return h;
}

// Reads the float32 parameters straight into the model's segments.
void read_params(std::istream& in, Model& model) {
  for (const auto seg : model.segment_views()) {
    in.read(reinterpret_cast<char*>(seg.data()),
            static_cast<std::streamsize>(seg.size_bytes()));
    if (!in) bad_blob(in, "truncated parameters");
  }
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

std::size_t serialized_size(const Model& model) {
  return header_bytes(model.info()).size() + model.num_bytes();
}

std::string shape_string(const ModelInfo& info) {
  std::string s = std::to_string(info.num_features);
  for (const std::size_t h : info.hidden) s += "x" + std::to_string(h);
  return s + "x" + std::to_string(info.num_classes);
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
  const Header h = read_header(in);
  Model model(h.shape.num_features, h.shape.hidden, h.shape.num_classes);
  read_params(in, model);
  return model;
}

std::size_t load_model_into(std::istream& in, Model& model) {
  const Header h = read_header(in);
  const auto& want = model.info();
  if (h.shape.num_features != want.num_features ||
      h.shape.hidden != want.hidden ||
      h.shape.num_classes != want.num_classes) {
    throw MismatchError("model shape " + shape_string(h.shape) +
                        " does not match " + shape_string(want));
  }
  read_params(in, model);
  return h.bytes + model.num_bytes();
}

Model load_any_model_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("model checkpoint: cannot open " + path);
  return load_any_model(in);
}

}  // namespace hetero::nn
