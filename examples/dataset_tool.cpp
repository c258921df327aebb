// Dataset tooling: generate Table-I-shaped synthetic XML datasets, save and
// reload them in libSVM format, apply feature hashing, and print their
// statistics — the data-preparation side of the framework as a standalone
// utility.
//
//   # generate and save
//   ./build/examples/dataset_tool --profile amazon --out /tmp/amazon.svm
//   # inspect any multi-label libSVM file
//   ./build/examples/dataset_tool --in /tmp/amazon.svm
//   # reduce dimensionality with the hashing trick
//   ./build/examples/dataset_tool --in /tmp/amazon.svm --hash-bits 12
//       --out /tmp/amazon_hashed.svm
//   # binary cache (fast reload for config sweeps)
//   ./build/examples/dataset_tool --profile amazon --cache-out /tmp/a.hgds
//   ./build/examples/dataset_tool --cache-in /tmp/a.hgds
#include <cstdio>
#include <iostream>

#include "data/binary_cache.h"
#include "data/dataset_stats.h"
#include "data/feature_hashing.h"
#include "data/synthetic.h"
#include "sparse/libsvm.h"
#include "util/cli.h"
#include "util/error.h"

using namespace hetero;

namespace {

// Input files are untrusted: a malformed libSVM line or flag value exits
// with a diagnostic and code 2, not an abort.
int run(int argc, char** argv);

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const ParseError& e) {
    std::fprintf(stderr, "dataset_tool: invalid input: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dataset_tool: internal error: %s\n", e.what());
    return 3;
  }
}

namespace {

int run(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const auto profile = args.get_string("profile", "amazon");
  const auto in_path = args.get_string("in", "");
  const auto out_path = args.get_string("out", "");
  const auto cache_in = args.get_string("cache-in", "");
  const auto cache_out = args.get_string("cache-out", "");
  const auto hash_bits = args.get_size("hash-bits", 0);
  const auto train_size = args.get_size("train", 0);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  if (args.report_unknown()) return 1;

  data::XmlDataset dataset;
  if (!cache_in.empty()) {
    dataset = data::load_dataset_file(cache_in);
  } else if (!in_path.empty()) {
    const auto full = sparse::read_libsvm_file(in_path);
    const std::size_t n = full.num_samples();
    const std::size_t train_n = n - n / 5;
    dataset.name = in_path;
    dataset.train = {full.features.slice_rows(0, train_n),
                     full.labels.slice_rows(0, train_n)};
    dataset.test = {full.features.slice_rows(train_n, n),
                    full.labels.slice_rows(train_n, n)};
  } else {
    auto cfg = profile == "delicious" ? data::delicious200k_small()
               : profile == "tiny"    ? data::tiny_profile()
                                      : data::amazon670k_small();
    if (train_size != 0) cfg.num_train = train_size;
    cfg.seed = seed;
    dataset = data::generate_xml_dataset(cfg);
  }

  if (hash_bits != 0) {
    data::FeatureHashConfig hcfg;
    hcfg.bits = hash_bits;
    hcfg.seed = seed;
    data::hash_dataset_features(dataset.train, hcfg);
    data::hash_dataset_features(dataset.test, hcfg);
    dataset.name += "+hash" + std::to_string(hash_bits);
  }

  data::print_stats_header(std::cout);
  data::print_stats_row(std::cout, data::compute_stats(dataset));

  if (!out_path.empty()) {
    sparse::write_libsvm_file(out_path, dataset.train);
    sparse::write_libsvm_file(out_path + ".test", dataset.test);
    std::printf("wrote %s (train) and %s.test (test split)\n",
                out_path.c_str(), out_path.c_str());
  }
  if (!cache_out.empty()) {
    data::save_dataset_file(cache_out, dataset);
    std::printf("wrote binary cache %s\n", cache_out.c_str());
  }
  return 0;
}

}  // namespace
