// Domain scenario: end-to-end extreme multi-label classification training
// on an Amazon-670k-shaped dataset, comparing all four multi-GPU methods
// plus the SLIDE CPU baseline — a miniature version of the paper's full
// evaluation (Figures 4 and 5) driven entirely through the public API.
//
//   ./build/examples/xml_training [--gpus 4] [--megabatches 4]
//                                 [--dataset amazon|delicious]
//                                 [--libsvm path/to/train.svm]
//
// When --libsvm is given, a real dataset in (multi-label) libSVM format is
// loaded instead of the synthetic one; the last 20% of rows become the test
// split. This is the drop-in path for the actual Extreme Classification
// Repository files.
#include <cstdio>
#include <iostream>
#include <string>

#include "core/trainer.h"
#include "data/dataset_stats.h"
#include "data/synthetic.h"
#include "sim/profiles.h"
#include "slide/slide_trainer.h"
#include "sparse/libsvm.h"
#include "util/cli.h"

using namespace hetero;

namespace {

data::XmlDataset load_libsvm_dataset(const std::string& path) {
  const auto full = sparse::read_libsvm_file(path);
  const std::size_t n = full.num_samples();
  const std::size_t train_n = n - n / 5;
  data::XmlDataset out;
  out.name = path;
  out.train = {full.features.slice_rows(0, train_n),
               full.labels.slice_rows(0, train_n)};
  out.test = {full.features.slice_rows(train_n, n),
              full.labels.slice_rows(train_n, n)};
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const auto gpus = args.get_size("gpus", 4);
  const auto megabatches = args.get_size("megabatches", 4);
  const auto dataset_name = args.get_string("dataset", "amazon");
  const auto libsvm_path = args.get_string("libsvm", "");
  if (args.report_unknown()) return 1;

  data::XmlDataset dataset;
  if (!libsvm_path.empty()) {
    dataset = load_libsvm_dataset(libsvm_path);
  } else {
    auto cfg = dataset_name == "delicious" ? data::delicious200k_small()
                                           : data::amazon670k_small();
    cfg.num_features = 4096;
    cfg.num_classes = 1024;
    cfg.num_train = 8000;
    cfg.num_test = 1600;
    dataset = data::generate_xml_dataset(cfg);
  }

  std::printf("dataset: %s\n", dataset.name.c_str());
  data::print_stats_header(std::cout);
  data::print_stats_row(std::cout, data::compute_stats(dataset));

  core::TrainerConfig cfg;
  cfg.hidden = 64;
  cfg.batch_max = 128;
  cfg.batches_per_megabatch = 25;
  cfg.num_megabatches = megabatches;
  cfg.learning_rate = 0.5;
  cfg.compute_scale = 100.0;

  const auto devices = sim::v100_heterogeneous(gpus);
  std::printf("\nsimulated server:\n");
  for (const auto& d : devices) {
    std::printf("  %s\n", sim::describe(d).c_str());
  }

  std::printf("\n%-14s %10s %10s %10s %12s\n", "method", "best top1",
              "final top1", "vtime(s)", "comm(s)");
  for (const auto method :
       {core::Method::kAdaptive, core::Method::kElastic, core::Method::kSync,
        core::Method::kCrossbow}) {
    auto trainer = core::make_trainer(method, dataset, cfg, devices);
    const auto r = trainer->train();
    std::printf("%-14s %9.2f%% %9.2f%% %10.4f %12.5f\n", r.method.c_str(),
                100 * r.best_top1(), 100 * r.final_top1(), r.total_vtime,
                r.comm_seconds);
  }
  {
    slide::SlideConfig scfg;
    scfg.hidden = cfg.hidden;
    scfg.learning_rate = cfg.learning_rate / 10.0;
    scfg.min_active = dataset.train.labels.cols() / 16;
    scfg.max_active = dataset.train.labels.cols() / 6;
    scfg.eval_every_samples = cfg.megabatch_samples();
    scfg.total_samples = cfg.megabatch_samples() * cfg.num_megabatches;
    scfg.compute_scale = cfg.compute_scale;
    const auto r = slide::SlideTrainer(dataset, scfg).train();
    std::printf("%-14s %9.2f%% %9.2f%% %10.4f %12s\n", "slide-cpu",
                100 * r.best_top1(), 100 * r.final_top1(), r.total_vtime,
                "n/a");
  }
  return 0;
}
