// Recreates the paper's Figure 2 in the terminal: the execution schedule of
// elastic vs adaptive SGD on a heterogeneous server, rendered as an ASCII
// Gantt chart from the simulator's trace.
//
// Elastic SGD statically assigns the same number of equal batches to every
// GPU, so the fast GPUs idle at the mega-batch barrier ('.') while the slow
// one finishes. Adaptive SGD dispatches batches on availability with scaled
// batch sizes, packing the timeline tightly.
//
//   ./build/examples/schedule_gantt [--gpus 4] [--gap 0.5] [--width 100]
#include <cstdio>

#include "core/trainer.h"
#include "data/synthetic.h"
#include "sim/gantt.h"
#include "sim/profiles.h"
#include "util/cli.h"

using namespace hetero;

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  const auto gpus = args.get_size("gpus", 4);
  const auto gap = args.get_double("gap", 0.5);
  const auto width = args.get_size("width", 100);
  if (args.report_unknown()) return 1;

  auto data_cfg = data::tiny_profile();
  data_cfg.num_train = 4000;
  const auto dataset = data::generate_xml_dataset(data_cfg);

  core::TrainerConfig cfg;
  cfg.hidden = 32;
  cfg.batch_max = 64;
  cfg.batches_per_megabatch = 24;
  cfg.num_megabatches = 2;
  cfg.learning_rate = 0.3;
  cfg.compute_scale = 2000.0;
  cfg.eval_samples = 100;

  const auto devices = sim::v100_heterogeneous(gpus, gap);

  for (const auto method : {core::Method::kElastic, core::Method::kAdaptive}) {
    sim::Tracer tracer;
    auto trainer = core::make_trainer(method, dataset, cfg, devices);
    trainer->runtime().set_tracer(&tracer);
    const auto result = trainer->train();

    std::printf("\n=== %s (%zu GPUs, %.0f%% speed gap) ===\n",
                result.method.c_str(), gpus, 100 * gap);
    sim::GanttOptions opts;
    opts.width = width;
    opts.include_host_row = false;
    std::printf("%s", sim::render_gantt(tracer, opts).c_str());
    std::printf("total vtime %.4fs; per-GPU busy: ", result.total_vtime);
    for (std::size_t g = 0; g < gpus; ++g) {
      std::printf("%.0f%% ", 100.0 * result.gpus[g].busy_seconds /
                                 result.total_vtime);
    }
    std::printf("\n");
  }
  std::printf(
      "\nReading: in the elastic chart the fast GPUs show '.' (idle barrier "
      "wait) before each\n'=' merge; adaptive fills those gaps with extra "
      "batches on the fast GPUs (Figure 2).\n");
  return 0;
}
