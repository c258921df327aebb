// Full-featured training driver: every trainer, every knob, optional Chrome
// trace export — the command-line face of the HeteroGPU framework.
//
//   ./build/examples/hetero_train --method adaptive --gpus 4 --gap 0.32
//       --megabatches 6 --batch-max 128 --lr 0.5 --trace run.trace.json
//   ./build/examples/hetero_train --model deep --hidden 256,128 --sparse-merge
//   ./build/examples/hetero_train --optimizer adamw --lr 0.02
//       --weight-decay 1e-4 --moment-merge average
//   ./build/examples/hetero_train --fault-plan "crash@2.5:gpu1;join@4.0:gpu1"
//       --checkpoint-every 2 --checkpoint-path run.ckpt
//   ./build/examples/hetero_train --resume-from run.ckpt
//   ./build/examples/hetero_train --nodes 2 --node-gpus 2 --cpu-replica 1
//       --batch-min 4 --net-gbs 12.5 --fault-plan "partition@2.0+1.0:node1"
//
// Methods: adaptive | elastic | sync | crossbow | async | slide
// Models:  mlp (single hidden layer) | deep (--hidden takes a comma list);
// both build the same sparse-input MLP.
// --optimizer sgd|adam|adamw|adagrad picks the update rule (sgd default,
// bit-identical to the pre-optimizer builds); --moment-merge
// average|keep|reset governs Adam/Adagrad state at merge boundaries.
// --isa scalar|avx2|avx512 pins the SIMD kernel table (default: best the
// host supports; results are bit-identical on every ISA).
// The trace file can be loaded in chrome://tracing or https://ui.perfetto.dev
// (one row per GPU; straggler gaps and merge barriers are clearly visible).
#include <cstdio>
#include <iostream>
#include <string>

#include "comm/quant.h"
#include "core/adaptive_sgd.h"
#include "core/trainer.h"
#include "data/dataset_stats.h"
#include "fault/checkpoint.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "data/synthetic.h"
#include "sim/profiles.h"
#include "sim/gantt.h"
#include "sim/trace.h"
#include "slide/slide_trainer.h"
#include "tensor/vec/vec.h"
#include "util/cli.h"
#include "util/error.h"

using namespace hetero;

namespace {

// All flag values, dataset bytes, fault-plan specs, and checkpoints are
// untrusted input: they reject with hetero::ParseError, which exits with a
// diagnostic and code 2. Anything else escaping is an internal bug (code 3).
int run(int argc, char** argv);

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const ParseError& e) {
    std::fprintf(stderr, "hetero_train: invalid input: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hetero_train: internal error: %s\n", e.what());
    return 3;
  }
}

namespace {

int run(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  // Pin the SIMD dispatch table before any kernel runs (empty = automatic:
  // HETERO_ISA if set, else the best ISA cpuid reports).
  vec::set_isa_from_string(args.get_string("isa", ""));
  const auto method_name = args.get_string("method", "adaptive");
  const auto gpus_arg = args.get_int("gpus", 4);
  const auto gap = args.get_double("gap", 0.32);
  // Multi-node topology: --nodes N servers of --node-gpus GPUs each
  // (default: --gpus split evenly), plus --cpu-replica slow CPU compute
  // replicas scheduled like any other device. The merge is two-level past
  // one node: the intra-node ring, then a chunked inter-node ring on a
  // --net-gbs/--net-latency-us network link.
  const auto nodes = args.get_size("nodes", 1);
  const auto node_gpus = args.get_size("node-gpus", 0);
  const auto cpu_replicas = args.get_size("cpu-replica", 0);
  const auto cpu_slowdown = args.get_double("cpu-slowdown", 25.0);
  const auto net_gbs = args.get_double("net-gbs", 12.5);
  const auto net_latency_us = args.get_double("net-latency-us", 50.0);
  const auto megabatches = args.get_size("megabatches", 6);
  const auto batch_max = args.get_size("batch-max", 128);
  // b_min for Algorithm 1 (0 = b_max/8). A CPU replica 10-50x slower than
  // the GPUs needs a deeper floor than the default 8x range to converge to
  // its equal-update-count batch.
  const auto batch_min = args.get_size("batch-min", 0);
  const auto batches_per_megabatch = args.get_size("batches-per-megabatch", 40);
  const auto lr = args.get_double("lr", 0.5);
  const auto model_name = args.get_string("model", "mlp");
  std::vector<std::size_t> hidden_layers;
  try {
    hidden_layers = args.get_size_list("hidden", {48});
  } catch (const ParseError& e) {
    std::fprintf(stderr, "--hidden: %s\n", e.what());
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 12345));
  const auto dataset_name = args.get_string("dataset", "amazon");
  const auto trace_path = args.get_string("trace", "");
  const bool threaded = args.get_bool("threaded", false);
  const auto weight_decay = args.get_double("weight-decay", 0.0);
  // Update rule (nn/optimizer.h): sgd is the fused bit-identical default;
  // adam/adamw/adagrad keep lazy touched-row state for the sparse layer.
  const auto optimizer_name = args.get_string("optimizer", "sgd");
  // Merge-boundary policy for the optimizer state (DESIGN.md §11).
  const auto moment_merge_name = args.get_string("moment-merge", "average");
  const auto warmup = args.get_size("warmup", 0);
  const bool adaptive_cadence = args.get_bool("adaptive-cadence", false);
  const auto speeds_str = args.get_string("speeds", "");  // "1.0,0.9,0.76"
  const bool show_gantt = args.get_bool("gantt", false);
  const auto lr_decay = args.get_double("lr-decay", 1.0);
  const auto lr_decay_every = args.get_size("lr-decay-every", 0);
  const auto patience = args.get_size("patience", 0);
  // Real-math worker threads per kernel (0 = all hardware threads). Results
  // are bit-identical across any setting; this only changes wall-clock.
  const auto kernel_threads = args.get_size("kernel-threads", 1);
  // Delta-aware merge: reduce/rebroadcast only the touched W1 rows at each
  // mega-batch merge. Bit-identical to the dense merge; only comm cost and
  // merge wall-clock change.
  const bool sparse_merge = args.get_bool("sparse-merge", false);
  // Merge-payload compression: fp32 (bit-exact oracle, default), fp16
  // (dynamic loss scale), or int8 (per-group scales). fp16/int8 ship 2x/4x
  // fewer element bytes per merge with error-feedback residuals absorbing
  // the quantization noise.
  const auto merge_precision_name =
      args.get_string("merge-precision", "fp32");
  const auto allreduce_streams = args.get_size("allreduce-streams", 0);
  // Fault subsystem: deterministic fault schedule + checkpointed recovery.
  const auto fault_plan_spec = args.get_string("fault-plan", "");
  const auto checkpoint_every = args.get_size("checkpoint-every", 0);
  const auto checkpoint_path =
      args.get_string("checkpoint-path", "hetero.ckpt");
  const auto resume_from = args.get_string("resume-from", "");
  if (args.report_unknown()) return 1;

  // Both names build the same nn::Model; mlp only insists on the paper's
  // single hidden layer.
  if (model_name != "mlp" && model_name != "deep") {
    std::fprintf(stderr, "unknown --model %s (expected mlp or deep)\n",
                 model_name.c_str());
    return 1;
  }
  if (model_name == "mlp" && hidden_layers.size() != 1) {
    std::fprintf(stderr,
                 "--model mlp takes exactly one hidden width; "
                 "use --model deep for a layer list\n");
    return 1;
  }
  if (gpus_arg < 1) {
    std::fprintf(stderr, "--gpus must be at least 1\n");
    return 1;
  }
  const auto gpus = static_cast<std::size_t>(gpus_arg);
  // Optional custom server topology: --speeds 1.0,0.9,0.76 overrides
  // --gpus/--gap with explicit per-device speed factors.
  std::vector<double> speeds;
  if (!speeds_str.empty()) {
    for (std::size_t pos = 0;;) {
      const auto comma = speeds_str.find(',', pos);
      const double speed = util::parse_f64_strict(
          speeds_str.substr(pos, comma - pos), "cli: flag --speeds");
      if (speed <= 0.0) {
        std::fprintf(stderr, "--speeds: every speed must be > 0 (got %g)\n",
                     speed);
        return 1;
      }
      speeds.push_back(speed);
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }

  auto data_cfg = dataset_name == "delicious" ? data::delicious200k_small()
                                              : data::amazon670k_small();
  data_cfg.num_features = 4096;
  data_cfg.num_classes = 1024;
  data_cfg.num_train = 8000;
  data_cfg.num_test = 1600;
  data_cfg.seed = seed;
  const auto dataset = data::generate_xml_dataset(data_cfg);
  data::print_stats_header(std::cout);
  data::print_stats_row(std::cout, data::compute_stats(dataset));

  core::TrainerConfig cfg;
  cfg.hidden = hidden_layers.front();
  cfg.hidden_layers = hidden_layers;
  cfg.batch_max = batch_max;
  cfg.batch_min = batch_min;
  cfg.batches_per_megabatch = batches_per_megabatch;
  cfg.num_megabatches = megabatches;
  cfg.learning_rate = lr;
  cfg.compute_scale = 100.0;
  cfg.seed = seed;
  cfg.weight_decay = weight_decay;
  cfg.warmup_megabatches = warmup;
  cfg.adaptive_scaling_cadence = adaptive_cadence;
  cfg.lr_decay = lr_decay;
  cfg.lr_decay_every = lr_decay_every;
  cfg.early_stop_patience = patience;
  cfg.early_stop_delta = 0.002;
  cfg.kernel_threads = kernel_threads;
  cfg.sparse_merge = sparse_merge;
  if (const auto mp = comm::parse_precision(merge_precision_name)) {
    cfg.merge_precision = *mp;
  } else {
    std::fprintf(stderr,
                 "unknown --merge-precision %s (expected fp32, fp16, or "
                 "int8)\n",
                 merge_precision_name.c_str());
    return 1;
  }
  if (const auto kind = nn::parse_optimizer_kind(optimizer_name)) {
    cfg.optimizer.kind = *kind;
  } else {
    std::fprintf(stderr,
                 "unknown --optimizer %s (expected sgd, adam, adamw, or "
                 "adagrad)\n",
                 optimizer_name.c_str());
    return 1;
  }
  if (const auto mm = core::parse_moment_merge(moment_merge_name)) {
    cfg.moment_merge = *mm;
  } else {
    std::fprintf(stderr,
                 "unknown --moment-merge %s (expected average, keep, or "
                 "reset)\n",
                 moment_merge_name.c_str());
    return 1;
  }
  cfg.allreduce_streams = allreduce_streams;
  if (threaded) cfg.mode = core::ExecutionMode::kThreaded;

  core::TrainResult result;
  sim::Tracer tracer;
  if (method_name == "slide") {
    if (!fault_plan_spec.empty() || !resume_from.empty() ||
        checkpoint_every > 0) {
      std::fprintf(stderr,
                   "--fault-plan/--checkpoint-every/--resume-from are not "
                   "supported with --method slide\n");
      return 1;
    }
    if (hidden_layers.size() != 1) {
      std::fprintf(stderr, "--method slide supports one hidden layer only\n");
      return 1;
    }
    slide::SlideConfig scfg;
    scfg.hidden = hidden_layers.front();
    scfg.learning_rate = lr / 10.0;
    scfg.min_active = data_cfg.num_classes / 16;
    scfg.max_active = data_cfg.num_classes / 6;
    scfg.eval_every_samples = cfg.megabatch_samples();
    scfg.total_samples = cfg.megabatch_samples() * megabatches;
    scfg.compute_scale = cfg.compute_scale;
    scfg.seed = seed;
    result = slide::SlideTrainer(dataset, scfg).train();
  } else {
    core::Method method;
    if (method_name == "adaptive") {
      method = core::Method::kAdaptive;
    } else if (method_name == "elastic") {
      method = core::Method::kElastic;
    } else if (method_name == "sync") {
      method = core::Method::kSync;
    } else if (method_name == "crossbow") {
      method = core::Method::kCrossbow;
    } else if (method_name == "async") {
      method = core::Method::kAsync;
    } else {
      std::fprintf(stderr, "unknown --method %s\n", method_name.c_str());
      return 1;
    }
    const bool cluster = nodes > 1 || node_gpus > 0 || cpu_replicas > 0;
    if (nodes == 0) {
      std::fprintf(stderr, "--nodes must be at least 1\n");
      return 1;
    }
    if (cluster && !speeds.empty()) {
      std::fprintf(stderr,
                   "--speeds describes a single server; it cannot be "
                   "combined with --nodes/--node-gpus/--cpu-replica\n");
      return 1;
    }
    std::size_t gpus_per_node = node_gpus;
    if (cluster && gpus_per_node == 0) {
      if (gpus % nodes != 0) {
        std::fprintf(stderr,
                     "--gpus %zu does not divide across --nodes %zu; pass "
                     "--node-gpus explicitly\n",
                     gpus, nodes);
        return 1;
      }
      gpus_per_node = gpus / nodes;
    }
    if (cluster && gpus_per_node == 0 && cpu_replicas == 0) {
      std::fprintf(stderr, "cluster has no devices\n");
      return 1;
    }
    std::vector<sim::DeviceSpec> devices;
    if (cluster) {
      devices = sim::cluster_devices(nodes, gpus_per_node, cpu_replicas, gap,
                                     /*jitter_sigma=*/0.03, cpu_slowdown);
      cfg.num_nodes = nodes;
      cfg.cpu_replicas = cpu_replicas;
      cfg.net_bandwidth_gbs = net_gbs;
      cfg.net_latency_us = net_latency_us;
      std::printf(
          "topology: %zu node(s) x %zu GPU(s) + %zu CPU replica(s), "
          "net %.1f GB/s %.0fus\n",
          nodes, gpus_per_node, cpu_replicas, net_gbs, net_latency_us);
    } else {
      devices = speeds.empty() ? sim::v100_heterogeneous(gpus, gap)
                               : sim::v100_custom(speeds);
    }
    auto trainer = core::make_trainer(method, dataset, cfg, devices);

    // Elastic SGD runs on the adaptive loop, so it checkpoints the same way.
    auto* adaptive = dynamic_cast<core::AdaptiveSgdTrainer*>(trainer.get());
    if ((checkpoint_every > 0 || !resume_from.empty()) &&
        adaptive == nullptr) {
      std::fprintf(stderr,
                   "--checkpoint-every/--resume-from support --method "
                   "adaptive and elastic only\n");
      return 1;
    }
    // Resume before arming the fault plan: membership events already
    // reflected in the checkpoint must not fire twice.
    double resumed_vtime = -1.0;
    if (!resume_from.empty()) {
      try {
        const auto ckpt =
            fault::restore_checkpoint_file(*adaptive, resume_from);
        resumed_vtime = ckpt.vtime;
        std::printf("resumed from %s: %zu mega-batches, vtime %.4fs\n",
                    resume_from.c_str(),
                    static_cast<std::size_t>(ckpt.megabatches_completed),
                    ckpt.vtime);
      } catch (const ParseError& e) {
        // Corrupt/truncated checkpoint bytes: typed error with byte offset.
        std::fprintf(stderr, "--resume-from: corrupt checkpoint: %s\n",
                     e.what());
        return 2;
      } catch (const std::exception& e) {
        // Well-formed checkpoint that does not match this run's config.
        std::fprintf(stderr, "--resume-from: %s\n", e.what());
        return 1;
      }
    }
    if (!fault_plan_spec.empty()) {
      try {
        const auto plan = fault::FaultPlan::parse(fault_plan_spec);
        // The asynchronous and CROSSBOW loops keep every device a member:
        // refuse membership changes instead of failing mid-run.
        if (method == core::Method::kAsync ||
            method == core::Method::kCrossbow) {
          for (const auto& ev : plan.events) {
            if (ev.kind == fault::FaultKind::kCrash ||
                ev.kind == fault::FaultKind::kJoin ||
                ev.kind == fault::FaultKind::kPartition) {
              std::fprintf(stderr,
                           "--fault-plan: --method %s does not support %s "
                           "events (membership changes need adaptive, "
                           "elastic or sync)\n",
                           method_name.c_str(),
                           fault::to_string(ev.kind).c_str());
              return 1;
            }
          }
        }
        fault::FaultInjector(plan).arm(trainer->runtime(), resumed_vtime);
      } catch (const ParseError& e) {
        std::fprintf(stderr, "--fault-plan: %s\n", e.what());
        return 2;
      }
    }
    if (checkpoint_every > 0) {
      fault::enable_periodic_checkpoint(*adaptive, checkpoint_path,
                                        checkpoint_every);
    }

    if (!trace_path.empty() || show_gantt) {
      trainer->runtime().set_tracer(&tracer);
    }
    result = trainer->train();
    if (method == core::Method::kAdaptive && cluster) {
      // Where Algorithm 1 converged each device: the interesting readout of
      // a heterogeneous cluster run (the CPU replica should sit far below
      // the GPUs).
      std::printf("final batch sizes:");
      const auto& sgd = adaptive->sgd_state();
      for (std::size_t g = 0; g < sgd.size() && g < devices.size(); ++g) {
        std::printf(" %s=%zu", devices[g].name.c_str(), sgd[g].batch_size);
      }
      std::printf("\n");
    }
  }

  std::printf("\n%-10s %10s %9s %8s %8s\n", "megabatch", "vtime(s)",
              "samples", "top1", "top5");
  for (const auto& p : result.curve) {
    std::printf("%-10zu %10.4f %9zu %7.2f%% %7.2f%%\n", p.megabatch, p.vtime,
                p.samples, 100 * p.top1, 100 * p.top5);
  }
  std::printf("\nmethod %s: best top1 %.2f%%, total vtime %.4fs, comm %.4fs",
              result.method.c_str(), 100 * result.best_top1(),
              result.total_vtime, result.comm_seconds);
  if (result.method == "async-sgd") {
    std::printf(", avg gradient staleness %.2f", result.avg_staleness);
  }
  if (result.merges > 0 && result.method == "adaptive-sgd") {
    std::printf(", perturbation freq %.0f%%",
                100 * result.perturbation_frequency());
  }
  std::printf("\n");
  if (result.faults.any()) {
    std::printf(
        "faults: %zu events (%zu slowdowns, %zu stalls, %zu oom windows, "
        "%zu node-level), %zu crashes, %zu joins, %zu oom clamps, "
        "%zu degraded merges, recovery %.4fs\n",
        result.faults.events_injected, result.faults.slowdowns,
        result.faults.stalls, result.faults.oom_events,
        result.faults.node_events, result.faults.crashes,
        result.faults.joins, result.faults.oom_clamps,
        result.faults.degraded_merges, result.faults.recovery_seconds);
  }

  if (!trace_path.empty() && method_name != "slide") {
    tracer.write_chrome_json_file(trace_path);
    std::printf("chrome trace (%zu events) written to %s\n", tracer.size(),
                trace_path.c_str());
  }
  if (show_gantt && method_name != "slide") {
    sim::GanttOptions opts;
    opts.width = 100;
    std::printf("\n%s", sim::render_gantt(tracer, opts).c_str());
  }
  return 0;
}

}  // namespace
