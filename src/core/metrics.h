// Training metrics: everything needed to regenerate the paper's figures.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace hetero::core {

/// One accuracy measurement, taken after a mega-batch (paper methodology).
struct CurvePoint {
  double vtime = 0.0;       // virtual seconds since training start
  std::size_t samples = 0;  // training samples processed so far
  double passes = 0.0;      // samples / dataset size ("epochs" in Fig. 5b)
  std::size_t megabatch = 0;
  double top1 = 0.0;
  double top5 = 0.0;
  double test_loss = 0.0;
  double train_loss = 0.0;  // mean step loss within the last mega-batch
  // Appended field (keeps older aggregate initializers valid): merge-group
  // size when the point was recorded — shrinks after a crash, grows back
  // after a join (fault subsystem).
  std::size_t alive_gpus = 0;
};

/// Fault-injection and elastic-membership counters. Event windows are
/// counted when the FaultInjector arms them; crashes/joins when the
/// membership flip is applied at a merge boundary.
struct FaultStats {
  std::size_t events_injected = 0;  // FaultPlan events armed on the runtime
  std::size_t slowdowns = 0;        // transient-slowdown windows armed
  std::size_t stalls = 0;           // stall windows armed
  std::size_t oom_events = 0;       // memory-cap windows armed
  std::size_t crashes = 0;          // replicas removed from the merge group
  std::size_t joins = 0;            // replicas re-admitted to the group
  std::size_t oom_clamps = 0;       // batches re-clamped after simulated OOM
  std::size_t degraded_merges = 0;  // merges run with a shrunken group
  std::size_t node_events = 0;      // node-level plan events armed (expanded)
  double recovery_seconds = 0.0;    // summed crash -> rejoin outage time

  bool any() const {
    return events_injected > 0 || oom_clamps > 0 || crashes > 0 || joins > 0;
  }
};

/// The merge counters and communication time train() sums over a run. A
/// checkpoint carries them, so a resumed run reports the totals of the
/// whole run rather than of the part after the resume.
struct RunTotals {
  std::size_t merges = 0;
  std::size_t perturbed_merges = 0;
  std::size_t scaling_updates = 0;
  double comm_seconds = 0.0;
};

/// Per-GPU execution trace.
struct GpuTrace {
  std::vector<std::size_t> batch_size;   // per mega-batch (Fig. 6a)
  std::vector<std::size_t> updates;      // model updates per mega-batch
  std::size_t total_updates = 0;
  std::size_t total_samples = 0;
  double busy_seconds = 0.0;             // virtual compute time
};

struct TrainResult {
  std::string method;
  std::string dataset;
  std::size_t num_gpus = 0;   // total replicas (GPUs + CPU replicas)
  std::size_t num_nodes = 1;  // server nodes the replicas span
  std::size_t cpu_replicas = 0;

  std::vector<CurvePoint> curve;
  std::vector<GpuTrace> gpus;

  std::size_t merges = 0;            // mega-batch boundaries processed
  std::size_t perturbed_merges = 0;  // merges where Algorithm 2 perturbed
  std::size_t scaling_updates = 0;   // mega-batches where Algorithm 1 moved
                                     // at least one batch size
  double total_vtime = 0.0;
  double comm_seconds = 0.0;         // virtual time in all-reduce/transfers

  /// Mean gradient staleness (updates applied by other GPUs between a
  /// gradient's snapshot and its application). Nonzero only for the SSP
  /// and asynchronous trainers.
  double avg_staleness = 0.0;

  /// Fault-injection counters for the run (all zero on a healthy run).
  FaultStats faults;

  /// First virtual time at which top-1 accuracy reached `target`
  /// (linear interpolation between curve points); nullopt if never.
  std::optional<double> time_to_accuracy(double target) const;

  /// First number of passes at which top-1 reached `target`.
  std::optional<double> passes_to_accuracy(double target) const;

  double best_top1() const;
  double final_top1() const;

  /// Fraction of merges that applied perturbation (Fig. 6b).
  double perturbation_frequency() const {
    return merges == 0 ? 0.0
                       : static_cast<double>(perturbed_merges) /
                             static_cast<double>(merges);
  }

  /// Mean per-GPU utilization: busy compute time over total wall-clock.
  /// The straggler problem IS low utilization — Elastic SGD's fast GPUs
  /// idle at barriers; Adaptive SGD's stay busy (Figure 2).
  double mean_utilization() const;

  /// Lowest single-GPU utilization (the most-idle device).
  double min_utilization() const;
};

}  // namespace hetero::core
