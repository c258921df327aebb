#include "fault/fault_injector.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace hetero::fault {

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

void FaultInjector::arm(core::MultiGpuRuntime& runtime,
                        double applied_until) const {
  const sim::Topology& topo = runtime.links().topology();
  plan_.validate(topo);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  auto& stats = runtime.fault_stats();
  stats.node_events += static_cast<std::size_t>(
      std::count_if(plan_.events.begin(), plan_.events.end(),
                    [](const FaultEvent& ev) { return ev.node_target; }));

  // Node events (including partitions) arm as their per-replica expansion:
  // membership flips ride the existing crash/join merge-boundary schedule.
  const FaultPlan expanded = plan_.expand(topo);
  for (const auto& ev : expanded.events) {
    auto& gpu = runtime.gpu(ev.device);
    switch (ev.kind) {
      case FaultKind::kSlowdown:
        gpu.add_slowdown(ev.time, ev.time + ev.duration, ev.factor);
        stats.slowdowns += 1;
        break;
      case FaultKind::kStall:
        gpu.add_stall(ev.time, ev.time + ev.duration);
        stats.stalls += 1;
        break;
      case FaultKind::kOom: {
        const auto cap =
            ev.mem_bytes != 0
                ? ev.mem_bytes
                : static_cast<std::size_t>(
                      ev.factor *
                      static_cast<double>(gpu.spec().memory_bytes));
        const double end = ev.duration > 0.0 ? ev.time + ev.duration : kInf;
        gpu.add_memory_cap(ev.time, end, cap);
        stats.oom_events += 1;
        break;
      }
      case FaultKind::kCrash:
        if (ev.time <= applied_until) {  // already in restored state
          runtime.restore_crash_time(ev.device, ev.time);
          break;
        }
        runtime.schedule_crash(ev.device, ev.time);
        break;
      case FaultKind::kJoin:
        if (ev.time <= applied_until) break;
        runtime.schedule_join(ev.device, ev.time);
        break;
      case FaultKind::kPartition:
        break;  // expand() rewrote partitions into crash+join pairs
    }
    stats.events_injected += 1;
  }
}

}  // namespace hetero::fault
