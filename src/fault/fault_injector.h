// Applies a FaultPlan to a runtime: window faults (slowdown/stall/oom) are
// armed directly on the virtual devices, membership faults (crash/join) are
// registered with the runtime's elastic-membership schedule so they take
// effect at merge boundaries.
#pragma once

#include "core/runtime.h"
#include "fault/fault_plan.h"

namespace hetero::fault {

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }

  /// Validates the plan against the runtime's device count and arms every
  /// event. Counters land in runtime.fault_stats(). When re-arming on a
  /// checkpoint-restored runtime, pass the checkpoint's virtual time as
  /// `applied_until`: membership events (crash/join) at or before it are
  /// already reflected in the restored alive flags and are skipped (a
  /// skipped crash still records its time, which a later join's outage is
  /// measured from); window faults are always re-armed (they are stateless
  /// lookups by start time).
  void arm(core::MultiGpuRuntime& runtime, double applied_until = -1.0) const;

 private:
  FaultPlan plan_;
};

}  // namespace hetero::fault
