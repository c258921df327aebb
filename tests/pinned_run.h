// Exact outputs of a finished training run, for tests that freeze a
// trainer's behaviour before its loop is rewritten: the FNV-1a fingerprint
// of the global model, the bits of the run's virtual time, communication
// seconds and gradient staleness, every curve point's top-1, and the
// per-GPU update counts of every mega-batch. A mismatch prints the actual
// run as an initializer, ready to compare with (or, for a deliberate
// behaviour change, to replace) the pinned constants.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <vector>

#include "core/trainer.h"

namespace hetero::core {

struct PinnedRun {
  std::uint64_t model_fnv = 0;
  std::uint64_t total_vtime_bits = 0;
  std::uint64_t comm_seconds_bits = 0;
  std::uint64_t avg_staleness_bits = 0;
  std::vector<double> top1;
  std::vector<std::vector<std::size_t>> updates;  // [gpu][mega-batch]

  bool operator==(const PinnedRun&) const = default;
};

inline std::uint64_t fnv1a(const std::vector<float>& v) {
  std::uint64_t h = 1469598103934665603ull;
  for (const float f : v) {
    std::uint32_t bits;
    std::memcpy(&bits, &f, sizeof(bits));
    for (int i = 0; i < 4; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

inline PinnedRun pin_run(Trainer& trainer, const TrainResult& r) {
  PinnedRun p;
  p.model_fnv = fnv1a(trainer.runtime().global_model().to_flat());
  p.total_vtime_bits = std::bit_cast<std::uint64_t>(r.total_vtime);
  p.comm_seconds_bits = std::bit_cast<std::uint64_t>(r.comm_seconds);
  p.avg_staleness_bits = std::bit_cast<std::uint64_t>(r.avg_staleness);
  for (const auto& point : r.curve) p.top1.push_back(point.top1);
  for (const auto& gpu : r.gpus) p.updates.push_back(gpu.updates);
  return p;
}

// gtest prints a mismatching PinnedRun through this.
inline void PrintTo(const PinnedRun& p, std::ostream* os) {
  const auto flags = os->flags();
  *os << std::hex << "{0x" << p.model_fnv << "ull, 0x" << p.total_vtime_bits
      << "ull, 0x" << p.comm_seconds_bits << "ull, 0x"
      << p.avg_staleness_bits << "ull,\n {";
  os->flags(flags);
  const auto precision = os->precision(17);
  for (const double t : p.top1) *os << t << ", ";
  *os << "},\n {";
  for (const auto& gpu : p.updates) {
    *os << "{";
    for (const auto u : gpu) *os << u << ", ";
    *os << "}, ";
  }
  *os << "}}";
  os->precision(precision);
}

}  // namespace hetero::core
