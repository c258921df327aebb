// Merge-payload compression: fp16 / int8 quantization of the merge deltas
// with per-group scales (DESIGN.md §10).
//
// The delta-aware merge ships each replica's touched-row delta (and the
// dense tail) to its peers; at XML scale those bytes dominate the merge
// cost. The merge quantizes the shipped deltas — fp16 with a single
// dynamic loss scale, or int8 with one fp32 scale per group (a W1 row in
// sparse mode, a 512-element block elsewhere) — straight into in-process
// scratch on the hetero::vec quantization kernels, so the result is
// bit-identical on every ISA. This module names the precisions, holds the
// fp16 loss-scale guard, and bills the simulated transfer (wire_payload).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "comm/allreduce.h"

namespace hetero::comm {

enum class MergePrecision : std::uint8_t { kFp32 = 0, kFp16 = 1, kInt8 = 2 };

/// Display / flag name: "fp32", "fp16", "int8".
const char* precision_name(MergePrecision p);

/// Parses a flag value; nullopt on anything but the three names.
std::optional<MergePrecision> parse_precision(const std::string& text);

/// Dynamic fp16 loss-scale guard in the style of torch.cuda.amp: deltas are
/// quantized as half(delta * scale); if any element overflows fp16 range
/// the merge halves the scale and requantizes (deterministic — only the
/// overflow *count being nonzero* matters, never float comparison order),
/// and after kGrowEvery consecutive clean merges the scale doubles back.
/// Guards against fp16 underflow on small late-training deltas.
struct LossScaleGuard {
  static constexpr float kMinScale = 1.0f;
  static constexpr float kMaxScale = 65536.0f;
  static constexpr std::uint32_t kGrowEvery = 64;

  float scale = 1024.0f;
  std::uint32_t good_streak = 0;

  void on_overflow() {
    scale = scale * 0.5f < kMinScale ? kMinScale : scale * 0.5f;
    good_streak = 0;
  }
  void on_clean_merge() {
    if (++good_streak >= kGrowEvery) {
      good_streak = 0;
      if (scale < kMaxScale) scale *= 2.0f;
    }
  }
};

/// Billing split for the simulated transfer of `elems` elements in `rows`
/// scale groups: element data vs metadata (a 32-byte header, plus one fp32
/// scale per group for int8). fp32 ships raw floats with no metadata.
WirePayload wire_payload(MergePrecision p, std::uint64_t rows,
                         std::uint64_t elems);

}  // namespace hetero::comm
