#include "comm/quant.h"

#include <cstddef>

namespace hetero::comm {

namespace {

// Fixed header of a compressed payload (precision, group width, loss scale,
// group and element counts).
constexpr std::size_t kHeaderBytes = 32;

// Bytes per element on the wire: 4 / 2 / 1.
std::size_t precision_elem_bytes(MergePrecision p) {
  switch (p) {
    case MergePrecision::kFp32:
      return 4;
    case MergePrecision::kFp16:
      return 2;
    case MergePrecision::kInt8:
      return 1;
  }
  return 4;
}

}  // namespace

const char* precision_name(MergePrecision p) {
  switch (p) {
    case MergePrecision::kFp32:
      return "fp32";
    case MergePrecision::kFp16:
      return "fp16";
    case MergePrecision::kInt8:
      return "int8";
  }
  return "unknown";
}

std::optional<MergePrecision> parse_precision(const std::string& text) {
  if (text == "fp32") return MergePrecision::kFp32;
  if (text == "fp16") return MergePrecision::kFp16;
  if (text == "int8") return MergePrecision::kInt8;
  return std::nullopt;
}

WirePayload wire_payload(MergePrecision p, std::uint64_t rows,
                         std::uint64_t elems) {
  WirePayload w;
  w.payload_bytes =
      static_cast<double>(elems) *
      static_cast<double>(precision_elem_bytes(p));
  if (p == MergePrecision::kFp32) return w;  // no metadata: raw floats
  const std::uint64_t scales = p == MergePrecision::kInt8 ? rows * 4 : 0;
  w.metadata_bytes = static_cast<double>(kHeaderBytes + scales);
  return w;
}

}  // namespace hetero::comm
