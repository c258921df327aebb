// Model checkpointing: a small self-describing binary format.
//
// Version 1 (one hidden layer):
//   magic "HGPU" | version=1 u32 | num_features u64 | hidden u64 |
//   num_classes u64 | float32 parameters in to_flat() order (W1, b1, W2, b2).
//
// Version 2 (arbitrary layer list):
//   magic "HGPU" | version=2 u32 | num_hidden u64 | num_features u64 |
//   hidden[0..num_hidden) u64 | num_classes u64 | float32 parameters in
//   to_flat() order (W_l, b_l per layer).
//
// save_model picks the format from the shape: v1 for one hidden layer — old
// checkpoints and old readers keep working byte-for-byte — and v2 for
// deeper stacks. Both versions load into an nn::Model, including one-hidden-
// layer v2 files written before the shape decided the format. Little-endian
// host order (the format is a local checkpoint, not a wire protocol).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "nn/model.h"

namespace hetero::nn {

/// Writes the model; throws std::runtime_error on I/O failure.
/// One hidden layer is written as v1, more as v2. The parameters go
/// straight from segment_views() to the stream, with no staging copy.
void save_model(std::ostream& out, const Model& model);
void save_model_file(const std::string& path, const Model& model);

/// Number of bytes save_model writes for `model`: its header plus four
/// bytes per parameter.
std::size_t serialized_size(const Model& model);

/// The bytes save_model writes, as one string built with a single copy of
/// the parameters: the in-memory blob of serving snapshots.
std::string model_blob(const Model& model);

/// Reads a checkpoint of any supported version into a Model; throws
/// hetero::ParseError (a std::runtime_error) on malformed input — bad
/// magic, truncation, and headers whose implied parameter payload exceeds
/// the remaining stream size (checked before any allocation).
Model load_any_model(std::istream& in);
Model load_any_model_file(const std::string& path);

/// Reads a model of any supported version straight into `model`'s
/// parameters and returns the bytes consumed. The header is parsed and
/// validated as load_any_model does; a shape other than `model`'s throws
/// hetero::MismatchError naming both shapes before any parameter is read.
std::size_t load_model_into(std::istream& in, Model& model);

/// "features x hidden... x classes", e.g. "64x8x4x16".
std::string shape_string(const ModelInfo& info);

}  // namespace hetero::nn
