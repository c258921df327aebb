// Typed errors for untrusted input.
//
// Everything the system reads from the outside world — libSVM/XML datasets,
// HGCK checkpoints, fault-plan spec strings, CLI flag values — goes through
// parsers that throw ParseError on malformed bytes. Callers (notably
// hetero_train) can then distinguish "your input is bad" (catch ParseError,
// print the diagnostic, exit non-zero) from "the system has a bug" (any
// other exception). ParseError carries the input source name plus, when
// known, a 1-based line number (text formats) or a byte offset (binary
// formats) so the diagnostic points at the offending spot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace hetero {

class ParseError : public std::runtime_error {
 public:
  /// Sentinel for "no line / no offset context".
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  ParseError(std::string source, const std::string& what,
             std::size_t line = npos, std::size_t offset = npos)
      : std::runtime_error(format(source, what, line, offset)),
        source_(std::move(source)),
        line_(line),
        offset_(offset) {}

  /// Which untrusted surface rejected the input ("libsvm", "checkpoint",
  /// "fault-plan", "cli", "size-list", "model-checkpoint").
  const std::string& source() const { return source_; }

  /// 1-based line number for text formats; npos when not applicable.
  std::size_t line() const { return line_; }

  /// Byte offset for binary formats; npos when not applicable.
  std::size_t offset() const { return offset_; }

 private:
  static std::string format(const std::string& source, const std::string& what,
                            std::size_t line, std::size_t offset) {
    std::string msg = source;
    if (line != npos) msg += ", line " + std::to_string(line);
    if (offset != npos) msg += ", byte " + std::to_string(offset);
    msg += ": " + what;
    return msg;
  }

  std::string source_;
  std::size_t line_;
  std::size_t offset_;
};

/// A well-formed input that does not fit what it is loaded into: a
/// checkpoint written by another configuration or method, a model of
/// another shape. The bytes are fine (not a ParseError) and the system has
/// no bug (not any other exception): the caller picked the wrong file.
class MismatchError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace util {

// Strict numeric parsing shared by the text parsers: the whole token must be
// consumed, overflow/underflow is an error, and the result must be
// representable. All throw ParseError naming `source` (and `line` when
// given) so the caller's diagnostic points at the bad token.

/// Unsigned integer; rejects sign, trailing garbage, and values > max.
std::uint64_t parse_u64_strict(const std::string& token,
                               const std::string& source,
                               std::size_t line = ParseError::npos,
                               std::uint64_t max = UINT64_MAX);

/// Signed integer; rejects trailing garbage and out-of-range values.
std::int64_t parse_i64_strict(const std::string& token,
                              const std::string& source,
                              std::size_t line = ParseError::npos);

/// Double; rejects trailing garbage and overflow. Accepts inf/nan spellings
/// only when `allow_non_finite` is set (binary formats that round-trip).
double parse_f64_strict(const std::string& token, const std::string& source,
                        std::size_t line = ParseError::npos,
                        bool allow_non_finite = false);

/// Float; rejects trailing garbage, overflow, and non-finite values.
float parse_f32_strict(const std::string& token, const std::string& source,
                       std::size_t line = ParseError::npos);

}  // namespace util
}  // namespace hetero
