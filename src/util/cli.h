// Minimal command-line flag parser for examples and bench binaries.
//
// Supports --name=value and --name value forms plus boolean --flag.
// Unknown flags are an error so typos do not silently change experiments.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace hetero::util {

/// Parses a comma-separated size list ("256,128,64") into positive sizes.
/// Throws hetero::ParseError on an empty list, an empty element, trailing
/// garbage ("12x"), overflow, or a zero entry — experiment configs must
/// fail loudly.
std::vector<std::size_t> parse_size_list(const std::string& text);

class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  /// Declares a flag with a default, returning the parsed value. The
  /// numeric forms throw hetero::ParseError naming the flag when the value
  /// is not a number — "--gpus=abc" must not silently become 0.
  std::string get_string(const std::string& name, const std::string& def);
  std::int64_t get_int(const std::string& name, std::int64_t def);
  /// A count or size: get_int that also rejects a negative value with a
  /// hetero::ParseError naming the flag, instead of wrapping it to ~2^64.
  std::size_t get_size(const std::string& name, std::size_t def);
  double get_double(const std::string& name, double def);
  /// A switch: the bare --flag form or true/1/yes is true, false/0/no is
  /// false; any other value throws hetero::ParseError naming the flag, so
  /// "--lsh=on" cannot silently turn the switch off.
  bool get_bool(const std::string& name, bool def);

  /// Comma-separated size list, e.g. --hidden 256,128,64. Throws
  /// hetero::ParseError (via parse_size_list) on malformed input.
  std::vector<std::size_t> get_size_list(const std::string& name,
                                         std::vector<std::size_t> def);

  /// True if any unknown/undeclared flags remain; prints them to stderr.
  /// Call after all get_* declarations.
  bool report_unknown() const;

  const std::string& program_name() const { return program_; }

 private:
  std::optional<std::string> take(const std::string& name);

  std::string program_;
  std::map<std::string, std::string> values_;
  mutable std::vector<std::string> consumed_;
};

}  // namespace hetero::util
