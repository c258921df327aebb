#include "util/cli.h"

#include <algorithm>
#include <cstdio>

#include "util/error.h"

namespace hetero::util {

std::vector<std::size_t> parse_size_list(const std::string& text) {
  if (text.empty()) {
    throw ParseError("size-list", "list is empty");
  }
  std::vector<std::size_t> sizes;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    auto comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string token = text.substr(pos, comma - pos);
    if (token.empty()) {
      throw ParseError("size-list",
                       "'" + text + "' has an empty element", ParseError::npos,
                       pos);
    }
    const auto value = parse_u64_strict(token, "size-list");
    if (value == 0) {
      throw ParseError("size-list", "'" + text + "' contains a zero entry",
                       ParseError::npos, pos);
    }
    sizes.push_back(static_cast<std::size_t>(value));
    pos = comma + 1;
  }
  return sizes;
}

ArgParser::ArgParser(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "ignoring positional argument '%s'\n", arg.c_str());
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // boolean flag form
    }
  }
}

std::optional<std::string> ArgParser::take(const std::string& name) {
  consumed_.push_back(name);
  auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string ArgParser::get_string(const std::string& name,
                                  const std::string& def) {
  return take(name).value_or(def);
}

std::int64_t ArgParser::get_int(const std::string& name, std::int64_t def) {
  auto v = take(name);
  if (!v) return def;
  return parse_i64_strict(*v, "cli: flag --" + name);
}

std::size_t ArgParser::get_size(const std::string& name, std::size_t def) {
  auto v = take(name);
  if (!v) return def;
  const std::string source = "cli: flag --" + name;
  const auto value = parse_i64_strict(*v, source);
  if (value < 0) {
    throw ParseError(source, "'" + *v + "' is negative (expected >= 0)");
  }
  return static_cast<std::size_t>(value);
}

double ArgParser::get_double(const std::string& name, double def) {
  auto v = take(name);
  if (!v) return def;
  return parse_f64_strict(*v, "cli: flag --" + name);
}

std::vector<std::size_t> ArgParser::get_size_list(
    const std::string& name, std::vector<std::size_t> def) {
  auto v = take(name);
  if (!v) return def;
  return parse_size_list(*v);
}

bool ArgParser::get_bool(const std::string& name, bool def) {
  auto v = take(name);
  if (!v) return def;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  throw ParseError("cli: flag --" + name, "'" + *v + "' is not a boolean");
}

bool ArgParser::report_unknown() const {
  bool any = false;
  for (const auto& [name, value] : values_) {
    if (std::find(consumed_.begin(), consumed_.end(), name) ==
        consumed_.end()) {
      std::fprintf(stderr, "unknown flag --%s=%s\n", name.c_str(),
                   value.c_str());
      any = true;
    }
  }
  return any;
}

}  // namespace hetero::util
