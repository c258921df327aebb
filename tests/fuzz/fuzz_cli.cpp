// Fuzzes the CLI-facing parsers: parse_size_list (--hidden lists) and the
// ArgParser numeric getters, get_size included. Flag values come straight
// from the user's shell; "--gpus=abc" must throw hetero::ParseError (it used
// to strtoll to 0 silently), a negative size must throw rather than wrap,
// and a mutated size list must never crash or wrap.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/cli.h"
#include "util/error.h"
#include "util/fuzz.h"

namespace hetero::util {
namespace {

/// ArgParser reports positional/unknown args on stderr; over 10k mutated
/// command lines that is megabytes of noise, so mute stderr for the run.
class StderrSilencer {
 public:
  StderrSilencer() : saved_(dup(2)) {
    std::fflush(stderr);
    if (FILE* sink = std::fopen("/dev/null", "w")) {
      dup2(fileno(sink), 2);
      std::fclose(sink);
    }
  }
  ~StderrSilencer() {
    std::fflush(stderr);
    if (saved_ >= 0) {
      dup2(saved_, 2);
      close(saved_);
    }
  }

 private:
  int saved_;
};

TEST(FuzzCli, ParseSizeListNeverCrashes) {
  fuzz::Corpus corpus({"256,128,64", "48", "1,2,3,4,5,6,7,8", "1024"});
  const fuzz::Mutator mutator({",", "0", "-", "+", " ", "99999999999999999999",
                               "18446744073709551616", "0x", "e9", "1,"});
  auto opts = fuzz::Options::from_env({});
  const auto stats =
      fuzz::run(opts, corpus, mutator, [](const std::string& input) {
        const auto sizes = parse_size_list(input);
        for (const auto s : sizes) {
          if (s == 0) throw std::logic_error("size list accepted a zero");
        }
      });
  EXPECT_GE(stats.iterations, 10000u);
  EXPECT_GT(stats.accepted, 0u);
  EXPECT_GT(stats.rejected, 0u);
}

TEST(FuzzCli, ArgParserGettersNeverCrash) {
  fuzz::Corpus corpus({
      "--method adaptive --gpus 4 --gap 0.32 --lr 0.5 --hidden 256,128",
      "--model deep --sparse-merge --seed 7 --batch-max=128",
      "--fault-plan crash@2.5:gpu1 --checkpoint-every 2",
      "--megabatches 6 --batch-max -1 --kernel-threads=4",
  });
  const fuzz::Mutator mutator({"--", "=", " ", "-", ".", "gpus", "lr",
                               "hidden", "true", "on", "1e999", "nan", ",",
                               "megabatches", "-1",
                               "9223372036854775808"});
  auto opts = fuzz::Options::from_env({});
  opts.seed = 0xC11FULL;
  StderrSilencer mute;
  const auto stats =
      fuzz::run(opts, corpus, mutator, [](const std::string& input) {
        // Split the fuzz input into an argv the way a shell would.
        std::vector<std::string> words{"fuzz_cli"};
        std::istringstream ss(input);
        std::string word;
        while (ss >> word && words.size() < 64) words.push_back(word);
        std::vector<const char*> argv;
        argv.reserve(words.size());
        for (const auto& w : words) argv.push_back(w.c_str());

        ArgParser args(static_cast<int>(argv.size()), argv.data());
        // Exercise every getter type; each may throw ParseError only.
        args.get_string("method", "adaptive");
        args.get_int("gpus", 4);
        args.get_int("seed", 1);
        args.get_double("gap", 0.32);
        args.get_double("lr", 0.5);
        args.get_bool("sparse-merge", false);
        args.get_size_list("hidden", {48});
        // A size is the integer value, or a ParseError when that value is
        // negative — never a wrapped one.
        for (const char* flag :
             {"megabatches", "batch-max", "kernel-threads"}) {
          ArgParser ints(static_cast<int>(argv.size()), argv.data());
          std::optional<std::int64_t> value;
          try {
            value = ints.get_int(flag, 6);
          } catch (const ParseError&) {
          }
          try {
            const std::size_t size = args.get_size(flag, 6);
            if (!value || *value < 0 ||
                static_cast<std::size_t>(*value) != size) {
              throw std::logic_error("get_size disagrees with get_int");
            }
          } catch (const ParseError&) {
            if (value && *value >= 0) {
              throw std::logic_error("get_size rejected a valid size");
            }
          }
        }
        args.report_unknown();
      });
  EXPECT_GE(stats.iterations, 10000u);
  EXPECT_GT(stats.accepted, 0u);
  EXPECT_GT(stats.rejected, 0u);
}

}  // namespace
}  // namespace hetero::util
