// Thread pool, event queue, CSV writer, CLI parser.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/cli.h"
#include "util/error.h"
#include "util/csv.h"
#include "util/event_queue.h"
#include "util/kernel_context.h"
#include "util/thread_pool.h"

namespace hetero::util {
namespace {

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, AtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmpty) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, ManyTasksComplete) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&] { counter++; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

// Context that forks for any amount of work, so tiny n still takes the pool.
kernels::Context fork_ctx(ThreadPool& pool, std::size_t threads) {
  kernels::Context ctx{&pool, threads};
  ctx.serial_grain = 0;
  return ctx;
}

TEST(ForkJoin, JoinWaitsForEveryRangeBeforeRethrowing) {
  // Range 0 throws at once while the others are still sleeping. The join
  // must not hand the exception to the caller (whose frame owns fn) until
  // every range has finished.
  std::atomic<int> finished{0};
  const auto fn = [&](std::size_t begin, std::size_t) {
    if (begin == 0) throw std::runtime_error("range 0");
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ++finished;
  };
  ThreadPool pool(4);  // declared last: joins any range still running
  int finished_at_throw = -1;
  try {
    kernels::parallel_for_ranges(fork_ctx(pool, 4), 4, 0, fn);
  } catch (const std::runtime_error&) {
    finished_at_throw = finished.load();
  }
  EXPECT_EQ(finished_at_throw, 3);
}

TEST(ForkJoin, ParallelForFinishesEveryIndexBeforeRethrowing) {
  std::atomic<int> finished{0};
  const auto fn = [&](std::size_t i) {
    if (i == 0) throw std::runtime_error("index 0");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ++finished;
  };
  ThreadPool pool(3);
  int finished_at_throw = -1;
  try {
    pool.parallel_for(6, fn);
  } catch (const std::runtime_error&) {
    finished_at_throw = finished.load();
  }
  EXPECT_EQ(finished_at_throw, 5);
}

TEST(ForkJoin, CoversEachRangeOnceForSmallCounts) {
  ThreadPool pool(4);
  for (std::size_t n = 0; n <= 6; ++n) {
    std::vector<std::atomic<int>> hits(n);
    pool.fork_join(n, [&](std::size_t r) { ++hits[r]; });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1) << "fork_join " << n;

    std::vector<std::atomic<int>> items(n);
    kernels::parallel_for_ranges(fork_ctx(pool, 4), n, 0,
                                 [&](std::size_t b, std::size_t e) {
                                   for (std::size_t i = b; i < e; ++i) {
                                     ++items[i];
                                   }
                                 });
    for (auto& h : items) EXPECT_EQ(h.load(), 1) << "ranges " << n;
  }
}

TEST(ForkJoin, ConcurrentForksOnOnePoolEachCoverOnce) {
  // Four threads fork on one pool at once: one holds the pool, the others
  // run inline. Plain ints: the join must order every range's writes
  // before the caller's reads (TSan checks this).
  ThreadPool pool(4);
  const auto ctx = fork_ctx(pool, 4);
  constexpr std::size_t kN = 37;
  std::atomic<int> wrong{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      std::vector<int> hits(kN);
      for (int round = 0; round < 200; ++round) {
        std::fill(hits.begin(), hits.end(), 0);
        kernels::parallel_for_ranges(ctx, kN, 0,
                                     [&](std::size_t b, std::size_t e) {
                                       for (std::size_t i = b; i < e; ++i) {
                                         ++hits[i];
                                       }
                                     });
        for (const int h : hits) wrong += h != 1;
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(ForkJoin, NestedForksCoverOnce) {
  ThreadPool pool(4);
  const auto ctx = fork_ctx(pool, 4);
  constexpr std::size_t kOuter = 5, kInner = 7;
  std::vector<int> hits(kOuter * kInner);
  const auto nested = [&] {
    std::fill(hits.begin(), hits.end(), 0);
    kernels::parallel_for_ranges(
        ctx, kOuter, 0, [&](std::size_t ob, std::size_t oe) {
          for (std::size_t o = ob; o < oe; ++o) {
            kernels::parallel_for_ranges(
                ctx, kInner, 0, [&](std::size_t b, std::size_t e) {
                  for (std::size_t i = b; i < e; ++i) ++hits[o * kInner + i];
                });
          }
        });
    for (const int h : hits) EXPECT_EQ(h, 1);
  };
  nested();                      // from an outside thread
  pool.submit(nested).get();     // from one of the pool's own workers
}

TEST(EventQueue, FifoOrder) {
  EventQueue<int> q;
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
}

TEST(EventQueue, TryPopEmpty) {
  EventQueue<int> q;
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(EventQueue, CloseDrainsThenNullopt) {
  EventQueue<int> q;
  q.push(7);
  q.close();
  EXPECT_EQ(q.pop().value(), 7);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(EventQueue, PushAfterCloseIgnored) {
  EventQueue<int> q;
  q.close();
  q.push(1);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(EventQueue, CrossThreadDelivery) {
  EventQueue<int> q;
  std::thread producer([&] {
    for (int i = 0; i < 100; ++i) q.push(i);
    q.close();
  });
  int expected = 0;
  while (auto v = q.pop()) {
    EXPECT_EQ(*v, expected++);
  }
  EXPECT_EQ(expected, 100);
  producer.join();
}

TEST(EventQueue, SizeReflectsContent) {
  EventQueue<int> q;
  EXPECT_EQ(q.size(), 0u);
  q.push(1);
  q.push(2);
  EXPECT_EQ(q.size(), 2u);
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "/test.csv";
  {
    CsvWriter w(path, {"x", "y"});
    ASSERT_TRUE(w.ok());
    w.row({"1", "2"});
    w.row_numeric({3.5, 4.25});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::getline(in, line);
  EXPECT_EQ(line, "3.5,4.25");
  std::remove(path.c_str());
}

TEST(Cli, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--alpha=3", "--name=abc"};
  ArgParser args(3, argv);
  EXPECT_EQ(args.get_int("alpha", 0), 3);
  EXPECT_EQ(args.get_string("name", ""), "abc");
}

TEST(Cli, ParsesSpaceForm) {
  const char* argv[] = {"prog", "--count", "7"};
  ArgParser args(3, argv);
  EXPECT_EQ(args.get_int("count", 0), 7);
}

TEST(Cli, BooleanFlag) {
  const char* argv[] = {"prog", "--verbose"};
  ArgParser args(2, argv);
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_FALSE(args.get_bool("quiet", false));
}

TEST(Cli, BooleanValuesAreStrict) {
  const char* argv[] = {"prog",    "--a=true", "--b=false", "--c=1",
                        "--d=0",   "--e=yes",  "--f=no",    "--g=on"};
  ArgParser args(8, argv);
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_TRUE(args.get_bool("c", false));
  EXPECT_FALSE(args.get_bool("d", true));
  EXPECT_TRUE(args.get_bool("e", false));
  EXPECT_FALSE(args.get_bool("f", true));
  try {
    args.get_bool("g", false);
    FAIL() << "--g=on was accepted";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "cli: flag --g: 'on' is not a boolean");
  }
}

TEST(Cli, DefaultsWhenMissing) {
  const char* argv[] = {"prog"};
  ArgParser args(1, argv);
  EXPECT_EQ(args.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.5), 0.5);
  EXPECT_EQ(args.get_string("s", "dft"), "dft");
}

TEST(Cli, DoubleParsing) {
  const char* argv[] = {"prog", "--lr=0.125"};
  ArgParser args(2, argv);
  EXPECT_DOUBLE_EQ(args.get_double("lr", 0.0), 0.125);
}

TEST(Cli, ReportUnknownFindsTypos) {
  const char* argv[] = {"prog", "--knwon=1"};
  ArgParser args(2, argv);
  args.get_int("known", 0);
  EXPECT_TRUE(args.report_unknown());
}

TEST(Cli, ReportUnknownCleanWhenAllConsumed) {
  const char* argv[] = {"prog", "--a=1"};
  ArgParser args(2, argv);
  args.get_int("a", 0);
  EXPECT_FALSE(args.report_unknown());
}

TEST(ThreadPool, NestedSubmitFromWorker) {
  // A worker may enqueue follow-up work without deadlocking.
  ThreadPool pool(2);
  auto outer = pool.submit([&pool] {
    auto inner = pool.submit([] { return 7; });
    return inner.get() + 1;
  });
  EXPECT_EQ(outer.get(), 8);
}

TEST(EventQueue, MoveOnlyFriendlyTypes) {
  EventQueue<std::unique_ptr<int>> q;
  q.push(std::make_unique<int>(5));
  auto v = q.pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 5);
}

TEST(EventQueue, ManyProducersOneConsumer) {
  EventQueue<int> q;
  std::vector<std::thread> producers;
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&q, t] {
      for (int i = 0; i < 50; ++i) q.push(t * 100 + i);
    });
  }
  for (auto& p : producers) p.join();
  q.close();
  int count = 0;
  while (q.pop()) ++count;
  EXPECT_EQ(count, 200);
}

TEST(Cli, LastValueWinsOnDuplicateFlags) {
  const char* argv[] = {"prog", "--n=1", "--n=2"};
  ArgParser args(3, argv);
  EXPECT_EQ(args.get_int("n", 0), 2);
}

TEST(Cli, NegativeNumbersViaEquals) {
  const char* argv[] = {"prog", "--delta=-0.5"};
  ArgParser args(2, argv);
  EXPECT_DOUBLE_EQ(args.get_double("delta", 0.0), -0.5);
}

TEST(Cli, ParseSizeList) {
  EXPECT_EQ(parse_size_list("256,128,64"),
            (std::vector<std::size_t>{256, 128, 64}));
  EXPECT_EQ(parse_size_list("48"), (std::vector<std::size_t>{48}));
  EXPECT_THROW(parse_size_list(""), hetero::ParseError);
  EXPECT_THROW(parse_size_list("128,"), hetero::ParseError);
  EXPECT_THROW(parse_size_list(",128"), hetero::ParseError);
  EXPECT_THROW(parse_size_list("128,0,64"), hetero::ParseError);
  EXPECT_THROW(parse_size_list("12x"), hetero::ParseError);
  EXPECT_THROW(parse_size_list("128,,64"), hetero::ParseError);
  // Overflow and negative entries go through the strict parser too; strtoul
  // used to wrap "99999999999999999999" and negate "-64" silently.
  EXPECT_THROW(parse_size_list("99999999999999999999"), hetero::ParseError);
  EXPECT_THROW(parse_size_list("256,-64"), hetero::ParseError);
}

TEST(Cli, NumericGettersRejectGarbageValues) {
  // Pre-fix, strtoll/strtod swallowed errors and "--gpus=abc" became 0.
  const char* argv[] = {"prog", "--gpus=abc", "--lr=0.5x", "--gap=1e999"};
  ArgParser args(4, argv);
  EXPECT_THROW(args.get_int("gpus", 4), hetero::ParseError);
  EXPECT_THROW(args.get_double("lr", 0.5), hetero::ParseError);
  EXPECT_THROW(args.get_double("gap", 0.3), hetero::ParseError);
}

TEST(Cli, ParseErrorMessageNamesTheFlag) {
  const char* argv[] = {"prog", "--gpus=abc"};
  ArgParser args(2, argv);
  try {
    args.get_int("gpus", 4);
    FAIL() << "expected ParseError";
  } catch (const hetero::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("--gpus"), std::string::npos);
  }
}

TEST(Cli, GetSizeList) {
  const char* argv[] = {"prog", "--hidden=256,128"};
  ArgParser args(2, argv);
  EXPECT_EQ(args.get_size_list("hidden", {48}),
            (std::vector<std::size_t>{256, 128}));
  EXPECT_EQ(args.get_size_list("other", {48}),
            (std::vector<std::size_t>{48}));
  EXPECT_FALSE(args.report_unknown());
}

}  // namespace
}  // namespace hetero::util
