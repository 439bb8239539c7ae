// Tests for the util library: CSV, ASCII plots, args, thread pool, RNG.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>

#include "src/util/args.hpp"
#include "src/util/ascii_plot.hpp"
#include "src/util/csv.hpp"
#include "src/util/rng.hpp"
#include "src/util/stopwatch.hpp"
#include "src/util/thread_pool.hpp"

namespace ooctree {
namespace {

TEST(Csv, WritesQuotedRows) {
  const std::string path = testing::TempDir() + "/ooctree_csv_test.csv";
  {
    util::CsvWriter csv(path, {"name", "value", "note"});
    csv.row({"plain", std::int64_t{42}, "with,comma"});
    csv.row({"q\"uote", 1.5, "line"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "name,value,note");
  std::getline(in, line);
  EXPECT_EQ(line, "plain,42,\"with,comma\"");
  std::getline(in, line);
  EXPECT_EQ(line, "\"q\"\"uote\",1.5,line");
  std::remove(path.c_str());
}

TEST(Csv, ThrowsOnBadPath) {
  EXPECT_THROW(util::CsvWriter("/nonexistent_dir_xyz/file.csv", {"a"}), std::runtime_error);
}

TEST(AsciiPlot, RendersSeriesAndLegend) {
  util::Series s1{"alpha", {0.0, 1.0}, {0.0, 1.0}};
  util::Series s2{"beta", {0.0, 1.0}, {1.0, 0.0}};
  util::PlotOptions opts;
  opts.width = 40;
  opts.height = 10;
  opts.x_label = "x";
  opts.y_label = "y";
  const std::string plot = util::render_plot({s1, s2}, opts);
  EXPECT_NE(plot.find("alpha"), std::string::npos);
  EXPECT_NE(plot.find("beta"), std::string::npos);
  EXPECT_NE(plot.find('A'), std::string::npos);
  EXPECT_NE(plot.find('B'), std::string::npos);
  EXPECT_NE(plot.find('y'), std::string::npos);
}

TEST(Args, ParsesOptionsAndPositionals) {
  const char* argv[] = {"prog", "--n", "30",  "--flag", "--name=x,y",
                        "pos1", "--ratio", "0.5", "pos2"};
  const auto args = util::Args::parse(9, argv, {"n", "flag", "name", "ratio", "missing"});
  EXPECT_EQ(args.get_int("n", 0), 30);
  EXPECT_TRUE(args.has("flag"));
  EXPECT_EQ(args.get("name", ""), "x,y");
  EXPECT_DOUBLE_EQ(args.get_double("ratio", 0.0), 0.5);
  EXPECT_EQ(args.get_int("missing", 7), 7);
  EXPECT_EQ(args.positional(), (std::vector<std::string>{"pos1", "pos2"}));
}

TEST(Args, ThrowsOnBadNumbers) {
  const char* argv[] = {"prog", "--n", "abc"};
  const auto args = util::Args::parse(3, argv, {"n"});
  EXPECT_THROW((void)args.get_int("n", 0), std::runtime_error);
  EXPECT_THROW((void)args.get_double("n", 0.0), std::runtime_error);
}

TEST(Args, RejectsTrailingGarbage) {
  const char* argv[] = {"prog", "--n", "12abc", "--ratio", "0.5x", "--pi", "3.14.15"};
  const auto args = util::Args::parse(7, argv, {"n", "ratio", "pi"});
  EXPECT_THROW((void)args.get_int("n", 0), std::runtime_error);
  EXPECT_THROW((void)args.get_double("n", 0.0), std::runtime_error);
  EXPECT_THROW((void)args.get_double("ratio", 0.0), std::runtime_error);
  EXPECT_THROW((void)args.get_double("pi", 0.0), std::runtime_error);
}

TEST(Args, AcceptsFullNumericParses) {
  const char* argv[] = {"prog", "--n", "-42", "--ratio", "2.5e-1", "--whole", "3."};
  const auto args = util::Args::parse(7, argv, {"n", "ratio", "whole"});
  EXPECT_EQ(args.get_int("n", 0), -42);
  EXPECT_DOUBLE_EQ(args.get_double("ratio", 0.0), 0.25);
  EXPECT_DOUBLE_EQ(args.get_double("whole", 0.0), 3.0);
  EXPECT_THROW((void)args.get_int("ratio", 0), std::runtime_error);  // "2.5e-1" is not an int
}

// An option the program does not read is an error naming it and every
// accepted option, in either spelling; names that are read still parse.
TEST(Args, RejectsUnknownOptionsListingTheAccepted) {
  for (const char* bogus : {"--bogus", "--bogus=3"}) {
    const char* argv[] = {"prog", "--n", "3", bogus, "4"};
    try {
      (void)util::Args::parse(5, argv, {"n", "flag"});
      ADD_FAILURE() << bogus << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "unknown option --bogus (accepted: --n, --flag)") << bogus;
    }
  }
  const char* argv[] = {"prog", "--flag", "pos"};
  EXPECT_TRUE(util::Args::parse(3, argv, {"n", "flag"}).has("flag"));
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  util::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 37) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ZeroIterationsIsNoop) {
  util::ThreadPool pool(2);
  pool.parallel_for(0, [&](std::size_t) { FAIL(); });
}

TEST(ThreadPool, ReusableAcrossCalls) {
  util::ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 5; ++round)
    pool.parallel_for(50, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 250);
}

TEST(Rng, DeterministicAndInRange) {
  util::Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    const auto x = a.uniform_int(5, 9);
    EXPECT_EQ(x, b.uniform_int(5, 9));
    EXPECT_GE(x, 5);
    EXPECT_LE(x, 9);
  }
}

TEST(Rng, ForkDiverges) {
  util::Rng a(7);
  util::Rng child = a.fork();
  bool differs = false;
  util::Rng fresh(7);
  util::Rng child2 = fresh.fork();
  for (int i = 0; i < 10; ++i) {
    if (child.uniform_int(0, 1000000) != child2.uniform_int(0, 1000000)) differs = false;
  }
  // Same seed -> same fork stream; mostly a determinism check.
  EXPECT_FALSE(differs);
}

TEST(Rng, SplitmixMatchesReferenceVectors) {
  // Reference outputs of the splitmix64 standard (Vigna's splitmix64.c)
  // from state 0: pinning them keeps derived seeds stable across releases
  // — cached results and recorded baselines depend on these streams.
  EXPECT_EQ(util::splitmix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(util::splitmix64(0x9e3779b97f4a7c15ULL), 0x6e789e6aa1b965f4ULL);
  static_assert(util::splitmix64(0) == 0xe220a8397b1dcdafULL);  // constexpr-usable
}

TEST(Rng, DerivedSeedsAreStableAndWellSeparated) {
  const std::uint64_t base = util::derive_seed(20170208, 1);
  EXPECT_EQ(base, util::derive_seed(20170208, 1));  // pure function of inputs
  // Nearby request ids and nearby service seeds land far apart.
  EXPECT_NE(util::derive_seed(20170208, 2), base);
  EXPECT_NE(util::derive_seed(20170209, 1), base);
  // Streams must differ from the raw seed itself (no id-0 passthrough).
  EXPECT_NE(util::derive_seed(20170208, 0), 20170208u);
}

TEST(Stopwatch, MeasuresElapsed) {
  util::Stopwatch sw;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(sw.seconds(), 0.0);
  sw.reset();
  EXPECT_LT(sw.millis(), 1000.0);
}

}  // namespace
}  // namespace ooctree
