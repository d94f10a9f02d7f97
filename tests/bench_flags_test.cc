// The bench flag table: every bench hands bench::Session the flags it reads,
// and the session rejects anything else. An ignored typo or unread flag, or a
// value parsed by its prefix (--replication=2x as 2), would silently measure
// an experiment other than the one asked for. These tests pin the accepted
// values and the exit-2 rejection.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_common.h"

namespace fpgadp {
namespace {

struct Targets {
  bool smoke = false;
  std::string gather = "flat";
  uint64_t replication = 1;
  uint64_t fault_seed = 1;
  double drop_rate = 0;

  /// The union of the flags bench_shard_scaling and bench_serving_slo read.
  std::vector<bench::Flag> Table() {
    return {bench::BoolFlag("--smoke", &smoke),
            bench::ChoiceFlag("--gather=", {"flat", "tree", "switch"}, &gather),
            bench::RangeFlag("--replication=", 1, 4, &replication),
            bench::RangeFlag("--fault-seed=", 0, UINT64_MAX, &fault_seed),
            bench::ProbabilityFlag("--drop-rate=", &drop_rate)};
  }
};

/// `text` as a regular expression that matches it literally.
std::string Literal(const std::string& text) {
  std::string re;
  for (char c : text) {
    if (std::string_view(".[]()*+?{}|^$\\").find(c) != std::string_view::npos) {
      re += '\\';
    }
    re += c;
  }
  return re;
}

/// Builds a Session from `args` as a bench's main() would.
void Parse(std::vector<std::string> args, std::vector<bench::Flag> flags) {
  std::string prog = "bench";
  std::vector<char*> argv = {prog.data()};
  for (std::string& a : args) argv.push_back(a.data());
  bench::Session session(static_cast<int>(argv.size()), argv.data(),
                         std::move(flags));
}

TEST(BenchFlagsTest, ValidValuesLandInTheirTargets) {
  Targets t;
  Parse({"--smoke", "--gather=tree", "--replication=4", "--drop-rate=1",
         "--fault-seed=0"},
        t.Table());
  EXPECT_TRUE(t.smoke);
  EXPECT_EQ(t.gather, "tree");
  EXPECT_EQ(t.replication, 4u);
  EXPECT_EQ(t.drop_rate, 1.0);
  EXPECT_EQ(t.fault_seed, 0u);

  Targets edges;
  Parse({"--replication=1", "--drop-rate=0.05", "--fault-seed=18446744073709551615"},
        edges.Table());
  EXPECT_FALSE(edges.smoke);
  EXPECT_EQ(edges.gather, "flat");
  EXPECT_EQ(edges.replication, 1u);
  EXPECT_EQ(edges.drop_rate, 0.05);
  EXPECT_EQ(edges.fault_seed, UINT64_MAX);
}

TEST(BenchFlagsTest, GivenNamesTheFlagsTheCommandLineSet) {
  // A flag given its default value still counts: a mode that does not read
  // the flag must reject it whatever the value.
  Targets t;
  std::vector<std::string> args = {"bench", "--gather=flat", "--fault-seed=1",
                                   "--json=out.json"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  bench::Session session(static_cast<int>(argv.size()), argv.data(), t.Table());
  session.Fail();  // writes no JSON file
  EXPECT_TRUE(session.Given("--gather="));
  EXPECT_TRUE(session.Given("--fault-seed="));
  EXPECT_TRUE(session.Given("--json="));
  EXPECT_FALSE(session.Given("--drop-rate="));
  EXPECT_FALSE(session.Given("--smoke"));
  EXPECT_FALSE(session.Given("--gather"));
}

TEST(BenchFlagsDeathTest, UnknownFlagsExit2WithUsage) {
  // The removed engine-mode flags, a bool flag given a value, a valued flag
  // without one, and a flag only other benches read.
  for (const char* arg : {"--bogus-flag", "--threads=8", "--no-fast-forward",
                          "--engine=tick", "--smoke=1", "--gather", "smoke"}) {
    Targets t;
    EXPECT_EXIT(Parse({arg}, t.Table()), ::testing::ExitedWithCode(2),
                Literal(std::string("bench: unknown flag '") + arg + "'"))
        << arg;
  }
  EXPECT_EXIT(Parse({"--drop-rate=0.1"}, {}), ::testing::ExitedWithCode(2),
              "unknown flag '--drop-rate=0.1'; the accepted flags are:\n"
              "  --trace=<file>\n  --json=<file>\n  --metrics\n$");
}

TEST(BenchFlagsDeathTest, RejectedValuesExit2WithUsage) {
  for (const char* arg :
       {"--gather=flat4", "--gather=", "--gather=Tree", "--replication=0",
        "--replication=5", "--replication=2x", "--replication=",
        "--drop-rate=0,3", "--drop-rate=abc", "--drop-rate=1.5",
        "--drop-rate=-0.1", "--drop-rate=nan", "--drop-rate=",
        "--fault-seed=7x", "--fault-seed=-1", "--fault-seed=+1",
        "--fault-seed= 1", "--fault-seed=", "--fault-seed=18446744073709551616",
        "--json=", "--trace="}) {
    Targets t;
    EXPECT_EXIT(Parse({"--smoke", arg}, t.Table()), ::testing::ExitedWithCode(2),
                Literal(std::string("bench: bad value in '") + arg + "'"))
        << arg;
  }
  Targets t;
  EXPECT_EXIT(Parse({"--replication=2x"}, t.Table()),
              ::testing::ExitedWithCode(2),
              Literal("  --metrics\n  --smoke\n  --gather=flat|tree|switch\n"
                      "  --replication=<integer 1..4>\n"
                      "  --fault-seed=<integer 0..18446744073709551615>\n"
                      "  --drop-rate=<probability 0..1>\n") +
                  "$");
}

}  // namespace
}  // namespace fpgadp
