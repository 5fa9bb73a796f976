// Tests for utilities: flags parsing and contract macros.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>

#include "util/error.hpp"
#include "util/flags.hpp"

namespace ecgrid::util {
namespace {

Flags parse(std::vector<const char*> argv, std::vector<std::string> known) {
  argv.insert(argv.begin(), "prog");
  return Flags(static_cast<int>(argv.size()), argv.data(), std::move(known));
}

TEST(Flags, ParsesEqualsForm) {
  Flags flags = parse({"--hosts=50", "--speed=2.5"}, {"hosts", "speed"});
  EXPECT_EQ(flags.getInt("hosts", 0), 50);
  EXPECT_DOUBLE_EQ(flags.getDouble("speed", 0.0), 2.5);
}

TEST(Flags, ParsesSpaceForm) {
  Flags flags = parse({"--hosts", "50"}, {"hosts"});
  EXPECT_EQ(flags.getInt("hosts", 0), 50);
}

TEST(Flags, BareFlagIsTrue) {
  Flags flags = parse({"--verbose"}, {"verbose"});
  EXPECT_TRUE(flags.getBool("verbose", false));
  EXPECT_TRUE(flags.has("verbose"));
}

TEST(Flags, FallbacksWhenAbsent) {
  Flags flags = parse({}, {"hosts"});
  EXPECT_EQ(flags.getInt("hosts", 42), 42);
  EXPECT_EQ(flags.getString("hosts", "x"), "x");
  EXPECT_FALSE(flags.has("hosts"));
}

TEST(Flags, UnknownFlagThrows) {
  EXPECT_THROW(parse({"--bogus=1"}, {"hosts"}), std::invalid_argument);
}

TEST(Flags, PositionalArgumentsCollected) {
  Flags flags = parse({"alpha", "--hosts=1", "beta"}, {"hosts"});
  EXPECT_EQ(flags.positional(),
            (std::vector<std::string>{"alpha", "beta"}));
}

TEST(Flags, HelpIsAlwaysAccepted) {
  EXPECT_TRUE(parse({"--help"}, {"hosts"}).helpRequested());
  EXPECT_TRUE(parse({"--hosts=3", "-h"}, {"hosts"}).helpRequested());
  Flags plain = parse({"--hosts=3"}, {"hosts"});
  EXPECT_FALSE(plain.helpRequested());
  EXPECT_TRUE(plain.positional().empty());
}

TEST(Flags, UsageListsEveryFlag) {
  EXPECT_EQ(Flags::usage("usage: prog", {"hosts", "seed"}),
            "usage: prog\n\nflags:\n  --hosts\n  --seed\n  --help, -h\n");
}

/// Runs `command` through the shell; returns its exit code and captures
/// stdout and stderr together.
int runCommand(const std::string& command, std::string& output) {
  output.clear();
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return -1;
  char buffer[256];
  while (fgets(buffer, sizeof(buffer), pipe) != nullptr) output += buffer;
  const int status = pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(Cli, HelpPrintsUsageAndExitsZero) {
  for (const char* binary : {ECGRID_QUICKSTART_BIN, ECGRID_CAMPAIGN_BIN}) {
    for (const char* flag : {"--help", "-h"}) {
      std::string output;
      EXPECT_EQ(runCommand(std::string(binary) + " " + flag, output), 0)
          << binary << " " << flag << ": " << output;
      EXPECT_EQ(output.rfind("usage: ", 0), 0u) << output;
      EXPECT_NE(output.find("  --help, -h"), std::string::npos) << output;
    }
  }
}

TEST(Cli, UnknownFlagExitsTwoWithUsage) {
  for (const char* binary : {ECGRID_QUICKSTART_BIN, ECGRID_CAMPAIGN_BIN}) {
    std::string output;
    EXPECT_EQ(runCommand(std::string(binary) + " --bogus=1", output), 2)
        << binary << ": " << output;
    EXPECT_NE(output.find("unknown flag: --bogus"), std::string::npos)
        << output;
    EXPECT_NE(output.find("usage: "), std::string::npos) << output;
  }
}

TEST(Flags, BoolParsing) {
  Flags flags = parse({"--a=true", "--b=0", "--c=yes", "--d=no"},
                      {"a", "b", "c", "d"});
  EXPECT_TRUE(flags.getBool("a", false));
  EXPECT_FALSE(flags.getBool("b", true));
  EXPECT_TRUE(flags.getBool("c", false));
  EXPECT_FALSE(flags.getBool("d", true));
}

// A value that is not wholly a number or a boolean is an error naming the
// flag — never a partial read ("12abc" as 12) or a silent false.
TEST(Flags, MalformedValuesThrowNamingTheFlag) {
  Flags flags = parse({"--hosts=abc", "--seed=12abc", "--speed=1.5x",
                       "--duration=", "--profile=flase", "--big=99999999999",
                       "--pps=nan", "--neg=-1",
                       "--over=18446744073709551616"},
                      {"hosts", "seed", "speed", "duration", "profile", "big",
                       "pps", "neg", "over"});
  auto message = [](auto&& read) -> std::string {
    try {
      read();
    } catch (const FlagError& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_EQ(message([&] { (void)flags.getInt("hosts", 0); }),
            "--hosts: expected an integer, got 'abc'");
  EXPECT_EQ(message([&] { (void)flags.getInt("seed", 0); }),
            "--seed: expected an integer, got '12abc'");
  EXPECT_EQ(message([&] { (void)flags.getInt("big", 0); }),
            "--big: expected an integer, got '99999999999'");
  EXPECT_EQ(message([&] { (void)flags.getDouble("speed", 0.0); }),
            "--speed: expected a number, got '1.5x'");
  EXPECT_EQ(message([&] { (void)flags.getDouble("duration", 0.0); }),
            "--duration: expected a number, got ''");
  EXPECT_EQ(message([&] { (void)flags.getDouble("pps", 0.0); }),
            "--pps: expected a number, got 'nan'");
  EXPECT_EQ(message([&] { (void)flags.getBool("profile", false); }),
            "--profile: expected true/false, 1/0 or yes/no, got 'flase'");
  // A seed is never a wrapped negative or a truncated overflow.
  EXPECT_EQ(message([&] { (void)flags.getUnsigned("neg", 0); }),
            "--neg: expected a non-negative integer, got '-1'");
  EXPECT_EQ(message([&] { (void)flags.getUnsigned("over", 0); }),
            "--over: expected a non-negative integer, got "
            "'18446744073709551616'");
  // Well-formed values of every kind still read.
  Flags good = parse({"--n=-3", "--x=2e-3", "--b=false",
                      "--u=18446744073709551615"},
                     {"n", "x", "b", "u"});
  EXPECT_EQ(good.getInt("n", 0), -3);
  EXPECT_DOUBLE_EQ(good.getDouble("x", 0.0), 2e-3);
  EXPECT_FALSE(good.getBool("b", true));
  EXPECT_EQ(good.getUnsigned("u", 0), 18446744073709551615ULL);
}

// parseInt / parseNumber take the whole text or nothing: the rule behind
// getInt / getDouble, and behind the bench environment knobs
// (bench/bench_support.hpp).
TEST(Flags, ParseIntAndNumberReadTheWholeText) {
  EXPECT_EQ(parseInt("3"), 3);
  EXPECT_EQ(parseInt("-12"), -12);
  EXPECT_EQ(parseInt("two"), std::nullopt);
  EXPECT_EQ(parseInt("3abc"), std::nullopt);
  EXPECT_EQ(parseInt(""), std::nullopt);
  EXPECT_EQ(parseInt("99999999999"), std::nullopt);
  EXPECT_EQ(parseNumber("120"), 120.0);
  EXPECT_EQ(parseNumber("1e2"), 100.0);
  EXPECT_EQ(parseNumber("1e"), std::nullopt);
  EXPECT_EQ(parseNumber("2.5s"), std::nullopt);
  EXPECT_EQ(parseNumber("inf"), std::nullopt);
}

// The real binaries turn malformed values and invalid scenarios into a
// message and exit 2, not std::terminate (exit 134).
TEST(Cli, MalformedValueExitsTwoWithUsage) {
  const std::string quickstart = ECGRID_QUICKSTART_BIN;
  const std::string campaign = ECGRID_CAMPAIGN_BIN;
  const struct {
    std::string command;
    const char* error;
  } cases[] = {
      {quickstart + " --hosts abc", "--hosts: expected an integer, got 'abc'"},
      {quickstart + " --hosts 12abc",
       "--hosts: expected an integer, got '12abc'"},
      {quickstart + " --profile=flase",
       "--profile: expected true/false, 1/0 or yes/no, got 'flase'"},
      {quickstart + " --shards 4", "unknown flag: --shards"},
      {quickstart + " --seed -1",
       "--seed: expected a non-negative integer, got '-1'"},
      {quickstart + " --protocol FOO",
       "--protocol: expected ECGRID, GRID, GAF or FLOOD, got 'FOO'"},
      {campaign + " --spec=x.json --results=y.jsonl --jobs=two",
       "--jobs: expected an integer, got 'two'"},
      {campaign + " --spec=x.json --results=y.jsonl --jobs=0",
       "--jobs: expected a positive integer, got '0'"},
      {campaign + " --spec=x.json --results=y.jsonl --workers=2",
       "unknown flag: --workers"},
  };
  for (const auto& c : cases) {
    std::string output;
    EXPECT_EQ(runCommand(c.command, output), 2) << c.command << ": " << output;
    EXPECT_NE(output.find(c.error), std::string::npos) << output;
    EXPECT_NE(output.find("usage: "), std::string::npos) << output;
  }
}

// A bench's environment knobs are checked before any scenario runs:
// garbage is an error naming the variable (exit 2), never a partial read,
// a quiet fallback, a crash inside a scenario or a crash after the sweep.
// Numeric knobs parse like flag values; a horizon cap must leave traffic
// (it starts at 1 s) and the output directory must be creatable. Quick
// mode, a short horizon and a scratch output directory keep a regression
// from running the full figure set.
TEST(Cli, MalformedBenchKnobExitsTwo) {
  const std::string notADirectory = ::testing::TempDir() + "bench_knob_file";
  std::ofstream(notADirectory) << "a regular file\n";
  const std::string defaults =
      "ECGRID_BENCH_QUICK=1 ECGRID_BENCH_OUT=" + ::testing::TempDir();
  const struct {
    std::string env;
    const char* error;
  } cases[] = {
      {"ECGRID_BENCH_HORIZON=1 ECGRID_BENCH_JOBS=two",
       "ECGRID_BENCH_JOBS: expected a positive integer, got 'two'"},
      {"ECGRID_BENCH_HORIZON=1 ECGRID_BENCH_SEEDS=3abc",
       "ECGRID_BENCH_SEEDS: expected a positive integer, got '3abc'"},
      {"ECGRID_BENCH_HORIZON=1e",
       "ECGRID_BENCH_HORIZON: expected seconds >= 0, got '1e'"},
      {"ECGRID_BENCH_HORIZON=1",
       "ECGRID_BENCH_HORIZON: expected 0 or seconds > 1 (the traffic "
       "start), got '1'"},
      {"ECGRID_BENCH_HORIZON=2 ECGRID_BENCH_OUT=" + notADirectory + "/x",
       "ECGRID_BENCH_OUT: cannot create directory"},
  };
  for (const auto& c : cases) {
    std::string output;
    EXPECT_EQ(runCommand(defaults + " " + c.env + " " +
                             ECGRID_PAPER_FIGURES_BIN,
                         output),
              2)
        << c.env << output;
    EXPECT_NE(output.find(c.error), std::string::npos) << output;
  }
}

TEST(Cli, InvalidScenarioExitsTwo) {
  std::string output;
  EXPECT_EQ(runCommand(std::string(ECGRID_QUICKSTART_BIN) + " --duration 1",
                       output),
            2)
      << output;
  EXPECT_NE(output.find("flow window is empty"), std::string::npos) << output;
  EXPECT_EQ(output.find("usage: "), std::string::npos) << output;
}

TEST(Contracts, RequireThrowsInvalidArgument) {
  EXPECT_THROW(ECGRID_REQUIRE(false, "nope"), std::invalid_argument);
  EXPECT_NO_THROW(ECGRID_REQUIRE(true, "fine"));
}

TEST(Contracts, CheckThrowsLogicError) {
  EXPECT_THROW(ECGRID_CHECK(false, "invariant"), std::logic_error);
  EXPECT_NO_THROW(ECGRID_CHECK(true, "fine"));
}

TEST(Contracts, MessagesCarryContext) {
  try {
    ECGRID_REQUIRE(1 == 2, "one is not two");
    FAIL();
  } catch (const std::invalid_argument& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("one is not two"), std::string::npos);
  }
}

TEST(Contracts, RequireMessageCarriesFileAndLine) {
  try {
    ECGRID_REQUIRE(2 + 2 == 5, "arithmetic is safe");
    FAIL();
  } catch (const std::invalid_argument& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos);
    EXPECT_NE(what.find("util_test.cpp"), std::string::npos);
    // file:line — a colon followed by digits after the file name.
    auto colon = what.find("util_test.cpp:");
    ASSERT_NE(colon, std::string::npos);
    EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(
        what[colon + std::string("util_test.cpp:").size()])));
    EXPECT_NE(what.find("arithmetic is safe"), std::string::npos);
  }
}

TEST(Contracts, CheckMessageCarriesExpressionFileLineAndDetail) {
  try {
    ECGRID_CHECK(0 > 1, "zero outranked one");
    FAIL();
  } catch (const std::logic_error& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("invariant violated"), std::string::npos);
    EXPECT_NE(what.find("0 > 1"), std::string::npos);
    auto colon = what.find("util_test.cpp:");
    ASSERT_NE(colon, std::string::npos);
    EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(
        what[colon + std::string("util_test.cpp:").size()])));
    EXPECT_NE(what.find("zero outranked one"), std::string::npos);
  }
}

TEST(Contracts, CheckIsNotCaughtAsInvalidArgument) {
  // The two macros throw distinct types so callers can tell caller
  // contract breaches from internal invariant breakage.
  bool caughtAsInvalidArgument = false;
  try {
    ECGRID_CHECK(false, "");
  } catch (const std::invalid_argument&) {
    caughtAsInvalidArgument = true;
  } catch (const std::logic_error&) {
  }
  EXPECT_FALSE(caughtAsInvalidArgument);
}

TEST(Contracts, EmptyMessageOmitsSeparator) {
  try {
    ECGRID_REQUIRE(false, "");
    FAIL();
  } catch (const std::invalid_argument& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("requirement failed"), std::string::npos);
    EXPECT_EQ(what.find("—"), std::string::npos);
  }
}

}  // namespace
}  // namespace ecgrid::util
