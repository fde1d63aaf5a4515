#include "ftmc/common/cli.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace ftmc::cli {
namespace {

/// Every kind of row, bound to one struct.
struct Options {
  bool verbose = false;
  std::string out = "default.txt";
  std::vector<std::string> tags;
  std::string mode = "fast";
  int count = 7;
  std::optional<std::uint64_t> seed;
  double ratio = 0.5;
  Endpoint peer;
  std::string file;
};

Command table(Options& opt) {
  return {.program = "demo",
          .about = "A parser test.",
          .flags = {
              toggle("--verbose", opt.verbose, "talk more"),
              text("--out", opt.out, "FILE", "output file"),
              text("--tag", opt.tags, "T", "a tag (repeatable)"),
              text("--mode", opt.mode, "M", "how").one_of({"fast", "slow"}),
              integer("--count", opt.count, 1, 100, "how many")
                  .overridden_by("FTMC_CLI_TEST_COUNT"),
              uint64("--seed", opt.seed, "base seed"),
              real("--ratio", opt.ratio, 0.0, 1.0, "a fraction"),
              endpoint("--peer", opt.peer, "where to connect"),
              text("FILE", opt.file, "FILE", "input file"),
          }};
}

/// Runs the parser over {"demo", args...} and keeps what it printed.
struct Parsed {
  explicit Parsed(std::vector<std::string> args) {
    args.insert(args.begin(), "demo");
    std::vector<const char*> argv;
    for (const std::string& a : args) argv.push_back(a.c_str());
    code = parse(table(opt), static_cast<int>(argv.size()), argv.data(),
                 out, err);
  }
  Options opt;
  std::optional<int> code;
  std::ostringstream out;
  std::ostringstream err;
};

/// Scoped environment override (unset when `value` is nullopt).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, std::optional<std::string> value)
      : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    if (value) {
      ::setenv(name, value->c_str(), 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (saved_) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

/// A usage error: exit 2, "demo: <error>" naming `needle`, no stdout.
void expect_usage_error(const Parsed& run, const std::string& needle) {
  EXPECT_EQ(run.code, 2);
  EXPECT_EQ(run.err.str().rfind("demo: ", 0), 0u) << run.err.str();
  EXPECT_NE(run.err.str().find(needle), std::string::npos) << run.err.str();
  EXPECT_NE(run.err.str().find("usage: demo [options] [FILE]"),
            std::string::npos)
      << run.err.str();
  EXPECT_TRUE(run.out.str().empty());
}

TEST(CliParse, FillsEveryKindOfRow) {
  ScopedEnv no_count("FTMC_CLI_TEST_COUNT", std::nullopt);
  const Parsed run({"--verbose", "--out", "o.txt", "--tag", "a", "--mode",
                    "slow", "--count", "42", "--seed",
                    "18446744073709551615", "--ratio", "0.25", "--peer",
                    "10.0.0.1:8080", "in.txt"});
  ASSERT_EQ(run.code, std::nullopt) << run.err.str();
  EXPECT_TRUE(run.opt.verbose);
  EXPECT_EQ(run.opt.out, "o.txt");
  EXPECT_EQ(run.opt.tags, std::vector<std::string>{"a"});
  EXPECT_EQ(run.opt.mode, "slow");
  EXPECT_EQ(run.opt.count, 42);
  EXPECT_EQ(run.opt.seed, UINT64_MAX);
  EXPECT_EQ(run.opt.ratio, 0.25);
  EXPECT_EQ(run.opt.peer.host, "10.0.0.1");
  EXPECT_EQ(run.opt.peer.port, 8080);
  EXPECT_EQ(run.opt.file, "in.txt");
  EXPECT_TRUE(run.err.str().empty());
}

TEST(CliParse, DefaultsStayWhenNothingIsGiven) {
  ScopedEnv no_count("FTMC_CLI_TEST_COUNT", std::nullopt);
  const Parsed run({});
  ASSERT_EQ(run.code, std::nullopt) << run.err.str();
  EXPECT_FALSE(run.opt.verbose);
  EXPECT_EQ(run.opt.out, "default.txt");
  EXPECT_EQ(run.opt.count, 7);
  EXPECT_FALSE(run.opt.seed.has_value());
  EXPECT_TRUE(run.opt.file.empty());
}

TEST(CliParse, UnknownFlagIsAUsageError) {
  expect_usage_error(Parsed({"--cuont", "3"}),
                     "unknown flag \"--cuont\"");
  expect_usage_error(Parsed({"in.txt", "extra.txt"}),
                     "unexpected argument \"extra.txt\"");
}

TEST(CliParse, MissingValueIsAUsageError) {
  expect_usage_error(Parsed({"--count"}), "--count expects a value");
  expect_usage_error(Parsed({"--verbose", "--out"}),
                     "--out expects a value");
}

TEST(CliParse, TrailingJunkIsAUsageError) {
  expect_usage_error(Parsed({"--count", "3x"}), "--count");
  expect_usage_error(Parsed({"--ratio", "0.5s"}), "--ratio");
  expect_usage_error(Parsed({"--seed", "12 "}), "--seed");
}

TEST(CliParse, OutOfDomainNumberIsAUsageError) {
  expect_usage_error(Parsed({"--count", "0"}), "[1, 100]");
  expect_usage_error(Parsed({"--count", "101"}), "[1, 100]");
  expect_usage_error(Parsed({"--count", "99999999999999999999"}),
                     "--count");
  expect_usage_error(Parsed({"--seed", "-1"}), "--seed");
  expect_usage_error(Parsed({"--ratio", "1.5"}), "--ratio");
  expect_usage_error(Parsed({"--ratio", "nan"}), "--ratio");
}

TEST(CliParse, ChoiceAcceptsOnlyItsValues) {
  const Parsed slow({"--mode", "slow"});
  EXPECT_EQ(slow.opt.mode, "slow");
  expect_usage_error(Parsed({"--mode", "medium"}),
                     "--mode expects one of fast, slow; got \"medium\"");
}

TEST(CliParse, RepeatableFlagAppendsAndPlainFlagKeepsTheLast) {
  const Parsed run(
      {"--tag", "a", "--tag", "b", "--out", "1", "--out", "2"});
  ASSERT_EQ(run.code, std::nullopt) << run.err.str();
  EXPECT_EQ(run.opt.tags, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(run.opt.out, "2");
}

TEST(CliParse, HostPortNeedsAHostAndAPort) {
  const Parsed ok({"--peer", "localhost:1"});
  EXPECT_EQ(ok.opt.peer.host, "localhost");
  EXPECT_EQ(ok.opt.peer.port, 1);
  for (const char* bad : {"localhost", ":80", "host:", "host:0",
                          "host:65536", "host:80x"}) {
    expect_usage_error(Parsed({"--peer", bad}), "--peer");
  }
}

TEST(CliParse, EnvironmentWinsOverTheFlag) {
  ScopedEnv count("FTMC_CLI_TEST_COUNT", "11");
  const Parsed run({"--count", "5"});
  ASSERT_EQ(run.code, std::nullopt) << run.err.str();
  EXPECT_EQ(run.opt.count, 11);
}

TEST(CliParse, MalformedEnvironmentIsAUsageErrorNamingTheVariable) {
  ScopedEnv count("FTMC_CLI_TEST_COUNT", "lots");
  expect_usage_error(Parsed({}), "FTMC_CLI_TEST_COUNT");
  ScopedEnv too_big("FTMC_CLI_TEST_COUNT", "500");
  expect_usage_error(Parsed({"--count", "5"}), "FTMC_CLI_TEST_COUNT");
}

TEST(CliParse, EmptyEnvironmentValueMustParseToo) {
  // A set variable must parse: empty is not "unset".
  ScopedEnv count("FTMC_CLI_TEST_COUNT", "");
  expect_usage_error(Parsed({"--count", "5"}), "FTMC_CLI_TEST_COUNT");
}

TEST(CliParse, HelpListsExactlyTheTable) {
  ScopedEnv count("FTMC_CLI_TEST_COUNT", "lots");  // --help wins
  const Parsed run({"--help"});
  EXPECT_EQ(run.code, 0);
  EXPECT_TRUE(run.err.str().empty());
  const std::string help = run.out.str();
  EXPECT_EQ(help.rfind("usage: demo [options] [FILE]\n", 0), 0u) << help;
  for (const char* entry :
       {"A parser test.", "--verbose ", "--out FILE", "--tag T",
        "--mode M", "one of: fast, slow", "--count N", "--seed N",
        "--ratio X", "--peer HOST:PORT", "  FILE ", "--help",
        "FTMC_CLI_TEST_COUNT=N", "overrides --count"}) {
    EXPECT_NE(help.find(entry), std::string::npos) << entry << "\n" << help;
  }
  std::size_t flags = 0;
  for (std::size_t at = help.find("\n  --"); at != std::string::npos;
       at = help.find("\n  --", at + 1)) {
    ++flags;
  }
  EXPECT_EQ(flags, 9u) << help;  // eight flag rows plus --help
  EXPECT_EQ(Parsed({"-h"}).code, 0);
}

TEST(CliParse, RequiredRowsMustBeGiven) {
  std::string spec;
  std::string dir;
  const Command command{
      .program = "tool",
      .name = "run",
      .flags = {text("--spec", spec, "FILE", "spec").require(),
                text("DIR", dir, "DIR", "directory").require()}};
  std::ostringstream out, err;
  const char* missing[] = {"run", "--spec", "s.json"};
  EXPECT_EQ(parse(command, 3, missing, out, err), 2);
  EXPECT_NE(err.str().find("tool: missing DIR"), std::string::npos)
      << err.str();
  EXPECT_NE(err.str().find("usage: tool run --spec FILE [options] DIR"),
            std::string::npos)
      << err.str();
  const char* given[] = {"run", "d", "--spec", "s.json"};
  EXPECT_EQ(parse(command, 4, given, out, err), std::nullopt);
  EXPECT_EQ(spec, "s.json");
  EXPECT_EQ(dir, "d");
}

TEST(CliParse, CommandsPickTheirOwnTable) {
  int threads = 0;
  int port = 0;
  const std::vector<Command> commands = {
      {.program = "tool",
       .name = "run",
       .about = "run it",
       .flags = {integer("--threads", threads, 0, 64, "threads")}},
      {.program = "tool",
       .name = "serve",
       .about = "serve it",
       .flags = {integer("--port", port, 0, 65535, "port")}},
  };
  std::size_t chosen = 99;
  std::ostringstream out, err;
  const char* serve[] = {"tool", "serve", "--port", "80"};
  EXPECT_EQ(parse(commands, 4, serve, chosen, out, err), std::nullopt);
  EXPECT_EQ(chosen, 1u);
  EXPECT_EQ(port, 80);

  // A flag of another command is unknown here.
  const char* crossed[] = {"tool", "serve", "--threads", "2"};
  EXPECT_EQ(parse(commands, 4, crossed, chosen, out, err), 2);
  EXPECT_NE(err.str().find("tool: unknown flag \"--threads\""),
            std::string::npos)
      << err.str();

  err.str("");
  const char* unknown[] = {"tool", "fly"};
  EXPECT_EQ(parse(commands, 2, unknown, chosen, out, err), 2);
  EXPECT_NE(err.str().find("tool: unknown command \"fly\""),
            std::string::npos)
      << err.str();
  const char* none[] = {"tool"};
  EXPECT_EQ(parse(commands, 1, none, chosen, out, err), 2);

  const char* help[] = {"tool", "--help"};
  EXPECT_EQ(parse(commands, 2, help, chosen, out, err), 0);
  EXPECT_NE(out.str().find("run [options]\n      run it"),
            std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("serve [options]\n      serve it"),
            std::string::npos)
      << out.str();
}

}  // namespace
}  // namespace ftmc::cli
