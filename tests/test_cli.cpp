#include "support/cli.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

namespace treeplace {
namespace {

Options makeOptions(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Options(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, ParsesKeyValue) {
  const auto o = makeOptions({"--trees=12", "--mode=full"});
  EXPECT_EQ(o.getIntOr("trees", 0), 12);
  EXPECT_EQ(o.getOr("mode", ""), "full");
}

TEST(Cli, ParsesBareFlag) {
  const auto o = makeOptions({"--verbose"});
  EXPECT_TRUE(o.hasFlag("verbose"));
  EXPECT_FALSE(o.hasFlag("quiet"));
}

TEST(Cli, FalseyFlagValues) {
  const auto o = makeOptions({"--verbose=0"});
  EXPECT_FALSE(o.hasFlag("verbose"));
}

TEST(Cli, Positionals) {
  const auto o = makeOptions({"input.txt", "--x=1", "more"});
  ASSERT_EQ(o.positionals().size(), 2u);
  EXPECT_EQ(o.positionals()[0], "input.txt");
  EXPECT_EQ(o.positionals()[1], "more");
}

TEST(Cli, DefaultsWhenMissing) {
  const auto o = makeOptions({});
  EXPECT_EQ(o.getIntOr("trees", 30), 30);
  EXPECT_DOUBLE_EQ(o.getDoubleOr("lambda", 0.5), 0.5);
  EXPECT_FALSE(o.get("anything").has_value());
}

TEST(Cli, EnvironmentFallback) {
  ::setenv("TREEPLACE_FROM_ENV", "77", 1);
  const auto o = makeOptions({});
  EXPECT_EQ(o.getIntOr("from-env", 0), 77);
  ::unsetenv("TREEPLACE_FROM_ENV");
}

TEST(Cli, CommandLineBeatsEnvironment) {
  ::setenv("TREEPLACE_TREES", "5", 1);
  const auto o = makeOptions({"--trees=9"});
  EXPECT_EQ(o.getIntOr("trees", 0), 9);
  ::unsetenv("TREEPLACE_TREES");
}

// Lenient parsers accepted "--watchdog=4x" as 4 — a typo'd deadline multiplier
// silently changed service behaviour. The strict getters must reject anything
// that is not entirely a number, with the option name in the message.
TEST(Cli, RejectsTrailingGarbageInteger) {
  const auto o = makeOptions({"--trees=12abc"});
  try {
    (void)o.getIntOr("trees", 0);
    FAIL() << "trailing garbage accepted";
  } catch (const OptionError& e) {
    EXPECT_NE(std::string(e.what()).find("trees"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("12abc"), std::string::npos);
  }
}

TEST(Cli, RejectsTrailingGarbageDouble) {
  const auto o = makeOptions({"--watchdog=4x"});
  EXPECT_THROW((void)o.getDoubleOr("watchdog", 1.0), OptionError);
}

TEST(Cli, RejectsNonNumeric) {
  const auto o = makeOptions({"--trees=lots", "--lambda=fast"});
  EXPECT_THROW((void)o.getIntOr("trees", 0), OptionError);
  EXPECT_THROW((void)o.getDoubleOr("lambda", 0.5), OptionError);
}

TEST(Cli, RejectsEmptyNumericValue) {
  const auto o = makeOptions({"--trees=", "--lambda="});
  EXPECT_THROW((void)o.getIntOr("trees", 0), OptionError);
  EXPECT_THROW((void)o.getDoubleOr("lambda", 0.5), OptionError);
}

TEST(Cli, RejectsOutOfRangeInteger) {
  const auto o = makeOptions({"--trees=99999999999999999999999999"});
  try {
    (void)o.getIntOr("trees", 0);
    FAIL() << "out-of-range integer accepted";
  } catch (const OptionError& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
  }
}

TEST(Cli, RejectsOutOfRangeDouble) {
  const auto o = makeOptions({"--lambda=1e5000"});
  EXPECT_THROW((void)o.getDoubleOr("lambda", 0.5), OptionError);
}

TEST(Cli, RejectsFloatForInteger) {
  const auto o = makeOptions({"--trees=3.5"});
  EXPECT_THROW((void)o.getIntOr("trees", 0), OptionError);
}

TEST(Cli, StillAcceptsWellFormedNumbers) {
  const auto o = makeOptions({"--a=-42", "--b=+7", "--c=2.5e-3", "--d=-0.125"});
  EXPECT_EQ(o.getIntOr("a", 0), -42);
  // from_chars does not take a leading '+': document that by rejecting it.
  EXPECT_THROW((void)o.getIntOr("b", 0), OptionError);
  EXPECT_DOUBLE_EQ(o.getDoubleOr("c", 0.0), 2.5e-3);
  EXPECT_DOUBLE_EQ(o.getDoubleOr("d", 0.0), -0.125);
}

// Size lists (bench --sizes=200,400) used to go through std::stoi: "abc"
// escaped as an uncaught std::invalid_argument and "12x" silently ran 12.
TEST(Cli, IntListIsStrict) {
  const auto o = makeOptions({"--sizes=200,400,800", "--one=7", "--word=abc",
                              "--suffix=12x", "--hole=1,,3", "--tail=1,2,",
                              "--empty=", "--huge=1,99999999999999999999"});
  EXPECT_EQ(o.getIntListOr("sizes", {}), (std::vector<std::int64_t>{200, 400, 800}));
  EXPECT_EQ(o.getIntListOr("one", {}), (std::vector<std::int64_t>{7}));
  EXPECT_EQ(o.getIntListOr("absent", {1, 2}), (std::vector<std::int64_t>{1, 2}));
  for (const char* name : {"word", "suffix", "hole", "tail", "empty", "huge"}) {
    try {
      (void)o.getIntListOr(name, {});
      ADD_FAILURE() << "--" << name << " accepted";
    } catch (const OptionError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + name), std::string::npos)
          << e.what();
    }
  }
}

// Malformed environment values go through the same strict path.
TEST(Cli, RejectsGarbageFromEnvironment) {
  ::setenv("TREEPLACE_ENV_GARBAGE", "7seven", 1);
  const auto o = makeOptions({});
  EXPECT_THROW((void)o.getIntOr("env-garbage", 0), OptionError);
  ::unsetenv("TREEPLACE_ENV_GARBAGE");
}

}  // namespace
}  // namespace treeplace
