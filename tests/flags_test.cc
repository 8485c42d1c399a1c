// Copyright 2026 The DOD Authors.

#include "common/flags.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

namespace dod {
namespace {

FlagParser ParseArgs(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  Result<FlagParser> parsed =
      FlagParser::Parse(static_cast<int>(args.size()), args.data());
  EXPECT_TRUE(parsed.ok());
  return std::move(parsed).value();
}

TEST(FlagParserTest, EqualsSyntax) {
  const FlagParser flags = ParseArgs({"--radius=5.5", "--k=4"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("radius", 0).value(), 5.5);
  EXPECT_EQ(flags.GetInt("k", 0).value(), 4);
}

TEST(FlagParserTest, SpaceSyntax) {
  const FlagParser flags = ParseArgs({"--strategy", "dmt", "--n", "1000"});
  EXPECT_EQ(flags.GetStringOr("strategy", ""), "dmt");
  EXPECT_EQ(flags.GetInt("n", 0).value(), 1000);
}

TEST(FlagParserTest, BooleanForms) {
  const FlagParser flags = ParseArgs({"--verbose", "--no-color"});
  EXPECT_TRUE(flags.GetBoolOr("verbose", false));
  EXPECT_FALSE(flags.GetBoolOr("color", true));
  EXPECT_TRUE(flags.GetBoolOr("missing", true));
  EXPECT_FALSE(flags.GetBoolOr("missing", false));
}

TEST(FlagParserTest, TrailingFlagIsBoolean) {
  const FlagParser flags = ParseArgs({"--radius=2", "--verbose"});
  EXPECT_TRUE(flags.GetBoolOr("verbose", false));
}

TEST(FlagParserTest, PositionalArguments) {
  const FlagParser flags = ParseArgs({"input.csv", "--k=3", "extra"});
  EXPECT_EQ(flags.positional(),
            (std::vector<std::string>{"input.csv", "extra"}));
}

TEST(FlagParserTest, DoubleDashEndsFlagParsing) {
  const FlagParser flags = ParseArgs({"--k=3", "--", "--not-a-flag"});
  EXPECT_EQ(flags.positional(),
            (std::vector<std::string>{"--not-a-flag"}));
}

TEST(FlagParserTest, DefaultsWhenMissing) {
  const FlagParser flags = ParseArgs({});
  EXPECT_EQ(flags.GetStringOr("name", "fallback"), "fallback");
  EXPECT_DOUBLE_EQ(flags.GetDouble("radius", 7.5).value(), 7.5);
  EXPECT_EQ(flags.GetInt("k", 9).value(), 9);
}

TEST(FlagParserTest, BadNumberIsError) {
  const FlagParser flags = ParseArgs({"--radius=abc"});
  const Result<double> radius = flags.GetDouble("radius", 0);
  ASSERT_FALSE(radius.ok());
  EXPECT_EQ(radius.status().code(), StatusCode::kInvalidArgument);
}

TEST(FlagParserTest, UnusedFlagTracking) {
  const FlagParser flags = ParseArgs({"--known=1", "--typo=2"});
  EXPECT_EQ(flags.GetInt("known", 0).value(), 1);
  const std::vector<std::string> unused = flags.UnusedFlags();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(FlagParserTest, NegativeNumberAsValue) {
  const FlagParser flags = ParseArgs({"--offset", "-3.5"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("offset", 0).value(), -3.5);
}

TEST(FlagParserTest, IntInRangeAcceptsOnlyIntegersInTheRange) {
  const FlagParser flags = ParseArgs(
      {"--lo=-1", "--hi=1024", "--over=1025", "--wrap=4294967297",
       "--frac=2.5", "--nan=nan", "--huge=9.3e18", "--word=four"});
  EXPECT_EQ(flags.GetIntInRange("lo", 0, -1, 1024).value(), -1);
  EXPECT_EQ(flags.GetIntInRange("hi", 0, -1, 1024).value(), 1024);
  EXPECT_EQ(flags.GetIntInRange("missing", 7, 1, 9).value(), 7);
  for (const char* name : {"over", "wrap", "frac", "nan", "huge", "word"}) {
    const Result<long long> value = flags.GetIntInRange(name, 0, -1, 1024);
    ASSERT_FALSE(value.ok()) << name;
    EXPECT_EQ(value.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(value.status().message().find(std::string("--") + name),
              std::string::npos)
        << value.status().message();
  }
  // The full long long range is accepted up to (excluding) 2^63.
  EXPECT_FALSE(flags
                   .GetIntInRange("huge", 0, 0,
                                  std::numeric_limits<long long>::max())
                   .ok());
}

TEST(FlagParserTest, PositiveDoubleRejectsZeroNegativeAndNonFinite) {
  const FlagParser flags =
      ParseArgs({"--ok=7.8125", "--tiny=1e-300", "--zero=0", "--neg=-2",
                 "--nan=nan", "--inf=inf", "--word=dense"});
  EXPECT_DOUBLE_EQ(flags.GetPositiveDouble("ok", 1).value(), 7.8125);
  EXPECT_DOUBLE_EQ(flags.GetPositiveDouble("tiny", 1).value(), 1e-300);
  EXPECT_DOUBLE_EQ(flags.GetPositiveDouble("missing", 0.05).value(), 0.05);
  for (const char* name : {"zero", "neg", "nan", "inf", "word"}) {
    const Result<double> value = flags.GetPositiveDouble(name, 1);
    ASSERT_FALSE(value.ok()) << name;
    EXPECT_EQ(value.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(value.status().message().find(std::string("--") + name),
              std::string::npos)
        << value.status().message();
  }
}

}  // namespace
}  // namespace dod
