#include "common/flags.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace sketchml::common {
namespace {

FlagParser Parse(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  auto result =
      FlagParser::Parse(static_cast<int>(args.size()), args.data());
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(FlagParserTest, EqualsSyntax) {
  auto flags = Parse({"--name=value", "--count=42"});
  EXPECT_EQ(flags.GetString("name", ""), "value");
  EXPECT_EQ(flags.GetInt("count", 0).value(), 42);
}

// Regression: a bare boolean flag must not swallow the positional
// argument after it (`sketchml_trace --quiet run.trace.json`).
TEST(FlagParserTest, SpaceSyntax) {
  auto flags = Parse({"--quiet", "file"});
  EXPECT_TRUE(flags.GetBool("quiet", false));
  EXPECT_EQ(flags.positional(), std::vector<std::string>{"file"});
}

TEST(FlagParserTest, BareFlagIsBooleanTrue) {
  auto flags = Parse({"--verbose", "--dry-run"});
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_TRUE(flags.GetBool("dry-run", false));
  EXPECT_FALSE(flags.GetBool("missing", false));
  EXPECT_TRUE(flags.GetBool("missing", true));
}

TEST(FlagParserTest, BoolValueParsing) {
  auto flags = Parse({"--a=true", "--b=1", "--c=yes", "--d=false", "--e=0"});
  EXPECT_TRUE(flags.GetBool("a", false));
  EXPECT_TRUE(flags.GetBool("b", false));
  EXPECT_TRUE(flags.GetBool("c", false));
  EXPECT_FALSE(flags.GetBool("d", true));
  EXPECT_FALSE(flags.GetBool("e", true));
}

TEST(FlagParserTest, DefaultsWhenAbsent) {
  auto flags = Parse({});
  EXPECT_EQ(flags.GetString("x", "dflt"), "dflt");
  EXPECT_EQ(flags.GetInt("y", -5).value(), -5);
  EXPECT_DOUBLE_EQ(flags.GetDouble("z", 2.5).value(), 2.5);
}

TEST(FlagParserTest, PositionalArguments) {
  auto flags = Parse({"file1", "--opt=1", "file2"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "file1");
  EXPECT_EQ(flags.positional()[1], "file2");
}

TEST(FlagParserTest, NumericParseErrors) {
  auto flags = Parse({"--n=abc", "--d=1.2.3"});
  EXPECT_FALSE(flags.GetInt("n", 0).ok());
  EXPECT_FALSE(flags.GetDouble("d", 0).ok());
}

TEST(FlagParserTest, NegativeAndFloatValues) {
  auto flags = Parse({"--n=-17", "--d=-0.25"});
  EXPECT_EQ(flags.GetInt("n", 0).value(), -17);
  EXPECT_DOUBLE_EQ(flags.GetDouble("d", 0).value(), -0.25);
}

TEST(FlagParserTest, UnusedFlagDetection) {
  auto flags = Parse({"--used=1", "--typo=2"});
  EXPECT_TRUE(flags.GetInt("used", 0).ok());
  const auto unused = flags.UnusedFlags();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(FlagParserTest, MalformedFlagFails) {
  const char* args[] = {"prog", "--=value"};
  EXPECT_FALSE(FlagParser::Parse(2, args).ok());
  const char* args2[] = {"prog", "--"};
  EXPECT_FALSE(FlagParser::Parse(2, args2).ok());
}

TEST(FlagParserTest, LastValueWins) {
  auto flags = Parse({"--n=1", "--n=2"});
  EXPECT_EQ(flags.GetInt("n", 0).value(), 2);
}

}  // namespace
}  // namespace sketchml::common
