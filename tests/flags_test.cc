#include "src/common/flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace klink {
namespace {

FlagParser Parse(std::vector<const char*> args) {
  FlagParser p;
  EXPECT_TRUE(p.Parse(static_cast<int>(args.size()), args.data()).ok());
  return p;
}

TEST(FlagParserTest, KeyEqualsValue) {
  FlagParser p = Parse({"--policy=klink", "--queries=60"});
  EXPECT_EQ(p.GetString("policy", ""), "klink");
  EXPECT_EQ(p.GetInt("queries", 0), 60);
}

TEST(FlagParserTest, KeySpaceValue) {
  FlagParser p = Parse({"--rate", "1500.5", "--workload", "lrb"});
  EXPECT_DOUBLE_EQ(p.GetDouble("rate", 0.0), 1500.5);
  EXPECT_EQ(p.GetString("workload", ""), "lrb");
}

TEST(FlagParserTest, BareFlagIsBooleanTrue) {
  FlagParser p = Parse({"--verbose", "--dry-run"});
  EXPECT_TRUE(p.GetBool("verbose", false));
  EXPECT_TRUE(p.GetBool("dry-run", false));
}

TEST(FlagParserTest, BoolSpellings) {
  FlagParser p = Parse({"--a=true", "--b=0", "--c=yes", "--d=off", "--e=what"});
  EXPECT_TRUE(p.GetBool("a", false));
  EXPECT_FALSE(p.GetBool("b", true));
  EXPECT_TRUE(p.GetBool("c", false));
  EXPECT_FALSE(p.GetBool("d", true));
  EXPECT_TRUE(p.GetBool("e", true));  // unparsable -> fallback
}

TEST(FlagParserTest, PositionalArguments) {
  FlagParser p = Parse({"run", "--n=3", "extra"});
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "run");
  EXPECT_EQ(p.positional()[1], "extra");
}

TEST(FlagParserTest, RepeatedFlagKeepsLast) {
  FlagParser p = Parse({"--n=1", "--n=2"});
  EXPECT_EQ(p.GetInt("n", 0), 2);
}

TEST(FlagParserTest, FallbacksWhenAbsentOrMalformed) {
  FlagParser p = Parse({"--n=notanumber"});
  EXPECT_EQ(p.GetInt("n", 7), 7);
  EXPECT_DOUBLE_EQ(p.GetDouble("n", 1.5), 1.5);
  EXPECT_EQ(p.GetInt("missing", 9), 9);
  EXPECT_FALSE(p.Has("missing"));
  EXPECT_TRUE(p.Has("n"));
}

TEST(FlagParserTest, CheckedGettersReadValuesAndFallbacks) {
  FlagParser p = Parse({"--n=-42", "--big=9000000000", "--x=1.5e3"});
  int64_t n = 0;
  int small = 0;
  double x = 0.0;
  EXPECT_TRUE(p.GetInt("n", 7, &n).ok());
  EXPECT_EQ(n, -42);
  EXPECT_TRUE(p.GetInt("n", 7, &small).ok());
  EXPECT_EQ(small, -42);
  EXPECT_TRUE(p.GetInt("big", 7, &n).ok());
  EXPECT_EQ(n, 9000000000);
  EXPECT_TRUE(p.GetDouble("x", 0.5, &x).ok());
  EXPECT_DOUBLE_EQ(x, 1500.0);
  EXPECT_TRUE(p.GetInt("missing", 7, &n).ok());
  EXPECT_EQ(n, 7);
  EXPECT_TRUE(p.GetInt("missing", 8, &small).ok());
  EXPECT_EQ(small, 8);
  EXPECT_TRUE(p.GetDouble("missing", 0.5, &x).ok());
  EXPECT_DOUBLE_EQ(x, 0.5);
}

TEST(FlagParserTest, CheckedGetIntRejectsMalformedAndOutOfRange) {
  for (const char* value :
       {"", "abc", "2.5", "4x", "1e3", "9223372036854775808"}) {
    const std::string arg = std::string("--n=") + value;
    FlagParser p = Parse({arg.c_str()});
    int64_t n = 5;
    int small = 6;
    const Status st = p.GetInt("n", 0, &n);
    EXPECT_FALSE(st.ok()) << arg;
    EXPECT_NE(st.message().find("--n"), std::string::npos) << st.message();
    EXPECT_EQ(n, 5) << arg;  // untouched on error
    EXPECT_FALSE(p.GetInt("n", 0, &small).ok()) << arg;
    EXPECT_EQ(small, 6) << arg;
    EXPECT_EQ(p.GetInt("n", 9), 9) << arg;  // unchecked form: fallback
  }
  // In int64 range but not in int's.
  FlagParser p = Parse({"--n=2147483648"});
  int small = 6;
  EXPECT_FALSE(p.GetInt("n", 0, &small).ok());
  EXPECT_EQ(small, 6);
}

TEST(FlagParserTest, CheckedGetDoubleRejectsMalformedAndNonFinite) {
  for (const char* value : {"", "abc", "1.5x", "nan", "inf", "-inf", "1e999"}) {
    const std::string arg = std::string("--x=") + value;
    FlagParser p = Parse({arg.c_str()});
    double x = 2.5;
    const Status st = p.GetDouble("x", 0.0, &x);
    EXPECT_FALSE(st.ok()) << arg;
    EXPECT_NE(st.message().find("--x"), std::string::npos) << st.message();
    EXPECT_DOUBLE_EQ(x, 2.5) << arg;  // untouched on error
    EXPECT_DOUBLE_EQ(p.GetDouble("x", 0.25), 0.25) << arg;
  }
}

TEST(FlagParserTest, BareDoubleDashRejected) {
  FlagParser p;
  const char* args[] = {"--"};
  EXPECT_FALSE(p.Parse(1, args).ok());
}

TEST(FlagParserTest, NegativeNumbersAsValues) {
  FlagParser p = Parse({"--offset=-250"});
  EXPECT_EQ(p.GetInt("offset", 0), -250);
}

TEST(FlagParserTest, GetChoiceReturnsAllowedValue) {
  FlagParser p = Parse({"--executor=threads"});
  std::string out;
  EXPECT_TRUE(
      p.GetChoice("executor", {"sequential", "threads"}, "sequential", &out)
          .ok());
  EXPECT_EQ(out, "threads");
}

TEST(FlagParserTest, GetChoiceFallsBackWhenAbsent) {
  FlagParser p = Parse({"--queries=4"});
  std::string out;
  EXPECT_TRUE(
      p.GetChoice("executor", {"sequential", "threads"}, "sequential", &out)
          .ok());
  EXPECT_EQ(out, "sequential");
}

TEST(FlagParserTest, GetChoiceRejectsUnknownValueNamingAlternatives) {
  FlagParser p = Parse({"--executor=fibers"});
  std::string out;
  const Status st =
      p.GetChoice("executor", {"sequential", "threads"}, "sequential", &out);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("sequential"), std::string::npos);
  EXPECT_NE(st.message().find("threads"), std::string::npos);
  EXPECT_NE(st.message().find("fibers"), std::string::npos);
}

}  // namespace
}  // namespace klink
