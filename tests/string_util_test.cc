// Unit tests for string helpers.
#include "common/string_util.h"

#include <gtest/gtest.h>

namespace crowder {
namespace {

TEST(SplitTest, BasicDelimiter) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, KeepsEmptyFields) {
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitTest, EmptyInputYieldsOneEmptyField) {
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(SplitWhitespaceTest, DropsEmptyRuns) {
  EXPECT_EQ(SplitWhitespace("  foo   bar\tbaz \n"),
            (std::vector<std::string>{"foo", "bar", "baz"}));
}

TEST(SplitWhitespaceTest, EmptyAndBlank) {
  EXPECT_TRUE(SplitWhitespace("").empty());
  EXPECT_TRUE(SplitWhitespace("   \t\n").empty());
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(TrimTest, RemovesEdges) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(ToLowerTest, AsciiOnly) {
  EXPECT_EQ(ToLower("AbC123xYz"), "abc123xyz");
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("foobar", "bar"));
  EXPECT_TRUE(StartsWith("foo", ""));
  EXPECT_FALSE(StartsWith("fo", "foo"));
}

TEST(FormatDoubleTest, FixedDigits) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
}

TEST(WithThousandsTest, GroupsDigits) {
  EXPECT_EQ(WithThousands(0), "0");
  EXPECT_EQ(WithThousands(999), "999");
  EXPECT_EQ(WithThousands(1000), "1,000");
  EXPECT_EQ(WithThousands(1234567), "1,234,567");
  EXPECT_EQ(WithThousands(-45678), "-45,678");
}

TEST(ParseNumberTest, ParsesWholeStrings) {
  EXPECT_EQ(ParseNumber<int>("-12").ValueOrDie(), -12);
  EXPECT_EQ(ParseNumber<uint32_t>("4294967295").ValueOrDie(), 4294967295u);
  EXPECT_EQ(ParseNumber<uint64_t>("18446744073709551615").ValueOrDie(),
            18446744073709551615ull);
  EXPECT_EQ(ParseNumber<double>("0.3").ValueOrDie(), 0.3);
  EXPECT_EQ(ParseNumber<double>("-1e-3").ValueOrDie(), -1e-3);
}

TEST(ParseNumberTest, RejectsWhatStoiAccepts) {
  // Each of these used to read as a number (or abort) through std::sto*.
  const auto junk = ParseNumber<uint32_t>("12abc");
  ASSERT_FALSE(junk.ok());
  EXPECT_TRUE(junk.status().IsInvalidArgument());
  EXPECT_NE(junk.status().message().find("'12abc'"), std::string::npos);

  const auto negative = ParseNumber<uint32_t>("-1");  // would wrap to 4294967295
  ASSERT_FALSE(negative.ok());
  EXPECT_NE(negative.status().message().find("negative"), std::string::npos);

  const auto huge = ParseNumber<uint32_t>("5999999999999999999997");
  ASSERT_FALSE(huge.ok());
  EXPECT_NE(huge.status().message().find("out of range"), std::string::npos);
  EXPECT_FALSE(ParseNumber<uint32_t>("4294967296").ok());
  EXPECT_FALSE(ParseNumber<int>("2147483648").ok());
  EXPECT_FALSE(ParseNumber<double>("1e999").ok());

  for (const char* bad : {"", " 1", "1 ", "+1", "0x10", "abc", "1.5"}) {
    EXPECT_TRUE(ParseNumber<int>(bad).status().IsInvalidArgument()) << bad;
  }
  for (const char* bad : {"", "x", "0.3x", "nan", "inf", "-inf"}) {
    EXPECT_TRUE(ParseNumber<double>(bad).status().IsInvalidArgument()) << bad;
  }
}

TEST(ParseByteSizeTest, PlainNumberAndSuffixesEitherCase) {
  EXPECT_EQ(ParseByteSize("0").ValueOrDie(), 0u);
  EXPECT_EQ(ParseByteSize("4096").ValueOrDie(), 4096u);
  // The documented contract: upper- and lowercase suffixes are equivalent.
  EXPECT_EQ(ParseByteSize("64K").ValueOrDie(), 64u * 1024u);
  EXPECT_EQ(ParseByteSize("64k").ValueOrDie(), 64u * 1024u);
  EXPECT_EQ(ParseByteSize("256M").ValueOrDie(), 256ull << 20);
  EXPECT_EQ(ParseByteSize("256m").ValueOrDie(), 256ull << 20);
  EXPECT_EQ(ParseByteSize("3G").ValueOrDie(), 3ull << 30);
  EXPECT_EQ(ParseByteSize("3g").ValueOrDie(), 3ull << 30);
}

TEST(ParseByteSizeTest, RejectsMalformedInput) {
  EXPECT_TRUE(ParseByteSize("").status().IsInvalidArgument());

  // A bare suffix has no number to scale.
  const auto bare = ParseByteSize("K");
  ASSERT_FALSE(bare.ok());
  EXPECT_NE(bare.status().message().find("start with digits"), std::string::npos);

  // "10KB" is not "10K": only single-letter binary suffixes exist, and the
  // error names the offender.
  const auto kb = ParseByteSize("10KB");
  ASSERT_FALSE(kb.ok());
  EXPECT_NE(kb.status().message().find("unknown byte-size suffix 'KB'"), std::string::npos);

  EXPECT_TRUE(ParseByteSize("10Q").status().IsInvalidArgument());
  EXPECT_TRUE(ParseByteSize("-1").status().IsInvalidArgument());
  EXPECT_TRUE(ParseByteSize(" 10").status().IsInvalidArgument());
}

TEST(ParseByteSizeTest, RejectsOverflow) {
  // More digits than uint64 can hold.
  const auto digits = ParseByteSize("999999999999999999999");
  ASSERT_FALSE(digits.ok());
  EXPECT_TRUE(digits.status().IsInvalidArgument());

  // Parses as a number but overflows once multiplied by the suffix.
  const auto scaled = ParseByteSize("99999999999G");
  ASSERT_FALSE(scaled.ok());
  EXPECT_NE(scaled.status().message().find("overflows 64 bits"), std::string::npos);

  // The largest representable scaled value still parses.
  EXPECT_EQ(ParseByteSize("17179869183G").ValueOrDie(), 17179869183ull << 30);
}

}  // namespace
}  // namespace crowder
