// Unit tests for util/strings: the line and field cursors, trimming,
// strict numeric parsing and formatting helpers used by the text-format
// parsers — plus the util/hash FNV-1a digest the binary formats share.
#include "util/strings.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <span>
#include <vector>

#include "util/hash.hpp"

namespace tass::util {
namespace {

using Views = std::vector<std::string_view>;

Views all_lines(std::string_view text) {
  Views lines;
  LineCursor cursor(text);
  for (std::string_view line; cursor.next(line);) lines.push_back(line);
  return lines;
}

Views all_fields(std::string_view text) {
  Views fields;
  FieldCursor cursor(text);
  for (std::string_view field; cursor.next(field);) fields.push_back(field);
  return fields;
}

TEST(LineCursor, EmptyInputHasNoLines) {
  EXPECT_TRUE(all_lines("").empty());
}

TEST(LineCursor, KeepsEmptyLinesBetweenTerminators) {
  EXPECT_EQ(all_lines("a\n\nb"), (Views{"a", "", "b"}));
  EXPECT_EQ(all_lines("\n"), (Views{""}));
}

TEST(LineCursor, TrailingTerminatorOpensNoLine) {
  EXPECT_EQ(all_lines("x\ty\n"), (Views{"x\ty"}));
  EXPECT_EQ(all_lines("x\ny"), (Views{"x", "y"}));  // no final terminator
}

TEST(LineCursor, CrlfSplitsAtTheLineFeed) {
  // Only '\n' ends a line; the '\r' before it is trailing whitespace that
  // the parsers' trim() removes.
  EXPECT_EQ(all_lines("a\r\nb\r\n\r\nc"),
            (Views{"a\r", "b\r", "\r", "c"}));
  EXPECT_EQ(trim(all_lines("a\r\n").front()), "a");
}

TEST(FieldCursor, CollapsesWhitespaceRuns) {
  EXPECT_EQ(all_fields("  a \t b\n\nc  "), (Views{"a", "b", "c"}));
  EXPECT_EQ(all_fields("1.0.0.0\t24\t13335"),
            (Views{"1.0.0.0", "24", "13335"}));
}

TEST(FieldCursor, EmptyOrAllWhitespaceYieldsNothing) {
  EXPECT_TRUE(all_fields("").empty());
  EXPECT_TRUE(all_fields(" \t\r\n\v\f ").empty());
}

TEST(FieldCursor, TrailingDelimiterAndCrlfYieldNoEmptyField) {
  EXPECT_EQ(all_fields("x\ty\t"), (Views{"x", "y"}));
  EXPECT_EQ(all_fields("x y\r\n"), (Views{"x", "y"}));
}

TEST(IsSpace, MatchesTheCLocale) {
  for (int c = 0; c < 256; ++c) {
    EXPECT_EQ(is_space(static_cast<char>(c)),
              std::isspace(c) != 0) << c;
  }
}

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ(trim("  hello \t"), "hello");
  EXPECT_EQ(trim("hello"), "hello");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(ParseU64, AcceptsCanonicalNumbers) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("42"), 42u);
  EXPECT_EQ(parse_u64("18446744073709551615"), ~0ULL);
}

TEST(ParseU64, RejectsNonCanonicalInput) {
  EXPECT_FALSE(parse_u64("").has_value());
  EXPECT_FALSE(parse_u64("-1").has_value());
  EXPECT_FALSE(parse_u64("+1").has_value());
  EXPECT_FALSE(parse_u64(" 1").has_value());
  EXPECT_FALSE(parse_u64("1 ").has_value());
  EXPECT_FALSE(parse_u64("0x10").has_value());
  EXPECT_FALSE(parse_u64("18446744073709551616").has_value());  // overflow
}

TEST(ParseU32, RangeChecksTo32Bits) {
  EXPECT_EQ(parse_u32("4294967295"), 0xffffffffu);
  EXPECT_FALSE(parse_u32("4294967296").has_value());
}

TEST(ParseDouble, ParsesAndRejects) {
  EXPECT_DOUBLE_EQ(parse_double("0.25").value(), 0.25);
  EXPECT_DOUBLE_EQ(parse_double("-3").value(), -3.0);
  EXPECT_FALSE(parse_double("1.2.3").has_value());
  EXPECT_FALSE(parse_double("").has_value());
}

TEST(StartsWith, Basics) {
  EXPECT_TRUE(starts_with("table_dump", "table"));
  EXPECT_FALSE(starts_with("tab", "table"));
  EXPECT_TRUE(starts_with("x", ""));
}

TEST(WithThousands, GroupsDigits) {
  EXPECT_EQ(with_thousands(0), "0");
  EXPECT_EQ(with_thousands(999), "999");
  EXPECT_EQ(with_thousands(1000), "1,000");
  EXPECT_EQ(with_thousands(1234567), "1,234,567");
  EXPECT_EQ(with_thousands(4294967296ULL), "4,294,967,296");
}

TEST(Fixed, FormatsWithPrecision) {
  EXPECT_EQ(fixed(0.5, 3), "0.500");
  EXPECT_EQ(fixed(1.0 / 3.0, 2), "0.33");
  EXPECT_EQ(fixed(-2.5, 1), "-2.5");
}

TEST(Fnv1a, KnownVectorsAndStreaming) {
  // FNV-1a("") = offset basis; FNV-1a("a") = 0xaf63dc4c8601ec8c.
  util::Fnv1a64 empty;
  EXPECT_EQ(empty.digest(), util::Fnv1a64::kOffsetBasis);
  util::Fnv1a64 a;
  a.update(static_cast<std::uint8_t>('a'));
  EXPECT_EQ(a.digest(), 0xaf63dc4c8601ec8cULL);
  // Streaming equals one-shot.
  const char text[] = "topology aware scanning";
  util::Fnv1a64 stream;
  for (const char c : std::string_view(text)) {
    stream.update(static_cast<std::uint8_t>(c));
  }
  EXPECT_EQ(stream.digest(),
            util::fnv1a64(std::as_bytes(
                std::span(text, std::string_view(text).size()))));
}

}  // namespace
}  // namespace tass::util
