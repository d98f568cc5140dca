// Tests for census/hitlist6: the v6 seed hitlist text format (one
// address per line, '#' comments and blank lines ignored).
#include "census/hitlist6.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/error.hpp"

namespace tass::census {
namespace {

using net::Ipv6Address;

std::vector<Ipv6Address> addresses(std::initializer_list<const char*> texts) {
  std::vector<Ipv6Address> out;
  for (const char* text : texts) {
    out.push_back(Ipv6Address::parse_or_throw(text));
  }
  return out;
}

TEST(Hitlist6, SkipsCommentsAndBlankLines) {
  const auto parsed = parse_hitlist6(
      "# hitlist header\n"
      "\n"
      "2001:db8::1\n"
      "   \t \n"
      "  # indented comment\n"
      "  2001:db8::2 \t\n");
  EXPECT_EQ(parsed, addresses({"2001:db8::1", "2001:db8::2"}));
}

TEST(Hitlist6, AcceptsCrlfLineEnds) {
  EXPECT_EQ(parse_hitlist6("# c\r\n2001:db8::1\r\n\r\n::ffff:192.0.2.1\r\n"),
            addresses({"2001:db8::1", "::ffff:192.0.2.1"}));
}

TEST(Hitlist6, LastLineNeedsNoNewline) {
  EXPECT_EQ(parse_hitlist6("2001:db8::1\nfe80::2"),
            addresses({"2001:db8::1", "fe80::2"}));
}

TEST(Hitlist6, EmptyTextIsAnEmptyHitlist) {
  std::size_t skipped = 7;
  EXPECT_TRUE(parse_hitlist6("", /*strict=*/false, &skipped).empty());
  EXPECT_EQ(skipped, 0u);
  EXPECT_TRUE(parse_hitlist6("").empty());
  EXPECT_TRUE(parse_hitlist6("\n\n# only comments\n").empty());
}

TEST(Hitlist6, StrictModeThrowsWithTheOffendingLine) {
  try {
    parse_hitlist6("2001:db8::1\n  2001:db8::zz \n2001:db8::3\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& error) {
    EXPECT_NE(std::string(error.what()).find("'2001:db8::zz'"),
              std::string::npos)
        << error.what();
  }
}

TEST(Hitlist6, LenientModeCountsSkippedLines) {
  std::size_t skipped = 0;
  const auto parsed = parse_hitlist6(
      "2001:db8::1\n"
      "not-an-address\n"
      "1::2::3\n"
      "192.0.2.1\n"
      "2001:db8::4\n",
      /*strict=*/false, &skipped);
  EXPECT_EQ(parsed, addresses({"2001:db8::1", "2001:db8::4"}));
  EXPECT_EQ(skipped, 3u);
}

}  // namespace
}  // namespace tass::census
