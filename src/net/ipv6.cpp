#include "net/ipv6.hpp"

#include <array>
#include <cstdio>

#include "net/ipv4.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace tass::net {

namespace {

// Hex-digit values by byte; kNotHex marks every other byte.
constexpr std::uint8_t kNotHex = 0xff;
constexpr std::array<std::uint8_t, 256> kHexValue = [] {
  std::array<std::uint8_t, 256> table{};
  table.fill(kNotHex);
  for (int c = '0'; c <= '9'; ++c) {
    table[static_cast<std::size_t>(c)] = static_cast<std::uint8_t>(c - '0');
  }
  for (int c = 'a'; c <= 'f'; ++c) {
    table[static_cast<std::size_t>(c)] =
        static_cast<std::uint8_t>(c - 'a' + 10);
    table[static_cast<std::size_t>(c - 'a' + 'A')] =
        static_cast<std::uint8_t>(c - 'a' + 10);
  }
  return table;
}();

Ipv6Address from_groups(const std::array<std::uint16_t, 8>& groups) noexcept {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  for (int i = 0; i < 4; ++i) {
    hi = (hi << 16) | groups[static_cast<std::size_t>(i)];
    lo = (lo << 16) | groups[static_cast<std::size_t>(i + 4)];
  }
  return Ipv6Address(hi, lo);
}

// "addr/len"; `strict` also rejects host bits set below the mask.
std::optional<Ipv6Prefix> parse_prefix(std::string_view text,
                                       bool strict) noexcept {
  const std::size_t slash = text.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  const auto address = Ipv6Address::parse(text.substr(0, slash));
  if (!address) return std::nullopt;
  const auto length = util::parse_u32(text.substr(slash + 1));
  if (!length || *length > 128) return std::nullopt;
  const Ipv6Prefix prefix(*address, static_cast<int>(*length));
  if (strict && prefix.network() != *address) return std::nullopt;
  return prefix;
}

}  // namespace

std::optional<Ipv6Address> Ipv6Address::parse(std::string_view text) noexcept {
  // One left-to-right pass: groups land in `groups` in text order and
  // `gap` records how many preceded the "::", if there is one.
  std::array<std::uint16_t, 8> groups{};
  std::size_t count = 0;
  std::size_t gap = groups.size();  // no "::" seen
  const std::size_t n = text.size();
  std::size_t i = 0;
  if (n >= 2 && text[0] == ':' && text[1] == ':') {
    gap = 0;
    i = 2;
  }
  while (i < n) {
    // A group of 1-4 hex digits, or a dotted quad ending the text.
    const std::size_t start = i;
    std::uint32_t value = 0;
    for (; i < n; ++i) {
      const std::uint8_t digit =
          kHexValue[static_cast<unsigned char>(text[i])];
      if (digit == kNotHex) break;
      if (i - start == 4) return std::nullopt;  // no group or octet is 5 long
      value = (value << 4) | digit;
    }
    if (i < n && text[i] == '.') {
      // Embedded IPv4: the rest of the text must be exactly one dotted
      // quad, which also rules it out anywhere before a "::".
      if (count + 2 > groups.size()) return std::nullopt;
      const auto v4 = Ipv4Address::parse(text.substr(start));
      if (!v4) return std::nullopt;
      groups[count++] = static_cast<std::uint16_t>(v4->value() >> 16);
      groups[count++] = static_cast<std::uint16_t>(v4->value() & 0xffff);
      break;
    }
    if (i == start || count == groups.size()) return std::nullopt;
    groups[count++] = static_cast<std::uint16_t>(value);
    if (i == n) break;
    if (text[i] != ':') return std::nullopt;
    ++i;
    if (i < n && text[i] == ':') {
      // At most one "::", and it stands for at least one zero group.
      if (gap != groups.size() || count == groups.size()) {
        return std::nullopt;
      }
      gap = count;
      ++i;
    } else if (i == n) {
      return std::nullopt;  // a single trailing ':'
    }
  }
  if (gap == groups.size()) {
    if (count != groups.size()) return std::nullopt;
  } else {
    // Move the groups after "::" to the end and zero the run between,
    // which must again be at least one group long.
    if (count == groups.size()) return std::nullopt;
    const std::size_t tail = count - gap;
    const std::size_t shift = groups.size() - count;
    for (std::size_t k = tail; k-- > 0;) {
      groups[gap + shift + k] = groups[gap + k];
    }
    for (std::size_t k = gap; k < gap + shift; ++k) groups[k] = 0;
  }
  return from_groups(groups);
}

Ipv6Address Ipv6Address::parse_or_throw(std::string_view text) {
  if (const auto parsed = parse(text)) return *parsed;
  throw ParseError("invalid IPv6 address: '" + std::string(text) + "'");
}

std::string Ipv6Address::to_string() const {
  // RFC 5952: compress the longest (leftmost on tie) run of >= 2 zero
  // groups; lower-case hex without leading zeros.
  std::array<std::uint16_t, 8> groups;
  for (int i = 0; i < 8; ++i) {
    groups[static_cast<std::size_t>(i)] = group(i);
  }
  int best_start = -1;
  int best_length = 0;
  for (int i = 0; i < 8;) {
    if (groups[static_cast<std::size_t>(i)] != 0) {
      ++i;
      continue;
    }
    int j = i;
    while (j < 8 && groups[static_cast<std::size_t>(j)] == 0) ++j;
    if (j - i > best_length) {
      best_start = i;
      best_length = j - i;
    }
    i = j;
  }
  if (best_length < 2) best_start = -1;

  std::string out;
  char buffer[8];
  for (int i = 0; i < 8;) {
    if (i == best_start) {
      // "::" both separates and stands for the zero run; a following
      // group needs no extra ':'.
      out += "::";
      i += best_length;
      continue;
    }
    if (!out.empty() && out.back() != ':') out += ':';
    std::snprintf(buffer, sizeof(buffer), "%x",
                  groups[static_cast<std::size_t>(i)]);
    out += buffer;
    ++i;
  }
  if (out.empty()) return "::";
  return out;
}

std::optional<Ipv6Prefix> Ipv6Prefix::parse(std::string_view text) noexcept {
  return parse_prefix(text, /*strict=*/false);
}

std::optional<Ipv6Prefix> Ipv6Prefix::parse_strict(
    std::string_view text) noexcept {
  return parse_prefix(text, /*strict=*/true);
}

Ipv6Prefix Ipv6Prefix::parse_or_throw(std::string_view text) {
  if (const auto parsed = parse(text)) return *parsed;
  throw ParseError("invalid IPv6 prefix: '" + std::string(text) + "'");
}

std::string Ipv6Prefix::to_string() const {
  return address_.to_string() + "/" + std::to_string(length_);
}

}  // namespace tass::net
