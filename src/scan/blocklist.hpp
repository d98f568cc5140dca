// Scanner blocklists (ZMap's blacklist.conf format, extended with ranges
// and IPv6 entries).
//
// A blocklist line is one of
//   192.0.2.0/24        # a CIDR prefix
//   198.51.100.7        # a single address
//   10.0.0.0-10.255.9.1 # an inclusive range
//   2001:db8::/32       # an IPv6 CIDR prefix
//   2001:db8::7         # a single IPv6 address (a /128 block)
// with '#' comments and blank lines ignored. The default blocklist is the
// IANA special-use registry — what every good Internet citizen excludes
// before probing anything. Both families are first-class: each family's
// entries form one net::BasicIntervalSet, blocks() is one binary search
// over it, and malformed lines of either family throw (parse-or-throw;
// nothing is ever silently dropped). IPv6 ranges ("a-b") are rejected:
// the grammar keeps ranges a v4 extension, and the parser says so
// explicitly rather than guessing. A blocklist holds no lazy state, so
// concurrent const queries are safe at any time.
#pragma once

#include <string>
#include <string_view>
#include <utility>

#include "net/interval.hpp"

namespace tass::scan {

class Blocklist {
 public:
  Blocklist() = default;
  explicit Blocklist(net::IntervalSet blocked, net::IntervalSet6 blocked6 = {})
      : blocked_(std::move(blocked)), blocked6_(std::move(blocked6)) {}

  /// Parses blocklist text (both families). Throws tass::ParseError on
  /// malformed lines.
  static Blocklist parse(std::string_view text);

  /// Loads a blocklist file. Throws tass::Error if unreadable.
  static Blocklist load(const std::string& path);

  /// The RFC special-use registry blocklist (IPv4 registry).
  static Blocklist default_blocklist();

  void add(net::Prefix prefix) { blocked_.insert(prefix); }
  void add(net::Interval interval) { blocked_.insert(interval); }
  void add(net::Ipv6Prefix prefix) { blocked6_.insert(prefix); }

  bool blocks(net::Ipv4Address addr) const noexcept {
    return blocked_.contains(addr);
  }
  bool blocks(net::Ipv6Address addr) const noexcept {
    return blocked6_.contains(addr);
  }
  const net::IntervalSet& blocked() const noexcept { return blocked_; }
  const net::IntervalSet6& blocked6() const noexcept { return blocked6_; }
  std::uint64_t blocked_addresses() const noexcept {
    return blocked_.address_count();
  }

 private:
  net::IntervalSet blocked_;
  net::IntervalSet6 blocked6_;
};

}  // namespace tass::scan
