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
// before probing anything. Both families are first-class: v4 entries
// populate the interval set and v4 index, v6 entries the v6 prefix list
// and index, and malformed lines of either family throw (parse-or-throw;
// nothing is ever silently dropped). IPv6 ranges ("a-b") are not
// supported — 128-bit range-to-CIDR cover is not implemented; use
// prefixes (the parser says so explicitly rather than guessing).
//
// The membership check rides on the trie::BasicLpmIndex substrate, so
// blocks() costs a couple of dependent loads on the scan hot path; the
// IntervalSet remains the authority for v4 set algebra and accounting.
// The indexes are rebuilt lazily on the first query after a mutation (so
// an add() loop is O(n), not O(n^2)); mutation and the first query after
// it must not race with concurrent queries — queries on a settled
// blocklist are const-thread-safe.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/interval.hpp"
#include "net/ipv6.hpp"
#include "trie/lpm_index.hpp"
#include "trie/lpm_index6.hpp"

namespace tass::scan {

class Blocklist {
 public:
  Blocklist() = default;
  explicit Blocklist(net::IntervalSet blocked)
      : blocked_(std::move(blocked)) {
    refresh();
  }

  /// Parses blocklist text (both families). Throws tass::ParseError on
  /// malformed lines.
  static Blocklist parse(std::string_view text);

  /// Loads a blocklist file. Throws tass::Error if unreadable.
  static Blocklist load(const std::string& path);

  /// The RFC special-use registry blocklist (IPv4 registry).
  static Blocklist default_blocklist();

  void add(net::Prefix prefix) {
    blocked_.insert(prefix);
    dirty_ = true;
  }
  void add(net::Interval interval) {
    blocked_.insert(interval);
    dirty_ = true;
  }
  void add(net::Ipv6Prefix prefix) {
    blocked6_.push_back(prefix);
    dirty6_ = true;
  }

  bool blocks(net::Ipv4Address addr) const {
    if (dirty_) refresh();
    return index_.covers(addr);
  }
  bool blocks(net::Ipv6Address addr) const {
    if (dirty6_) refresh6();
    return index6_.covers(addr);
  }
  const net::IntervalSet& blocked() const noexcept { return blocked_; }
  /// The IPv6 entries, in insertion order (not deduplicated; membership
  /// queries resolve through the index, which handles nesting).
  std::span<const net::Ipv6Prefix> blocked6() const noexcept {
    return blocked6_;
  }
  std::uint64_t blocked_addresses() const noexcept {
    return blocked_.address_count();
  }

 private:
  void refresh() const {
    index_ = trie::LpmIndex::from_prefixes(blocked_.to_prefixes());
    dirty_ = false;
  }
  void refresh6() const {
    index6_ = trie::LpmIndex6::from_prefixes(blocked6_);
    dirty6_ = false;
  }

  net::IntervalSet blocked_;
  std::vector<net::Ipv6Prefix> blocked6_;
  mutable trie::LpmIndex index_;
  mutable trie::LpmIndex6 index6_;
  mutable bool dirty_ = false;
  mutable bool dirty6_ = false;
};

}  // namespace tass::scan
