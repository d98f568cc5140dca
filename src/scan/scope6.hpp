// ScanScope6: the IPv6 scan scope — selected prefixes, a blocklist, and
// the candidate set a cycle will actually probe.
//
// The IPv4 scope materialises its target intervals and the engine sweeps
// them; that is meaningless at 2^128. A v6 cycle instead probes a
// *candidate set*: known-or-conjectured-active addresses (hitlist
// entries, low interface identifiers, aliased-prefix seeds) filtered to
// the selected prefixes minus the blocklist. Membership rides on two
// LpmIndex6 instances (whitelist and blocklist), so contains() stays a
// handful of dependent loads; the candidate list is the enumeration
// view.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bgp/reduce.hpp"
#include "net/ipv6.hpp"
#include "scan/blocklist.hpp"
#include "trie/lpm_index6.hpp"

namespace tass::scan {

class ScanScope6 {
 public:
  ScanScope6() = default;

  /// Scope = union(prefixes) - blocklist (the blocklist's v6 side).
  /// Duplicate/nested whitelist prefixes are fine (membership is an LPM
  /// cover test).
  ScanScope6(std::span<const net::Ipv6Prefix> prefixes,
             const Blocklist& blocklist);

  /// Scope from a reduced (overshoot-bounded) selection: the whitelist
  /// is first collapsed by bgp::reduce, shrinking the LpmIndex6 build
  /// and the prefix list carried around, at the price of up to
  /// params.max_overshoot extra admitted space. Every candidate the
  /// unreduced scope admits is still admitted (the blocklist still
  /// applies, so overshoot never resurrects blocked space).
  /// `reduced_out`, when non-null, receives the reduction stats.
  static ScanScope6 of_reduced(std::span<const net::Ipv6Prefix> prefixes,
                               const Blocklist& blocklist,
                               const bgp::ReduceParams& params = {},
                               bgp::ReduceResult6* reduced_out = nullptr);

  /// True if the address is inside a selected prefix and not blocked.
  bool contains(net::Ipv6Address addr) const noexcept {
    return whitelist_.covers(addr) && !blocked_.covers(addr);
  }

  /// Filters `addresses` into the candidate set, in input order,
  /// dropping duplicates of already-admitted candidates is the caller's
  /// concern (hitlists are conventionally deduplicated). Returns how
  /// many were admitted.
  std::size_t add_candidates(std::span<const net::Ipv6Address> addresses);

  std::span<const net::Ipv6Address> candidates() const noexcept {
    return candidates_;
  }
  std::size_t candidate_count() const noexcept { return candidates_.size(); }

  /// The selected prefixes (as given; not deduplicated).
  std::span<const net::Ipv6Prefix> prefixes() const noexcept {
    return prefixes_;
  }
  bool empty() const noexcept { return prefixes_.empty(); }

 private:
  std::vector<net::Ipv6Prefix> prefixes_;
  std::vector<net::Ipv6Address> candidates_;
  trie::LpmIndex6 whitelist_;
  trie::LpmIndex6 blocked_;
};

}  // namespace tass::scan
