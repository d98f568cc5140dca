// ScanScope6: the IPv6 scan scope — selected prefixes, a blocklist, and
// the candidate set a cycle will actually probe.
//
// The IPv4 scope materialises its target intervals and the engine sweeps
// them; that is meaningless at 2^128. A v6 cycle instead probes a
// *candidate set*: known-or-conjectured-active addresses (hitlist
// entries, low interface identifiers, aliased-prefix seeds) filtered to
// the selected prefixes minus the blocklist. The scope itself is one
// ascending list of disjoint [first, last] address ranges (the union of
// the selected prefixes minus the union of the blocked ones, subtracted
// once by a merge walk): contains() is one binary search over it, and
// add_candidates() sorts its batch and merge-walks it against the
// ranges, so the candidate list comes out in ascending address order —
// the order an intersection with a sorted host set wants.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "bgp/reduce.hpp"
#include "net/ipv6.hpp"
#include "scan/blocklist.hpp"

namespace tass::scan {

class ScanScope6 {
 public:
  ScanScope6() = default;

  /// Scope = union(prefixes) - blocklist (the blocklist's v6 side).
  /// Duplicate/nested whitelist prefixes are fine (the ranges are their
  /// union).
  ScanScope6(std::span<const net::Ipv6Prefix> prefixes,
             const Blocklist& blocklist);

  /// Scope from a reduced (overshoot-bounded) selection: the whitelist
  /// is first collapsed by bgp::reduce, shrinking the range list and
  /// the prefix list carried around, at the price of up to
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
    // The first range ending at or after addr is the only one that can
    // hold it.
    const auto range =
        std::ranges::lower_bound(ranges_, addr, {}, &Range::last);
    return range != ranges_.end() && range->first <= addr;
  }

  /// Admits the in-scope addresses of `addresses` into the candidate
  /// set, which stays in ascending address order (a later batch is
  /// merged into the earlier ones). Duplicates are kept, within a batch
  /// and across batches: deduplicating is the caller's concern
  /// (hitlists are conventionally deduplicated). Returns how many of
  /// this batch were admitted.
  std::size_t add_candidates(std::span<const net::Ipv6Address> addresses);

  /// The admitted candidates, ascending, duplicates kept.
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
  struct Range {
    net::Ipv6Address first;
    net::Ipv6Address last;
  };
  /// The union of `prefixes` as ascending, disjoint ranges.
  static std::vector<Range> union_of(
      std::span<const net::Ipv6Prefix> prefixes);

  std::vector<net::Ipv6Prefix> prefixes_;
  std::vector<Range> ranges_;  // ascending, disjoint, each non-empty
  std::vector<net::Ipv6Address> candidates_;
};

}  // namespace tass::scan
