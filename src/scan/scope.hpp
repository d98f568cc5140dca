// BasicScanScope: the set of addresses a scan cycle may probe, for either
// family — a whitelist of prefixes (e.g. a TASS selection, or the whole
// announced space) minus a blocklist (§3, steps 3–4). The scope is one
// net::BasicIntervalSet: contains() is one binary search over its
// ascending ranges, and the v4 engine walks the same ranges.
//
// Sweeping the ranges is meaningless at 2^128, so a v6 cycle instead
// probes a *candidate set*: known-or-conjectured-active addresses
// (hitlist entries, low interface identifiers, aliased-prefix seeds)
// filtered to the scope. add_candidates() sorts its batch and
// merge-walks it against the ranges, so the candidate list comes out in
// ascending address order — the order an intersection with a sorted
// host set wants.
#pragma once

#include <concepts>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "bgp/reduce.hpp"
#include "net/interval.hpp"
#include "scan/blocklist.hpp"

namespace tass::scan {

template <class Family>
class BasicScanScope {
 public:
  using Address = typename Family::Address;
  using Prefix = typename Family::Prefix;
  using IntervalSet = net::BasicIntervalSet<Family>;

  BasicScanScope() = default;

  /// Scope = union(prefixes) - blocklist (the blocklist's side of this
  /// family). Duplicate/nested prefixes are fine (the ranges are their
  /// union).
  BasicScanScope(std::span<const Prefix> prefixes, const Blocklist& blocklist);

  /// Scope from a reduced (overshoot-bounded) selection: the prefix list
  /// is first collapsed by bgp::reduce, then scoped as usual. Fewer
  /// prefixes mean fewer target ranges, at the price of up to
  /// params.max_overshoot extra addresses in scope — every original
  /// address stays in scope (the blocklist is still subtracted
  /// afterwards, so overshoot never resurrects blocked space).
  /// `reduced_out`, when non-null, receives the reduction stats.
  static BasicScanScope of_reduced(
      std::span<const Prefix> prefixes, const Blocklist& blocklist,
      const bgp::ReduceParams& params = {},
      bgp::BasicReduceResult<Family>* reduced_out = nullptr);

  /// Scope over raw intervals (already exclusion-applied).
  explicit BasicScanScope(IntervalSet targets) : targets_(std::move(targets)) {}

  /// True if the address is inside a selected prefix and not blocked.
  bool contains(Address addr) const noexcept {
    return targets_.contains(addr);
  }
  std::uint64_t address_count() const noexcept
    requires std::same_as<Family, net::Ipv4Family>
  {
    return targets_.address_count();
  }
  const IntervalSet& targets() const noexcept { return targets_; }

  /// Admits the in-scope addresses of `addresses` into the candidate
  /// set, which stays in ascending address order (a later batch is
  /// merged into the earlier ones). Duplicates are kept, within a batch
  /// and across batches: deduplicating is the caller's concern
  /// (hitlists are conventionally deduplicated). Returns how many of
  /// this batch were admitted. IPv6 only.
  std::size_t add_candidates(std::span<const Address> addresses)
    requires std::same_as<Family, net::Ipv6Family>;

  /// The admitted candidates, ascending, duplicates kept.
  std::span<const Address> candidates() const noexcept
    requires std::same_as<Family, net::Ipv6Family>
  {
    return candidates_;
  }
  std::size_t candidate_count() const noexcept
    requires std::same_as<Family, net::Ipv6Family>
  {
    return candidates_.size();
  }

 private:
  IntervalSet targets_;
  std::vector<Address> candidates_;  // IPv6 only; stays empty for IPv4
};

extern template class BasicScanScope<net::Ipv4Family>;
extern template class BasicScanScope<net::Ipv6Family>;

using ScanScope = BasicScanScope<net::Ipv4Family>;
using ScanScope6 = BasicScanScope<net::Ipv6Family>;

}  // namespace tass::scan
