// Address intervals and disjoint interval sets, for both families.
//
// BasicIntervalSet is the one range core: advertised space, blocklists,
// scan scopes and the set algebra behind Figure 1 (strategy scoping) are
// all expressed over it, IPv4 and IPv6 alike. Intervals are inclusive
// [first, last] so the whole space, up to the all-ones address, is
// representable. Members whose result does not fit a 128-bit space (an
// address count, a CIDR cover, dense address indexing) are IPv4 only.
#pragma once

#include <algorithm>
#include <compare>
#include <concepts>
#include <cstdint>
#include <span>
#include <vector>

#include "net/family.hpp"

namespace tass::net {

/// Inclusive address interval [first, last].
template <class Family>
struct BasicInterval {
  using Address = typename Family::Address;
  using Prefix = typename Family::Prefix;

  Address first;
  Address last;

  /// Number of addresses (IPv4 only: a v6 interval can hold 2^128).
  constexpr std::uint64_t size() const noexcept
    requires std::same_as<Family, Ipv4Family>
  {
    return static_cast<std::uint64_t>(last.value()) - first.value() + 1;
  }
  constexpr bool contains(Address addr) const noexcept {
    return first <= addr && addr <= last;
  }

  static constexpr BasicInterval of(Prefix prefix) noexcept {
    return BasicInterval{prefix.first(), prefix.last()};
  }
  static constexpr BasicInterval full_space() noexcept {
    return of(Prefix());  // the /0
  }

  friend constexpr auto operator<=>(const BasicInterval&,
                                    const BasicInterval&) noexcept = default;
};

/// A set of addresses maintained as sorted, disjoint, non-adjacent
/// inclusive intervals. Regular value type; all mutators keep the invariant.
template <class Family>
class BasicIntervalSet {
 public:
  using Address = typename Family::Address;
  using Prefix = typename Family::Prefix;
  using Interval = BasicInterval<Family>;

  BasicIntervalSet() = default;

  /// Builds from arbitrary (possibly overlapping, unsorted) intervals:
  /// one sort, then one merge pass.
  explicit BasicIntervalSet(std::span<const Interval> intervals);

  static BasicIntervalSet of_prefixes(std::span<const Prefix> prefixes);
  static BasicIntervalSet full_space();

  void insert(Interval interval);
  void insert(Prefix prefix) { insert(Interval::of(prefix)); }
  void remove(Interval interval);
  void remove(Prefix prefix) { remove(Interval::of(prefix)); }

  bool contains(Address addr) const noexcept {
    const auto it = holder(addr);
    return it != intervals_.end() && it->first <= addr;
  }
  /// True if every address in `interval` is in the set.
  bool contains_all(Interval interval) const noexcept {
    const auto it = holder(interval.first);
    return it != intervals_.end() && it->first <= interval.first &&
           interval.last <= it->last;
  }

  /// Total number of addresses in the set (IPv4 only).
  std::uint64_t address_count() const noexcept
    requires std::same_as<Family, Ipv4Family>;

  bool empty() const noexcept { return intervals_.empty(); }
  std::size_t interval_count() const noexcept { return intervals_.size(); }
  std::span<const Interval> intervals() const noexcept { return intervals_; }

  /// Set algebra; each returns a new set.
  BasicIntervalSet union_with(const BasicIntervalSet& other) const;
  BasicIntervalSet intersect(const BasicIntervalSet& other) const;
  BasicIntervalSet subtract(const BasicIntervalSet& other) const;
  BasicIntervalSet complement() const;

  /// Minimal CIDR cover of the set, ascending (IPv4 only).
  std::vector<Prefix> to_prefixes() const
    requires std::same_as<Family, Ipv4Family>;

  friend bool operator==(const BasicIntervalSet&,
                         const BasicIntervalSet&) = default;

 private:
  // The first interval ending at or after addr: the only one that can
  // hold it.
  auto holder(Address addr) const noexcept {
    return std::ranges::lower_bound(intervals_, addr, {}, &Interval::last);
  }

  // Sorted by first; pairwise disjoint with at least one address gap
  // between consecutive intervals (adjacent intervals are coalesced).
  std::vector<Interval> intervals_;
};

extern template class BasicIntervalSet<Ipv4Family>;
extern template class BasicIntervalSet<Ipv6Family>;

using Interval = BasicInterval<Ipv4Family>;
using Interval6 = BasicInterval<Ipv6Family>;
using IntervalSet = BasicIntervalSet<Ipv4Family>;
using IntervalSet6 = BasicIntervalSet<Ipv6Family>;

/// Random access into the addresses of an IntervalSet: maps a dense index
/// in [0, size()) to the index-th smallest address. Lets scanners permute
/// a scope by permuting [0, size()) (the ZMap whitelist technique).
class AddressIndexer {
 public:
  explicit AddressIndexer(const IntervalSet& set);

  std::uint64_t size() const noexcept {
    return cumulative_.empty() ? 0 : cumulative_.back();
  }

  /// The index-th smallest address. Precondition: index < size().
  Ipv4Address at(std::uint64_t index) const;

 private:
  std::vector<Interval> intervals_;
  std::vector<std::uint64_t> cumulative_;  // running address counts
};

}  // namespace tass::net
