// Overshoot-bounded prefix reduction: minimal target lists.
//
// The paper's §5 observes that a TASS selection can be post-processed
// into an equivalent — or slightly larger — prefix list without changing
// what gets scanned. Every downstream consumer pays per-prefix costs
// (ScanScope range builds, TSIM encoding, serve replies, exported
// ACLs), so collapsing a selection into far
// fewer, slightly coarser prefixes is a cross-cutting perf lever. This
// header provides both halves, family-generic over net::Ipv4Family /
// net::Ipv6Family:
//
//   * BasicAggregate<Family> — the exact half: merge duplicates, nested
//     prefixes and sibling pairs into the unique minimal CIDR list
//     covering the same addresses (the family-generic promotion of the
//     historical v4-only bgp::aggregate).
//   * reduce() — the lossy half: starting from the exact aggregate,
//     greedily merge the cheapest adjacent runs under their smallest
//     common supernet, each merge priced by the overshoot addresses it
//     admits, until an address-overshoot cap or a target prefix count
//     is reached. The result always covers every original address;
//     overshoot is extra, never missing.
//
// Accounting follows net::interval's inclusive-bound idiom: widths are
// kept as (last - first) spans in 128-bit arithmetic so the full spaces
// (0.0.0.0/0, ::/0) are exact, and the overshoot budget is enforced in
// exact addresses of the family's bit width. Reported totals use the
// family's scan units (IPv4: addresses; IPv6: /64 subnets, saturating),
// matching Family::prefix_units everywhere else in the pipeline.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/family.hpp"

namespace tass::bgp {

/// Family-generic exact aggregation. For Ipv4Family this computes the
/// same minimal cover (byte-identical output) as the historical
/// interval-algebra bgp::aggregate.
template <class Family>
struct BasicAggregate {
  using Prefix = typename Family::Prefix;

  /// The minimal sorted list of prefixes covering exactly the same
  /// addresses as the input (duplicates, nesting and adjacent siblings
  /// are merged). O(n log n), one sort plus a stack sweep — no interval
  /// materialisation, so it runs at either family's width.
  static std::vector<Prefix> aggregate(std::span<const Prefix> prefixes);

  /// Scan units covered by the union of the prefixes (after
  /// de-duplication): addresses for IPv4 (0.0.0.0/0 == 2^32), /64
  /// subnets for IPv6 (saturating — ::/0 alone clamps to 2^64 - 1).
  static std::uint64_t union_size(std::span<const Prefix> prefixes);
};

/// Reduction stopping rule. Merging stops at whichever bound binds
/// first; the defaults reproduce the headline "5% overshoot" operating
/// point.
struct ReduceParams {
  /// Maximum extra address fraction: the reduced list may cover at most
  /// (1 + max_overshoot) times the original union, enforced in exact
  /// addresses. 0 degenerates to exact aggregation. Must be finite and
  /// non-negative.
  double max_overshoot = 0.05;
  /// Floor on the reduced list size (0 = ignore; the overshoot cap is
  /// then the only bound). No greedy merge ever lands below it — though
  /// the exact aggregation stage, which only removes redundancy, may
  /// already produce a smaller list.
  std::size_t min_prefixes = 0;
};

/// One point of the reduction trajectory: the list size and cumulative
/// overshoot after a merge (scan units, like every other total).
struct ReduceCurvePoint {
  std::uint64_t prefixes = 0;
  std::uint64_t overshoot_addresses = 0;
};

template <class Family>
struct BasicReduceResult {
  /// The reduced list: sorted, disjoint, and a superset of every input
  /// address. Free (zero-overshoot) merges always execute before costed
  /// ones, so no sibling pair survives unless the min_prefixes floor
  /// stopped reduction first.
  std::vector<typename Family::Prefix> prefixes;
  std::uint64_t original_prefixes = 0;    // input list size
  std::uint64_t aggregated_prefixes = 0;  // after the exact half
  std::uint64_t original_addresses = 0;   // union of the input, scan units
  std::uint64_t overshoot_addresses = 0;  // extra units the merges admit
  std::uint64_t merges = 0;               // greedy merges executed
  /// Trajectory: point [0] is the exact aggregate (overshoot 0), then
  /// one point per merge. Sizes strictly decrease, overshoot never does.
  std::vector<ReduceCurvePoint> curve;

  /// Input prefixes per output prefix — the headline compaction factor.
  double reduction_ratio() const noexcept {
    return prefixes.empty() ? 1.0
                            : static_cast<double>(original_prefixes) /
                                  static_cast<double>(prefixes.size());
  }
  /// Overshoot relative to the original union (both in scan units).
  double overshoot_fraction() const noexcept {
    return original_addresses == 0
               ? 0.0
               : static_cast<double>(overshoot_addresses) /
                     static_cast<double>(original_addresses);
  }
};

using ReduceResult = BasicReduceResult<net::Ipv4Family>;
using ReduceResult6 = BasicReduceResult<net::Ipv6Family>;

/// Reduces a prefix list under the overshoot budget: exact-aggregate,
/// then greedily execute the cheapest merges (cost = addresses a merge
/// would add) until no affordable merge remains or the target count is
/// reached. Deterministic for a given input. Precondition: params are
/// valid (finite max_overshoot >= 0).
template <class Family>
BasicReduceResult<Family> reduce(
    std::span<const typename Family::Prefix> prefixes,
    const ReduceParams& params = {});

extern template BasicReduceResult<net::Ipv4Family> reduce<net::Ipv4Family>(
    std::span<const net::Prefix>, const ReduceParams&);
extern template BasicReduceResult<net::Ipv6Family> reduce<net::Ipv6Family>(
    std::span<const net::Ipv6Prefix>, const ReduceParams&);
extern template struct BasicAggregate<net::Ipv4Family>;
extern template struct BasicAggregate<net::Ipv6Family>;

/// Deduction-friendly spellings (the template parameter sits in a
/// non-deduced context): reduce(selection.prefixes, params) works for
/// either family's vector.
inline ReduceResult reduce(std::span<const net::Prefix> prefixes,
                           const ReduceParams& params = {}) {
  return reduce<net::Ipv4Family>(prefixes, params);
}
inline ReduceResult6 reduce(std::span<const net::Ipv6Prefix> prefixes,
                            const ReduceParams& params = {}) {
  return reduce<net::Ipv6Family>(prefixes, params);
}

}  // namespace tass::bgp
