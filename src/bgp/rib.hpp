// BasicRoutingTable: the announced-prefix view of the Internet used by
// TASS, parameterized over the address family.
//
// Built from CAIDA pfx2as records (either family) or a decoded MRT RIB
// dump (IPv4), it classifies every announced prefix as less specific
// (l-prefix: not contained in any other announced prefix) or more
// specific (m-prefix), accounts for the advertised space, and produces
// the two scanning partitions the paper evaluates (§3.2): the
// l-partition and the deaggregated m-partition (Figure 2). The split and
// the deaggregation do not depend on the address width, so one template
// serves both families; space is counted in the family's scan units
// (addresses for IPv4, /64 subnets for IPv6, saturating).
#pragma once

#include <concepts>
#include <cstdint>
#include <span>
#include <vector>

#include "bgp/mrt.hpp"
#include "bgp/partition.hpp"
#include "bgp/pfx2as.hpp"
#include "net/family.hpp"
#include "net/interval.hpp"

namespace tass::bgp {

/// One announced prefix with merged origin information.
template <class Family>
struct BasicRouteEntry {
  typename Family::Prefix prefix;
  std::vector<std::uint32_t> origins;
  bool more_specific = false;  // contained in another announced prefix

  friend bool operator==(const BasicRouteEntry&,
                         const BasicRouteEntry&) = default;
};

/// Aggregate statistics, mirroring the §3.2 accounting (e.g. the 2015-09-07
/// CAIDA dump: 595,644 prefixes, 54% m-prefixes, 34.4% of space in them).
/// Space figures are in the family's scan units.
struct RibStats {
  std::size_t prefix_count = 0;
  std::size_t m_prefix_count = 0;
  std::uint64_t advertised_addresses = 0;    // union over all prefixes
  std::uint64_t m_prefix_addresses = 0;      // union over m-prefixes only
  double m_prefix_fraction = 0.0;            // by count
  double m_prefix_space_fraction = 0.0;      // by advertised addresses
};

template <class Family>
class BasicRoutingTable {
 public:
  using Prefix = typename Family::Prefix;
  using Route = BasicRouteEntry<Family>;
  using Record = BasicPfx2AsRecord<Family>;
  using Partition = BasicPrefixPartition<Family>;

  BasicRoutingTable() = default;

  /// Builds from pfx2as records. Duplicate prefixes merge their origins
  /// in record order.
  static BasicRoutingTable from_pfx2as(std::span<const Record> records);

  /// Builds from a decoded MRT RIB dump; per-prefix origins are the union
  /// of origin ASes over all RIB entries (multi-origin prefixes keep all).
  /// IPv4 only: the decoder reads RIB_IPV4_UNICAST records.
  static BasicRoutingTable from_mrt(const MrtRibDump& dump)
      requires std::same_as<Family, net::Ipv4Family>;

  /// Announced routes, ascending by (network, length); classification
  /// already applied.
  std::span<const Route> routes() const noexcept { return routes_; }
  std::size_t size() const noexcept { return routes_.size(); }
  bool empty() const noexcept { return routes_.empty(); }

  /// All l-prefixes (ascending). Pairwise disjoint by construction.
  std::vector<Prefix> l_prefixes() const;
  /// All announced m-prefixes (ascending).
  std::vector<Prefix> m_prefixes() const;

  /// The l-partition: one cell per l-prefix.
  Partition l_partition() const;

  /// The m-partition: every l-prefix deaggregated around its announced
  /// more-specifics (Figure 2); exactly tiles the advertised space.
  Partition m_partition() const;

  /// The advertised address space (union of all announced prefixes).
  net::IntervalSet advertised_space() const
      requires std::same_as<Family, net::Ipv4Family>
  {
    return net::IntervalSet::of_prefixes(l_prefixes());
  }

  const RibStats& stats() const noexcept { return stats_; }

  /// Export back to pfx2as records (for interchange and tests).
  std::vector<Record> to_pfx2as() const;

 private:
  void classify();  // l/m split and space accounting over sorted routes_

  std::vector<Route> routes_;
  RibStats stats_;
};

using RouteEntry = BasicRouteEntry<net::Ipv4Family>;
using RoutingTable = BasicRoutingTable<net::Ipv4Family>;
using Route6Entry = BasicRouteEntry<net::Ipv6Family>;
using RoutingTable6 = BasicRoutingTable<net::Ipv6Family>;

extern template class BasicRoutingTable<net::Ipv4Family>;
extern template class BasicRoutingTable<net::Ipv6Family>;

}  // namespace tass::bgp
