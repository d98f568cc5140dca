#include "bgp/rib.hpp"

#include <algorithm>
#include <array>

#include "bgp/deaggregate.hpp"
#include "util/error.hpp"

namespace tass::bgp {

namespace {

void merge_origins(std::vector<std::uint32_t>& into,
                   std::span<const std::uint32_t> from) {
  for (const std::uint32_t asn : from) {
    if (std::find(into.begin(), into.end(), asn) == into.end()) {
      into.push_back(asn);
    }
  }
}

// One route per distinct prefix, ascending. A stable sort keeps equal
// prefixes in input order, so `origins_of` merges them first-seen first.
// pfx2as dumps are ascending already; their order is kept as it is.
template <class Route, class Input, class OriginsOf>
std::vector<Route> merge_by_prefix(std::span<const Input> inputs,
                                   OriginsOf origins_of) {
  std::vector<const Input*> order;
  order.reserve(inputs.size());
  for (const Input& input : inputs) order.push_back(&input);
  const auto by_prefix = [](const Input* a, const Input* b) {
    return a->prefix < b->prefix;
  };
  if (!std::is_sorted(order.begin(), order.end(), by_prefix)) {
    std::stable_sort(order.begin(), order.end(), by_prefix);
  }
  std::vector<Route> routes;
  for (const Input* input : order) {
    if (routes.empty() || routes.back().prefix != input->prefix) {
      routes.push_back(Route{input->prefix, {}, false});
    }
    origins_of(routes.back().origins, *input);
  }
  return routes;
}

}  // namespace

template <class Family>
BasicRoutingTable<Family> BasicRoutingTable<Family>::from_pfx2as(
    std::span<const Record> records) {
  BasicRoutingTable table;
  table.routes_ = merge_by_prefix<Route>(
      records, [](std::vector<std::uint32_t>& into, const Record& record) {
        merge_origins(into, record.origins);
      });
  table.classify();
  return table;
}

template <class Family>
BasicRoutingTable<Family> BasicRoutingTable<Family>::from_mrt(
    const MrtRibDump& dump)
    requires std::same_as<Family, net::Ipv4Family>
{
  BasicRoutingTable table;
  table.routes_ = merge_by_prefix<Route>(
      std::span<const MrtRibRecord>(dump.records),
      [](std::vector<std::uint32_t>& into, const MrtRibRecord& record) {
        for (const MrtRibEntry& entry : record.entries) {
          merge_origins(into, entry.origin_set());
        }
      });
  table.classify();
  return table;
}

template <class Family>
void BasicRoutingTable<Family>::classify() {
  // In (network, length) order every ancestor sorts before its
  // descendants, so a stack of the current containment chain classifies
  // each route in one pass. A chain entry strictly contains the next, so
  // the depth is bounded by the number of prefix lengths. The m-prefixes
  // whose nearest announced ancestor is an l-prefix (depth 1) are
  // pairwise disjoint and cover every m-prefix, so summing them yields
  // the union of the m-space, as summing l-prefixes yields the
  // advertised space.
  std::array<Prefix, Family::kBits + 1> chain{};
  std::size_t depth = 0;
  stats_ = RibStats{};
  for (Route& route : routes_) {
    while (depth > 0 && !chain[depth - 1].contains(route.prefix)) --depth;
    route.more_specific = depth > 0;
    const std::uint64_t units = Family::prefix_units(route.prefix);
    if (depth == 0) {
      stats_.advertised_addresses =
          net::saturating_add(stats_.advertised_addresses, units);
    } else {
      ++stats_.m_prefix_count;
      if (depth == 1) {
        stats_.m_prefix_addresses =
            net::saturating_add(stats_.m_prefix_addresses, units);
      }
    }
    chain[depth++] = route.prefix;
  }
  stats_.prefix_count = routes_.size();
  if (stats_.prefix_count > 0) {
    stats_.m_prefix_fraction = static_cast<double>(stats_.m_prefix_count) /
                               static_cast<double>(stats_.prefix_count);
  }
  if (stats_.advertised_addresses > 0) {
    stats_.m_prefix_space_fraction =
        static_cast<double>(stats_.m_prefix_addresses) /
        static_cast<double>(stats_.advertised_addresses);
  }
}

template <class Family>
std::vector<typename Family::Prefix> BasicRoutingTable<Family>::l_prefixes()
    const {
  std::vector<Prefix> out;
  out.reserve(routes_.size() - stats_.m_prefix_count);
  for (const Route& route : routes_) {
    if (!route.more_specific) out.push_back(route.prefix);
  }
  return out;
}

template <class Family>
std::vector<typename Family::Prefix> BasicRoutingTable<Family>::m_prefixes()
    const {
  std::vector<Prefix> out;
  out.reserve(stats_.m_prefix_count);
  for (const Route& route : routes_) {
    if (route.more_specific) out.push_back(route.prefix);
  }
  return out;
}

template <class Family>
BasicPrefixPartition<Family> BasicRoutingTable<Family>::l_partition() const {
  return Partition(l_prefixes());
}

template <class Family>
BasicPrefixPartition<Family> BasicRoutingTable<Family>::m_partition() const {
  // Group announced more-specifics under their covering l-prefix, then
  // deaggregate each l-prefix (Figure 2). Routes are sorted, so the
  // more-specifics of an l-prefix immediately follow it.
  std::vector<Prefix> cells;
  std::vector<Prefix> inside;
  std::size_t i = 0;
  while (i < routes_.size()) {
    TASS_ENSURES(!routes_[i].more_specific);
    const Prefix covering = routes_[i].prefix;
    inside.clear();
    std::size_t j = i + 1;
    while (j < routes_.size() && covering.contains(routes_[j].prefix)) {
      inside.push_back(routes_[j].prefix);
      ++j;
    }
    const auto tiles = deaggregate(covering, inside);
    cells.insert(cells.end(), tiles.begin(), tiles.end());
    i = j;
  }
  return Partition(std::move(cells));
}

template <class Family>
std::vector<BasicPfx2AsRecord<Family>> BasicRoutingTable<Family>::to_pfx2as()
    const {
  std::vector<Record> records;
  records.reserve(routes_.size());
  for (const Route& route : routes_) {
    records.push_back(Record{route.prefix, route.origins});
  }
  return records;
}

template class BasicRoutingTable<net::Ipv4Family>;
template class BasicRoutingTable<net::Ipv6Family>;

}  // namespace tass::bgp
