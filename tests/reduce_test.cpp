// Tests for bgp/reduce: family-generic exact aggregation and the
// overshoot-bounded greedy reduction, plus the scan-layer consumers
// (ScanScope::of_reduced, ScanScope6::of_reduced).
#include "bgp/reduce.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/interval.hpp"
#include "scan/blocklist.hpp"
#include "scan/scope.hpp"

namespace tass::bgp {
namespace {

using net::Ipv4Address;
using net::Ipv6Address;
using net::Ipv6Prefix;
using net::Prefix;

Prefix pfx(const char* text) { return Prefix::parse_or_throw(text); }
Ipv6Prefix pfx6(const char* text) {
  return Ipv6Prefix::parse_or_throw(text);
}

// ---- exact aggregation ------------------------------------------------

TEST(Aggregate, DuplicatesAndNestingCollapse) {
  const std::vector<Prefix> input = {pfx("10.0.0.0/16"), pfx("10.0.0.0/16"),
                                     pfx("10.0.3.0/24"), pfx("10.0.0.0/24")};
  const auto out = BasicAggregate<net::Ipv4Family>::aggregate(input);
  EXPECT_EQ(out, std::vector<Prefix>{pfx("10.0.0.0/16")});
}

TEST(Aggregate, SiblingCascade) {
  // Four /26 tiles cascade all the way up to the /24.
  const std::vector<Prefix> input = {
      pfx("192.0.2.192/26"), pfx("192.0.2.0/26"), pfx("192.0.2.64/26"),
      pfx("192.0.2.128/26")};
  const auto out = BasicAggregate<net::Ipv4Family>::aggregate(input);
  EXPECT_EQ(out, std::vector<Prefix>{pfx("192.0.2.0/24")});
}

TEST(Aggregate, V6SiblingsAcrossTheWordBoundary) {
  // /65 pair merges on the low word's MSB...
  const auto lo = BasicAggregate<net::Ipv6Family>::aggregate(
      std::vector<Ipv6Prefix>{pfx6("2001:db8::/65"),
                              pfx6("2001:db8:0:0:8000::/65")});
  EXPECT_EQ(lo, std::vector<Ipv6Prefix>{pfx6("2001:db8::/64")});
  // ...and a /64 pair merges on the high word's LSB.
  const auto hi = BasicAggregate<net::Ipv6Family>::aggregate(
      std::vector<Ipv6Prefix>{pfx6("2001:db8:0:1::/64"),
                              pfx6("2001:db8::/64")});
  EXPECT_EQ(hi, std::vector<Ipv6Prefix>{pfx6("2001:db8::/63")});
}

TEST(Aggregate, UnionSizeOfTheFullSpaces) {
  // v4 /0 is exactly 2^32 addresses, whether given directly or as two
  // halves that cascade into it.
  const std::vector<Prefix> full = {pfx("0.0.0.0/0")};
  EXPECT_EQ(BasicAggregate<net::Ipv4Family>::union_size(full),
            std::uint64_t{1} << 32);
  const std::vector<Prefix> halves = {pfx("0.0.0.0/1"), pfx("128.0.0.0/1")};
  EXPECT_EQ(BasicAggregate<net::Ipv4Family>::union_size(halves),
            std::uint64_t{1} << 32);
  // v6 ::/0 is 2^64 /64 units — saturated to u64 max.
  const std::vector<Ipv6Prefix> full6 = {pfx6("::/0")};
  EXPECT_EQ(BasicAggregate<net::Ipv6Family>::union_size(full6),
            ~std::uint64_t{0});
}

// ---- reduction --------------------------------------------------------

TEST(Reduce, ZeroBudgetDegeneratesToExactAggregation) {
  const std::vector<Prefix> input = {pfx("10.0.0.0/24"), pfx("10.0.1.0/24"),
                                     pfx("10.0.3.0/24")};
  ReduceParams params;
  params.max_overshoot = 0.0;
  const auto result = reduce(std::span<const Prefix>(input), params);
  // The sibling pair merges for free; the /24 across the hole does not.
  const std::vector<Prefix> expected = {pfx("10.0.0.0/23"),
                                        pfx("10.0.3.0/24")};
  EXPECT_EQ(result.prefixes, expected);
  EXPECT_EQ(result.overshoot_addresses, 0u);
}

TEST(Reduce, FillsAHoleWhenTheBudgetAllows) {
  // 3 of the 4 /24s under a /22: merging costs 256 of 768 addresses, so
  // a 34% cap admits it and a 33% cap does not.
  const std::vector<Prefix> input = {pfx("10.0.0.0/24"), pfx("10.0.2.0/24"),
                                     pfx("10.0.3.0/24")};
  ReduceParams params;
  params.max_overshoot = 0.34;
  const auto merged = reduce(std::span<const Prefix>(input), params);
  EXPECT_EQ(merged.prefixes, std::vector<Prefix>{pfx("10.0.0.0/22")});
  EXPECT_EQ(merged.overshoot_addresses, 256u);
  // The sibling pair collapses during aggregation; only the costed fill
  // counts as a greedy merge.
  EXPECT_EQ(merged.merges, 1u);

  params.max_overshoot = 0.33;
  const auto kept = reduce(std::span<const Prefix>(input), params);
  const std::vector<Prefix> expected = {pfx("10.0.0.0/24"),
                                        pfx("10.0.2.0/23")};
  EXPECT_EQ(kept.prefixes, expected);
  EXPECT_EQ(kept.overshoot_addresses, 0u);
}

TEST(Reduce, ResultIsAlwaysASupersetOfTheInput) {
  const std::vector<Prefix> input = {
      pfx("10.0.0.0/24"),   pfx("10.0.5.0/24"), pfx("10.0.9.0/24"),
      pfx("192.0.2.0/28"),  pfx("192.0.2.64/28")};
  for (const double cap : {0.0, 0.01, 0.5, 4.0}) {
    ReduceParams params;
    params.max_overshoot = cap;
    const auto result = reduce(std::span<const Prefix>(input), params);
    const auto cover = net::IntervalSet::of_prefixes(result.prefixes);
    for (const Prefix p : input) {
      EXPECT_TRUE(cover.contains_all(net::Interval::of(p)))
          << p.to_string() << " lost at cap " << cap;
    }
    EXPECT_LE(result.overshoot_fraction(), cap + 1e-12);
  }
}

TEST(Reduce, MinPrefixesFloorStopsReduction) {
  // Gapped /24s: the exact aggregate keeps all five (no free sibling
  // merges), so only the greedy loop can shrink the list — which is
  // the stage the floor governs.
  const std::vector<Prefix> input = {pfx("10.0.0.0/24"), pfx("10.0.2.0/24"),
                                     pfx("10.0.4.0/24"), pfx("10.0.6.0/24"),
                                     pfx("10.0.8.0/24")};
  ReduceParams params;
  params.max_overshoot = 100.0;  // budget would merge everything
  params.min_prefixes = 3;
  const auto result = reduce(std::span<const Prefix>(input), params);
  EXPECT_EQ(result.prefixes.size(), 3u);
  // A floor at (or above) the aggregate size returns the aggregate.
  params.min_prefixes = 16;
  const auto untouched = reduce(std::span<const Prefix>(input), params);
  EXPECT_EQ(untouched.prefixes,
            BasicAggregate<net::Ipv4Family>::aggregate(input));
  EXPECT_EQ(untouched.merges, 0u);
}

TEST(Reduce, CurveIsMonotoneAndAnchoredAtTheAggregate) {
  std::vector<Prefix> input;
  for (std::uint32_t i = 0; i < 64; ++i) {
    // Every other /24 under 10.0.0.0/16: all merges cost something.
    input.emplace_back(Ipv4Address((10u << 24) | (2 * i << 8)), 24);
  }
  ReduceParams params;
  params.max_overshoot = 2.0;
  const auto result = reduce(std::span<const Prefix>(input), params);
  ASSERT_FALSE(result.curve.empty());
  EXPECT_EQ(result.curve.front().prefixes, result.aggregated_prefixes);
  EXPECT_EQ(result.curve.front().overshoot_addresses, 0u);
  for (std::size_t i = 1; i < result.curve.size(); ++i) {
    EXPECT_LT(result.curve[i].prefixes, result.curve[i - 1].prefixes);
    EXPECT_GE(result.curve[i].overshoot_addresses,
              result.curve[i - 1].overshoot_addresses);
  }
  EXPECT_EQ(result.curve.back().prefixes, result.prefixes.size());
  EXPECT_EQ(result.curve.back().overshoot_addresses,
            result.overshoot_addresses);
}

TEST(Reduce, OutputCarriesNoMergeableSiblings) {
  const std::vector<Prefix> input = {
      pfx("10.0.0.0/24"), pfx("10.0.1.0/24"), pfx("10.0.2.0/24"),
      pfx("10.4.0.0/24"), pfx("10.4.1.0/24")};
  ReduceParams params;
  params.max_overshoot = 0.0;
  const auto result = reduce(std::span<const Prefix>(input), params);
  // Re-aggregating the output changes nothing: every free merge was
  // taken before the budget could bind.
  EXPECT_EQ(BasicAggregate<net::Ipv4Family>::aggregate(result.prefixes),
            result.prefixes);
}

TEST(Reduce, EmptyAndSingletonInputs) {
  const auto empty = reduce(std::span<const Prefix>{});
  EXPECT_TRUE(empty.prefixes.empty());
  EXPECT_EQ(empty.reduction_ratio(), 1.0);
  EXPECT_EQ(empty.overshoot_fraction(), 0.0);

  const std::vector<Prefix> one = {pfx("203.0.113.0/24")};
  const auto single = reduce(std::span<const Prefix>(one));
  EXPECT_EQ(single.prefixes, one);
  EXPECT_EQ(single.merges, 0u);
  ASSERT_EQ(single.curve.size(), 1u);
  EXPECT_EQ(single.curve[0].prefixes, 1u);
}

TEST(Reduce, V6UnitsAccountPerSlash64) {
  // 3 of 4 /50s under a /48: the fill admits one /50 = 2^14 /64 units.
  const std::vector<Ipv6Prefix> input = {pfx6("2001:db8::/50"),
                                         pfx6("2001:db8:0:8000::/50"),
                                         pfx6("2001:db8:0:c000::/50")};
  ReduceParams params;
  params.max_overshoot = 0.5;
  const auto result = reduce(std::span<const Ipv6Prefix>(input), params);
  EXPECT_EQ(result.prefixes, std::vector<Ipv6Prefix>{pfx6("2001:db8::/48")});
  EXPECT_EQ(result.overshoot_addresses, std::uint64_t{1} << 14);
  EXPECT_EQ(result.original_addresses, 3u * (std::uint64_t{1} << 14));
}

TEST(Reduce, V6CoverageSurvivesBelowTheUnitGranularity) {
  // Lengths past /64 count one unit each, but the merge geometry still
  // works on exact 128-bit spans: a /127 pair is a free merge, a gapped
  // pair costs real addresses.
  const std::vector<Ipv6Prefix> input = {pfx6("2001:db8::/127"),
                                         pfx6("2001:db8::2/127"),
                                         pfx6("2001:db8::8/126")};
  ReduceParams params;
  params.max_overshoot = 4.0;
  const auto result = reduce(std::span<const Ipv6Prefix>(input), params);
  ASSERT_FALSE(result.prefixes.empty());
  for (const Ipv6Prefix p : input) {
    const bool covered =
        std::any_of(result.prefixes.begin(), result.prefixes.end(),
                    [&](Ipv6Prefix r) { return r.contains(p); });
    EXPECT_TRUE(covered) << p.to_string();
  }
}

// ---- scan-layer consumers ---------------------------------------------

TEST(ReduceScope, OfReducedKeepsEveryOriginalAddress) {
  const std::vector<Prefix> selection = {
      pfx("198.18.0.0/26"), pfx("198.18.0.64/26"), pfx("198.18.0.192/26"),
      pfx("198.18.4.0/24")};
  scan::Blocklist blocklist;
  bgp::ReduceResult stats;
  ReduceParams params;
  params.max_overshoot = 0.25;
  const auto scope =
      scan::ScanScope::of_reduced(selection, blocklist, params, &stats);
  EXPECT_LT(stats.prefixes.size(),
            BasicAggregate<net::Ipv4Family>::aggregate(selection).size());

  // Every original address is in scope...
  for (const Prefix p : selection) {
    EXPECT_TRUE(scope.targets().contains_all(net::Interval::of(p)));
  }
  // ...and indexing the reduced targets counts each address once.
  const net::AddressIndexer indexer(scope.targets());
  EXPECT_EQ(indexer.size(), scope.address_count());
}

TEST(ReduceScope, BlocklistStillAppliesAfterReduction) {
  const std::vector<Prefix> selection = {pfx("198.18.0.0/24"),
                                         pfx("198.18.2.0/24")};
  scan::Blocklist blocklist;
  blocklist.add(pfx("198.18.2.0/25"));
  ReduceParams params;
  params.max_overshoot = 1.0;  // merges across the 198.18.1.0/24 hole
  const auto scope =
      scan::ScanScope::of_reduced(selection, blocklist, params);
  EXPECT_FALSE(scope.contains(Ipv4Address::parse_or_throw("198.18.2.7")));
  EXPECT_TRUE(scope.contains(Ipv4Address::parse_or_throw("198.18.2.200")));
  EXPECT_TRUE(scope.contains(Ipv4Address::parse_or_throw("198.18.0.1")));
}

TEST(ReduceScope, V6OfReducedAdmitsEveryOriginalCandidate) {
  const std::vector<Ipv6Prefix> selection = {pfx6("2001:db8::/52"),
                                             pfx6("2001:db8:0:1000::/52"),
                                             pfx6("2001:db8:0:3000::/52")};
  const std::vector<Ipv6Address> hitlist = {
      Ipv6Address::parse_or_throw("2001:db8::1"),
      Ipv6Address::parse_or_throw("2001:db8:0:1fff::2"),
      Ipv6Address::parse_or_throw("2001:db8:0:3000::3"),
      Ipv6Address::parse_or_throw("2001:db8:ffff::4"),  // outside
  };
  scan::Blocklist blocklist;
  scan::ScanScope6 exact(selection, blocklist);
  bgp::ReduceResult6 stats;
  ReduceParams params;
  params.max_overshoot = 0.5;
  auto reduced =
      scan::ScanScope6::of_reduced(selection, blocklist, params, &stats);
  EXPECT_LT(stats.prefixes.size(), selection.size());

  const std::size_t exact_admitted = exact.add_candidates(hitlist);
  const std::size_t reduced_admitted = reduced.add_candidates(hitlist);
  EXPECT_EQ(exact_admitted, 3u);
  EXPECT_GE(reduced_admitted, exact_admitted);
  for (const Ipv6Address address : hitlist) {
    if (exact.contains(address)) {
      EXPECT_TRUE(reduced.contains(address))
          << address.to_string() << " lost by reduction";
    }
  }
}

}  // namespace
}  // namespace tass::bgp
