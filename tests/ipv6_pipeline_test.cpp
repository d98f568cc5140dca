// End-to-end coverage of the family-generic IPv6 pipeline: pfx2as6
// ingest, l/m classification and 128-bit deaggregation, partition
// attribution and churn, density ranking and selection, blocklist and
// scan scope, and the TSIM image round-trip — every stage through the
// same library types the v4 pipeline uses.
#include <gtest/gtest.h>

#include <algorithm>
#include <concepts>
#include <span>
#include <string>
#include <vector>

#include "bgp/deaggregate.hpp"
#include "bgp/pfx2as.hpp"
#include "bgp/rib.hpp"
#include "census/hitlist6.hpp"
#include "core/ranking.hpp"
#include "core/selection.hpp"
#include "net/family.hpp"
#include "scan/blocklist.hpp"
#include "scan/scope.hpp"
#include "state/image.hpp"
#include "util/rng.hpp"

namespace tass {
namespace {

net::Ipv6Prefix p6(const char* text) {
  return net::Ipv6Prefix::parse_or_throw(text);
}
net::Ipv6Address a6(const char* text) {
  return net::Ipv6Address::parse_or_throw(text);
}

constexpr const char* kTable =
    "2001:db8::\t32\t64500\n"
    "2001:db8:1000::\t36\t64501\n"
    "2001:db8:5000::\t48\t64505\n"
    "2001:db8:8000::\t33\t64508\n"
    "# comment line\n"
    "\n"
    "2620:1::\t48\t64509,64510\n";

TEST(Pfx2As6, ParsesRecordsSkipsCommentsAndMultiOrigin) {
  const auto records = bgp::parse_pfx2as6(kTable);
  ASSERT_EQ(records.size(), 5u);
  EXPECT_EQ(records[0].prefix, p6("2001:db8::/32"));
  EXPECT_EQ(records[0].origins, (std::vector<std::uint32_t>{64500}));
  EXPECT_EQ(records[4].origins, (std::vector<std::uint32_t>{64509, 64510}));
}

TEST(Pfx2As6, StrictRejectsV4AndMalformed) {
  EXPECT_THROW(bgp::parse_pfx2as6("1.2.3.0\t24\t65000\n"), ParseError);
  EXPECT_THROW(bgp::parse_pfx2as6("2001:db8::\t129\t65000\n"), ParseError);
  EXPECT_THROW(bgp::parse_pfx2as6("2001:db8::\t32\n"), ParseError);
  std::size_t skipped = 0;
  const auto records = bgp::parse_pfx2as6(
      "2001:db8::\t32\t65000\n1.2.3.0\t24\t65000\n", /*strict=*/false,
      &skipped);
  EXPECT_EQ(records.size(), 1u);
  EXPECT_EQ(skipped, 1u);
}

TEST(Pfx2As6, FormatRoundTrips) {
  const auto records = bgp::parse_pfx2as6(kTable);
  const auto echoed = bgp::parse_pfx2as6(bgp::format_pfx2as6(records));
  EXPECT_EQ(records, echoed);
}

TEST(GenericPrefix, ParsesBothFamiliesAndConverts) {
  const auto v4 = net::GenericPrefix::parse_or_throw("10.0.0.0/8");
  EXPECT_EQ(v4.family(), net::AddressFamily::kIpv4);
  EXPECT_EQ(*v4.v4(), net::Prefix::parse_or_throw("10.0.0.0/8"));
  EXPECT_FALSE(v4.v6().has_value());

  const auto v6 = net::GenericPrefix::parse_or_throw("2001:db8::/32");
  EXPECT_EQ(v6.family(), net::AddressFamily::kIpv6);
  EXPECT_EQ(*v6.v6(), p6("2001:db8::/32"));
  EXPECT_EQ(v6.to_string(), "2001:db8::/32");

  // Bare addresses are full-length prefixes.
  EXPECT_EQ(net::GenericPrefix::parse_or_throw("2001:db8::1").length(), 128);
  EXPECT_EQ(net::GenericPrefix::parse_or_throw("192.0.2.1").length(), 32);
  EXPECT_FALSE(net::GenericPrefix::parse("not-an-address").has_value());
}

TEST(Ipv6PrefixContract, ParseCanonicalisesParseStrictRejects) {
  // The v4/v6 parse contracts are aligned: parse() canonicalises host
  // bits away, parse_strict() rejects them.
  EXPECT_EQ(p6("2001:db8::1/64"), p6("2001:db8::/64"));
  EXPECT_FALSE(net::Ipv6Prefix::parse_strict("2001:db8::1/64").has_value());
  EXPECT_TRUE(net::Ipv6Prefix::parse_strict("2001:db8::/64").has_value());
  EXPECT_FALSE(net::Ipv6Prefix::parse_strict("2001:db8::/129").has_value());
}

TEST(Deaggregate6, Figure2OnV6Prefixes) {
  // The paper's /8-with-/12 example, transposed: a /32 with an announced
  // /36 deaggregates into {/33, /34, /35, /36-sibling, /36}.
  const auto tiles =
      bgp::deaggregate(p6("2001:db8::/32"),
                       std::vector<net::Ipv6Prefix>{p6("2001:db8:1000::/36")});
  const std::vector<net::Ipv6Prefix> expected = {
      p6("2001:db8::/36"),     p6("2001:db8:1000::/36"),
      p6("2001:db8:2000::/35"), p6("2001:db8:4000::/34"),
      p6("2001:db8:8000::/33")};
  EXPECT_EQ(tiles, expected);
}

TEST(PrefixPartition6, LocateManyAndUnits) {
  bgp::PrefixPartition6 partition(
      {p6("2001:db8::/36"), p6("2001:db8:1000::/36"), p6("2620:1::/64"),
       p6("2620:2::/72")});
  // /36 covers 2^28 /64s; /64 is one; /72 floors to one unit.
  EXPECT_EQ(net::Ipv6Family::prefix_units(p6("2001:db8::/36")),
            std::uint64_t{1} << 28);
  EXPECT_EQ(net::Ipv6Family::prefix_units(p6("2620:1::/64")), 1u);
  EXPECT_EQ(net::Ipv6Family::prefix_units(p6("2620:2::/72")), 1u);
  EXPECT_EQ(partition.address_count(), (std::uint64_t{1} << 29) + 2);

  const std::vector<net::Ipv6Address> addresses = {
      a6("2001:db8::1"), a6("2001:db8:1000::2"), a6("2620:1::3"),
      a6("2620:2:0:0:ff00::1"), a6("::1")};
  std::vector<std::uint32_t> cells(addresses.size());
  partition.locate_many(addresses, cells);
  EXPECT_EQ(cells[0], 0u);
  EXPECT_EQ(cells[1], 1u);
  EXPECT_EQ(cells[2], 2u);
  EXPECT_EQ(cells[3], bgp::PrefixPartition6::kNoCell);  // outside the /72
  EXPECT_EQ(cells[4], bgp::PrefixPartition6::kNoCell);

  EXPECT_THROW(bgp::PrefixPartition6(
                   {p6("2001:db8::/36"), p6("2001:db8::/40")}),
               Error);
}

TEST(PrefixPartition6, ApplyDeltaAndRerankMatchFromScratch) {
  util::Rng rng(2026);
  std::vector<net::Ipv6Prefix> prefixes;
  for (std::uint64_t i = 0; i < 48; ++i) {
    prefixes.emplace_back(
        net::Ipv6Address(0x2001000000000000ULL | (i << 40), 0), 28);
  }
  bgp::PrefixPartition6 partition(prefixes);
  std::vector<std::uint32_t> counts(partition.size());
  for (auto& count : counts) {
    count = static_cast<std::uint32_t>(rng.bounded(50));
  }
  auto ranking =
      core::rank_by_density(counts, partition, core::PrefixMode::kMore);

  bgp::PartitionDelta6 delta;
  delta.remove.push_back(partition.prefix(5));
  delta.remove.push_back(partition.prefix(11));
  delta.add.push_back(partition.prefix(5).lower_half());
  delta.add.push_back(partition.prefix(5).upper_half());
  const auto result = partition.apply_delta(delta);
  EXPECT_EQ(result.removed_cells.size(), 2u);
  EXPECT_EQ(result.added_cells.size(), 2u);
  EXPECT_EQ(partition.live_cells(), 48u);
  EXPECT_EQ(partition.free_cells(), 0u);

  result.reindex(counts);
  for (const std::uint32_t cell : result.added_cells) {
    counts[cell] = static_cast<std::uint32_t>(1 + rng.bounded(20));
  }
  core::rerank_cells(ranking, counts, partition, result);

  // Bit-identical to the from-scratch ranking (the same contract the v4
  // delta differential suite enforces).
  const auto fresh =
      core::rank_by_density(counts, partition, core::PrefixMode::kMore);
  ASSERT_EQ(ranking.ranked.size(), fresh.ranked.size());
  for (std::size_t i = 0; i < fresh.ranked.size(); ++i) {
    EXPECT_EQ(ranking.ranked[i].prefix, fresh.ranked[i].prefix);
    EXPECT_EQ(ranking.ranked[i].hosts, fresh.ranked[i].hosts);
    EXPECT_EQ(ranking.ranked[i].density, fresh.ranked[i].density);
    EXPECT_EQ(ranking.ranked[i].host_share, fresh.ranked[i].host_share);
  }
}

TEST(Ranking6, DensityIsPerSlash64AndSelectionStops) {
  bgp::PrefixPartition6 partition(
      {p6("2001:db8::/48"), p6("2001:db9::/32"), p6("2001:dba::/64")});
  // 10 hosts in a /48 (65536 /64s), 10 in a /32 (2^32 /64s), 3 in a /64.
  const std::vector<std::uint32_t> counts = {10, 10, 3};
  const auto ranking =
      core::rank_by_density(counts, partition, core::PrefixMode::kLess);
  ASSERT_EQ(ranking.ranked.size(), 3u);
  EXPECT_EQ(ranking.ranked[0].prefix, p6("2001:dba::/64"));  // 3 per /64
  EXPECT_DOUBLE_EQ(ranking.ranked[0].density, 3.0);
  EXPECT_EQ(ranking.ranked[1].prefix, p6("2001:db8::/48"));
  EXPECT_DOUBLE_EQ(ranking.ranked[1].density, 10.0 / 65536.0);
  EXPECT_EQ(ranking.total_hosts, 23u);

  core::SelectionParams params;
  params.phi = 0.5;  // 12 of 23 hosts: the /64 plus the /48
  const auto selection = core::select_by_density(ranking, params);
  EXPECT_EQ(selection.k(), 2u);
  EXPECT_EQ(selection.covered_hosts, 13u);
  EXPECT_EQ(selection.selected_addresses, 65537u);
  EXPECT_GT(selection.host_coverage(), 0.5);
}

TEST(Blocklist6, ParsesBothFamiliesAndThrowsOnMalformed) {
  const auto blocklist = scan::Blocklist::parse(
      "192.0.2.0/24\n"
      "2001:db8:dead::/48  # v6 prefix\n"
      "2001:db8:beef::7    # single v6 address\n"
      "198.51.100.7\n");
  EXPECT_TRUE(blocklist.blocks(net::Ipv4Address::parse_or_throw("192.0.2.9")));
  EXPECT_TRUE(blocklist.blocks(a6("2001:db8:dead::1")));
  EXPECT_TRUE(blocklist.blocks(a6("2001:db8:beef::7")));
  EXPECT_FALSE(blocklist.blocks(a6("2001:db8:beef::8")));
  EXPECT_FALSE(blocklist.blocks(a6("2001:db8::1")));
  EXPECT_EQ(blocklist.blocked6().interval_count(), 2u);

  // Malformed lines of either family keep parse-or-throw semantics —
  // nothing is silently dropped.
  EXPECT_THROW(scan::Blocklist::parse("2001:zz8::/32\n"), ParseError);
  EXPECT_THROW(scan::Blocklist::parse("2001:db8::/200\n"), ParseError);
  EXPECT_THROW(scan::Blocklist::parse("2001:db8::-2001:db9::\n"),
               ParseError);
  EXPECT_THROW(scan::Blocklist::parse("999.0.0.1\n"), ParseError);
}

TEST(ScanScope6, FiltersCandidates) {
  scan::Blocklist blocklist;
  blocklist.add(p6("2001:db8:5000:bad::/64"));
  const std::vector<net::Ipv6Prefix> selected = {p6("2001:db8:5000::/48"),
                                                 p6("2001:db8:f000::/52")};
  scan::ScanScope6 scope(selected, blocklist);

  EXPECT_TRUE(scope.contains(a6("2001:db8:5000::1")));
  EXPECT_FALSE(scope.contains(a6("2001:db8:5000:bad::1")));  // blocked
  EXPECT_FALSE(scope.contains(a6("2001:db8:6000::1")));      // unselected

  std::vector<net::Ipv6Address> in_scope;
  for (std::uint64_t i = 0; i < 200; ++i) {
    in_scope.emplace_back(0x20010db850000000ULL, i);
  }
  std::vector<net::Ipv6Address> hitlist = in_scope;
  hitlist.push_back(a6("2001:db8:5000:bad::1"));  // blocked
  hitlist.push_back(a6("2001:db8:6000::1"));      // outside
  util::Rng rng(23);
  rng.shuffle(std::span(hitlist));
  ASSERT_FALSE(std::ranges::is_sorted(hitlist));
  EXPECT_EQ(scope.add_candidates(hitlist), 200u);
  EXPECT_EQ(scope.candidate_count(), 200u);

  // The admitted candidates are exactly the in-scope addresses, in
  // ascending order whatever the input order.
  EXPECT_TRUE(std::ranges::equal(scope.candidates(), in_scope));
}

// Per-family generators for the admission reference: the prefix lengths
// to draw, an anchor address that prefixes of several lengths nest
// around, an address near an anchor, and the neighbours of an address.
template <class Family>
struct AdmissionSpace;

template <>
struct AdmissionSpace<net::Ipv6Family> {
  static constexpr int kLengths[] = {1,  8,  16, 31, 32, 48, 56,  63, 64,
                                     65, 72, 96, 112, 120, 127, 128};
  static net::Ipv6Address anchor(util::Rng& rng) {
    const std::uint64_t hi = 0x20010db800000000ULL | rng.bounded(1 << 20);
    const std::uint64_t lo = rng.chance(0.3) ? ~0ULL : rng();
    return {hi, lo};
  }
  static net::Ipv6Address near(net::Ipv6Address anchor, util::Rng& rng) {
    return {anchor.hi(), anchor.lo() ^ rng.bounded(256)};
  }
  // The address `delta` (+1 or -1) away, wrapping around the space.
  static net::Ipv6Address step(net::Ipv6Address address, int delta) {
    if (delta > 0) {
      return {address.hi() + (address.lo() == ~0ULL), address.lo() + 1};
    }
    return {address.hi() - (address.lo() == 0), address.lo() - 1};
  }
};

template <>
struct AdmissionSpace<net::Ipv4Family> {
  static constexpr int kLengths[] = {1,  8,  12, 16, 20, 23,
                                     24, 25, 28, 30, 31, 32};
  static net::Ipv4Address anchor(util::Rng& rng) {
    const auto value =
        0xc6000000u | static_cast<std::uint32_t>(rng.bounded(1 << 20));
    return net::Ipv4Address(rng.chance(0.3) ? value | 0xffu : value);
  }
  static net::Ipv4Address near(net::Ipv4Address anchor, util::Rng& rng) {
    return net::Ipv4Address(anchor.value() ^
                            static_cast<std::uint32_t>(rng.bounded(256)));
  }
  static net::Ipv4Address step(net::Ipv4Address address, int delta) {
    return net::Ipv4Address(address.value() +
                            static_cast<std::uint32_t>(delta));
  }
};

template <class Family>
class ScanScopes : public ::testing::Test {};

using Families = ::testing::Types<net::Ipv4Family, net::Ipv6Family>;
TYPED_TEST_SUITE(ScanScopes, Families);

// contains(), and for IPv6 the candidate admission, against the
// definition: inside a selected prefix and inside no blocked one.
TYPED_TEST(ScanScopes, AdmissionMatchesPrefixReference) {
  using Family = TypeParam;
  using Space = AdmissionSpace<Family>;
  using Address = typename Family::Address;
  using Prefix = typename Family::Prefix;
  constexpr auto& kLengths = Space::kLengths;
  const Address all_ones = net::BasicInterval<Family>::full_space().last;
  std::size_t admitted_total = 0;
  std::size_t rejected_total = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    util::Rng rng(util::mix64(seed, 0x5c09e6));
    // A few anchors, so prefixes of different lengths around one anchor
    // nest; the zero and the all-ones address put ranges at both ends of
    // the space.
    std::vector<Address> anchors = {Address(), all_ones};
    for (int a = 0; a < 4; ++a) anchors.push_back(Space::anchor(rng));
    const auto random_prefix = [&](int min_length) {
      const Address anchor = anchors[rng.bounded(anchors.size())];
      int length = kLengths[rng.bounded(std::size(kLengths))];
      length = std::max(length, min_length);
      return Prefix(anchor, length);
    };

    std::vector<Prefix> whitelist;
    const std::size_t selected_count = 1 + rng.bounded(12);
    for (std::size_t i = 0; i < selected_count; ++i) {
      whitelist.push_back(random_prefix(0));
    }
    if (seed % 5 == 0) whitelist.emplace_back();  // a /0
    whitelist.push_back(whitelist[rng.bounded(whitelist.size())]);  // a twin

    scan::Blocklist blocklist;
    std::vector<Prefix> blocked;
    const std::size_t block_count = 1 + rng.bounded(6);
    for (std::size_t i = 0; i < block_count; ++i) {
      const Prefix base = whitelist[rng.bounded(whitelist.size())];
      const int longer = std::min(
          Family::kBits, base.length() + 1 + static_cast<int>(rng.bounded(40)));
      switch (rng.bounded(4)) {
        case 0:  // a hole at the selected range's start
          blocked.emplace_back(base.first(), longer);
          break;
        case 1:  // a hole at its end
          blocked.emplace_back(base.last(), longer);
          break;
        case 2: {  // the whole prefix and more
          const int shorter = base.length() - static_cast<int>(rng.bounded(3));
          blocked.emplace_back(base.network(), std::max(0, shorter));
          break;
        }
        default:
          blocked.push_back(random_prefix(8));
          break;
      }
    }
    for (const Prefix& prefix : blocked) blocklist.add(prefix);

    std::vector<Address> candidates = {Address(), all_ones};
    for (const auto* prefixes : {&whitelist, &blocked}) {
      for (const Prefix& prefix : *prefixes) {
        for (const Address edge : {prefix.first(), prefix.last()}) {
          candidates.push_back(edge);
          candidates.push_back(Space::step(edge, -1));
          candidates.push_back(Space::step(edge, +1));
        }
      }
    }
    for (const Address anchor : anchors) {
      candidates.push_back(Space::near(anchor, rng));
    }
    const std::size_t distinct = candidates.size();
    for (std::size_t i = 0; i < distinct / 4; ++i) {
      candidates.push_back(candidates[rng.bounded(distinct)]);  // repeats
    }
    // A long run of one address: a sort bucket that cannot be split.
    const Address run = candidates[rng.bounded(distinct)];
    candidates.insert(candidates.end(), 80, run);
    rng.shuffle(std::span(candidates));

    const auto admitted = [&](Address address) {
      const auto holds = [address](const Prefix& prefix) {
        return prefix.contains(address);
      };
      return std::ranges::any_of(whitelist, holds) &&
             std::ranges::none_of(blocked, holds);
    };
    scan::BasicScanScope<Family> scope(whitelist, blocklist);
    if constexpr (std::same_as<Family, net::Ipv6Family>) {
      const std::size_t split = rng.bounded(candidates.size() + 1);
      const std::span<const Address> all(candidates);
      std::vector<Address> expected;
      for (const auto batch : {all.first(split), all.subspan(split)}) {
        const auto before = expected.size();
        for (const Address address : batch) {
          if (admitted(address)) expected.push_back(address);
        }
        EXPECT_EQ(scope.add_candidates(batch), expected.size() - before)
            << "seed " << seed;
      }
      std::ranges::sort(expected);
      EXPECT_TRUE(std::ranges::equal(scope.candidates(), expected))
          << "seed " << seed;
    }
    for (const Address address : candidates) {
      const bool in_scope = admitted(address);
      admitted_total += in_scope;
      rejected_total += !in_scope;
      EXPECT_EQ(scope.contains(address), in_scope)
          << "seed " << seed << " address " << address.to_string();
    }
  }
  // The generator reaches both outcomes, not one by accident.
  EXPECT_GT(admitted_total, 0u);
  EXPECT_GT(rejected_total, 0u);
}

TEST(Hitlist6, ParsesStrictAndLenient) {
  const auto strict = census::parse_hitlist6(
      "# seeds\n2001:db8::1\n\n2001:db8::2\n");
  EXPECT_EQ(strict,
            (std::vector<net::Ipv6Address>{a6("2001:db8::1"),
                                           a6("2001:db8::2")}));
  EXPECT_THROW(census::parse_hitlist6("garbage\n"), ParseError);
  std::size_t skipped = 0;
  const auto lenient =
      census::parse_hitlist6("2001:db8::1\ngarbage\n", false, &skipped);
  EXPECT_EQ(lenient.size(), 1u);
  EXPECT_EQ(skipped, 1u);
}

TEST(StateImage6, RoundTripsBitIdenticallyWithFamilyInfo) {
  const auto table =
      bgp::RoutingTable6::from_pfx2as(bgp::parse_pfx2as6(kTable));
  const bgp::PrefixPartition6 partition = table.m_partition();
  std::vector<std::uint32_t> counts(partition.size(), 0);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = static_cast<std::uint32_t>(1 + (i * 31) % 97);
  }
  const auto ranking =
      core::rank_by_density(counts, partition, core::PrefixMode::kMore);

  const auto bytes = state::encode_image(partition, ranking);
  EXPECT_EQ(state::image_family(bytes), net::AddressFamily::kIpv6);

  const auto image = state::StateImage6::attach(bytes);
  image.verify();
  EXPECT_EQ(image.info().family, net::AddressFamily::kIpv6);
  EXPECT_EQ(image.info().cell_count, partition.size());
  EXPECT_EQ(image.info().total_hosts, ranking.total_hosts);

  // Borrowed structures answer identically to the originals...
  for (std::size_t i = 0; i < partition.size(); ++i) {
    EXPECT_EQ(image.partition().prefix(i), partition.prefix(i));
  }
  util::Rng rng(7);
  for (int probe = 0; probe < 2000; ++probe) {
    const net::Ipv6Address addr(0x2001000000000000ULL | (rng() >> 16),
                                rng());
    EXPECT_EQ(image.partition().locate(addr), partition.locate(addr));
  }
  // ...and reject mutation (borrowed storage).
  bgp::PartitionDelta6 delta;
  delta.remove.push_back(partition.prefix(0));
  auto borrowed = bgp::PrefixPartition6::from_raw(
      image.partition().raw(), image.index());
  EXPECT_THROW(borrowed.apply_delta(delta), Error);

  // Re-encoding the attached state reproduces the file bit for bit.
  const auto reencoded = state::encode_image(
      image.partition(), image.ranking().materialize());
  EXPECT_EQ(bytes, reencoded);

  // Selection straight off the borrowed ranking view.
  core::SelectionParams params;
  params.phi = 0.9;
  const auto from_image = core::select_by_density(image.ranking(), params);
  const auto from_fresh = core::select_by_density(ranking, params);
  EXPECT_EQ(from_image.prefixes, from_fresh.prefixes);
  EXPECT_EQ(from_image.covered_hosts, from_fresh.covered_hosts);
}

TEST(StateImage6, FingerprintBindsTopology) {
  bgp::PrefixPartition6 partition({p6("2001:db8::/32")});
  const std::vector<std::uint32_t> counts = {5};
  const auto ranking =
      core::rank_by_density(counts, partition, core::PrefixMode::kLess);
  const auto bytes = state::encode_image(partition, ranking);
  const std::uint64_t fingerprint = bgp::partition_fingerprint(partition);
  EXPECT_NO_THROW(state::StateImage6::attach(bytes, fingerprint));
  EXPECT_THROW(state::StateImage6::attach(bytes, fingerprint ^ 1),
               FormatError);
}

}  // namespace
}  // namespace tass
