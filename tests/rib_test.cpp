// Tests for bgp/rib and bgp/partition: routing-table construction, l/m
// classification, the scanning partitions and address-space accounting —
// worked IPv4 examples plus a property sweep over both address families
// against naive references.
#include "bgp/partition.hpp"
#include "bgp/rib.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>

#include "net/interval.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace tass::bgp {
namespace {

using net::Ipv4Address;
using net::Prefix;

Prefix pfx(const char* text) { return Prefix::parse_or_throw(text); }

std::vector<Pfx2AsRecord> sample_records() {
  return {
      {pfx("10.0.0.0/8"), {100}},
      {pfx("10.0.0.0/12"), {101}},     // m-prefix of 10/8
      {pfx("10.16.0.0/12"), {102}},    // m-prefix of 10/8
      {pfx("10.16.0.0/16"), {103}},    // nested m-prefix
      {pfx("20.0.0.0/8"), {200}},      // standalone l-prefix
      {pfx("30.0.0.0/16"), {300}},     // standalone l-prefix
  };
}

TEST(RoutingTable, ClassifiesLAndM) {
  const auto table = RoutingTable::from_pfx2as(sample_records());
  EXPECT_EQ(table.size(), 6u);

  const auto l = table.l_prefixes();
  ASSERT_EQ(l.size(), 3u);
  EXPECT_EQ(l[0], pfx("10.0.0.0/8"));
  EXPECT_EQ(l[1], pfx("20.0.0.0/8"));
  EXPECT_EQ(l[2], pfx("30.0.0.0/16"));

  const auto m = table.m_prefixes();
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m[0], pfx("10.0.0.0/12"));
  EXPECT_EQ(m[1], pfx("10.16.0.0/12"));
  EXPECT_EQ(m[2], pfx("10.16.0.0/16"));
}

TEST(RoutingTable, StatsAccounting) {
  const auto stats = RoutingTable::from_pfx2as(sample_records()).stats();
  EXPECT_EQ(stats.prefix_count, 6u);
  EXPECT_EQ(stats.m_prefix_count, 3u);
  EXPECT_DOUBLE_EQ(stats.m_prefix_fraction, 0.5);
  EXPECT_EQ(stats.advertised_addresses,
            (1ULL << 24) * 2 + (1ULL << 16));      // 10/8 + 20/8 + 30.0/16
  EXPECT_EQ(stats.m_prefix_addresses, (1ULL << 20) * 2);  // two /12 unions
}

TEST(RoutingTable, LPartitionMatchesLPrefixes) {
  const auto table = RoutingTable::from_pfx2as(sample_records());
  const auto partition = table.l_partition();
  EXPECT_EQ(partition.size(), 3u);
  EXPECT_EQ(partition.address_count(), table.stats().advertised_addresses);
  EXPECT_EQ(partition.locate(Ipv4Address::parse_or_throw("10.200.0.1")), 0u);
  EXPECT_EQ(partition.locate(Ipv4Address::parse_or_throw("20.0.0.1")), 1u);
  EXPECT_FALSE(
      partition.locate(Ipv4Address::parse_or_throw("40.0.0.1")).has_value());
}

TEST(RoutingTable, MPartitionTilesAdvertisedSpace) {
  const auto table = RoutingTable::from_pfx2as(sample_records());
  const auto partition = table.m_partition();
  EXPECT_EQ(partition.address_count(), table.stats().advertised_addresses);
  // Announced m-prefixes appear as exact cells, except those refined by
  // nested announcements.
  EXPECT_TRUE(partition.index_of(pfx("10.0.0.0/12")).has_value());
  EXPECT_TRUE(partition.index_of(pfx("10.16.0.0/16")).has_value());
  EXPECT_FALSE(partition.index_of(pfx("10.16.0.0/12")).has_value());
  // Standalone l-prefix survives whole.
  EXPECT_TRUE(partition.index_of(pfx("20.0.0.0/8")).has_value());
  // Every address maps to exactly one cell that contains it.
  for (const char* text : {"10.0.0.1", "10.16.5.5", "10.31.0.1",
                           "10.200.0.1", "20.1.2.3", "30.0.255.255"}) {
    const auto addr = Ipv4Address::parse_or_throw(text);
    const auto cell = partition.locate(addr);
    ASSERT_TRUE(cell.has_value()) << text;
    EXPECT_TRUE(partition.prefix(*cell).contains(addr));
  }
}

TEST(RoutingTable, Pfx2AsRoundTrip) {
  const auto table = RoutingTable::from_pfx2as(sample_records());
  const auto table2 = RoutingTable::from_pfx2as(table.to_pfx2as());
  EXPECT_TRUE(std::equal(table.routes().begin(), table.routes().end(),
                         table2.routes().begin(), table2.routes().end()));
}

TEST(RoutingTable, FromMrtMatchesPfx2As) {
  MrtRibDump dump;
  dump.collector_id = Ipv4Address(1);
  dump.peers.push_back({Ipv4Address(1), Ipv4Address(1), 65000});
  std::uint32_t sequence = 0;
  for (const Pfx2AsRecord& record : sample_records()) {
    MrtRibRecord rib;
    rib.sequence = sequence++;
    rib.prefix = record.prefix;
    MrtRibEntry entry;
    entry.peer_index = 0;
    entry.as_path.push_back(
        {AsPathSegment::Kind::kAsSequence, {65000, record.origins[0]}});
    rib.entries.push_back(entry);
    dump.records.push_back(rib);
  }
  const auto from_mrt = RoutingTable::from_mrt(dump);
  const auto from_text = RoutingTable::from_pfx2as(sample_records());
  ASSERT_EQ(from_mrt.size(), from_text.size());
  for (std::size_t i = 0; i < from_mrt.size(); ++i) {
    EXPECT_EQ(from_mrt.routes()[i].prefix, from_text.routes()[i].prefix);
    EXPECT_EQ(from_mrt.routes()[i].more_specific,
              from_text.routes()[i].more_specific);
  }
}

TEST(PrefixPartition, RejectsOverlap) {
  EXPECT_THROW(PrefixPartition({pfx("10.0.0.0/8"), pfx("10.0.0.0/12")}),
               Error);
  EXPECT_THROW(PrefixPartition({pfx("10.0.0.0/12"), pfx("10.0.0.0/8")}),
               Error);
  EXPECT_THROW(PrefixPartition({pfx("10.0.0.0/8"), pfx("10.0.0.0/8")}),
               Error);
  EXPECT_NO_THROW(PrefixPartition({pfx("10.0.0.0/9"), pfx("10.128.0.0/9")}));
}

TEST(PrefixPartition, EmptyPartition) {
  const PrefixPartition partition;
  EXPECT_TRUE(partition.empty());
  EXPECT_EQ(partition.address_count(), 0u);
  EXPECT_FALSE(partition.locate(Ipv4Address(0)).has_value());
}

TEST(PrefixPartition, PreservesInputOrder) {
  const PrefixPartition partition(
      {pfx("20.0.0.0/8"), pfx("10.0.0.0/8")});
  EXPECT_EQ(partition.prefix(0), pfx("20.0.0.0/8"));
  EXPECT_EQ(partition.prefix(1), pfx("10.0.0.0/8"));
  EXPECT_EQ(partition.index_of(pfx("10.0.0.0/8")), 1u);
  EXPECT_EQ(partition.locate(Ipv4Address::parse_or_throw("20.5.5.5")), 0u);
}

TEST(PrefixPartition, IntervalSetMatchesAddressCount) {
  const PrefixPartition partition(
      {pfx("10.0.0.0/8"), pfx("11.0.0.0/8"), pfx("192.168.0.0/16")});
  EXPECT_EQ(partition.to_interval_set().address_count(),
            partition.address_count());
}

// --- family-generic property sweep -----------------------------------
//
// Random tables built to stress the l/m split: duplicate prefixes with
// different origin sets, nested chains from a short cover (sometimes the
// /0 root) down to host routes, and siblings / adjacent blocks of
// announced prefixes. Every derived fact is checked against an
// independent, obviously-correct reference.

// `key` plus one unit of the family's least significant address bit.
net::AddressKey next_key(net::AddressKey key, int bits) {
  if (bits <= 64) {
    key.hi += 1ULL << (64 - bits);
  } else if (++key.lo == 0) {
    ++key.hi;
  }
  return key;
}

template <class Family>
std::vector<BasicPfx2AsRecord<Family>> random_records(std::uint64_t seed) {
  using Prefix = typename Family::Prefix;
  constexpr int kBits = Family::kBits;
  util::Rng rng(seed);
  const auto upto = [&](int most) {
    return static_cast<int>(rng.bounded(static_cast<std::uint64_t>(most) + 1));
  };
  std::vector<BasicPfx2AsRecord<Family>> records;
  const auto announce = [&](Prefix prefix) {
    std::vector<std::uint32_t> origins(1 + rng.bounded(3));
    for (auto& asn : origins) asn = 1 + static_cast<std::uint32_t>(upto(5));
    records.push_back({prefix, std::move(origins)});
  };

  // Nested chains along four random anchors, from a short cover (in one
  // table in four the /0 root) down to a host route.
  std::vector<net::AddressKey> anchors(4);
  for (auto& anchor : anchors) {
    anchor = {rng(), rng()};
    int length = rng.chance(0.25) ? 0 : 1 + upto(3);
    for (; length < kBits; length += 1 + upto(kBits / 8 - 1)) {
      announce(Family::make_prefix(anchor, length));
    }
    announce(Family::make_prefix(anchor, kBits));
  }
  // Random prefixes under a random-depth cover of an anchor: the depth
  // decides whether one lies on an anchor's chain or branches off it.
  for (int i = 0; i < 120; ++i) {
    const Prefix cover =
        Family::make_prefix(anchors[rng.bounded(anchors.size())], upto(kBits));
    const net::AddressKey first = Family::first_key(cover);
    const net::AddressKey last = Family::last_key(cover);
    const net::AddressKey key{first.hi | (rng() & (first.hi ^ last.hi)),
                              first.lo | (rng() & (first.lo ^ last.lo))};
    announce(Family::make_prefix(key, 1 + upto(kBits - 1)));
  }
  // Siblings and adjacent same-length blocks of announced prefixes.
  const std::size_t base = records.size();
  for (int i = 0; i < 30; ++i) {
    const Prefix prefix = records[rng.bounded(base)].prefix;
    if (prefix.length() == 0) continue;
    const Prefix parent =
        Family::make_prefix(Family::first_key(prefix), prefix.length() - 1);
    announce(parent.lower_half() == prefix ? parent.upper_half()
                                           : parent.lower_half());
    announce(Family::make_prefix(next_key(Family::last_key(prefix), kBits),
                                 prefix.length()));
  }
  // Re-announcements with different origin sets.
  const std::size_t announced = records.size();
  for (int i = 0; i < 40; ++i) announce(records[rng.bounded(announced)].prefix);
  std::shuffle(records.begin(), records.end(), rng);
  return records;
}

template <class Family>
class RoutingTableProperty : public ::testing::Test {};

using Families = ::testing::Types<net::Ipv4Family, net::Ipv6Family>;
TYPED_TEST_SUITE(RoutingTableProperty, Families);

TYPED_TEST(RoutingTableProperty, MatchesNaiveReferences) {
  using Family = TypeParam;
  using Prefix = typename Family::Prefix;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(::testing::Message() << Family::name() << " seed " << seed);
    const auto records = random_records<Family>(seed);
    const auto table = BasicRoutingTable<Family>::from_pfx2as(records);

    // One route per distinct prefix, ascending; origins merged in record
    // order, first occurrence first.
    std::vector<Prefix> distinct;
    for (const auto& record : records) distinct.push_back(record.prefix);
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    ASSERT_EQ(table.size(), distinct.size());
    for (std::size_t i = 0; i < distinct.size(); ++i) {
      const auto& route = table.routes()[i];
      ASSERT_EQ(route.prefix, distinct[i]);
      std::vector<std::uint32_t> want;
      for (const auto& record : records) {
        if (record.prefix != route.prefix) continue;
        for (const std::uint32_t asn : record.origins) {
          if (std::find(want.begin(), want.end(), asn) == want.end()) {
            want.push_back(asn);
          }
        }
      }
      EXPECT_EQ(route.origins, want) << route.prefix.to_string();
    }

    // more_specific == "some other announced prefix contains it".
    std::vector<Prefix> l_want;
    std::vector<Prefix> m_want;
    for (const auto& route : table.routes()) {
      const bool nested = std::any_of(
          distinct.begin(), distinct.end(), [&](const Prefix& other) {
            return other != route.prefix && other.contains(route.prefix);
          });
      EXPECT_EQ(route.more_specific, nested) << route.prefix.to_string();
      (nested ? m_want : l_want).push_back(route.prefix);
    }
    EXPECT_EQ(table.l_prefixes(), l_want);
    EXPECT_EQ(table.m_prefixes(), m_want);

    // Both partitions tile every l-prefix exactly: their cells, sorted,
    // run contiguously from each l-prefix's first key to its last.
    const auto check_tiling = [&](const BasicPrefixPartition<Family>& part) {
      std::vector<Prefix> cells(part.prefixes().begin(),
                                part.prefixes().end());
      std::sort(cells.begin(), cells.end());
      std::size_t c = 0;
      for (const Prefix& l : l_want) {
        ASSERT_LT(c, cells.size());
        EXPECT_EQ(Family::first_key(cells[c]), Family::first_key(l));
        while (c + 1 < cells.size() && l.contains(cells[c + 1])) {
          EXPECT_EQ(Family::first_key(cells[c + 1]),
                    next_key(Family::last_key(cells[c]), Family::kBits));
          ++c;
        }
        EXPECT_TRUE(l.contains(cells[c]));
        EXPECT_EQ(Family::last_key(cells[c]), Family::last_key(l));
        ++c;
      }
      EXPECT_EQ(c, cells.size());
    };
    const auto l_partition = table.l_partition();
    const auto m_partition = table.m_partition();
    check_tiling(l_partition);
    check_tiling(m_partition);
    EXPECT_EQ(l_partition.size(), l_want.size());
    // Figure 2: every announced prefix is a whole union of m-cells, and
    // one with nothing announced inside it is exactly one cell.
    for (const Prefix& prefix : distinct) {
      const auto cell = m_partition.locate(prefix.network());
      ASSERT_TRUE(cell.has_value());
      EXPECT_TRUE(prefix.contains(m_partition.prefix(*cell)));
      const bool leaf = std::none_of(
          distinct.begin(), distinct.end(), [&](const Prefix& other) {
            return other != prefix && prefix.contains(other);
          });
      if (leaf) {
        EXPECT_EQ(m_partition.prefix(*cell), prefix);
      }
    }

    // Space accounting: saturating sums over l-prefixes and over the
    // maximal m-prefixes.
    const RibStats& stats = table.stats();
    EXPECT_EQ(stats.prefix_count, distinct.size());
    EXPECT_EQ(stats.m_prefix_count, m_want.size());
    std::uint64_t advertised = 0;
    for (const Prefix& l : l_want) {
      advertised = net::saturating_add(advertised, Family::prefix_units(l));
    }
    std::uint64_t m_space = 0;
    for (const Prefix& m : m_want) {
      const bool maximal = std::none_of(
          m_want.begin(), m_want.end(), [&](const Prefix& other) {
            return other != m && other.contains(m);
          });
      if (maximal) {
        m_space = net::saturating_add(m_space, Family::prefix_units(m));
      }
    }
    EXPECT_EQ(stats.advertised_addresses, advertised);
    EXPECT_EQ(stats.m_prefix_addresses, m_space);

    if constexpr (std::is_same_v<Family, net::Ipv4Family>) {
      // The IntervalSet-union figures, bit for bit.
      const auto all = net::IntervalSet::of_prefixes(distinct);
      const auto m_union = net::IntervalSet::of_prefixes(m_want);
      EXPECT_EQ(table.advertised_space(), all);
      EXPECT_EQ(stats.advertised_addresses, all.address_count());
      EXPECT_EQ(stats.m_prefix_addresses, m_union.address_count());
      EXPECT_EQ(stats.m_prefix_fraction,
                static_cast<double>(m_want.size()) /
                    static_cast<double>(distinct.size()));
      EXPECT_EQ(stats.m_prefix_space_fraction,
                static_cast<double>(m_union.address_count()) /
                    static_cast<double>(all.address_count()));
    }
  }
}

}  // namespace
}  // namespace tass::bgp
