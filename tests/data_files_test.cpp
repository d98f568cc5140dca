// Integration tests over the checked-in sample data files: the formats a
// real deployment drops in (CAIDA pfx2as, blocklist.conf) must parse and
// behave end to end.
#include <gtest/gtest.h>

#include <string>

#include "bgp/pfx2as.hpp"
#include "bgp/rib.hpp"
#include "census/hitlist6.hpp"
#include "census/topology.hpp"
#include "core/ranking.hpp"
#include "scan/blocklist.hpp"

#ifndef TASS_DATA_DIR
#error "TASS_DATA_DIR must be defined by the build"
#endif

namespace tass {
namespace {

std::string data_path(const char* name) {
  return std::string(TASS_DATA_DIR) + "/" + name;
}

TEST(DataFiles, SamplePfx2AsParsesAndClassifies) {
  const auto records = bgp::load_pfx2as(data_path("sample.pfx2as"));
  ASSERT_GE(records.size(), 20u);

  const auto table = bgp::RoutingTable::from_pfx2as(records);
  const auto stats = table.stats();
  EXPECT_EQ(stats.prefix_count, records.size());
  EXPECT_GT(stats.m_prefix_count, 0u);
  EXPECT_LT(stats.m_prefix_count, stats.prefix_count);

  // Known relationships from the sample: 45.32.0.0/12 sits inside
  // 45.0.0.0/8; 100.0.0.0/12 inside 100.0.0.0/8; the AS-set row parses.
  const auto l = table.l_prefixes();
  const auto m = table.m_prefixes();
  EXPECT_TRUE(std::find(l.begin(), l.end(),
                        net::Prefix::parse_or_throw("45.0.0.0/8")) !=
              l.end());
  EXPECT_TRUE(std::find(m.begin(), m.end(),
                        net::Prefix::parse_or_throw("45.32.0.0/12")) !=
              m.end());
  bool saw_as_set = false;
  for (const bgp::RouteEntry& route : table.routes()) {
    if (route.prefix == net::Prefix::parse_or_throw("128.9.0.0/16")) {
      saw_as_set = route.origins.size() == 3;
    }
  }
  EXPECT_TRUE(saw_as_set);
}

TEST(DataFiles, SamplePfx2AsDrivesTheFullPipeline) {
  const auto records = bgp::load_pfx2as(data_path("sample.pfx2as"));
  const auto topo = census::topology_from_table(
      bgp::RoutingTable::from_pfx2as(records), /*seed=*/3);
  EXPECT_GT(topo->m_partition.size(), topo->l_partition.size());
  EXPECT_EQ(topo->advertised_addresses, topo->m_partition.address_count());
  // Every m-cell still maps into an l-cell.
  for (std::uint32_t cell = 0; cell < topo->m_partition.size(); ++cell) {
    EXPECT_LT(topo->cell_to_l[cell], topo->l_partition.size());
  }
}

TEST(DataFiles, BlocklistConfParses) {
  const auto blocklist = scan::Blocklist::load(data_path("blocklist.conf"));
  EXPECT_TRUE(blocklist.blocks(net::Ipv4Address::parse_or_throw(
      "192.0.2.200")));
  EXPECT_TRUE(blocklist.blocks(net::Ipv4Address::parse_or_throw(
      "203.0.112.17")));
  EXPECT_FALSE(blocklist.blocks(net::Ipv4Address::parse_or_throw(
      "203.0.112.18")));
  EXPECT_TRUE(blocklist.blocks(net::Ipv4Address::parse_or_throw(
      "100.100.0.1")));  // inside the CGN range entry
  EXPECT_FALSE(blocklist.blocks(net::Ipv4Address::parse_or_throw(
      "8.8.8.8")));
  // IPv6 entries land in the v6 scope instead of being dropped.
  EXPECT_TRUE(blocklist.blocks(net::Ipv6Address::parse_or_throw(
      "2001:db8:1234::1")));
  EXPECT_TRUE(blocklist.blocks(net::Ipv6Address::parse_or_throw(
      "2001:4860:dead::1")));
  EXPECT_FALSE(blocklist.blocks(net::Ipv6Address::parse_or_throw(
      "2001:4860:dead::2")));
  EXPECT_EQ(blocklist.blocked6().interval_count(), 2u);
}

TEST(DataFiles, SamplePfx2As6AndHitlistDriveTheV6Pipeline) {
  const auto records = bgp::load_pfx2as6(data_path("sample6.pfx2as"));
  ASSERT_GE(records.size(), 8u);
  const auto table = bgp::RoutingTable6::from_pfx2as(records);
  const bgp::PrefixPartition6 partition = table.m_partition();
  EXPECT_GT(partition.size(), records.size());  // deaggregation split

  const auto hitlist = census::load_hitlist6(data_path("hitlist6.txt"));
  ASSERT_GE(hitlist.size(), 8u);
  std::vector<std::uint32_t> counts(partition.size(), 0);
  std::uint64_t attributed = 0;
  std::uint64_t unattributed = 0;
  partition.tally_cells(hitlist, counts, attributed, unattributed);
  EXPECT_EQ(attributed, hitlist.size());
  EXPECT_EQ(unattributed, 0u);

  const auto ranking =
      core::rank_by_density(counts, partition, core::PrefixMode::kMore);
  EXPECT_GT(ranking.ranked.size(), 0u);
  EXPECT_EQ(ranking.total_hosts, hitlist.size());
}

}  // namespace
}  // namespace tass
