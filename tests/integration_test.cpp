// Integration tests: end-to-end paths across module boundaries —
// topology -> pfx2as/MRT interchange -> routing table -> census -> TASS
// selection -> scan engine, checking that the analytic evaluation path and
// the simulated-scan path agree exactly.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/tass.hpp"

namespace tass {
namespace {

using census::Protocol;

TEST(Integration, Pfx2AsInterchangeReproducesTheTopology) {
  census::TopologyParams params;
  params.seed = 5150;
  params.l_prefix_count = 150;
  const auto original = census::generate_topology(params);

  const auto path = std::filesystem::temp_directory_path() /
                    "tass_integration.pfx2as";
  bgp::save_pfx2as(path.string(), original->table.to_pfx2as());
  const auto records = bgp::load_pfx2as(path.string());
  std::filesystem::remove(path);

  const auto reloaded = census::topology_from_table(
      bgp::RoutingTable::from_pfx2as(records), params.seed);
  ASSERT_EQ(reloaded->table.size(), original->table.size());
  EXPECT_TRUE(std::equal(original->table.routes().begin(),
                         original->table.routes().end(),
                         reloaded->table.routes().begin()));
  EXPECT_EQ(reloaded->m_partition.size(), original->m_partition.size());
  EXPECT_EQ(reloaded->advertised_addresses,
            original->advertised_addresses);
}

TEST(Integration, MrtInterchangeReproducesTheRoutingTable) {
  census::TopologyParams params;
  params.seed = 31337;
  params.l_prefix_count = 100;
  const auto topo = census::generate_topology(params);

  // Pack the table into an MRT dump and read it back.
  bgp::MrtRibDump dump;
  dump.timestamp = 1441584000;
  dump.collector_id = net::Ipv4Address(1);
  dump.view_name = "integration";
  dump.peers.push_back({net::Ipv4Address(1), net::Ipv4Address(1), 65000});
  std::uint32_t sequence = 0;
  for (const bgp::RouteEntry& route : topo->table.routes()) {
    bgp::MrtRibRecord record;
    record.sequence = sequence++;
    record.prefix = route.prefix;
    bgp::MrtRibEntry entry;
    entry.peer_index = 0;
    entry.as_path.push_back({bgp::AsPathSegment::Kind::kAsSequence,
                             {65000, route.origins.front()}});
    record.entries.push_back(entry);
    dump.records.push_back(std::move(record));
  }
  const auto decoded = bgp::decode_mrt(bgp::encode_mrt(dump));
  const auto table = bgp::RoutingTable::from_mrt(decoded);
  ASSERT_EQ(table.size(), topo->table.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    EXPECT_EQ(table.routes()[i].prefix, topo->table.routes()[i].prefix);
    EXPECT_EQ(table.routes()[i].origins.front(),
              topo->table.routes()[i].origins.front());
    EXPECT_EQ(table.routes()[i].more_specific,
              topo->table.routes()[i].more_specific);
  }
}

TEST(Integration, EngineScanOverSelectionMatchesAnalyticCounts) {
  // The longitudinal evaluator computes found-hosts analytically from
  // per-cell counts; a simulated probe-by-probe scan over the same scope
  // must find exactly the same hosts.
  census::TopologyParams topo_params;
  topo_params.seed = 7474;
  topo_params.l_prefix_count = 120;
  const auto topo = census::generate_topology(topo_params);
  census::SeriesParams series_params;
  series_params.months = 2;
  series_params.host_scale = 0.0008;
  series_params.seed = 8;
  const auto series =
      census::CensusSeries::generate(topo, Protocol::kHttp, series_params);

  core::SelectionParams params;
  params.phi = 0.9;
  const core::TassStrategy strategy(series.month(0), core::PrefixMode::kMore,
                                    params);

  const scan::ScanScope scope(strategy.selection().prefixes,
                              scan::Blocklist{});
  ASSERT_EQ(scope.address_count(), strategy.scanned_addresses());

  for (int month = 0; month < 2; ++month) {
    const census::Snapshot& truth = series.month(month);
    const scan::SnapshotOracle oracle(truth);
    const scan::ScanResult result = scan::ScanEngine().run(scope, oracle);
    EXPECT_EQ(result.stats.responses, strategy.found_hosts(truth))
        << "month " << month;
    EXPECT_EQ(result.stats.probes_sent, strategy.scanned_addresses());
  }
}

TEST(Integration, BlocklistShrinksTheScanWithoutFalseNegativesOutside) {
  census::TopologyParams topo_params;
  topo_params.seed = 555;
  topo_params.l_prefix_count = 80;
  const auto topo = census::generate_topology(topo_params);
  census::PopulationParams pop;
  pop.host_scale = 0.0005;
  const auto snapshot = census::generate_population(
      topo, census::protocol_profile(Protocol::kHttp), pop);

  // Block one occupied cell entirely; the scan must lose exactly its
  // hosts.
  const auto counts = snapshot.counts_per_cell();
  std::uint32_t blocked_cell = 0;
  while (blocked_cell < counts.size() && counts[blocked_cell] == 0) {
    ++blocked_cell;
  }
  ASSERT_LT(blocked_cell, counts.size());
  const net::Prefix blocked_prefix = topo->m_partition.prefix(blocked_cell);

  scan::Blocklist blocklist;
  blocklist.add(blocked_prefix);

  std::vector<net::Prefix> all_cells(topo->m_partition.prefixes().begin(),
                                     topo->m_partition.prefixes().end());
  const scan::ScanScope open(all_cells, scan::Blocklist{});
  const scan::ScanScope filtered(all_cells, blocklist);
  EXPECT_EQ(filtered.address_count(),
            open.address_count() - blocked_prefix.size());

  const scan::SnapshotOracle oracle(snapshot);
  const scan::ScanEngine engine;
  const auto full = engine.run(open, oracle);
  const auto partial = engine.run(filtered, oracle);
  EXPECT_EQ(full.stats.responses, snapshot.total_hosts());
  EXPECT_EQ(partial.stats.responses,
            snapshot.total_hosts() - counts[blocked_cell]);
}

}  // namespace
}  // namespace tass
