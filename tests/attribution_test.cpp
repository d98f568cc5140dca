// Tests for core/attribution and bgp::BasicAggregate: the
// scan-result-to-prefix bridge and CIDR re-aggregation.
#include "core/attribution.hpp"
#include "core/selection.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "bgp/reduce.hpp"
#include "census/population.hpp"
#include "census/topology.hpp"
#include "scan/engine.hpp"

namespace tass {
namespace {

using net::Prefix;
using Aggregate = bgp::BasicAggregate<net::Ipv4Family>;

Prefix pfx(const char* text) { return Prefix::parse_or_throw(text); }

TEST(Attribution, CountsPerCellAndUnattributed) {
  const bgp::PrefixPartition partition(
      {pfx("10.0.0.0/24"), pfx("10.0.1.0/24")});
  const std::vector<std::uint32_t> addresses = {
      pfx("10.0.0.0/24").network().value() + 1,
      pfx("10.0.0.0/24").network().value() + 2,
      pfx("10.0.1.0/24").network().value() + 9,
      pfx("192.0.2.0/24").network().value(),  // outside the partition
  };
  const auto result = core::attribute(addresses, partition);
  ASSERT_EQ(result.counts.size(), 2u);
  EXPECT_EQ(result.counts[0], 2u);
  EXPECT_EQ(result.counts[1], 1u);
  EXPECT_EQ(result.attributed, 3u);
  EXPECT_EQ(result.unattributed, 1u);
}

TEST(Attribution, RankScanResultsMatchesSnapshotPath) {
  // Ranking a simulated scan's raw address list must equal ranking the
  // snapshot's own counts: the two public pipelines are interchangeable.
  census::TopologyParams params;
  params.seed = 17;
  params.l_prefix_count = 80;
  const auto topo = census::generate_topology(params);
  census::PopulationParams pop;
  pop.host_scale = 0.0005;
  const auto snapshot = census::generate_population(
      topo, census::protocol_profile(census::Protocol::kFtp), pop);

  const auto addresses = snapshot.addresses();
  const auto from_scan = core::rank_by_density(
      core::attribute(addresses, topo->m_partition).counts,
      topo->m_partition, core::PrefixMode::kMore);
  const auto from_census =
      core::rank_by_density(snapshot, core::PrefixMode::kMore);

  ASSERT_EQ(from_scan.ranked.size(), from_census.ranked.size());
  EXPECT_EQ(from_scan.total_hosts, from_census.total_hosts);
  for (std::size_t i = 0; i < from_scan.ranked.size(); ++i) {
    EXPECT_EQ(from_scan.ranked[i].prefix, from_census.ranked[i].prefix);
    EXPECT_EQ(from_scan.ranked[i].hosts, from_census.ranked[i].hosts);
  }
}

TEST(Attribution, ParallelShardingMatchesSequential) {
  // Per-shard count vectors merged in shard order must equal the
  // single-threaded tally for any thread count.
  census::TopologyParams params;
  params.seed = 29;
  params.l_prefix_count = 100;
  const auto topo = census::generate_topology(params);
  census::PopulationParams pop;
  pop.host_scale = 0.001;
  const auto snapshot = census::generate_population(
      topo, census::protocol_profile(census::Protocol::kHttps), pop);
  auto addresses = snapshot.addresses();
  // Sprinkle in unrouted addresses so the unattributed tally is exercised.
  addresses.push_back(0x01000001u);
  addresses.push_back(0xFFFFFF01u);
  std::sort(addresses.begin(), addresses.end());

  core::AttributionConfig sequential;
  sequential.threads = 1;
  const auto reference =
      core::attribute(addresses, topo->m_partition, sequential);

  for (const unsigned threads : {0u, 2u, 8u}) {
    core::AttributionConfig config;
    config.threads = threads;
    config.min_addresses_per_shard = 64;  // force real sharding
    const auto parallel =
        core::attribute(addresses, topo->m_partition, config);
    EXPECT_EQ(parallel.counts, reference.counts) << "threads=" << threads;
    EXPECT_EQ(parallel.attributed, reference.attributed);
    EXPECT_EQ(parallel.unattributed, reference.unattributed);
  }
}

TEST(Aggregate, MergesSiblingsAndNesting) {
  const std::vector<Prefix> input = {
      pfx("10.0.0.0/9"), pfx("10.128.0.0/9"),  // siblings -> /8
      pfx("10.0.0.0/16"),                      // nested, absorbed
      pfx("192.168.0.0/24"),
      pfx("192.168.1.0/24"),                   // siblings -> /23
      pfx("172.16.0.0/12"),
  };
  const auto merged = Aggregate::aggregate(input);
  const std::vector<Prefix> expected = {
      pfx("10.0.0.0/8"), pfx("172.16.0.0/12"), pfx("192.168.0.0/23")};
  EXPECT_EQ(merged, expected);
}

TEST(Aggregate, IdempotentAndExact) {
  const std::vector<Prefix> input = {
      pfx("10.0.0.0/24"), pfx("10.0.2.0/24"), pfx("10.0.1.0/24")};
  const auto once = Aggregate::aggregate(input);
  const auto twice = Aggregate::aggregate(once);
  EXPECT_EQ(once, twice);
  EXPECT_EQ(Aggregate::union_size(input), Aggregate::union_size(once));
  EXPECT_EQ(Aggregate::union_size(once), 768u);
  // 10.0.0.0/24 + 10.0.1.0/24 merge to /23; 10.0.2.0/24 stays.
  ASSERT_EQ(once.size(), 2u);
  EXPECT_EQ(once[0], pfx("10.0.0.0/23"));
  EXPECT_EQ(once[1], pfx("10.0.2.0/24"));
}

TEST(Aggregate, UnionSizeDeduplicates) {
  const std::vector<Prefix> overlapping = {
      pfx("10.0.0.0/8"), pfx("10.0.0.0/16"), pfx("10.0.0.0/8")};
  EXPECT_EQ(Aggregate::union_size(overlapping), 1ULL << 24);
}

TEST(Aggregate, SelectionCompactionPreservesTheScope) {
  // Aggregating a TASS selection must not change the scanned address set.
  census::TopologyParams params;
  params.seed = 23;
  params.l_prefix_count = 120;
  const auto topo = census::generate_topology(params);
  census::PopulationParams pop;
  pop.host_scale = 0.0005;
  const auto snapshot = census::generate_population(
      topo, census::protocol_profile(census::Protocol::kHttp), pop);
  const auto ranking =
      core::rank_by_density(snapshot, core::PrefixMode::kMore);
  core::SelectionParams sel;
  sel.phi = 0.9;
  const auto selection = core::select_by_density(ranking, sel);

  const auto compact = Aggregate::aggregate(selection.prefixes);
  EXPECT_LE(compact.size(), selection.prefixes.size());
  EXPECT_EQ(Aggregate::union_size(compact), selection.selected_addresses);
  EXPECT_EQ(net::IntervalSet::of_prefixes(compact),
            net::IntervalSet::of_prefixes(selection.prefixes));
}

}  // namespace
}  // namespace tass
