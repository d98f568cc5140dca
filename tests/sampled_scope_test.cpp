// Unit tests for the sampled-scan machinery: the low-discrepancy draw
// primitives (scan/sobol.hpp), the budget allocator and both family
// scopes (scan/sampled_scope.hpp).
#include "scan/sampled_scope.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "bgp/pfx2as.hpp"
#include "bgp/rib.hpp"
#include "census/population.hpp"
#include "census/protocol.hpp"
#include "census/topology.hpp"
#include "core/ranking.hpp"
#include "scan/engine.hpp"
#include "scan/sobol.hpp"
#include "util/rng.hpp"

namespace tass::scan {
namespace {

TEST(Sobol, BitReverseAndRadicalInverse) {
  EXPECT_EQ(bit_reverse(0b1, 3), 0b100u);
  EXPECT_EQ(bit_reverse(0b110, 3), 0b011u);
  EXPECT_EQ(bit_reverse(0, 8), 0u);
  EXPECT_DOUBLE_EQ(radical_inverse(0), 0.0);
  EXPECT_DOUBLE_EQ(radical_inverse(1), 0.5);
  EXPECT_DOUBLE_EQ(radical_inverse(2), 0.25);
  EXPECT_DOUBLE_EQ(radical_inverse(3), 0.75);
}

TEST(Sobol, ProgressiveOrderIsPermutation) {
  for (const std::uint64_t count : {1ull, 2ull, 7ull, 8ull, 100ull, 257ull}) {
    const auto order = progressive_order(count);
    ASSERT_EQ(order.size(), count);
    std::set<std::uint64_t> seen(order.begin(), order.end());
    EXPECT_EQ(seen.size(), count);
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), count - 1);
  }
  EXPECT_TRUE(progressive_order(0).empty());
}

TEST(Sobol, ProgressiveOrderPrefixSpreads) {
  // The first half of the visit order must touch both halves of the
  // range roughly equally — the property that makes an aborted sampled
  // scan still usable.
  const auto order = progressive_order(256);
  std::size_t low_half = 0;
  for (std::size_t i = 0; i < 128; ++i) {
    if (order[i] < 128) ++low_half;
  }
  EXPECT_EQ(low_half, 64u);
}

TEST(Sobol, StratifiedOffsetsOnePerStratum) {
  const std::uint64_t universe = 1000;
  const std::uint64_t draws = 37;
  const auto offsets = stratified_offsets(universe, draws, 42);
  ASSERT_EQ(offsets.size(), draws);
  // Stratum s covers [s*U/n, (s+1)*U/n); exactly one offset must land
  // in each window.
  std::vector<std::uint64_t> per_stratum(draws, 0);
  for (const std::uint64_t offset : offsets) {
    ASSERT_LT(offset, universe);
    for (std::uint64_t s = 0; s < draws; ++s) {
      if (offset >= s * universe / draws &&
          offset < (s + 1) * universe / draws) {
        ++per_stratum[s];
        break;
      }
    }
  }
  for (std::uint64_t s = 0; s < draws; ++s) {
    EXPECT_EQ(per_stratum[s], 1u) << "stratum " << s;
  }
  // Deterministic in the seed.
  EXPECT_EQ(offsets, stratified_offsets(universe, draws, 42));
  EXPECT_NE(offsets, stratified_offsets(universe, draws, 43));
}

TEST(Sobol, StratifiedOffsetsExhaustiveClamp) {
  const auto offsets = stratified_offsets(8, 20, 1);
  ASSERT_EQ(offsets.size(), 8u);
  std::set<std::uint64_t> seen(offsets.begin(), offsets.end());
  EXPECT_EQ(seen.size(), 8u);
  EXPECT_EQ(*seen.rbegin(), 7u);
}

core::DensityRanking tiny_ranking() {
  // Three cells: dense /24, medium /22, sparse /20.
  core::DensityRanking ranking;
  ranking.mode = core::PrefixMode::kMore;
  const struct {
    const char* prefix;
    std::uint32_t cell;
    std::uint64_t hosts;
  } rows[] = {{"10.0.0.0/24", 0, 200},
              {"10.1.0.0/22", 1, 300},
              {"10.2.0.0/20", 2, 100}};
  for (const auto& row : rows) {
    core::RankedPrefix entry;
    entry.index = row.cell;
    entry.prefix = net::Prefix::parse_or_throw(row.prefix);
    entry.size = entry.prefix.size();
    entry.hosts = row.hosts;
    entry.density = static_cast<double>(row.hosts) /
                    static_cast<double>(entry.size);
    ranking.total_hosts += row.hosts;
    ranking.advertised_addresses += entry.size;
    ranking.ranked.push_back(entry);
  }
  for (auto& entry : ranking.ranked) {
    entry.host_share = static_cast<double>(entry.hosts) /
                       static_cast<double>(ranking.total_hosts);
  }
  return ranking;
}

TEST(PlanSample, FloorAndDensityWeightedRemainder) {
  const auto ranking = tiny_ranking();
  SampleParams params;
  params.budget = 600;
  params.floor = 50;
  const auto design = plan_sample(ranking, params);
  ASSERT_EQ(design.cells.size(), 3u);
  EXPECT_EQ(design.total_draws, 600u);
  std::uint64_t draws_by_cell[3] = {};
  for (const auto& row : design.cells) {
    EXPECT_GE(row.draws, 50u);  // the floor
    EXPECT_LE(row.draws, row.universe);
    draws_by_cell[row.cell] = row.draws;
  }
  // Remainder (450) splits ~ proportional to seed hosts 200:300:100.
  EXPECT_GT(draws_by_cell[1], draws_by_cell[0]);
  EXPECT_GT(draws_by_cell[0], draws_by_cell[2]);
  EXPECT_EQ(design.frame_units,
            net::Prefix::parse_or_throw("10.0.0.0/24").size() +
                net::Prefix::parse_or_throw("10.1.0.0/22").size() +
                net::Prefix::parse_or_throw("10.2.0.0/20").size());
}

TEST(PlanSample, CapsAtUniverseAndRedistributes) {
  const auto ranking = tiny_ranking();
  SampleParams params;
  // Hosts weight 200:300:100 pushes the /24 (universe 256) well past
  // its frame; the overflow must land in cells with spare capacity.
  params.budget = 2000;
  const auto design = plan_sample(ranking, params);
  std::uint64_t total = 0;
  for (const auto& row : design.cells) {
    EXPECT_LE(row.draws, row.universe);
    if (row.cell == 0) {
      EXPECT_EQ(row.draws, 256u);  // capped at the /24
    }
    total += row.draws;
  }
  EXPECT_EQ(total, 2000u);  // nothing lost to the cap
}

TEST(PlanSample, BudgetExceedingFrameGoesExhaustive) {
  const auto ranking = tiny_ranking();
  SampleParams params;
  params.budget = 1u << 20;  // more than the whole frame
  const auto design = plan_sample(ranking, params);
  EXPECT_EQ(design.total_draws, design.frame_units);
  EXPECT_DOUBLE_EQ(design.probe_reduction(), 1.0);
}

TEST(PlanSample, StarvedBudgetKeepsDensestCells) {
  const auto ranking = tiny_ranking();
  SampleParams params;
  params.budget = 100;
  params.floor = 50;  // can fund the floor for only 2 of 3 cells
  const auto design = plan_sample(ranking, params);
  ASSERT_EQ(design.cells.size(), 2u);
  // Ranking order is density descending: /24 (200/256) then /22.
  EXPECT_EQ(design.cells[0].cell, 0u);
  EXPECT_EQ(design.cells[1].cell, 1u);
  EXPECT_EQ(design.total_draws, 100u);
}

TEST(PlanSample, PhiSelectsTheRankingPrefix) {
  const auto ranking = tiny_ranking();
  SampleParams params;
  params.budget = 100;
  params.floor = 10;
  params.phi = 0.3;  // the densest cell (200/600 = 0.33) suffices
  const auto design = plan_sample(ranking, params);
  ASSERT_EQ(design.cells.size(), 1u);
  EXPECT_EQ(design.cells[0].cell, 0u);
}

TEST(PlanSample, DeterministicInInputs) {
  const auto ranking = tiny_ranking();
  SampleParams params;
  params.budget = 777;
  const auto a = plan_sample(ranking, params);
  const auto b = plan_sample(ranking, params);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].draws, b.cells[i].draws);
  }
}

TEST(SampledScope, TargetsLandInsideTheirCells) {
  const auto ranking = tiny_ranking();
  SampleParams params;
  params.budget = 500;
  params.seed = 9;
  const auto design = plan_sample(ranking, params);
  const SampledScope scope(design);
  EXPECT_EQ(scope.target_count(), design.total_draws);
  EXPECT_EQ(scope.scope().address_count(), design.total_draws);
  for (std::size_t i = 0; i < design.cells.size(); ++i) {
    const auto& row = design.cells[i];
    const auto targets = scope.cell_targets(i);
    EXPECT_EQ(targets.size(), row.draws);
    for (const net::Ipv4Address addr : targets) {
      EXPECT_TRUE(row.prefix.contains(addr))
          << addr.to_string() << " outside " << row.prefix.to_string();
    }
    // Distinct targets (strata are disjoint).
    std::set<net::Ipv4Address> unique(targets.begin(), targets.end());
    EXPECT_EQ(unique.size(), targets.size());
  }
}

TEST(SampledScope, ProbeMatchesEngineRunOverScope) {
  // The engine consumes scope() unchanged; per-cell attribution of the
  // engine run must equal the scope's own probe() rows.
  census::TopologyParams topo_params;
  topo_params.seed = 47;
  topo_params.l_prefix_count = 120;
  const auto topo = census::generate_topology(topo_params);
  census::PopulationParams pop;
  pop.host_scale = 0.002;
  const auto snapshot = census::generate_population(
      topo, census::protocol_profile(census::Protocol::kHttps), pop);
  const auto ranking =
      core::rank_by_density(snapshot, core::PrefixMode::kMore);

  SampleParams params;
  params.budget = 20'000;
  params.floor = 8;
  const SampledScope scope(plan_sample(ranking, params));

  const SnapshotOracle oracle(snapshot);
  const auto probed = scope.probe(
      [&](net::Ipv4Address addr) { return snapshot.contains(addr); });

  const ScanEngine engine;
  const auto attributed =
      engine.run_attributed(scope.scope(), oracle, topo->m_partition);
  EXPECT_EQ(attributed.result.stats.probes_sent, probed.probes_sent);
  EXPECT_EQ(attributed.result.stats.responses, probed.hits);

  const auto folded = scope.attribute(attributed.cell_counts);
  ASSERT_EQ(folded.cells.size(), probed.cells.size());
  for (std::size_t i = 0; i < folded.cells.size(); ++i) {
    EXPECT_EQ(folded.cells[i].hits, probed.cells[i].hits)
        << "cell " << folded.cells[i].cell;
  }
}

TEST(SampledScope6, SubsamplesCandidateListsPerCell) {
  const auto records = bgp::parse_pfx2as6(
      "2001:db8::\t32\t64500\n"
      "2001:db8:8000::\t33\t64501\n"
      "2620:1::\t48\t64502\n");
  const auto table = bgp::RoutingTable6::from_pfx2as(records);
  const auto partition = table.m_partition();

  // Deterministic candidates spread over the three prefixes.
  std::vector<net::Ipv6Address> candidates;
  util::Rng rng(11);
  const net::Ipv6Address bases[] = {
      net::Ipv6Address::parse_or_throw("2001:db8::"),
      net::Ipv6Address::parse_or_throw("2001:db8:8000::"),
      net::Ipv6Address::parse_or_throw("2620:1::")};
  const std::size_t counts[] = {400, 150, 50};
  for (std::size_t p = 0; p < 3; ++p) {
    for (std::size_t i = 0; i < counts[p]; ++i) {
      candidates.emplace_back(bases[p].hi() | (rng() & 0xffff),
                              rng());
    }
  }

  std::vector<std::uint32_t> cell_counts(partition.size(), 0);
  std::uint64_t attributed = 0;
  std::uint64_t unattributed = 0;
  partition.tally_cells(candidates, cell_counts, attributed, unattributed);
  ASSERT_EQ(attributed, candidates.size());
  const auto ranking = core::rank_by_density(cell_counts, partition,
                                             core::PrefixMode::kMore);

  SampleParams params;
  params.budget = 120;
  params.floor = 10;
  const auto design = plan_sample(ranking, params);
  const SampledScope6 scope(design, candidates, partition);

  EXPECT_EQ(scope.target_count(), scope.design().total_draws);
  EXPECT_LE(scope.design().total_draws, params.budget);
  std::set<net::Ipv6Address> candidate_set(candidates.begin(),
                                           candidates.end());
  std::uint64_t universe_total = 0;
  for (std::size_t i = 0; i < scope.design().cells.size(); ++i) {
    const auto& row = scope.design().cells[i];
    // Re-capped universe = the cell's actual candidate count.
    EXPECT_EQ(row.universe, cell_counts[row.cell]);
    EXPECT_LE(row.draws, row.universe);
    universe_total += row.universe;
    const auto targets = scope.cell_targets(i);
    EXPECT_EQ(targets.size(), row.draws);
    for (const net::Ipv6Address addr : targets) {
      EXPECT_TRUE(candidate_set.contains(addr));
      EXPECT_TRUE(row.prefix.contains(addr));
    }
    std::set<net::Ipv6Address> unique(targets.begin(), targets.end());
    EXPECT_EQ(unique.size(), targets.size());
  }
  EXPECT_EQ(scope.design().frame_units, universe_total);

  // Probing the candidate membership itself hits every draw.
  const auto result = scope.probe([&](net::Ipv6Address addr) {
    return candidate_set.contains(addr);
  });
  EXPECT_EQ(result.hits, result.probes_sent);
}

}  // namespace
}  // namespace tass::scan
