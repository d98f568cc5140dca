// Differential suite: sampled-scan estimates vs exhaustive ground truth.
//
// For a grid of (rng seed x probe budget x marking bias) the sampled
// pipeline — plan_sample -> SampledScope -> probe -> estimate_from_sample
// — must produce confidence intervals that cover the exhaustive truth
// over the same frame, for both the responsive population and a planted
// "vulnerable" subpopulation (including the adversarial sparse-biased
// planting the per-cell floor exists for). The engine cross-check pins
// the sampled scope to ScanEngine semantics: run_attributed over the
// materialised scope must agree bit-for-bit with the scope's own probe().
// (The name "differential" puts this file in the ctest label the
// sanitizer CI job runs.)
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "bgp/pfx2as.hpp"
#include "bgp/rib.hpp"
#include "census/population.hpp"
#include "census/protocol.hpp"
#include "census/series.hpp"
#include "census/snapshot_index.hpp"
#include "census/topology.hpp"
#include "core/estimator.hpp"
#include "core/ranking.hpp"
#include "net/interval.hpp"
#include "scan/engine.hpp"
#include "scan/sampled_scope.hpp"
#include "util/rng.hpp"

namespace tass {
namespace {

class SampleDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    census::TopologyParams topo_params;
    topo_params.seed = 47;
    topo_params.l_prefix_count = 400;
    topo_ = census::generate_topology(topo_params);
    census::PopulationParams pop;
    pop.host_scale = 0.002;
    snapshot_ = std::make_unique<census::Snapshot>(census::generate_population(
        topo_, census::protocol_profile(census::Protocol::kHttps), pop));
    ranking_ = std::make_unique<core::DensityRanking>(
        core::rank_by_density(*snapshot_, core::PrefixMode::kMore));
    oracle_ = std::make_unique<census::SnapshotIndex>(*snapshot_);
  }
  static void TearDownTestSuite() {
    oracle_.reset();
    ranking_.reset();
    snapshot_.reset();
    topo_.reset();
  }

  static std::shared_ptr<const census::Topology> topo_;
  static std::unique_ptr<census::Snapshot> snapshot_;
  static std::unique_ptr<core::DensityRanking> ranking_;
  static std::unique_ptr<census::SnapshotIndex> oracle_;
};

std::shared_ptr<const census::Topology> SampleDifferentialTest::topo_;
std::unique_ptr<census::Snapshot> SampleDifferentialTest::snapshot_;
std::unique_ptr<core::DensityRanking> SampleDifferentialTest::ranking_;
std::unique_ptr<census::SnapshotIndex> SampleDifferentialTest::oracle_;

struct Truth {
  std::uint64_t hosts = 0;
  std::uint64_t marked = 0;
};

template <class Design>
Truth exhaustive_truth(const Design& design,
                       const census::SnapshotIndex& oracle,
                       const census::SnapshotIndex& marked) {
  Truth truth;
  for (const auto& row : design.cells) {
    const auto interval = net::Interval::of(row.prefix);
    truth.hosts += oracle.count_responsive(interval);
    truth.marked += marked.count_responsive(interval);
  }
  return truth;
}

TEST_F(SampleDifferentialTest, CisCoverTruthAcrossSeedsBudgetsAndBiases) {
  const std::uint64_t budgets[] = {5'000, 20'000, 80'000};
  const std::uint64_t seeds[] = {1, 2, 3, 4};
  const core::MarkingBias biases[] = {core::MarkingBias::kUniform,
                                      core::MarkingBias::kSparseBiased};
  for (const core::MarkingBias bias : biases) {
    const auto marked = core::mark_hosts(*snapshot_, 0.1, bias, 99);
    ASSERT_EQ(marked.addresses.size(), marked.total_marked);
    const census::SnapshotIndex marked_oracle(marked.addresses);
    for (const std::uint64_t seed : seeds) {
      for (const std::uint64_t budget : budgets) {
        scan::SampleParams params;
        params.budget = budget;
        params.seed = seed;
        const auto design = scan::plan_sample(*ranking_, params);
        ASSERT_GT(design.frame_units, budget)
            << "world too small for a meaningful sample";
        const scan::SampledScope scope(design);
        const auto result = scope.probe(
            [&](net::Ipv4Address addr) { return oracle_->contains(addr); },
            [&](net::Ipv4Address addr) {
              return marked_oracle.contains(addr);
            });
        EXPECT_EQ(result.probes_sent, budget);

        const auto estimate = core::estimate_from_sample(result, *ranking_);
        const Truth truth =
            exhaustive_truth(design, *oracle_, marked_oracle);
        // Conservative CIs (binomial smoothing + stratification + FPC)
        // make nominal 95% coverage an under-statement; the fixed grid
        // is verified to hold exactly.
        EXPECT_TRUE(
            estimate.hosts_ci_covers(static_cast<double>(truth.hosts)))
            << "hosts CI [" << estimate.hosts_low << ", "
            << estimate.hosts_high << "] misses " << truth.hosts
            << " (bias=" << static_cast<int>(bias) << " seed=" << seed
            << " budget=" << budget << ")";
        EXPECT_TRUE(
            estimate.marked_ci_covers(static_cast<double>(truth.marked)))
            << "marked CI [" << estimate.marked_low << ", "
            << estimate.marked_high << "] misses " << truth.marked
            << " (bias=" << static_cast<int>(bias) << " seed=" << seed
            << " budget=" << budget << ")";
        EXPECT_GT(estimate.probe_reduction(), 1.0);
      }
    }
  }
}

TEST_F(SampleDifferentialTest, EngineRunAgreesWithProbeBitForBit) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    scan::SampleParams params;
    params.budget = 20'000;
    params.seed = seed;
    const scan::SampledScope scope(scan::plan_sample(*ranking_, params));
    const auto probed = scope.probe(
        [&](net::Ipv4Address addr) { return oracle_->contains(addr); });

    const scan::ScanEngine engine;
    const scan::SnapshotOracle engine_oracle(*snapshot_);
    const auto attributed = engine.run_attributed(scope.scope(), engine_oracle,
                                                  topo_->m_partition);
    ASSERT_EQ(attributed.result.stats.probes_sent, probed.probes_sent);
    ASSERT_EQ(attributed.result.stats.responses, probed.hits);
    const auto folded = scope.attribute(attributed.cell_counts);
    ASSERT_EQ(folded.cells.size(), probed.cells.size());
    for (std::size_t i = 0; i < folded.cells.size(); ++i) {
      ASSERT_EQ(folded.cells[i].hits, probed.cells[i].hits)
          << "cell " << folded.cells[i].cell << " seed " << seed;
    }
  }
}

TEST_F(SampleDifferentialTest, ExhaustiveBudgetRecoversTruthExactly) {
  // budget >= frame: every cell samples its whole universe, the FPC
  // zeroes the variance, and the estimate degenerates to the exhaustive
  // count — the sampled pipeline is a strict generalisation.
  scan::SampleParams params;
  params.budget = ~0ull >> 1;
  const auto design = scan::plan_sample(*ranking_, params);
  EXPECT_EQ(design.total_draws, design.frame_units);
  const scan::SampledScope scope(design);
  const auto result = scope.probe(
      [&](net::Ipv4Address addr) { return oracle_->contains(addr); });
  const auto estimate = core::estimate_from_sample(result, *ranking_);
  const Truth truth = exhaustive_truth(design, *oracle_, *oracle_);
  EXPECT_DOUBLE_EQ(estimate.estimated_hosts,
                   static_cast<double>(truth.hosts));
  EXPECT_DOUBLE_EQ(estimate.hosts_low, estimate.hosts_high);
}

TEST_F(SampleDifferentialTest, CurveErrorShrinksWithBudget) {
  const std::uint64_t budgets[] = {2'000, 20'000, 200'000};
  scan::SampleParams params;
  params.seed = 3;
  const auto curve = core::estimate_curve(*ranking_, *oracle_, budgets,
                                          params);
  ASSERT_EQ(curve.size(), 3u);
  for (const auto& point : curve) {
    EXPECT_LE(point.probes_sent, point.budget);
    EXPECT_TRUE(point.estimated_hosts >= point.low &&
                point.estimated_hosts <= point.high);
  }
  // More probes, tighter estimate (monotone on this fixed grid).
  EXPECT_LT(curve[2].error, curve[0].error);
}

TEST_F(SampleDifferentialTest, SampledTrendCoversEveryMonthsTruth) {
  // One plan from month 0, re-probed against every month: the sampled
  // trend must track the churned truth inside its CI each month, with a
  // constant footprint (same target list every cycle).
  census::SeriesParams series_params;
  series_params.months = 4;
  series_params.host_scale = 0.002;
  census::CensusSeries series = census::CensusSeries::generate(
      topo_, census::Protocol::kHttps, series_params);

  scan::SampleParams params;
  params.budget = 40'000;
  params.seed = 5;
  const auto points =
      census::sampled_trend(series, core::PrefixMode::kMore, params);
  ASSERT_EQ(points.size(), 4u);
  for (const auto& point : points) {
    EXPECT_EQ(point.month_index, &point - points.data());
    EXPECT_EQ(point.probes_sent, params.budget);
    EXPECT_EQ(point.frame_units, points[0].frame_units);
    EXPECT_GT(point.truth_hosts, 0u);
    EXPECT_TRUE(point.ci_covers_truth())
        << "month " << point.month_index << " CI [" << point.low << ", "
        << point.high << "] misses " << point.truth_hosts;
  }

  // Deterministic in (series, mode, params).
  const auto again =
      census::sampled_trend(series, core::PrefixMode::kMore, params);
  ASSERT_EQ(again.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(again[i].truth_hosts, points[i].truth_hosts);
    EXPECT_DOUBLE_EQ(again[i].estimated_hosts, points[i].estimated_hosts);
    EXPECT_DOUBLE_EQ(again[i].low, points[i].low);
    EXPECT_DOUBLE_EQ(again[i].high, points[i].high);
  }
}

// ---------------------------------------------------------------------
// IPv6: the differential contract over a synthetic hitlist world.

constexpr const char* kTable6 =
    "2001:db8::\t32\t64500\n"
    "2001:db8:8000::\t33\t64501\n"
    "2620:1::\t48\t64502\n"
    "2a00:20::\t40\t64503\n";

// Deterministic responsiveness: ~30% of candidates respond.
bool responds6(net::Ipv6Address addr) {
  return util::mix64(addr.lo(), 0xfeed) % 10 < 3;
}
// Deterministic marking among responders: ~1 in 4.
bool marked6(net::Ipv6Address addr) {
  return util::mix64(addr.lo(), 0xbeef) % 4 == 0;
}

TEST(SampleDifferential6, CisCoverTruthOnCandidateWorld) {
  const auto table =
      bgp::RoutingTable6::from_pfx2as(bgp::parse_pfx2as6(kTable6));
  const auto partition = table.m_partition();

  std::vector<net::Ipv6Address> candidates;
  util::Rng rng(17);
  const net::Ipv6Address bases[] = {
      net::Ipv6Address::parse_or_throw("2001:db8::"),
      net::Ipv6Address::parse_or_throw("2001:db8:8000::"),
      net::Ipv6Address::parse_or_throw("2620:1::"),
      net::Ipv6Address::parse_or_throw("2a00:20::")};
  const std::size_t counts_per[] = {4000, 2500, 900, 300};
  for (std::size_t p = 0; p < 4; ++p) {
    for (std::size_t i = 0; i < counts_per[p]; ++i) {
      candidates.emplace_back(bases[p].hi() | (rng() & 0xffff), rng());
    }
  }

  std::vector<std::uint32_t> cell_counts(partition.size(), 0);
  std::uint64_t attributed = 0;
  std::uint64_t unattributed = 0;
  partition.tally_cells(candidates, cell_counts, attributed, unattributed);
  ASSERT_EQ(attributed, candidates.size());
  const auto ranking = core::rank_by_density(
      std::span<const std::uint32_t>(cell_counts), partition,
      core::PrefixMode::kMore);

  std::vector<std::uint32_t> located(candidates.size());
  partition.locate_many(candidates, located);

  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    for (const std::uint64_t budget : {400ull, 1'200ull, 3'000ull}) {
      scan::SampleParams params;
      params.budget = budget;
      params.seed = seed;
      params.floor = 32;
      const auto design = scan::plan_sample(ranking, params);
      const scan::SampledScope6 scope(design, candidates, partition);
      const auto result = scope.probe(responds6, marked6);
      EXPECT_LE(result.probes_sent, budget);

      const auto estimate =
          core::estimate_from_sample(result, ranking);

      // Exhaustive truth: walk every candidate of every design cell.
      std::set<std::uint32_t> design_cells;
      for (const auto& row : scope.design().cells) {
        design_cells.insert(row.cell);
      }
      Truth truth;
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (!design_cells.contains(located[i])) continue;
        if (!responds6(candidates[i])) continue;
        ++truth.hosts;
        if (marked6(candidates[i])) ++truth.marked;
      }
      EXPECT_TRUE(
          estimate.hosts_ci_covers(static_cast<double>(truth.hosts)))
          << "v6 hosts CI [" << estimate.hosts_low << ", "
          << estimate.hosts_high << "] misses " << truth.hosts
          << " (seed=" << seed << " budget=" << budget << ")";
      EXPECT_TRUE(
          estimate.marked_ci_covers(static_cast<double>(truth.marked)))
          << "v6 marked CI [" << estimate.marked_low << ", "
          << estimate.marked_high << "] misses " << truth.marked
          << " (seed=" << seed << " budget=" << budget << ")";
    }
  }
}

}  // namespace
}  // namespace tass
