// Randomized churn-replay differential suite for the incremental delta
// pipeline (PR-2-style: seeded generators, an independent from-scratch
// oracle, exact equality).
//
// Per seed, a synthetic world (disjoint prefix table + host population)
// replays >= 10 churn steps. Each step draws BGP churn (withdrawals,
// deaggregation splits, aggregation merges, reorigins) and host churn,
// round-trips the RibDelta through the MRT BGP4MP update codec, patches
// the partition in place, and runs core::churn_step. After every step the
// delta-applied state must be *bit-identical* to a full rebuild:
//   * stats         == one probe per address of every rescanned cell,
//                      hits read off the full rescan,
//   * counts        == re-attributing the whole scope from scratch,
//   * ranking       == rank_by_density over the same partition (every
//                      field, float bits included),
//   * LpmIndex      == a fresh index built from the patched entry table,
//   * partition     == a freshly constructed partition over the live
//                      prefix set (semantically: locate -> same prefix),
//   * fresh ranking == the incremental one on (prefix, hosts, density,
//                      host_share), cell numbering aside.
// The same step is replayed from the same pre-step state with half the
// added cells held back (they stay 0 and out of the stats) and with no
// oracle (nothing is probed, added cells score zero). A cell ending at
// 255.255.255.255 is split on every step, so each step adds two adjacent
// cells, one of them ending at the all-ones address.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <vector>

#include "bgp/partition.hpp"
#include "bgp/rib_delta.hpp"
#include "census/topology.hpp"
#include "core/ranking.hpp"
#include "core/reseed.hpp"
#include "net/interval.hpp"
#include "scan/engine.hpp"
#include "scan/scope.hpp"
#include "util/rng.hpp"

namespace tass {
namespace {

// Probe oracle over a sorted, duplicate-free address vector: each
// interval query is two binary searches.
class VectorOracle final : public scan::ProbeOracle {
 public:
  explicit VectorOracle(std::vector<std::uint32_t> hosts)
      : hosts_(std::move(hosts)) {}

  std::uint64_t count_responsive(net::Interval interval) const override {
    return static_cast<std::uint64_t>(
        std::upper_bound(hosts_.begin(), hosts_.end(),
                         interval.last.value()) -
        std::lower_bound(hosts_.begin(), hosts_.end(),
                         interval.first.value()));
  }

 private:
  std::vector<std::uint32_t> hosts_;
};

std::vector<std::uint32_t> attribute_from_scratch(
    const bgp::PrefixPartition& partition, const scan::ProbeOracle& oracle,
    const scan::ScanEngine& engine) {
  const scan::ScanScope scope(
      net::IntervalSet::of_prefixes(partition.live_prefixes()));
  return engine.run_attributed(scope, oracle, partition).cell_counts;
}

void expect_rankings_bit_identical(const core::DensityRanking& got,
                                   const core::DensityRanking& want) {
  EXPECT_EQ(got.mode, want.mode);
  EXPECT_EQ(got.total_hosts, want.total_hosts);
  EXPECT_EQ(got.advertised_addresses, want.advertised_addresses);
  ASSERT_EQ(got.ranked.size(), want.ranked.size());
  for (std::size_t i = 0; i < got.ranked.size(); ++i) {
    const core::RankedPrefix& a = got.ranked[i];
    const core::RankedPrefix& b = want.ranked[i];
    ASSERT_EQ(a.index, b.index) << "rank " << i;
    ASSERT_EQ(a.prefix, b.prefix) << "rank " << i;
    ASSERT_EQ(a.size, b.size) << "rank " << i;
    ASSERT_EQ(a.hosts, b.hosts) << "rank " << i;
    // Exact float equality is the contract, not a tolerance.
    ASSERT_EQ(a.density, b.density) << "rank " << i;
    ASSERT_EQ(a.host_share, b.host_share) << "rank " << i;
  }
}

struct World {
  std::vector<bgp::Pfx2AsRecord> table;   // live routes, any order
  std::vector<std::uint32_t> hosts;       // sorted responsive addresses
};

World generate_world(std::uint64_t seed) {
  util::Rng rng(seed);
  const std::vector<net::Prefix> space{
      net::Prefix::parse_or_throw("4.0.0.0/6"),
      net::Prefix::parse_or_throw("64.0.0.0/6"),
      net::Prefix::parse_or_throw("128.0.0.0/6"),
      net::Prefix::parse_or_throw("196.0.0.0/6"),
  };
  census::BuddyAllocator allocator(space);
  World world;
  for (int i = 0; i < 2200; ++i) {
    const int length = 18 + static_cast<int>(rng.bounded(11));  // /18../28
    const auto prefix = allocator.allocate(length, rng);
    if (!prefix) continue;
    world.table.push_back(
        {*prefix, {static_cast<std::uint32_t>(1 + rng.bounded(500))}});
  }
  for (const auto& record : world.table) {
    if (!rng.chance(0.6)) continue;
    const std::uint64_t population = 1 + rng.bounded(16);
    for (std::uint64_t h = 0; h < population; ++h) {
      world.hosts.push_back(record.prefix.network().value() +
                            static_cast<std::uint32_t>(
                                rng.bounded(record.prefix.size())));
    }
  }
  std::sort(world.hosts.begin(), world.hosts.end());
  world.hosts.erase(std::unique(world.hosts.begin(), world.hosts.end()),
                    world.hosts.end());
  return world;
}

// Draws one step of BGP churn against the current table: withdrawals,
// deaggregation splits, aggregation merges, and reorigins.
bgp::RibDelta draw_churn(const std::vector<bgp::Pfx2AsRecord>& table,
                         util::Rng& rng) {
  std::vector<std::size_t> order(table.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(std::span(order));

  // Sorted prefix view for sibling lookups.
  std::vector<net::Prefix> sorted;
  sorted.reserve(table.size());
  for (const auto& record : table) sorted.push_back(record.prefix);
  std::sort(sorted.begin(), sorted.end());
  const auto is_live = [&](net::Prefix p) {
    return std::binary_search(sorted.begin(), sorted.end(), p);
  };

  bgp::RibDelta delta;
  std::vector<bool> used(table.size(), false);
  std::size_t cursor = 0;
  const auto next_unused = [&]() -> std::optional<std::size_t> {
    while (cursor < order.size() && used[order[cursor]]) ++cursor;
    if (cursor == order.size()) return std::nullopt;
    used[order[cursor]] = true;
    return order[cursor++];
  };

  const std::size_t withdrawals = 1 + rng.bounded(10);
  for (std::size_t k = 0; k < withdrawals; ++k) {
    if (const auto i = next_unused()) {
      delta.withdraw.push_back(table[*i].prefix);
    }
  }
  const std::size_t splits = 1 + rng.bounded(8);
  for (std::size_t k = 0; k < splits; ++k) {
    if (const auto i = next_unused()) {
      const net::Prefix prefix = table[*i].prefix;
      if (prefix.length() >= 30) continue;  // withdrawn, never split
      delta.withdraw.push_back(prefix);
      delta.announce.push_back({prefix.lower_half(), table[*i].origins});
      delta.announce.push_back({prefix.upper_half(), table[*i].origins});
    }
  }
  const std::size_t merges = 1 + rng.bounded(6);
  for (std::size_t k = 0; k < merges; ++k) {
    if (const auto i = next_unused()) {
      const net::Prefix prefix = table[*i].prefix;
      const net::Prefix sibling = prefix.sibling();
      if (prefix.length() == 0 || !is_live(sibling)) continue;
      // Only merge when the sibling is unused so far this step.
      const auto sib = std::find_if(
          table.begin(), table.end(),
          [&](const bgp::Pfx2AsRecord& r) { return r.prefix == sibling; });
      const auto sib_index =
          static_cast<std::size_t>(sib - table.begin());
      if (used[sib_index]) continue;
      used[sib_index] = true;
      delta.withdraw.push_back(prefix);
      delta.withdraw.push_back(sibling);
      delta.announce.push_back({prefix.parent(), table[*i].origins});
    }
  }
  const std::size_t reorigins = 1 + rng.bounded(6);
  for (std::size_t k = 0; k < reorigins; ++k) {
    if (const auto i = next_unused()) {
      delta.reorigin.push_back(
          {table[*i].prefix,
           {table[*i].origins.front() + 1 +
            static_cast<std::uint32_t>(rng.bounded(100))}});
    }
  }

  const auto by_prefix = [](const bgp::Pfx2AsRecord& a,
                            const bgp::Pfx2AsRecord& b) {
    return a.prefix < b.prefix;
  };
  std::sort(delta.announce.begin(), delta.announce.end(), by_prefix);
  std::sort(delta.withdraw.begin(), delta.withdraw.end());
  std::sort(delta.reorigin.begin(), delta.reorigin.end(), by_prefix);
  delta.validate();
  return delta;
}

// Splits the table's cell ending at 255.255.255.255 into its halves on
// top of `delta`, unless the delta already touches it or it is a /32.
// That cell's prefix is the table's largest, so the appended entries keep
// the delta's lists sorted.
void split_top_cell(bgp::RibDelta& delta,
                    const std::vector<bgp::Pfx2AsRecord>& table) {
  const auto top = std::find_if(
      table.begin(), table.end(), [](const bgp::Pfx2AsRecord& record) {
        return record.prefix.last().value() == 0xFFFFFFFFu;
      });
  if (top == table.end() || top->prefix.length() == 32) return;
  const bool touched =
      std::find(delta.withdraw.begin(), delta.withdraw.end(),
                top->prefix) != delta.withdraw.end() ||
      std::any_of(delta.reorigin.begin(), delta.reorigin.end(),
                  [&](const bgp::Pfx2AsRecord& record) {
                    return record.prefix == top->prefix;
                  });
  if (touched) return;
  delta.withdraw.push_back(top->prefix);
  delta.announce.push_back({top->prefix.lower_half(), top->origins});
  delta.announce.push_back({top->prefix.upper_half(), top->origins});
  delta.validate();
}

// A churn step that rescanned exactly `cells` must report one probe per
// address of each and the hits the full rescan `counts_ref` holds there.
void expect_rescan_stats(const core::ChurnStepStats& got,
                         const bgp::PrefixPartition& partition,
                         std::span<const std::uint32_t> cells,
                         const std::vector<std::uint32_t>& counts_ref) {
  std::uint64_t addresses = 0;
  std::uint64_t hits = 0;
  for (const std::uint32_t cell : cells) {
    addresses += partition.prefix(cell).size();
    hits += counts_ref[cell];
  }
  EXPECT_EQ(got.rescanned_cells, cells.size());
  EXPECT_EQ(got.rescanned_addresses, addresses);
  EXPECT_EQ(got.rescan_hits, hits);
}

TEST(DeltaDifferentialTest, ChurnReplayMatchesFullRebuildEveryStep) {
  // Coverage of the step's edge inputs, summed over every seed and step.
  std::uint64_t adjacent_added = 0;
  std::uint64_t all_ones_added = 0;
  std::uint64_t held_with_hosts = 0;
  constexpr int kSteps = 12;
  for (const std::uint64_t seed : {101ull, 202ull, 303ull, 404ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(util::mix64(seed, 1));
    World world = generate_world(seed);
    world.table.push_back(
        {net::Prefix::parse_or_throw("255.255.255.0/24"), {65000}});
    for (const std::uint32_t host : {0xFFFFFF00u, 0xFFFFFF7Fu, 0xFFFFFF80u,
                                     0xFFFFFFC1u, 0xFFFFFFFEu,
                                     0xFFFFFFFFu}) {
      world.hosts.push_back(host);  // above every generated host: sorted
    }

    std::vector<net::Prefix> initial;
    initial.reserve(world.table.size());
    for (const auto& record : world.table) initial.push_back(record.prefix);
    bgp::PrefixPartition partition(initial);

    const scan::ScanEngine engine;

    VectorOracle oracle(world.hosts);
    std::vector<std::uint32_t> counts =
        attribute_from_scratch(partition, oracle, engine);
    core::DensityRanking ranking =
        core::rank_by_density(counts, partition, core::PrefixMode::kMore);

    for (int step = 0; step < kSteps; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));

      // --- BGP churn, round-tripped through the MRT update codec ------
      bgp::RibDelta delta = draw_churn(world.table, rng);
      split_top_cell(delta, world.table);
      const auto wire = bgp::encode_mrt_updates(
          delta, static_cast<std::uint32_t>(1441584000 + step));
      std::size_t skipped = 99;
      const bgp::RibDelta decoded =
          bgp::rebased(bgp::decode_mrt_updates(wire, &skipped), world.table);
      EXPECT_EQ(skipped, 0u);
      ASSERT_EQ(decoded, delta);  // the wire carries the delta faithfully

      world.table = delta.apply(world.table);
      std::vector<net::Prefix> target;
      target.reserve(world.table.size());
      for (const auto& record : world.table) target.push_back(record.prefix);

      // --- patch the partition in place -------------------------------
      const bgp::PartitionDelta pdelta = partition_delta(partition, target);
      EXPECT_EQ(pdelta.remove.size(), delta.withdraw.size());
      EXPECT_EQ(pdelta.add.size(), delta.announce.size());
      const bgp::PartitionApplyResult applied =
          partition.apply_delta(pdelta);

      // --- host churn -------------------------------------------------
      std::vector<std::uint32_t> touched_addresses;
      {
        // Deaths: drop a small sample of existing hosts.
        const std::size_t deaths =
            std::min<std::size_t>(world.hosts.size(), 1 + rng.bounded(30));
        for (std::size_t k = 0; k < deaths && !world.hosts.empty(); ++k) {
          const auto victim =
              static_cast<std::size_t>(rng.bounded(world.hosts.size()));
          touched_addresses.push_back(world.hosts[victim]);
          world.hosts.erase(world.hosts.begin() +
                            static_cast<std::ptrdiff_t>(victim));
        }
        // Births: new hosts inside random live cells.
        const std::size_t births = 1 + rng.bounded(30);
        for (std::size_t k = 0; k < births; ++k) {
          const auto slot =
              static_cast<std::size_t>(rng.bounded(partition.size()));
          if (!partition.live(slot)) continue;
          const net::Prefix prefix = partition.prefix(slot);
          const std::uint32_t address =
              prefix.network().value() +
              static_cast<std::uint32_t>(rng.bounded(prefix.size()));
          touched_addresses.push_back(address);
          world.hosts.push_back(address);
        }
        std::sort(world.hosts.begin(), world.hosts.end());
        world.hosts.erase(
            std::unique(world.hosts.begin(), world.hosts.end()),
            world.hosts.end());
      }
      // Dirty cells: wherever a touched address lives now, minus the
      // delta's added cells (those are rescanned regardless).
      std::vector<std::uint32_t> dirty;
      for (const std::uint32_t address : touched_addresses) {
        if (const auto cell = partition.locate(net::Ipv4Address(address))) {
          dirty.push_back(*cell);
        }
      }
      std::sort(dirty.begin(), dirty.end());
      dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
      std::erase_if(dirty, [&](std::uint32_t cell) {
        return std::binary_search(applied.added_cells.begin(),
                                  applied.added_cells.end(), cell);
      });

      std::vector<net::Prefix> added = pdelta.add;
      std::sort(added.begin(), added.end());
      for (std::size_t i = 1; i < added.size(); ++i) {
        if (added[i - 1].last().value() + 1ull == added[i].network().value()) {
          ++adjacent_added;
        }
      }
      if (!added.empty() && added.back().last().value() == 0xFFFFFFFFu) {
        ++all_ones_added;
      }

      // --- the incremental step under test ----------------------------
      // Held and oracle-less replays start from the same pre-step state.
      core::DensityRanking held_ranking = ranking;
      std::vector<std::uint32_t> held_counts = counts;
      core::DensityRanking blind_ranking = ranking;
      std::vector<std::uint32_t> blind_counts = counts;

      VectorOracle churned_oracle(world.hosts);
      const core::ChurnStepStats stats = core::churn_step(
          ranking, counts, partition, applied, &churned_oracle, dirty);
      EXPECT_LE(stats.rescanned_addresses, partition.address_count());

      // --- full-rebuild references ------------------------------------
      // 1. Counts: re-attribute the whole live scope from scratch.
      const std::vector<std::uint32_t> counts_ref =
          attribute_from_scratch(partition, churned_oracle, engine);
      ASSERT_EQ(counts, counts_ref);
      std::vector<std::uint32_t> rescanned(applied.added_cells.begin(),
                                           applied.added_cells.end());
      rescanned.insert(rescanned.end(), dirty.begin(), dirty.end());
      expect_rescan_stats(stats, partition, rescanned, counts_ref);

      // 1a. Held cells: every other added cell is held back. Held cells
      // stay 0 and out of the stats; every other cell is the full rescan.
      {
        SCOPED_TRACE("held cells");
        std::vector<std::uint32_t> held;
        std::vector<std::uint32_t> probed;
        for (std::size_t i = 0; i < applied.added_cells.size(); ++i) {
          (i % 2 == 0 ? held : probed).push_back(applied.added_cells[i]);
        }
        probed.insert(probed.end(), dirty.begin(), dirty.end());
        const core::ChurnStepStats held_stats =
            core::churn_step(held_ranking, held_counts, partition, applied,
                             &churned_oracle, dirty, held);
        std::vector<std::uint32_t> want = counts_ref;
        for (const std::uint32_t cell : held) {
          if (counts_ref[cell] != 0) ++held_with_hosts;
          want[cell] = 0;
        }
        ASSERT_EQ(held_counts, want);
        expect_rankings_bit_identical(
            held_ranking,
            core::rank_by_density(want, partition, core::PrefixMode::kMore));
        expect_rescan_stats(held_stats, partition, probed, counts_ref);
      }

      // 1b. No oracle: nothing is probed, added cells score zero, and
      // every cell the step did not invalidate agrees with the full
      // rescan.
      {
        SCOPED_TRACE("null oracle");
        std::vector<std::uint32_t> want = blind_counts;
        applied.reindex(want);
        const core::ChurnStepStats blind_stats =
            core::churn_step(blind_ranking, blind_counts, partition,
                             applied, nullptr, dirty);
        ASSERT_EQ(blind_counts, want);
        for (std::size_t cell = 0; cell < want.size(); ++cell) {
          const auto invalidated = [&](std::span<const std::uint32_t> set) {
            return std::find(set.begin(), set.end(), cell) != set.end();
          };
          if (invalidated(applied.added_cells)) {
            ASSERT_EQ(want[cell], 0u) << "cell " << cell;
          } else if (!invalidated(dirty)) {
            ASSERT_EQ(want[cell], counts_ref[cell]) << "cell " << cell;
          }
        }
        expect_rankings_bit_identical(
            blind_ranking,
            core::rank_by_density(want, partition, core::PrefixMode::kMore));
        expect_rescan_stats(blind_stats, partition, {}, counts_ref);
      }

      // 2. Ranking: full re-rank over the same partition, bit for bit.
      expect_rankings_bit_identical(
          ranking, core::rank_by_density(counts_ref, partition,
                                         core::PrefixMode::kMore));

      // 3. LpmIndex: fresh build from the patched entry table.
      const auto table_now = partition.index().entries();
      const trie::LpmIndex fresh_index(
          std::vector<trie::LpmIndex::Entry>(table_now.begin(),
                                             table_now.end()));
      // 4. Partition semantics: a fresh partition over the live prefixes
      // maps every probe to the same prefix (cell numbering aside).
      const bgp::PrefixPartition fresh_partition(partition.live_prefixes());
      EXPECT_EQ(fresh_partition.address_count(), partition.address_count());
      util::Rng probe_rng(util::mix64(seed, 1000 + step));
      std::vector<std::uint32_t> probes;
      for (int k = 0; k < 2000; ++k) {
        probes.push_back(
            static_cast<std::uint32_t>(probe_rng.bounded(1ull << 32)));
      }
      for (const net::Prefix prefix : pdelta.add) {
        probes.insert(probes.end(),
                      {prefix.network().value(), prefix.last().value(),
                       prefix.network().value() - 1,
                       prefix.last().value() + 1});
      }
      for (const std::uint32_t probe : probes) {
        const net::Ipv4Address address(probe);
        ASSERT_EQ(partition.index().lookup(address),
                  fresh_index.lookup(address))
            << address.to_string();
        const auto patched_cell = partition.locate(address);
        const auto fresh_cell = fresh_partition.locate(address);
        ASSERT_EQ(patched_cell.has_value(), fresh_cell.has_value())
            << address.to_string();
        if (patched_cell) {
          ASSERT_EQ(partition.prefix(*patched_cell),
                    fresh_partition.prefix(*fresh_cell))
              << address.to_string();
        }
      }

      // 5. Fresh-pipeline ranking: identical on every index-independent
      // field and in the same order (the prefix tie-break makes the order
      // canonical across cell numberings).
      const core::DensityRanking fresh_ranking = core::rank_by_density(
          attribute_from_scratch(fresh_partition, churned_oracle, engine),
          fresh_partition, core::PrefixMode::kMore);
      ASSERT_EQ(ranking.ranked.size(), fresh_ranking.ranked.size());
      EXPECT_EQ(ranking.total_hosts, fresh_ranking.total_hosts);
      for (std::size_t i = 0; i < ranking.ranked.size(); ++i) {
        const core::RankedPrefix& a = ranking.ranked[i];
        const core::RankedPrefix& b = fresh_ranking.ranked[i];
        ASSERT_EQ(a.prefix, b.prefix) << "rank " << i;
        ASSERT_EQ(a.hosts, b.hosts) << "rank " << i;
        ASSERT_EQ(a.density, b.density) << "rank " << i;
        ASSERT_EQ(a.host_share, b.host_share) << "rank " << i;
      }
    }
  }
  EXPECT_GT(adjacent_added, 0u);
  EXPECT_GT(all_ones_added, 0u);
  EXPECT_GT(held_with_hosts, 0u);
}

}  // namespace
}  // namespace tass
