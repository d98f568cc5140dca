// Tests for census/topology: the buddy allocator and the synthetic
// BGP-table generator.
#include "census/topology.hpp"

#include <gtest/gtest.h>

#include "net/interval.hpp"
#include "net/special_use.hpp"

namespace tass::census {
namespace {

TEST(BuddyAllocator, AllocatesRequestedSizeDisjointly) {
  util::Rng rng(1);
  const std::vector<net::Prefix> pool = {
      net::Prefix::parse_or_throw("10.0.0.0/8")};
  BuddyAllocator allocator(pool);
  EXPECT_EQ(allocator.free_addresses(), 1ULL << 24);

  // A block is disjoint from everything allocated before it exactly when
  // inserting it grows the union by its full size.
  net::IntervalSet used;
  std::uint64_t allocated = 0;
  for (int i = 0; i < 64; ++i) {
    const auto block = allocator.allocate(14, rng);
    ASSERT_TRUE(block.has_value());
    EXPECT_EQ(block->length(), 14);
    EXPECT_TRUE(net::Prefix::parse_or_throw("10.0.0.0/8").contains(*block));
    used.insert(*block);
    allocated += block->size();
    EXPECT_EQ(used.address_count(), allocated);
  }
  // 64 x /14 exactly exhausts a /8.
  EXPECT_EQ(allocated, 1ULL << 24);
  EXPECT_EQ(allocator.free_addresses(), 0u);
  EXPECT_FALSE(allocator.allocate(14, rng).has_value());
}

TEST(BuddyAllocator, SplitsLargerBlocks) {
  util::Rng rng(2);
  BuddyAllocator allocator(
      std::vector<net::Prefix>{net::Prefix::parse_or_throw("10.0.0.0/8")});
  const auto small = allocator.allocate(24, rng);
  ASSERT_TRUE(small.has_value());
  EXPECT_EQ(small->length(), 24);
  EXPECT_EQ(allocator.free_addresses(), (1ULL << 24) - 256);
}

TEST(BuddyAllocator, MixedSizesNeverOverlap) {
  util::Rng rng(3);
  BuddyAllocator allocator(net::scannable_space().to_prefixes());
  net::IntervalSet used;
  std::uint64_t allocated = 0;
  for (int i = 0; i < 500; ++i) {
    const int length = 10 + static_cast<int>(rng.bounded(14));
    const auto block = allocator.allocate(length, rng);
    ASSERT_TRUE(block.has_value());
    used.insert(*block);
    allocated += block->size();
    EXPECT_EQ(used.address_count(), allocated);  // no overlap with earlier
    // Never allocates reserved space.
    EXPECT_FALSE(net::reserved_space().contains(block->network()));
  }
}

TEST(Topology, DeterministicInSeed) {
  TopologyParams params;
  params.seed = 99;
  params.l_prefix_count = 200;
  const auto a = generate_topology(params);
  const auto b = generate_topology(params);
  ASSERT_EQ(a->table.size(), b->table.size());
  EXPECT_TRUE(std::equal(a->table.routes().begin(), a->table.routes().end(),
                         b->table.routes().begin()));
  EXPECT_EQ(a->l_types, b->l_types);
  EXPECT_EQ(a->l_origin_as, b->l_origin_as);

  params.seed = 100;
  const auto c = generate_topology(params);
  EXPECT_FALSE(a->table.size() == c->table.size() &&
               std::equal(a->table.routes().begin(),
                          a->table.routes().end(),
                          c->table.routes().begin()));
}

TEST(Topology, PartitionFingerprintDistinguishesTopologies) {
  TopologyParams params;
  params.l_prefix_count = 80;
  params.seed = 71;
  const auto a = generate_topology(params);
  params.seed = 72;
  const auto b = generate_topology(params);
  EXPECT_EQ(bgp::partition_fingerprint(a->m_partition),
            bgp::partition_fingerprint(a->m_partition));
  EXPECT_NE(bgp::partition_fingerprint(a->m_partition),
            bgp::partition_fingerprint(b->m_partition));
}

TEST(Topology, StructuralInvariants) {
  TopologyParams params;
  params.seed = 5;
  params.l_prefix_count = 300;
  const auto topo = generate_topology(params);

  EXPECT_EQ(topo->l_partition.size(), 300u);
  EXPECT_EQ(topo->advertised_addresses, topo->l_partition.address_count());
  EXPECT_EQ(topo->advertised_addresses, topo->m_partition.address_count());
  EXPECT_EQ(topo->cell_to_l.size(), topo->m_partition.size());
  EXPECT_EQ(topo->l_types.size(), topo->l_partition.size());
  EXPECT_EQ(topo->l_origin_as.size(), topo->l_partition.size());

  // Every m-cell maps to the l-cell that contains it.
  for (std::uint32_t cell = 0; cell < topo->m_partition.size(); ++cell) {
    const net::Prefix cell_prefix = topo->m_partition.prefix(cell);
    const net::Prefix l_prefix =
        topo->l_partition.prefix(topo->cell_to_l[cell]);
    EXPECT_TRUE(l_prefix.contains(cell_prefix));
  }

  // cells_of_l is the inverse mapping, and covers each l exactly.
  for (std::uint32_t l = 0; l < topo->l_partition.size(); ++l) {
    std::uint64_t covered = 0;
    for (const std::uint32_t cell : topo->cells_of_l(l)) {
      EXPECT_EQ(topo->cell_to_l[cell], l);
      covered += topo->m_partition.prefix(cell).size();
    }
    EXPECT_EQ(covered, topo->l_partition.prefix(l).size());
  }
}

TEST(Topology, StatsTrackThePaperScale) {
  TopologyParams params;
  params.seed = 2016;
  params.l_prefix_count = 2000;
  const auto topo = generate_topology(params);
  const auto stats = topo->table.stats();
  // The calibration targets (paper section 3.2): 54% m-prefixes holding
  // ~34% of the advertised space. Generous tolerances; exact values are
  // asserted at full scale by the calibration suite.
  EXPECT_GT(stats.m_prefix_fraction, 0.40);
  EXPECT_LT(stats.m_prefix_fraction, 0.65);
  EXPECT_GT(stats.m_prefix_space_fraction, 0.20);
  EXPECT_LT(stats.m_prefix_space_fraction, 0.45);
  // No prefixes longer than the cap.
  for (const bgp::RouteEntry& route : topo->table.routes()) {
    EXPECT_LE(route.prefix.length(), params.max_prefix_length);
  }
}

TEST(Topology, AnnouncedSpaceAvoidsReservedRanges) {
  TopologyParams params;
  params.seed = 8;
  params.l_prefix_count = 500;
  const auto topo = generate_topology(params);
  const auto advertised = topo->l_partition.to_interval_set();
  EXPECT_TRUE(advertised.intersect(net::reserved_space()).empty());
}

TEST(TopologyFromTable, DerivesStructuresFromExternalRib) {
  const std::vector<bgp::Pfx2AsRecord> records = {
      {net::Prefix::parse_or_throw("10.0.0.0/8"), {100}},
      {net::Prefix::parse_or_throw("10.0.0.0/12"), {101}},
      {net::Prefix::parse_or_throw("20.0.0.0/8"), {200}},
  };
  const auto topo =
      topology_from_table(bgp::RoutingTable::from_pfx2as(records), 1);
  EXPECT_EQ(topo->l_partition.size(), 2u);
  EXPECT_GT(topo->m_partition.size(), 2u);
  EXPECT_EQ(topo->advertised_addresses, 2ULL << 24);
  // Deterministic type assignment from the seed.
  const auto topo2 =
      topology_from_table(bgp::RoutingTable::from_pfx2as(records), 1);
  EXPECT_EQ(topo->l_types, topo2->l_types);
}

}  // namespace
}  // namespace tass::census
