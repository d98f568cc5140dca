// Tests for census/snapshot_index: the rank directory behind the
// batched scan oracle. Counts are cross-checked against brute-force
// per-address membership on interval edge cases.
#include "census/snapshot_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "census/population.hpp"
#include "census/snapshot.hpp"
#include "census/topology.hpp"
#include "util/rng.hpp"

namespace tass::census {
namespace {

using net::Interval;
using net::Ipv4Address;

// Brute force: membership test per address of the inclusive interval.
std::uint64_t brute_count(const std::vector<std::uint32_t>& sorted,
                          Interval interval) {
  const auto lo = std::lower_bound(sorted.begin(), sorted.end(),
                                   interval.first.value());
  const auto hi = std::upper_bound(sorted.begin(), sorted.end(),
                                   interval.last.value());
  return static_cast<std::uint64_t>(hi - lo);
}

std::vector<std::uint32_t> random_addresses(std::uint64_t seed,
                                            std::size_t count) {
  util::Rng rng(seed);
  std::vector<std::uint32_t> addresses;
  addresses.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    // Cluster half the draws into one /16 so full pages, word boundaries
    // and sparse pages all occur.
    const bool clustered = rng.chance(0.5);
    const std::uint32_t base = clustered ? 0x0A0A0000u : 0;
    const std::uint64_t span = clustered ? 1ULL << 16 : 1ULL << 32;
    addresses.push_back(base +
                        static_cast<std::uint32_t>(rng.bounded(span)));
  }
  std::sort(addresses.begin(), addresses.end());
  addresses.erase(std::unique(addresses.begin(), addresses.end()),
                  addresses.end());
  return addresses;
}

// Checks count on every interval against the address list, and
// contains on both ends of every interval.
void expect_agrees(const SnapshotIndex& index,
                   const std::vector<std::uint32_t>& sorted,
                   const std::vector<Interval>& intervals) {
  for (const Interval& interval : intervals) {
    SCOPED_TRACE(testing::Message() << interval.first.value() << "-"
                                    << interval.last.value());
    EXPECT_EQ(index.count_responsive(interval),
              brute_count(sorted, interval));
    for (const Ipv4Address addr : {interval.first, interval.last}) {
      EXPECT_EQ(index.contains(addr),
                std::binary_search(sorted.begin(), sorted.end(),
                                   addr.value()));
    }
  }
}

Interval span(std::uint32_t first, std::uint32_t last) {
  return {Ipv4Address(first), Ipv4Address(last)};
}

TEST(SnapshotIndex, EmptyIndexAnswersNothing) {
  const std::vector<Interval> intervals = {
      span(0, 0), span(~0u, ~0u), span(0x0A000000u, 0x0A00FFFFu),
      Interval::full_space()};
  for (const SnapshotIndex& index :
       {SnapshotIndex(), SnapshotIndex(std::vector<std::uint32_t>{})}) {
    EXPECT_EQ(index.total_responsive(), 0u);
    expect_agrees(index, {}, intervals);
  }
}

TEST(SnapshotIndex, HostsAtTheEdgesOfTheAddressSpace) {
  const std::vector<std::uint32_t> addresses = {0, 1, 0xFFFF, 0x10000,
                                                0xFFFFFFFEu, 0xFFFFFFFFu};
  const SnapshotIndex index(addresses);
  EXPECT_EQ(index.total_responsive(), addresses.size());
  // Intervals ending at ~0u take the end-of-list branch (last + 1 would
  // wrap to 0).
  expect_agrees(index, addresses,
                {span(0, 0), span(0, 1), span(1, 0xFFFF), span(0xFFFF, 0x10000),
                 span(~0u, ~0u), span(0xFFFFFFFEu, ~0u),
                 span(0xFFFFFFFFu - 0xFFFF, ~0u), span(0x10001, ~0u),
                 span(2, 0xFFFFFFFDu), Interval::full_space()});
}

TEST(SnapshotIndex, DenseSixteenAndARunStraddlingTwoSixteens) {
  std::vector<std::uint32_t> addresses;
  // Every address of 10.11.0.0/16 ...
  for (std::uint32_t addr = 0x0A0B0000u; addr <= 0x0A0BFFFFu; ++addr) {
    addresses.push_back(addr);
  }
  // ... and a run from the top of 10.12.0.0/16 into 10.13.0.0/16.
  for (std::uint32_t addr = 0x0A0CFF00u; addr <= 0x0A0D00FFu; ++addr) {
    addresses.push_back(addr);
  }
  const SnapshotIndex index(addresses);
  EXPECT_EQ(index.count_responsive(span(0x0A0B0000u, 0x0A0BFFFFu)), 65536u);
  EXPECT_EQ(index.count_responsive(span(0x0A0CFF00u, 0x0A0D00FFu)), 512u);
  expect_agrees(index, addresses,
                {span(0x0A0B0000u, 0x0A0B0000u), span(0x0A0BFFFFu, 0x0A0BFFFFu),
                 span(0x0A0AFFFFu, 0x0A0B0000u), span(0x0A0BFFFFu, 0x0A0C0000u),
                 span(0x0A0B1234u, 0x0A0B4321u), span(0x0A0BFF00u, 0x0A0CFF00u),
                 span(0x0A0CFFFFu, 0x0A0D0000u), span(0x0A0CFF80u, 0x0A0D0080u),
                 span(0x0A0D00FFu, 0x0A0D0100u), span(0x0A0A0000u, 0x0A0DFFFFu),
                 Interval::full_space()});
}

TEST(SnapshotIndex, EmptySixteensBetweenOccupiedOnes) {
  // Hosts in 1.0.0.0/16 and 1.5.0.0/16 only; 1.1-1.4 are empty slices of
  // the directory.
  const std::vector<std::uint32_t> addresses = {
      0x01000005u, 0x0100FFFFu, 0x01050000u, 0x01050001u, 0x0105ABCDu};
  const SnapshotIndex index(addresses);
  expect_agrees(index, addresses,
                {span(0x01010000u, 0x0104FFFFu), span(0x01020304u, 0x01020304u),
                 span(0x01030000u, 0x01050000u), span(0x0100FFFFu, 0x0101FFFFu),
                 span(0x01000006u, 0x01050000u), span(0x01000000u, 0x0105FFFFu),
                 span(0x01060000u, ~0u), span(0, 0x00FFFFFFu)});
}

TEST(SnapshotIndex, RejectsUnsortedOrDuplicateInput) {
  EXPECT_DEATH(SnapshotIndex(std::vector<std::uint32_t>{5, 3}),
               "Precondition");
  EXPECT_DEATH(SnapshotIndex(std::vector<std::uint32_t>{7, 7}),
               "Precondition");
}

TEST(SnapshotIndex, ContainsMatchesTheAddressList) {
  const auto addresses = random_addresses(7, 4000);
  const SnapshotIndex index(addresses);
  EXPECT_EQ(index.total_responsive(), addresses.size());

  for (const std::uint32_t addr : addresses) {
    EXPECT_TRUE(index.contains(Ipv4Address(addr)));
  }
  util::Rng rng(8);
  for (int i = 0; i < 4000; ++i) {
    const auto addr =
        static_cast<std::uint32_t>(rng.bounded(1ULL << 32));
    EXPECT_EQ(index.contains(Ipv4Address(addr)),
              std::binary_search(addresses.begin(), addresses.end(), addr));
  }
}

TEST(SnapshotIndex, CountMatchesBruteForceOnEdgeCaseIntervals) {
  const auto addresses = random_addresses(21, 6000);
  const SnapshotIndex index(addresses);

  std::vector<Interval> cases;
  // Single addresses: present and absent.
  cases.push_back({Ipv4Address(addresses.front()),
                   Ipv4Address(addresses.front())});
  cases.push_back({Ipv4Address(addresses.front() + 1),
                   Ipv4Address(addresses.front() + 1)});
  // Word boundaries: intervals starting/ending exactly on bit 0/63 of a
  // 64-bit word, and one-word spans.
  const std::uint32_t word_base = 0x0A0A0000u + 5 * 64;
  cases.push_back({Ipv4Address(word_base), Ipv4Address(word_base + 63)});
  cases.push_back({Ipv4Address(word_base + 63), Ipv4Address(word_base + 64)});
  cases.push_back({Ipv4Address(word_base + 1), Ipv4Address(word_base + 62)});
  // A full /16 (exactly one page), and intervals straddling page edges.
  cases.push_back({Ipv4Address(0x0A0A0000u), Ipv4Address(0x0A0AFFFFu)});
  cases.push_back({Ipv4Address(0x0A09FFF0u), Ipv4Address(0x0A0A000Fu)});
  cases.push_back({Ipv4Address(0x0A0AFFFFu), Ipv4Address(0x0A0B0000u)});
  // Extremes of the address space.
  cases.push_back({Ipv4Address(0), Ipv4Address(0)});
  cases.push_back({Ipv4Address(~0u), Ipv4Address(~0u)});
  cases.push_back(Interval::full_space());
  // Randomised intervals of mixed widths.
  util::Rng rng(22);
  for (int i = 0; i < 200; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.bounded(1ULL << 32));
    const std::uint64_t width = rng.bounded(1ULL << (8 + rng.bounded(16)));
    const auto b = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(a + width, 0xFFFFFFFFu));
    cases.push_back({Ipv4Address(a), Ipv4Address(b)});
  }

  for (const Interval& interval : cases) {
    EXPECT_EQ(index.count_responsive(interval),
              brute_count(addresses, interval))
        << interval.first.value() << "-" << interval.last.value();
  }
}

TEST(SnapshotIndex, RandomWideIntervalCountsMatchBruteForce) {
  const auto addresses = random_addresses(33, 3000);
  const SnapshotIndex index(addresses);

  util::Rng rng(34);
  for (int i = 0; i < 100; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.bounded(1ULL << 32));
    const std::uint64_t width = rng.bounded(1ULL << 20);
    const auto b = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(a + width, 0xFFFFFFFFu));
    const Interval interval{Ipv4Address(a), Ipv4Address(b)};
    EXPECT_EQ(index.count_responsive(interval),
              brute_count(addresses, interval))
        << a << "-" << b;
  }
}

TEST(SnapshotIndex, FullSpaceCountsEveryAddress) {
  const auto addresses = random_addresses(55, 2000);
  const SnapshotIndex index(addresses);
  EXPECT_EQ(index.count_responsive(Interval::full_space()),
            brute_count(addresses, Interval::full_space()));
  EXPECT_EQ(index.count_responsive(Interval::full_space()),
            addresses.size());
}

// Cross-checks the index against the snapshot it was built from:
// membership of every host and of random addresses, and per-cell counts.
void expect_agrees_with_snapshot(double host_scale) {
  census::TopologyParams params;
  params.seed = 11;
  params.l_prefix_count = 60;
  const auto topo = generate_topology(params);
  PopulationParams pop;
  pop.host_scale = host_scale;
  const Snapshot snapshot = generate_population(
      topo, protocol_profile(Protocol::kHttp), pop);

  const SnapshotIndex index(snapshot);
  EXPECT_EQ(index.total_responsive(), snapshot.total_hosts());
  snapshot.for_each_address([&](Ipv4Address addr) {
    EXPECT_TRUE(index.contains(addr));
  });
  util::Rng rng(12);
  for (int i = 0; i < 2000; ++i) {
    const Ipv4Address addr(
        static_cast<std::uint32_t>(rng.bounded(1ULL << 32)));
    EXPECT_EQ(index.contains(addr), snapshot.contains(addr));
  }
  // Per-cell counts through the index equal the snapshot's own counts.
  const auto counts = snapshot.counts_per_cell();
  for (std::uint32_t cell = 0; cell < counts.size(); ++cell) {
    const net::Prefix prefix = topo->m_partition.prefix(cell);
    EXPECT_EQ(index.count_responsive(Interval::of(prefix)), counts[cell]);
  }
}

TEST(SnapshotIndex, AgreesWithSnapshotContains) {
  expect_agrees_with_snapshot(0.0005);
}

TEST(SnapshotIndex, AgreesWithADenseSnapshot) {
  // ~6% of each occupied /16 responds on average and some /16s are full:
  // denser than the ~3% at which a /32 bitmap would be the smaller store.
  expect_agrees_with_snapshot(0.02);
}

}  // namespace
}  // namespace tass::census
