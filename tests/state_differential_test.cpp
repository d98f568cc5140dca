// Differential suite for the TSIM state image: a loaded zero-copy view
// must be *bit-identical* to the built structures it was encoded from —
// lookups, batched locates, tally_cells outputs and the density ranking
// (float bits included) — across fresh and churned partitions, the mmap
// and in-memory attach paths, and randomized topologies. The corrupt-
// input side (truncations, flips, resealed corruption) lives with the
// other parsers in parser_fuzz_test.cpp.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bgp/partition.hpp"
#include "census/topology.hpp"
#include "core/ranking.hpp"
#include "state/image.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace tass::state {
namespace {

// RIB-shaped disjoint prefixes, as in bench/micro_delta.
std::vector<net::Prefix> synthesize_prefixes(std::size_t count,
                                             std::uint64_t seed) {
  util::Rng rng(seed);
  const std::vector<net::Prefix> space{
      net::Prefix::parse_or_throw("0.0.0.0/2"),
      net::Prefix::parse_or_throw("64.0.0.0/2"),
      net::Prefix::parse_or_throw("128.0.0.0/2"),
      net::Prefix::parse_or_throw("192.0.0.0/2"),
  };
  census::BuddyAllocator allocator(space);
  std::vector<net::Prefix> prefixes;
  prefixes.reserve(count);
  while (prefixes.size() < count) {
    const double roll = rng.uniform();
    const int length = roll < 0.05 ? 10 + static_cast<int>(rng.bounded(6))
                       : roll < 0.5
                           ? 16 + static_cast<int>(rng.bounded(5))
                           : 21 + static_cast<int>(rng.bounded(6));
    const auto prefix = allocator.allocate(length, rng);
    if (!prefix) break;
    prefixes.push_back(*prefix);
  }
  return prefixes;
}

std::vector<std::uint32_t> synthesize_counts(
    const bgp::PrefixPartition& partition, std::uint64_t seed) {
  std::vector<std::uint32_t> counts(partition.size(), 0);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (!partition.live(i)) continue;
    const std::uint64_t h = util::mix64(
        seed, (static_cast<std::uint64_t>(
                   partition.prefix(i).network().value())
               << 6) |
                  static_cast<std::uint64_t>(partition.prefix(i).length()));
    counts[i] = (h & 7u) < 2u ? 0u
                              : static_cast<std::uint32_t>(1 + (h >> 3) % 900);
  }
  return counts;
}

// Withdraw/re-advertise and deaggregate a slice of the partition so the
// encoded image carries dead slots, a free list and a live bitmap.
void churn(bgp::PrefixPartition& partition, double rate, util::Rng& rng) {
  bgp::PartitionDelta delta;
  const auto changes = static_cast<std::size_t>(
      static_cast<double>(partition.live_cells()) * rate) + 1;
  std::vector<std::uint8_t> used(partition.size(), 0);
  for (std::size_t k = 0; k < changes; ++k) {
    const auto slot =
        static_cast<std::uint32_t>(rng.bounded(partition.size()));
    if (used[slot] != 0 || !partition.live(slot)) continue;
    used[slot] = 1;
    const net::Prefix prefix = partition.prefix(slot);
    delta.remove.push_back(prefix);
    if (prefix.length() < 30 && rng.chance(0.4)) {
      delta.add.push_back(prefix.lower_half());
      delta.add.push_back(prefix.upper_half());
    } else if (rng.chance(0.7)) {
      delta.add.push_back(prefix);
    }  // else: plain withdrawal, leaving a free slot
  }
  partition.apply_delta(delta);
}

void expect_rankings_identical(const core::DensityRanking& want,
                               const core::DensityRankingView& got) {
  ASSERT_EQ(want.ranked.size(), got.ranked.size());
  EXPECT_EQ(want.mode, got.mode);
  EXPECT_EQ(want.total_hosts, got.total_hosts);
  EXPECT_EQ(want.advertised_addresses, got.advertised_addresses);
  for (std::size_t i = 0; i < want.ranked.size(); ++i) {
    const core::RankedPrefix& a = want.ranked[i];
    const core::RankedPrefix& b = got.ranked[i];
    ASSERT_EQ(a.index, b.index) << "rank " << i;
    ASSERT_EQ(a.prefix, b.prefix) << "rank " << i;
    ASSERT_EQ(a.size, b.size) << "rank " << i;
    ASSERT_EQ(a.hosts, b.hosts) << "rank " << i;
    // Float bits, not approximate equality: the image stores the arrays
    // verbatim, so nothing may drift.
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.density),
              std::bit_cast<std::uint64_t>(b.density))
        << "rank " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.host_share),
              std::bit_cast<std::uint64_t>(b.host_share))
        << "rank " << i;
  }
}

void expect_views_identical(const bgp::PrefixPartition& built,
                            const core::DensityRanking& ranking,
                            const StateImage& image, util::Rng& rng) {
  const bgp::PrefixPartition& loaded = image.partition();
  ASSERT_EQ(built.size(), loaded.size());
  EXPECT_EQ(built.live_cells(), loaded.live_cells());
  EXPECT_EQ(built.free_cells(), loaded.free_cells());
  EXPECT_EQ(built.address_count(), loaded.address_count());
  for (std::size_t i = 0; i < built.size(); ++i) {
    ASSERT_EQ(built.live(i), loaded.live(i)) << "slot " << i;
    ASSERT_EQ(built.prefix(i), loaded.prefix(i)) << "slot " << i;
  }

  // Boundary probes (first/last address of every cell, +/- 1) and a
  // random sample, through locate() and the raw index().
  std::vector<std::uint32_t> probes;
  for (std::size_t i = 0; i < built.size(); ++i) {
    const net::Prefix prefix = built.prefix(i);
    probes.push_back(prefix.first().value());
    probes.push_back(prefix.last().value());
    probes.push_back(prefix.first().value() - 1);
    probes.push_back(prefix.last().value() + 1);
  }
  for (int i = 0; i < 20000; ++i) {
    probes.push_back(static_cast<std::uint32_t>(rng.bounded(1ull << 32)));
  }
  std::vector<std::uint32_t> want_cells(probes.size());
  std::vector<std::uint32_t> got_cells(probes.size());
  built.locate_many(probes, want_cells);
  loaded.locate_many(probes, got_cells);
  ASSERT_EQ(want_cells, got_cells);
  for (std::size_t i = 0; i < probes.size(); i += 97) {
    const net::Ipv4Address addr(probes[i]);
    ASSERT_EQ(built.index().lookup(addr), image.index().lookup(addr));
  }

  // The shared attribution kernel must tally identically.
  std::vector<std::uint32_t> want_counts(built.size(), 0);
  std::vector<std::uint32_t> got_counts(loaded.size(), 0);
  std::uint64_t want_attr = 0, want_un = 0, got_attr = 0, got_un = 0;
  built.tally_cells(probes, want_counts, want_attr, want_un);
  loaded.tally_cells(probes, got_counts, got_attr, got_un);
  EXPECT_EQ(want_attr, got_attr);
  EXPECT_EQ(want_un, got_un);
  ASSERT_EQ(want_counts, got_counts);

  expect_rankings_identical(ranking, image.ranking());

  // The retained entry tables match row for row.
  const auto want_entries = built.index().entries();
  const auto got_entries = image.index().entries();
  ASSERT_EQ(want_entries.size(), got_entries.size());
  for (std::size_t i = 0; i < want_entries.size(); ++i) {
    ASSERT_EQ(want_entries[i].prefix, got_entries[i].prefix);
    ASSERT_EQ(want_entries[i].value, got_entries[i].value);
  }
}

TEST(StateImage, RoundTripsAcrossSeedsFreshAndChurned) {
  for (const std::uint64_t seed : {11ull, 23ull, 2016ull}) {
    for (const bool churned : {false, true}) {
      util::Rng rng(util::mix64(seed, churned ? 2 : 1));
      bgp::PrefixPartition partition(synthesize_prefixes(1500, seed));
      if (churned) {
        churn(partition, 0.08, rng);
        churn(partition, 0.05, rng);  // twice, so free slots get reused
      }
      const auto counts = synthesize_counts(partition, seed);
      const auto ranking =
          core::rank_by_density(counts, partition, core::PrefixMode::kMore);

      const auto bytes = encode_image(partition, ranking);
      const StateImage image = StateImage::attach(bytes);
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (churned ? " churned" : " fresh"));
      EXPECT_TRUE(image.partition().borrowed());
      EXPECT_TRUE(image.index().borrowed());
      EXPECT_EQ(image.info().fingerprint, bgp::partition_fingerprint(partition));
      EXPECT_NO_THROW(image.verify());  // deep audit must hold
      expect_views_identical(partition, ranking, image, rng);
    }
  }
}

TEST(StateImage, EncodingIsDeterministic) {
  bgp::PrefixPartition partition(synthesize_prefixes(300, 7));
  const auto counts = synthesize_counts(partition, 7);
  const auto ranking =
      core::rank_by_density(counts, partition, core::PrefixMode::kLess);
  EXPECT_EQ(encode_image(partition, ranking),
            encode_image(partition, ranking));
}

TEST(StateImage, SaveAndMmapLoadRoundTrips) {
  const std::string path = ::testing::TempDir() + "tsim_roundtrip.tsim";
  util::Rng rng(99);
  bgp::PrefixPartition partition(synthesize_prefixes(800, 99));
  churn(partition, 0.1, rng);
  const auto counts = synthesize_counts(partition, 99);
  const auto ranking =
      core::rank_by_density(counts, partition, core::PrefixMode::kMore);
  save_image(path, partition, ranking);

  const StateImage image = StateImage::load(path);
  EXPECT_NO_THROW(image.verify());
  expect_views_identical(partition, ranking, image, rng);
  EXPECT_EQ(image.info().file_bytes, encode_image(partition, ranking).size());

  // Binding to the right topology succeeds; to a different one, throws.
  const std::uint64_t fingerprint = bgp::partition_fingerprint(partition);
  EXPECT_NO_THROW(StateImage::load(path, fingerprint));
  EXPECT_THROW(StateImage::load(path, fingerprint ^ 1), FormatError);
  std::remove(path.c_str());
}

TEST(StateImage, LoadedViewsRejectMutation) {
  bgp::PrefixPartition partition(synthesize_prefixes(120, 5));
  const auto counts = synthesize_counts(partition, 5);
  const auto ranking =
      core::rank_by_density(counts, partition, core::PrefixMode::kMore);
  const auto bytes = encode_image(partition, ranking);
  StateImage image = StateImage::attach(bytes);

  bgp::PartitionDelta delta;
  delta.remove.push_back(image.partition().prefix(0));
  // const_cast: the API returns const refs precisely because mutation is
  // rejected; this checks the throw, not a supported call path.
  auto& loaded =
      const_cast<bgp::PrefixPartition&>(image.partition());
  EXPECT_THROW(loaded.apply_delta(delta), Error);
  auto& index = const_cast<trie::LpmIndex&>(image.index());
  EXPECT_THROW(index.update({}, {{image.partition().prefix(0)}}), Error);
}

TEST(StateImage, MaterializedRankingIsOwnedAndIdentical) {
  bgp::PrefixPartition partition(synthesize_prefixes(400, 31));
  const auto counts = synthesize_counts(partition, 31);
  const auto ranking =
      core::rank_by_density(counts, partition, core::PrefixMode::kMore);
  const auto bytes = encode_image(partition, ranking);
  core::DensityRanking materialized;
  {
    const StateImage image = StateImage::attach(bytes);
    materialized = image.ranking().materialize();
  }  // image (and its storage view) gone; the copy must stand alone
  ASSERT_EQ(materialized.ranked.size(), ranking.ranked.size());
  for (std::size_t i = 0; i < ranking.ranked.size(); ++i) {
    EXPECT_EQ(materialized.ranked[i].prefix, ranking.ranked[i].prefix);
    EXPECT_EQ(materialized.ranked[i].hosts, ranking.ranked[i].hosts);
  }
  EXPECT_EQ(materialized.total_hosts, ranking.total_hosts);
}

TEST(StateImage, EmptyPartitionRoundTrips) {
  bgp::PrefixPartition partition(std::vector<net::Prefix>{});
  const core::DensityRanking ranking = core::rank_by_density(
      std::vector<std::uint32_t>{}, partition, core::PrefixMode::kMore);
  const auto bytes = encode_image(partition, ranking);
  const StateImage image = StateImage::attach(bytes);
  EXPECT_EQ(image.partition().size(), 0u);
  EXPECT_EQ(image.ranking().ranked.size(), 0u);
  EXPECT_FALSE(image.index().covers(net::Ipv4Address(0x01020304u)));
}

TEST(StateImage, EncodeRejectsMismatchedRanking) {
  bgp::PrefixPartition partition(synthesize_prefixes(50, 3));
  const auto counts = synthesize_counts(partition, 3);
  auto ranking =
      core::rank_by_density(counts, partition, core::PrefixMode::kMore);
  ASSERT_FALSE(ranking.ranked.empty());
  auto broken = ranking;
  broken.total_hosts += 1;
  EXPECT_THROW(encode_image(partition, broken), Error);
  broken = ranking;
  broken.ranked[0].hosts += 1;  // breaks the host total
  EXPECT_THROW(encode_image(partition, broken), Error);
  bgp::PrefixPartition other(synthesize_prefixes(50, 4));
  EXPECT_THROW(encode_image(other, ranking), Error);
}

}  // namespace
}  // namespace tass::state
