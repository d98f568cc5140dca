#include "trie/lpm_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "trie/lpm_index6.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace tass::trie {
namespace {

net::Ipv4Address addr(std::string_view text) {
  return net::Ipv4Address::parse_or_throw(text);
}

net::Prefix pfx(std::string_view text) {
  return net::Prefix::parse_or_throw(text);
}

TEST(LpmIndexTest, EmptyIndexMatchesNothing) {
  const LpmIndex index;
  EXPECT_EQ(index.lookup(addr("0.0.0.0")), LpmIndex::kNoMatch);
  EXPECT_EQ(index.lookup(addr("255.255.255.255")), LpmIndex::kNoMatch);
  EXPECT_FALSE(index.covers(addr("10.0.0.1")));
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.prefix_count(), 0u);
}

TEST(LpmIndexTest, EmptyTableMatchesNothing) {
  const LpmIndex index{std::span<const LpmIndex::Entry>{}};
  EXPECT_EQ(index.lookup(addr("192.0.2.1")), LpmIndex::kNoMatch);
  EXPECT_TRUE(index.empty());
}

TEST(LpmIndexTest, DefaultRouteCoversEverything) {
  const std::vector<LpmIndex::Entry> table{{pfx("0.0.0.0/0"), 7}};
  const LpmIndex index(table);
  EXPECT_EQ(index.lookup(addr("0.0.0.0")), 7u);
  EXPECT_EQ(index.lookup(addr("255.255.255.255")), 7u);
  EXPECT_EQ(index.lookup(addr("128.66.7.9")), 7u);
  EXPECT_EQ(index.prefix_count(), 1u);
}

TEST(LpmIndexTest, LongestMatchWinsAcrossNesting) {
  const std::vector<LpmIndex::Entry> table{
      {pfx("0.0.0.0/0"), 0},     {pfx("10.0.0.0/8"), 1},
      {pfx("10.64.0.0/10"), 2},  {pfx("10.64.0.0/24"), 3},
      {pfx("10.64.0.128/25"), 4}, {pfx("10.64.0.129/32"), 5},
  };
  const LpmIndex index(table);
  EXPECT_EQ(index.lookup(addr("192.0.2.1")), 0u);
  EXPECT_EQ(index.lookup(addr("10.255.0.1")), 1u);
  EXPECT_EQ(index.lookup(addr("10.64.1.0")), 2u);
  EXPECT_EQ(index.lookup(addr("10.64.0.5")), 3u);
  EXPECT_EQ(index.lookup(addr("10.64.0.128")), 4u);
  EXPECT_EQ(index.lookup(addr("10.64.0.129")), 5u);
  EXPECT_EQ(index.lookup(addr("10.64.0.130")), 4u);
}

TEST(LpmIndexTest, BoundariesOfAPrefixAreExact) {
  const std::vector<LpmIndex::Entry> table{{pfx("198.51.100.0/24"), 42}};
  const LpmIndex index(table);
  EXPECT_EQ(index.lookup(addr("198.51.99.255")), LpmIndex::kNoMatch);
  EXPECT_EQ(index.lookup(addr("198.51.100.0")), 42u);
  EXPECT_EQ(index.lookup(addr("198.51.100.255")), 42u);
  EXPECT_EQ(index.lookup(addr("198.51.101.0")), LpmIndex::kNoMatch);
}

TEST(LpmIndexTest, AdjacentSlash32s) {
  std::vector<LpmIndex::Entry> table;
  for (std::uint32_t i = 0; i < 8; ++i) {
    table.push_back(
        {net::Prefix(net::Ipv4Address(0xc6336400u + i), 32), 100 + i});
  }
  const LpmIndex index(table);
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(index.lookup(net::Ipv4Address(0xc6336400u + i)), 100 + i);
  }
  EXPECT_EQ(index.lookup(net::Ipv4Address(0xc6336400u - 1)),
            LpmIndex::kNoMatch);
  EXPECT_EQ(index.lookup(net::Ipv4Address(0xc6336400u + 8)),
            LpmIndex::kNoMatch);
}

TEST(LpmIndexTest, DuplicatePrefixLastValueWins) {
  const std::vector<LpmIndex::Entry> table{
      {pfx("203.0.113.0/24"), 1},
      {pfx("203.0.113.0/24"), 9},
  };
  const LpmIndex index(table);
  EXPECT_EQ(index.lookup(addr("203.0.113.7")), 9u);
  EXPECT_EQ(index.prefix_count(), 1u);  // distinct prefixes
}

TEST(LpmIndexTest, ExtremeAddressesWithEdgePrefixes) {
  const std::vector<LpmIndex::Entry> table{
      {pfx("0.0.0.0/32"), 1},
      {pfx("255.255.255.255/32"), 2},
      {pfx("255.255.255.254/31"), 3},
  };
  const LpmIndex index(table);
  EXPECT_EQ(index.lookup(addr("0.0.0.0")), 1u);
  EXPECT_EQ(index.lookup(addr("0.0.0.1")), LpmIndex::kNoMatch);
  EXPECT_EQ(index.lookup(addr("255.255.255.255")), 2u);
  EXPECT_EQ(index.lookup(addr("255.255.255.254")), 3u);
  EXPECT_EQ(index.lookup(addr("255.255.255.253")), LpmIndex::kNoMatch);
}

TEST(LpmIndexTest, ValueOutOfRangeThrows) {
  const std::vector<LpmIndex::Entry> table{
      {pfx("10.0.0.0/8"), LpmIndex::kNoMatch}};
  EXPECT_THROW(LpmIndex{table}, Error);
}

// ---- pinned build layout ---------------------------------------------

// FNV-1a over the read arrays, field by field. The TSIM state image
// serialises these arrays verbatim, so any drift in the layout a build or
// a patch produces changes image bytes; the constants below pin it.
template <class Family>
std::uint64_t layout_hash(const BasicLpmIndex<Family>& index) {
  const auto raw = index.raw();
  util::Fnv1a64 hasher;
  hasher.update_u64(raw.root.size());
  for (const std::uint32_t word : raw.root) hasher.update_u32(word);
  hasher.update_u64(raw.nodes.size());
  for (const auto& node : raw.nodes) {
    hasher.update_u64(node.child_bits);
    hasher.update_u64(node.leaf_bits);
    hasher.update_u32(node.child_base);
    hasher.update_u32(node.leaf_base);
  }
  hasher.update_u64(raw.leaves.size());
  for (const std::uint32_t leaf : raw.leaves) hasher.update_u32(leaf);
  return hasher.digest();
}

// Hand-picked edges (a /0, short covers, a /16 with longer descendants, a
// /15 spanning two root blocks, the top address) plus deterministic
// random chains nested under a few /12 roots.
std::vector<LpmIndex::Entry> pinned_nested_table4() {
  std::vector<LpmIndex::Entry> table{
      {pfx("0.0.0.0/0"), 1},          {pfx("10.0.0.0/8"), 2},
      {pfx("10.1.0.0/16"), 3},        {pfx("10.1.0.0/17"), 4},
      {pfx("10.1.128.0/20"), 5},      {pfx("10.1.200.0/24"), 6},
      {pfx("10.1.200.7/32"), 7},      {pfx("10.1.255.255/32"), 8},
      {pfx("10.2.0.0/15"), 9},        {pfx("10.3.4.0/22"), 10},
      {pfx("192.0.2.0/24"), 11},      {pfx("192.0.2.128/25"), 12},
      {pfx("255.255.255.255/32"), 13},
  };
  util::Rng rng(4242);
  std::vector<std::uint32_t> roots;
  for (int i = 0; i < 24; ++i) {
    roots.push_back(static_cast<std::uint32_t>(rng.bounded(1ull << 32)) &
                    0xfff00000u);
  }
  for (std::uint32_t i = 0; i < 2000; ++i) {
    const std::uint32_t root = roots[rng.bounded(roots.size())];
    const auto host = static_cast<std::uint32_t>(rng.bounded(1ull << 20));
    const int length = 12 + static_cast<int>(rng.bounded(21));
    table.push_back(
        {net::Prefix(net::Ipv4Address(root | host), length), 100 + i});
  }
  return table;
}

// Pairwise-disjoint random prefixes, the shape of an m-partition.
std::vector<LpmIndex::Entry> pinned_disjoint_table4() {
  util::Rng rng(2424);
  std::vector<net::Prefix> drawn;
  for (int i = 0; i < 4000; ++i) {
    drawn.emplace_back(
        net::Ipv4Address(static_cast<std::uint32_t>(rng.bounded(1ull << 32))),
        10 + static_cast<int>(rng.bounded(21)));
  }
  std::sort(drawn.begin(), drawn.end());
  std::vector<LpmIndex::Entry> table;
  for (const net::Prefix prefix : drawn) {
    if (!table.empty() &&
        prefix.network().value() <= table.back().prefix.last().value()) {
      continue;
    }
    table.push_back({prefix, static_cast<std::uint32_t>(table.size())});
  }
  return table;
}

net::Ipv6Prefix pfx6(std::string_view text) {
  return net::Ipv6Prefix::parse_or_throw(text);
}

// The v6 twin: a ::/0, a /16 with longer descendants, prefixes on both
// sides of the 64-bit hi/lo edge, and random chains under a few /32s.
std::vector<LpmIndex6::Entry> pinned_nested_table6() {
  std::vector<LpmIndex6::Entry> table{
      {pfx6("::/0"), 1},
      {pfx6("2001::/16"), 2},
      {pfx6("2001:db8::/32"), 3},
      {pfx6("2001:db8::/48"), 4},
      {pfx6("2001:db8:0:ff00::/56"), 5},
      {pfx6("2001:db8:0:fff0::/60"), 6},
      {pfx6("2001:db8:0:ffff::/64"), 7},
      {pfx6("2001:db8:0:ffff:8000::/65"), 8},
      {pfx6("2001:db8:0:ffff:ff00::/72"), 9},
      {pfx6("2001:db8:0:ffff::1/128"), 10},
      {pfx6("2001:db8:0:ffff::/127"), 11},
      {pfx6("2002::/15"), 12},
      {pfx6("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128"), 13},
  };
  util::Rng rng(6464);
  std::vector<std::uint64_t> roots;
  for (int i = 0; i < 16; ++i) {
    roots.push_back(rng() & 0xffffffff00000000ull);
  }
  for (std::uint32_t i = 0; i < 1500; ++i) {
    const std::uint64_t hi = roots[rng.bounded(roots.size())] |
                             (rng() & 0x00000000ffffffffull);
    const int length = 32 + static_cast<int>(rng.bounded(97));
    table.push_back(
        {net::Ipv6Prefix(net::Ipv6Address(hi, rng()), length), 100 + i});
  }
  return table;
}

std::vector<LpmIndex6::Entry> pinned_disjoint_table6() {
  util::Rng rng(4646);
  std::vector<net::Ipv6Prefix> drawn;
  for (int i = 0; i < 3000; ++i) {
    drawn.emplace_back(net::Ipv6Address(rng() & 0x3fffffffffffffffull, rng()),
                       20 + static_cast<int>(rng.bounded(109)));
  }
  std::sort(drawn.begin(), drawn.end());
  std::vector<LpmIndex6::Entry> table;
  for (const net::Ipv6Prefix prefix : drawn) {
    if (!table.empty() && net::Ipv6Family::first_key(prefix) <=
                              net::Ipv6Family::last_key(table.back().prefix)) {
      continue;
    }
    table.push_back({prefix, static_cast<std::uint32_t>(table.size())});
  }
  return table;
}

TEST(LpmIndexTest, BuildLayoutIsPinned) {
  const LpmIndex nested4(pinned_nested_table4());
  const LpmIndex disjoint4(pinned_disjoint_table4());
  const LpmIndex6 nested6(pinned_nested_table6());
  const LpmIndex6 disjoint6(pinned_disjoint_table6());
  EXPECT_EQ(layout_hash(nested4), 0xde4609132b6caae2ull);
  EXPECT_EQ(layout_hash(disjoint4), 0x05be02a4f6bfd449ull);
  EXPECT_EQ(layout_hash(nested6), 0x5f1f4033ecb8cc02ull);
  EXPECT_EQ(layout_hash(disjoint6), 0x574dcd5ab23b0152ull);

  // Patches append replacement subtrees; their layout reaches images too
  // (the stream reactor seals patched partitions).
  LpmIndex patched4 = nested4;
  const std::vector<LpmIndex::Entry> upserts4{
      {pfx("10.1.200.0/25"), 20},  // under the /16 and the /8
      {pfx("10.0.0.0/8"), 21},     // re-value a short cover
      {pfx("10.3.4.0/24"), 22},    // under the /15
      {pfx("172.16.0.0/12"), 23},  // new short prefix, 16 blocks
  };
  const std::vector<net::Prefix> erases4{pfx("10.1.128.0/20")};
  ASSERT_FALSE(patched4.update(upserts4, erases4).rebuilt);
  EXPECT_EQ(layout_hash(patched4), 0xb855a6e78de72afbull);

  LpmIndex6 patched6 = nested6;
  const std::vector<LpmIndex6::Entry> upserts6{
      {pfx6("2001:db8:0:ffff:c000::/66"), 20},
      {pfx6("2001::/16"), 21},
      {pfx6("2003:1:2:3::/64"), 22},
  };
  const std::vector<net::Ipv6Prefix> erases6{pfx6("2001:db8:0:ffff::/64")};
  ASSERT_FALSE(patched6.update(upserts6, erases6).rebuilt);
  EXPECT_EQ(layout_hash(patched6), 0xe724c58ab66554e1ull);
}

TEST(LpmIndexTest, LookupManyMatchesScalarLookup) {
  const std::vector<LpmIndex::Entry> table{
      {pfx("10.0.0.0/8"), 1},
      {pfx("10.2.0.0/15"), 2},
      {pfx("172.16.0.0/12"), 3},
  };
  const LpmIndex index(table);
  std::vector<std::uint32_t> addresses;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    addresses.push_back(0x09000000u + i * 0x00020301u);  // spread widely
  }
  const auto batched = index.lookup_many(addresses);
  ASSERT_EQ(batched.size(), addresses.size());
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    EXPECT_EQ(batched[i], index.lookup(net::Ipv4Address(addresses[i])));
  }
}

TEST(LpmIndexTest, FromPrefixesBuildsMembershipIndex) {
  const std::vector<net::Prefix> prefixes{pfx("192.0.2.0/24"),
                                          pfx("198.18.0.0/15")};
  const LpmIndex index = LpmIndex::from_prefixes(prefixes);
  EXPECT_TRUE(index.covers(addr("192.0.2.200")));
  EXPECT_TRUE(index.covers(addr("198.19.255.255")));
  EXPECT_FALSE(index.covers(addr("192.0.3.0")));
  EXPECT_EQ(index.lookup(addr("192.0.2.200")), 0u);
}

TEST(LpmIndexTest, StatsAreConsistent) {
  std::vector<LpmIndex::Entry> table;
  for (std::uint32_t i = 0; i < 256; ++i) {
    table.push_back({net::Prefix(net::Ipv4Address(i << 24), 8), i});
  }
  const LpmIndex index(table);
  EXPECT_EQ(index.prefix_count(), 256u);
  // /8s resolve entirely inside the 16-bit root: no deep nodes needed.
  EXPECT_EQ(index.node_count(), 0u);
  EXPECT_GE(index.memory_bytes(), (1u << 16) * sizeof(std::uint32_t));
  for (std::uint32_t i = 0; i < 256; ++i) {
    EXPECT_EQ(index.lookup(net::Ipv4Address((i << 24) | 0x00ffffffu)), i);
  }
}

// ---- incremental update ---------------------------------------------

// The update() contract: lookups afterwards are bit-identical to a fresh
// index built from the post-change entry table.
void expect_matches_fresh_rebuild(const LpmIndex& patched) {
  const std::vector<LpmIndex::Entry> table(patched.entries().begin(),
                                           patched.entries().end());
  const LpmIndex fresh(table);
  EXPECT_EQ(patched.prefix_count(), fresh.prefix_count());
  // Every stored boundary +/- 1, plus a deterministic spread.
  std::vector<std::uint32_t> probes{0x00000000u, 0xffffffffu};
  for (const auto& entry : table) {
    const std::uint32_t first = entry.prefix.network().value();
    const std::uint32_t last = entry.prefix.last().value();
    probes.insert(probes.end(), {first, last, first - 1, last + 1,
                                 first + (last - first) / 2});
  }
  for (std::uint32_t i = 0; i < 4096; ++i) {
    probes.push_back(i * 0x00fedc01u);
  }
  for (const std::uint32_t probe : probes) {
    const net::Ipv4Address address(probe);
    ASSERT_EQ(patched.lookup(address), fresh.lookup(address))
        << address.to_string();
  }
}

TEST(LpmIndexUpdateTest, InsertEraseAndRevalue) {
  const std::vector<LpmIndex::Entry> table{
      {pfx("10.0.0.0/8"), 1},
      {pfx("10.64.0.0/10"), 2},
      {pfx("172.16.0.0/12"), 3},
  };
  LpmIndex index(table);
  const std::vector<LpmIndex::Entry> upserts{
      {pfx("10.64.0.0/10"), 7},    // value change
      {pfx("192.0.2.0/24"), 8},    // new prefix
      {pfx("10.64.99.0/24"), 9},   // new nested prefix
  };
  const std::vector<net::Prefix> erases{pfx("172.16.0.0/12")};
  const auto stats = index.update(upserts, erases);
  EXPECT_EQ(stats.upserts, 3u);
  EXPECT_EQ(stats.erases, 1u);
  EXPECT_EQ(index.prefix_count(), 4u);
  EXPECT_EQ(index.lookup(addr("10.64.1.1")), 7u);
  EXPECT_EQ(index.lookup(addr("10.64.99.1")), 9u);
  EXPECT_EQ(index.lookup(addr("192.0.2.5")), 8u);
  EXPECT_EQ(index.lookup(addr("172.16.0.1")), LpmIndex::kNoMatch);
  EXPECT_EQ(index.lookup(addr("10.1.2.3")), 1u);
  expect_matches_fresh_rebuild(index);
}

TEST(LpmIndexUpdateTest, UpdateOnEmptyIndexRebuildsFromScratch) {
  LpmIndex index;
  const std::vector<LpmIndex::Entry> upserts{{pfx("198.51.100.0/24"), 4}};
  const auto stats = index.update(upserts, {});
  EXPECT_TRUE(stats.rebuilt);
  EXPECT_EQ(index.lookup(addr("198.51.100.77")), 4u);
  expect_matches_fresh_rebuild(index);
}

TEST(LpmIndexUpdateTest, ShortPrefixDirtiesManyBlocksButStaysCorrect) {
  std::vector<LpmIndex::Entry> table;
  for (std::uint32_t i = 0; i < 64; ++i) {
    table.push_back({net::Prefix(net::Ipv4Address(i << 24 | 0x040000u), 16),
                     i + 1});
  }
  LpmIndex index(table);
  // A /9 covers 128 root blocks; the patch must leaf-push it under the
  // existing /16s without disturbing them.
  const std::vector<LpmIndex::Entry> upserts{{pfx("7.128.0.0/9"), 500}};
  index.update(upserts, {});
  EXPECT_EQ(index.lookup(addr("7.129.0.1")), 500u);
  EXPECT_EQ(index.lookup(addr("7.4.0.1")), 8u);  // untouched /16
  expect_matches_fresh_rebuild(index);
}

TEST(LpmIndexUpdateTest, ValidationFailuresLeaveIndexUntouched) {
  const std::vector<LpmIndex::Entry> table{{pfx("10.0.0.0/8"), 1}};
  LpmIndex index(table);
  const std::vector<LpmIndex::Entry> bad_value{
      {pfx("10.0.0.0/8"), LpmIndex::kNoMatch}};
  EXPECT_THROW(index.update(bad_value, {}), Error);
  const std::vector<net::Prefix> missing{pfx("192.0.2.0/24")};
  EXPECT_THROW(index.update({}, missing), Error);
  const std::vector<LpmIndex::Entry> upsert{{pfx("10.0.0.0/8"), 2}};
  const std::vector<net::Prefix> same{pfx("10.0.0.0/8")};
  EXPECT_THROW(index.update(upsert, same), Error);
  // All three rejections must have left the index bit-identical.
  EXPECT_EQ(index.prefix_count(), 1u);
  EXPECT_EQ(index.lookup(addr("10.1.1.1")), 1u);
}

TEST(LpmIndexUpdateTest, DuplicateUpsertsKeepLastDuplicateErasesCoalesce) {
  const std::vector<LpmIndex::Entry> table{{pfx("10.0.0.0/8"), 1},
                                           {pfx("172.16.0.0/12"), 2}};
  LpmIndex index(table);
  const std::vector<LpmIndex::Entry> upserts{{pfx("192.0.2.0/24"), 3},
                                             {pfx("192.0.2.0/24"), 4}};
  const std::vector<net::Prefix> erases{pfx("172.16.0.0/12"),
                                        pfx("172.16.0.0/12")};
  index.update(upserts, erases);
  EXPECT_EQ(index.lookup(addr("192.0.2.1")), 4u);
  EXPECT_EQ(index.lookup(addr("172.16.0.1")), LpmIndex::kNoMatch);
  expect_matches_fresh_rebuild(index);
}

TEST(LpmIndexUpdateTest, MassiveChurnFallsBackToFullRebuild) {
  std::vector<LpmIndex::Entry> table;
  for (std::uint32_t i = 0; i < 512; ++i) {
    table.push_back({net::Prefix(net::Ipv4Address(i << 23), 9), i});
  }
  LpmIndex index(table);
  // Re-value every prefix: far past the 1/8 churn threshold.
  std::vector<LpmIndex::Entry> upserts;
  for (std::uint32_t i = 0; i < 512; ++i) {
    upserts.push_back({net::Prefix(net::Ipv4Address(i << 23), 9), i + 1000});
  }
  const auto stats = index.update(upserts, {});
  EXPECT_TRUE(stats.rebuilt);
  EXPECT_EQ(index.lookup(addr("0.0.0.1")), 1000u);
  expect_matches_fresh_rebuild(index);
}

TEST(LpmIndexUpdateTest, RepeatedPatchesCompactInsteadOfGrowingForever) {
  util::Rng rng(2024);
  std::vector<LpmIndex::Entry> table;
  for (std::uint32_t i = 0; i < 4096; ++i) {
    const auto network = static_cast<std::uint32_t>(rng.bounded(1ull << 32));
    table.push_back({net::Prefix(net::Ipv4Address(network), 24),
                     (network >> 8) & 0xffffu});
  }
  LpmIndex index(table);
  const std::size_t baseline = index.node_count() + index.leaf_count();
  bool compacted = false;
  for (int round = 0; round < 400; ++round) {
    // Re-value a handful of random entries each round; every patch
    // abandons subtrees, so without compaction the arrays would only grow.
    std::vector<LpmIndex::Entry> upserts;
    for (int k = 0; k < 32; ++k) {
      const auto& entry = index.entries()[static_cast<std::size_t>(
          rng.bounded(index.entries().size()))];
      upserts.push_back(
          {entry.prefix, (entry.value + 1 + static_cast<std::uint32_t>(k)) %
                             0x10000u});
    }
    const auto stats = index.update(upserts, {});
    compacted = compacted || stats.compacted || stats.rebuilt;
  }
  EXPECT_TRUE(compacted);
  // Bounded garbage: within the documented 2x-of-last-rebuild envelope
  // (plus the small constant slack), not 400 rounds of accretion.
  EXPECT_LE(index.node_count() + index.leaf_count(), baseline * 3 + 6000);
  expect_matches_fresh_rebuild(index);
}

// Random churn against a fresh rebuild on two table shapes: lengths
// spread over /8../32 with 40-change batches, and a table where a third of
// the entries are /4../16 covers with 4-change batches. In the second,
// most batches patch blocks beneath shorter prefixes (inherited values
// from the cover probes and the block's own /16) instead of rebuilding.
TEST(LpmIndexUpdateTest, RandomizedChurnMatchesFreshRebuild) {
  struct Shape {
    int batch;
    int (*draw_length)(util::Rng&);
  };
  const Shape shapes[] = {
      {40,
       [](util::Rng& rng) { return 8 + static_cast<int>(rng.bounded(25)); }},
      {4,
       [](util::Rng& rng) {
         return rng.bounded(3) == 0 ? 4 + static_cast<int>(rng.bounded(13))
                                    : 17 + static_cast<int>(rng.bounded(16));
       }},
  };
  for (const Shape& shape : shapes) {
    std::size_t patched = 0;
    for (const std::uint64_t seed : {7ull, 77ull, 777ull}) {
      util::Rng rng(seed);
      std::vector<LpmIndex::Entry> table;
      for (int i = 0; i < 3000; ++i) {
        const auto network =
            static_cast<std::uint32_t>(rng.bounded(1ull << 32));
        const int length = shape.draw_length(rng);
        table.push_back({net::Prefix(net::Ipv4Address(network), length),
                         static_cast<std::uint32_t>(rng.bounded(100000))});
      }
      LpmIndex index(table);
      for (int step = 0; step < 8; ++step) {
        std::vector<LpmIndex::Entry> upserts;
        std::vector<net::Prefix> erases;
        for (int k = 0; k < shape.batch; ++k) {
          const auto roll = rng.bounded(3);
          if (roll == 0 && !index.entries().empty()) {
            erases.push_back(
                index.entries()[static_cast<std::size_t>(
                                    rng.bounded(index.entries().size()))]
                    .prefix);
          } else if (roll == 1 && !index.entries().empty()) {
            const auto& entry = index.entries()[static_cast<std::size_t>(
                rng.bounded(index.entries().size()))];
            upserts.push_back({entry.prefix, static_cast<std::uint32_t>(
                                                 rng.bounded(100000))});
          } else {
            const auto network =
                static_cast<std::uint32_t>(rng.bounded(1ull << 32));
            upserts.push_back(
                {net::Prefix(net::Ipv4Address(network),
                             shape.draw_length(rng)),
                 static_cast<std::uint32_t>(rng.bounded(100000))});
          }
        }
        // A prefix drawn for both sides would (correctly) throw; resolve
        // the collision the way a partition does — keep the upsert.
        std::erase_if(erases, [&](net::Prefix p) {
          return std::any_of(upserts.begin(), upserts.end(),
                             [&](const LpmIndex::Entry& e) {
                               return e.prefix == p;
                             });
        });
        std::sort(erases.begin(), erases.end());
        erases.erase(std::unique(erases.begin(), erases.end()),
                     erases.end());
        const auto stats = index.update(upserts, erases);
        if (!stats.rebuilt && !stats.compacted) ++patched;
        expect_matches_fresh_rebuild(index);
      }
    }
    EXPECT_GT(patched, 0u) << "batch " << shape.batch;
  }
}

}  // namespace
}  // namespace tass::trie
