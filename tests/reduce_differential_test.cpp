// Differential and property tests for bgp/reduce: the family-generic
// aggregate against the historical interval-algebra path, and the greedy
// reduction against naive bitset oracles on small universes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bitset>
#include <cstdint>
#include <vector>

#include "bgp/reduce.hpp"
#include "net/interval.hpp"
#include "util/rng.hpp"

namespace tass::bgp {
namespace {

using net::Ipv4Address;
using net::Ipv6Address;
using net::Ipv6Prefix;
using net::Prefix;

// Random v4 prefixes with deliberate nesting, duplication and sibling
// adjacency (slots are drawn from a small pool so collisions are
// common — the shapes aggregation has to get right).
std::vector<Prefix> random_v4(util::Rng& rng, std::size_t count) {
  std::vector<Prefix> prefixes;
  prefixes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const int length = 8 + static_cast<int>(rng.bounded(17));
    const std::uint32_t slot =
        static_cast<std::uint32_t>(rng.bounded(1u << std::min(length, 10)));
    prefixes.emplace_back(
        Ipv4Address(slot << (32 - std::min(length, 10))), length);
  }
  return prefixes;
}

TEST(ReduceDifferential, AggregateMatchesTheIntervalAlgebraCover) {
  // The historical bgp::aggregate materialised an IntervalSet and read
  // back its minimal CIDR cover; the stack sweep must be byte-identical
  // on arbitrary overlapping input.
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 2016ull}) {
    util::Rng rng(seed);
    for (int round = 0; round < 50; ++round) {
      const auto input = random_v4(rng, 1 + rng.bounded(120));
      const auto sweep = BasicAggregate<net::Ipv4Family>::aggregate(input);
      const auto algebra =
          net::IntervalSet::of_prefixes(input).to_prefixes();
      ASSERT_EQ(sweep, algebra) << "seed " << seed << " round " << round;
      ASSERT_EQ(BasicAggregate<net::Ipv4Family>::union_size(input),
                net::IntervalSet::of_prefixes(input).address_count());
    }
  }
}

TEST(ReduceDifferential, AggregateIsIdempotent) {
  for (const std::uint64_t seed : {3ull, 9ull, 27ull}) {
    util::Rng rng(seed);
    for (int round = 0; round < 30; ++round) {
      const auto input = random_v4(rng, 1 + rng.bounded(80));
      const auto once = BasicAggregate<net::Ipv4Family>::aggregate(input);
      EXPECT_EQ(BasicAggregate<net::Ipv4Family>::aggregate(once), once);
    }
  }
  // Adversarial shapes: a full nesting chain and an alternating sibling
  // comb, both of which stress the cascade.
  std::vector<Prefix> chain;
  for (int length = 8; length <= 30; ++length) {
    chain.emplace_back(Ipv4Address(10u << 24), length);
  }
  const auto chain_once = BasicAggregate<net::Ipv4Family>::aggregate(chain);
  EXPECT_EQ(chain_once, std::vector<Prefix>{Prefix(Ipv4Address(10u << 24),
                                                   8)});
  std::vector<Prefix> comb;
  for (std::uint32_t i = 0; i < 128; ++i) {
    comb.emplace_back(Ipv4Address((10u << 24) | (i << 9)), 24);
  }
  const auto comb_once = BasicAggregate<net::Ipv4Family>::aggregate(comb);
  EXPECT_EQ(comb_once.size(), 128u);  // gapped /24s: nothing merges
  EXPECT_EQ(BasicAggregate<net::Ipv4Family>::aggregate(comb_once),
            comb_once);
}

TEST(ReduceDifferential, V6AggregateIsIdempotentAcrossWordBoundaries) {
  for (const std::uint64_t seed : {5ull, 25ull}) {
    util::Rng rng(seed);
    for (int round = 0; round < 30; ++round) {
      std::vector<Ipv6Prefix> input;
      const std::size_t count = 1 + rng.bounded(60);
      for (std::size_t i = 0; i < count; ++i) {
        // Straddle the 64-bit word boundary on purpose.
        const int length = 56 + static_cast<int>(rng.bounded(17));
        const std::uint64_t slot = rng.bounded(1u << 8);
        const std::uint64_t hi = 0x20010db800000000ull | (slot << 8);
        input.emplace_back(Ipv6Address(hi, 0), length);
      }
      const auto once = BasicAggregate<net::Ipv6Family>::aggregate(input);
      EXPECT_EQ(BasicAggregate<net::Ipv6Family>::aggregate(once), once);
    }
  }
}

// Paints a prefix into a bitset over the 10.0.0.0/16 universe.
template <std::size_t N>
void paint(std::bitset<N>& bits, Prefix prefix) {
  const std::uint32_t base = 10u << 24;
  const std::uint64_t first = prefix.network().value() - base;
  const std::uint64_t count = prefix.size();
  for (std::uint64_t i = 0; i < count; ++i) bits.set(first + i);
}

TEST(ReduceDifferential, SmallUniverseOracle) {
  // Every reduction inside 10.0.0.0/16 is checked bit-for-bit: the
  // reduced set is a superset, the extra bits equal the reported
  // overshoot, and the extra bits respect the cap.
  for (const std::uint64_t seed : {11ull, 13ull, 2016ull}) {
    util::Rng rng(seed);
    for (int round = 0; round < 25; ++round) {
      std::vector<Prefix> input;
      const std::size_t count = 2 + rng.bounded(40);
      for (std::size_t i = 0; i < count; ++i) {
        const int length = 17 + static_cast<int>(rng.bounded(16));
        const std::uint32_t offset = static_cast<std::uint32_t>(
            rng.bounded(1u << 16) & ~((1u << (32 - length)) - 1));
        input.emplace_back(Ipv4Address((10u << 24) | offset), length);
      }
      const double cap = static_cast<double>(rng.bounded(30)) / 100.0;
      ReduceParams params;
      params.max_overshoot = cap;
      const auto result = reduce(std::span<const Prefix>(input), params);

      std::bitset<65536> original;
      std::bitset<65536> reduced;
      for (const Prefix p : input) paint(original, p);
      for (const Prefix p : result.prefixes) paint(reduced, p);
      ASSERT_EQ((original & ~reduced).count(), 0u)
          << "seed " << seed << " round " << round << ": coverage lost";
      const std::uint64_t extra = (reduced & ~original).count();
      ASSERT_EQ(extra, result.overshoot_addresses);
      ASSERT_EQ(original.count(), result.original_addresses);
      ASSERT_LE(static_cast<double>(extra),
                cap * static_cast<double>(original.count()) + 1e-9);
      // The reduced list is sorted and disjoint.
      for (std::size_t i = 1; i < result.prefixes.size(); ++i) {
        ASSERT_LT(result.prefixes[i - 1].last().value(),
                  result.prefixes[i].first().value());
      }
    }
  }
}

TEST(ReduceDifferential, OvershootBoundHoldsOnRibShapedInput) {
  // union_size(reduce(x, pct)) <= union_size(x) * (1 + pct): the public
  // contract, checked across seeded RIB-shaped worlds at both families'
  // widths (v6 lengths stay <= 64 so /64 units are an exact measure).
  for (const std::uint64_t seed : {2ull, 4ull, 8ull}) {
    util::Rng rng(seed);
    std::vector<Prefix> v4;
    std::vector<Ipv6Prefix> v6;
    for (int i = 0; i < 400; ++i) {
      const std::uint32_t region = static_cast<std::uint32_t>(
          rng.bounded(64));
      v4.emplace_back(
          Ipv4Address((66u << 24) | (region << 16) |
                      (static_cast<std::uint32_t>(rng.bounded(256)) << 8)),
          24);
      const std::uint64_t hi =
          0x20010db800000000ull |
          (rng.bounded(64) << 20) | (rng.bounded(256) << 12);
      v6.emplace_back(Ipv6Address(hi, 0), 52);
    }
    const double union4 =
        static_cast<double>(BasicAggregate<net::Ipv4Family>::union_size(v4));
    const double union6 =
        static_cast<double>(BasicAggregate<net::Ipv6Family>::union_size(v6));
    for (const double pct : {0.0, 0.02, 0.05, 0.25}) {
      ReduceParams params;
      params.max_overshoot = pct;
      const auto r4 = reduce(std::span<const Prefix>(v4), params);
      EXPECT_LE(static_cast<double>(
                    BasicAggregate<net::Ipv4Family>::union_size(r4.prefixes)),
                union4 * (1.0 + pct) + 1.0);
      const auto r6 = reduce(std::span<const Ipv6Prefix>(v6), params);
      EXPECT_LE(static_cast<double>(
                    BasicAggregate<net::Ipv6Family>::union_size(r6.prefixes)),
                union6 * (1.0 + pct) + 1.0);
    }
  }
}

TEST(ReduceDifferential, V6HiWordOracle) {
  // /64-grained universe inside 2001:db8::/48: the 16 bits below the
  // /48 boundary index a bitset of /64 units, all inside the hi word.
  for (const std::uint64_t seed : {17ull, 19ull}) {
    util::Rng rng(seed);
    for (int round = 0; round < 20; ++round) {
      std::vector<Ipv6Prefix> input;
      const std::size_t count = 2 + rng.bounded(30);
      for (std::size_t i = 0; i < count; ++i) {
        const int length = 49 + static_cast<int>(rng.bounded(16));
        const std::uint64_t unit =
            rng.bounded(1u << 16) & ~((1ull << (64 - length)) - 1);
        input.emplace_back(
            Ipv6Address(0x20010db800000000ull | unit, 0), length);
      }
      const double cap = static_cast<double>(rng.bounded(30)) / 100.0;
      ReduceParams params;
      params.max_overshoot = cap;
      const auto result =
          reduce(std::span<const Ipv6Prefix>(input), params);

      std::bitset<65536> original;
      std::bitset<65536> reduced;
      const auto paint6 = [](std::bitset<65536>& bits, Ipv6Prefix p) {
        const std::uint64_t first = p.first().hi() & 0xffff;
        const std::uint64_t count = 1ull << (64 - p.length());
        for (std::uint64_t i = 0; i < count; ++i) bits.set(first + i);
      };
      for (const Ipv6Prefix p : input) paint6(original, p);
      for (const Ipv6Prefix p : result.prefixes) paint6(reduced, p);
      ASSERT_EQ((original & ~reduced).count(), 0u)
          << "seed " << seed << " round " << round;
      ASSERT_EQ((reduced & ~original).count(), result.overshoot_addresses);
      ASSERT_LE(static_cast<double>(result.overshoot_addresses),
                cap * static_cast<double>(original.count()) + 1e-9);
    }
  }
}

TEST(ReduceDifferential, V6LoWordOracle) {
  // Address-grained universe inside 2001:db8::cafe:0/112, entirely in
  // the lo word. Units are not additive past /64 (each long prefix
  // counts one), so the oracle checks exact-address coverage and that
  // the exact-address overshoot respects the cap, which reduce enforces
  // internally at full width.
  for (const std::uint64_t seed : {23ull, 29ull}) {
    util::Rng rng(seed);
    for (int round = 0; round < 20; ++round) {
      std::vector<Ipv6Prefix> input;
      const std::size_t count = 2 + rng.bounded(30);
      for (std::size_t i = 0; i < count; ++i) {
        const int length = 113 + static_cast<int>(rng.bounded(16));
        const std::uint64_t lo =
            0xcafe0000ull |
            (rng.bounded(1u << 16) & ~((1ull << (128 - length)) - 1));
        input.emplace_back(Ipv6Address(0x20010db800000000ull, lo), length);
      }
      const double cap = static_cast<double>(rng.bounded(30)) / 100.0;
      ReduceParams params;
      params.max_overshoot = cap;
      const auto result =
          reduce(std::span<const Ipv6Prefix>(input), params);

      std::bitset<65536> original;
      std::bitset<65536> reduced;
      const auto paint6 = [](std::bitset<65536>& bits, Ipv6Prefix p) {
        const std::uint64_t first = p.first().lo() & 0xffff;
        const std::uint64_t count = 1ull << (128 - p.length());
        for (std::uint64_t i = 0; i < count; ++i) bits.set(first + i);
      };
      for (const Ipv6Prefix p : input) paint6(original, p);
      for (const Ipv6Prefix p : result.prefixes) paint6(reduced, p);
      ASSERT_EQ((original & ~reduced).count(), 0u)
          << "seed " << seed << " round " << round;
      const std::uint64_t extra = (reduced & ~original).count();
      ASSERT_LE(static_cast<double>(extra),
                cap * static_cast<double>(original.count()) + 1e-9);
    }
  }
}

TEST(ReduceDifferential, GreedyNeverLosesToNaiveSiblingFolding) {
  // A naive oracle on a tiny universe: repeatedly fold the single
  // cheapest *sibling* pair (parent = two siblings, cost = missing
  // half) while the budget allows. The greedy engine explores a larger
  // move set (near-sibling runs), so it must end with at most as many
  // prefixes for the same budget.
  for (const std::uint64_t seed : {31ull, 37ull, 41ull}) {
    util::Rng rng(seed);
    for (int round = 0; round < 20; ++round) {
      std::vector<Prefix> input;
      const std::size_t count = 2 + rng.bounded(12);
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint32_t offset = static_cast<std::uint32_t>(
            rng.bounded(1u << 8) << 8);
        input.emplace_back(Ipv4Address((10u << 24) | offset), 24);
      }
      const double cap = 0.10 + static_cast<double>(rng.bounded(40)) / 100.0;

      std::bitset<65536> bits;
      for (const Prefix p : input) paint(bits, p);
      const std::uint64_t original_count = bits.count();
      const std::uint64_t budget = static_cast<std::uint64_t>(
          cap * static_cast<double>(original_count));
      auto cover = net::IntervalSet::of_prefixes(input).to_prefixes();
      std::uint64_t spent = 0;
      for (;;) {
        // Cheapest parent-fold across the current cover.
        std::size_t best = cover.size();
        std::uint64_t best_cost = ~std::uint64_t{0};
        for (std::size_t i = 0; i < cover.size(); ++i) {
          if (cover[i].length() == 0) continue;
          const Prefix parent = cover[i].parent();
          std::uint64_t covered = 0;
          bool valid = true;
          for (const Prefix other : cover) {
            if (parent.contains(other)) {
              covered += other.size();
            } else if (other.overlaps(parent)) {
              valid = false;
            }
          }
          if (!valid) continue;
          const std::uint64_t cost = parent.size() - covered;
          if (cost < best_cost) {
            best_cost = cost;
            best = i;
          }
        }
        if (best == cover.size() || spent + best_cost > budget) break;
        const Prefix parent = cover[best].parent();
        spent += best_cost;
        std::erase_if(cover,
                      [&](Prefix p) { return parent.contains(p); });
        cover.push_back(parent);
        cover = net::IntervalSet::of_prefixes(cover).to_prefixes();
      }

      ReduceParams params;
      params.max_overshoot = cap;
      const auto result = reduce(std::span<const Prefix>(input), params);
      EXPECT_LE(result.prefixes.size(), cover.size())
          << "seed " << seed << " round " << round;
    }
  }
}

}  // namespace
}  // namespace tass::bgp
