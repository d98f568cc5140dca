// Tests for net/interval: the disjoint interval set and its algebra for
// both families, cross-checked against a brute-force oracle on a small
// sub-universe.
#include "net/interval.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <concepts>
#include <set>
#include <vector>

#include "util/rng.hpp"

namespace tass::net {
namespace {

Interval iv(std::uint32_t lo, std::uint32_t hi) {
  return Interval{Ipv4Address(lo), Ipv4Address(hi)};
}

TEST(Interval, SizeAndContains) {
  const Interval i = iv(10, 19);
  EXPECT_EQ(i.size(), 10u);
  EXPECT_TRUE(i.contains(Ipv4Address(10)));
  EXPECT_TRUE(i.contains(Ipv4Address(19)));
  EXPECT_FALSE(i.contains(Ipv4Address(20)));
  EXPECT_EQ(Interval::full_space().size(), 1ULL << 32);
}

// Addresses of each family counted from either end of its space, so one
// typed test pins the same shapes for both families. The v6 low end
// stays inside one 64-bit word; the word carry has its own cases below.
template <class Family>
struct Space;

template <>
struct Space<Ipv4Family> {
  static Ipv4Address low(std::uint32_t n) { return Ipv4Address(n); }
  static Ipv4Address high(std::uint32_t n) { return Ipv4Address(~0u - n); }
  static Ipv4Address universe(std::uint32_t n) { return Ipv4Address(n); }
};

template <>
struct Space<Ipv6Family> {
  static Ipv6Address low(std::uint32_t n) { return Ipv6Address(0, n); }
  static Ipv6Address high(std::uint32_t n) {
    return Ipv6Address(~0ULL, ~0ULL - n);
  }
  // 2001:db8:0:7:ffff:ffff:ffff:ff80 .. 2001:db8:0:8::7f.
  static Ipv6Address universe(std::uint32_t n) {
    return Ipv6Address(0x20010db800000007ULL + (n >= 128), ~0ULL - 127 + n);
  }
};

template <class Family>
class IntervalSetTyped : public ::testing::Test {
 protected:
  using Set = BasicIntervalSet<Family>;
  using Range = BasicInterval<Family>;
  // [low(a), low(b)] and [high(a), high(b)] (a >= b: high counts down).
  static Range lows(std::uint32_t a, std::uint32_t b) {
    return {Space<Family>::low(a), Space<Family>::low(b)};
  }
  static Range highs(std::uint32_t a, std::uint32_t b) {
    return {Space<Family>::high(a), Space<Family>::high(b)};
  }
  static std::vector<Range> ranges(const Set& set) {
    return {set.intervals().begin(), set.intervals().end()};
  }
};

using Families = ::testing::Types<Ipv4Family, Ipv6Family>;
TYPED_TEST_SUITE(IntervalSetTyped, Families);

TYPED_TEST(IntervalSetTyped, InsertMergesOverlaps) {
  typename TestFixture::Set set;
  set.insert(this->lows(10, 20));
  set.insert(this->lows(15, 30));
  EXPECT_EQ(this->ranges(set), (std::vector{this->lows(10, 30)}));
}

TYPED_TEST(IntervalSetTyped, InsertCoalescesAdjacent) {
  typename TestFixture::Set set;
  set.insert(this->lows(10, 20));
  set.insert(this->lows(21, 30));
  EXPECT_EQ(set.interval_count(), 1u);
  set.insert(this->lows(0, 8));
  EXPECT_EQ(set.interval_count(), 2u);  // gap at 9 keeps them apart
  set.insert(this->lows(9, 9));
  EXPECT_EQ(this->ranges(set), (std::vector{this->lows(0, 30)}));
}

TYPED_TEST(IntervalSetTyped, InsertBridgesManyIntervals) {
  typename TestFixture::Set set;
  set.insert(this->lows(0, 1));
  set.insert(this->lows(10, 11));
  set.insert(this->lows(20, 21));
  set.insert(this->lows(2, 19));
  EXPECT_EQ(this->ranges(set), (std::vector{this->lows(0, 21)}));
}

TYPED_TEST(IntervalSetTyped, RemoveSplits) {
  using S = Space<TypeParam>;
  typename TestFixture::Set set;
  set.insert(this->lows(0, 99));
  set.remove(this->lows(40, 59));
  EXPECT_EQ(this->ranges(set),
            (std::vector{this->lows(0, 39), this->lows(60, 99)}));
  EXPECT_TRUE(set.contains(S::low(39)));
  EXPECT_FALSE(set.contains(S::low(40)));
  EXPECT_FALSE(set.contains(S::low(59)));
  EXPECT_TRUE(set.contains(S::low(60)));
}

TYPED_TEST(IntervalSetTyped, RemoveAtEdges) {
  typename TestFixture::Set set;
  set.insert(this->lows(10, 20));
  set.remove(this->lows(0, 10));
  set.remove(this->lows(20, 30));
  EXPECT_EQ(this->ranges(set), (std::vector{this->lows(11, 19)}));
}

TYPED_TEST(IntervalSetTyped, FullSpaceEndpoints) {
  using S = Space<TypeParam>;
  auto set = TestFixture::Set::full_space();
  EXPECT_TRUE(set.contains(S::low(0)));
  EXPECT_TRUE(set.contains(S::high(0)));
  set.remove(this->lows(0, 0));
  set.remove(this->highs(0, 0));
  EXPECT_EQ(this->ranges(set), (std::vector{typename TestFixture::Range{
                                   S::low(1), S::high(1)}}));
  EXPECT_FALSE(set.contains(S::low(0)));
  EXPECT_FALSE(set.contains(S::high(0)));
}

TYPED_TEST(IntervalSetTyped, InsertAtTopOfSpaceMerges) {
  typename TestFixture::Set set;
  set.insert(this->highs(5, 0));
  set.insert(this->highs(10, 6));
  EXPECT_EQ(this->ranges(set), (std::vector{this->highs(10, 0)}));
}

TYPED_TEST(IntervalSetTyped, ContainsAll) {
  typename TestFixture::Set set;
  set.insert(this->lows(10, 20));
  set.insert(this->lows(30, 40));
  EXPECT_TRUE(set.contains_all(this->lows(12, 18)));
  EXPECT_TRUE(set.contains_all(this->lows(10, 20)));
  EXPECT_FALSE(set.contains_all(this->lows(15, 35)));  // spans the gap
  EXPECT_FALSE(set.contains_all(this->lows(25, 26)));
  EXPECT_FALSE(set.contains_all(this->lows(5, 12)));   // starts before
}

TYPED_TEST(IntervalSetTyped, ComplementRoundTrip) {
  using S = Space<TypeParam>;
  typename TestFixture::Set set;
  set.insert(this->lows(100, 200));
  set.insert(this->lows(300, 400));
  const auto complement = set.complement();
  EXPECT_EQ(this->ranges(complement),
            (std::vector{this->lows(0, 99), this->lows(201, 299),
                         typename TestFixture::Range{S::low(401),
                                                     S::high(0)}}));
  EXPECT_EQ(complement.complement(), set);
  EXPECT_TRUE(complement.contains(S::low(99)));
  EXPECT_FALSE(complement.contains(S::low(100)));
}

TYPED_TEST(IntervalSetTyped, SubtractMatchesIntersectWithComplement) {
  typename TestFixture::Set set;
  set.insert(this->lows(0, 50));
  set.insert(this->lows(60, 90));
  set.insert(this->highs(30, 0));
  typename TestFixture::Set holes;
  holes.insert(this->lows(10, 12));
  holes.insert(this->lows(45, 65));  // runs across two intervals
  holes.insert(this->lows(80, 95));
  holes.insert(this->highs(0, 0));
  const auto difference = set.subtract(holes);
  EXPECT_EQ(difference, set.intersect(holes.complement()));
  EXPECT_EQ(this->ranges(difference),
            (std::vector{this->lows(0, 9), this->lows(13, 44),
                         this->lows(66, 79), this->highs(30, 1)}));
}

TEST(IntervalSet, OfPrefixesAndBack) {
  const std::vector<Prefix> prefixes = {
      Prefix::parse_or_throw("10.0.0.0/8"),
      Prefix::parse_or_throw("11.0.0.0/8"),    // adjacent -> merges
      Prefix::parse_or_throw("192.168.0.0/16"),
  };
  const IntervalSet set = IntervalSet::of_prefixes(prefixes);
  EXPECT_EQ(set.interval_count(), 2u);
  EXPECT_EQ(set.address_count(), (1ULL << 25) + (1ULL << 16));

  const auto back = set.to_prefixes();
  // 10/8 + 11/8 merge into 10.0.0.0/7.
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].to_string(), "10.0.0.0/7");
  EXPECT_EQ(back[1].to_string(), "192.168.0.0/16");
}

TEST(AddressIndexer, MapsDenseIndicesToAddresses) {
  IntervalSet set;
  set.insert(iv(10, 12));   // indices 0..2
  set.insert(iv(100, 100)); // index 3
  set.insert(iv(200, 203)); // indices 4..7
  const AddressIndexer indexer(set);
  ASSERT_EQ(indexer.size(), 8u);
  EXPECT_EQ(indexer.at(0).value(), 10u);
  EXPECT_EQ(indexer.at(2).value(), 12u);
  EXPECT_EQ(indexer.at(3).value(), 100u);
  EXPECT_EQ(indexer.at(4).value(), 200u);
  EXPECT_EQ(indexer.at(7).value(), 203u);
}

TEST(AddressIndexer, IsTheInverseOfMembership) {
  IntervalSet set;
  set.insert(iv(5, 9));
  set.insert(iv(1000, 1040));
  const AddressIndexer indexer(set);
  EXPECT_EQ(indexer.size(), set.address_count());
  std::uint32_t previous = 0;
  for (std::uint64_t i = 0; i < indexer.size(); ++i) {
    const Ipv4Address addr = indexer.at(i);
    EXPECT_TRUE(set.contains(addr));
    if (i > 0) {
      EXPECT_GT(addr.value(), previous);  // strictly ascending
    }
    previous = addr.value();
  }
}

TEST(AddressIndexer, EmptySet) {
  const AddressIndexer indexer{IntervalSet{}};
  EXPECT_EQ(indexer.size(), 0u);
}

// Algebra properties against a brute-force oracle over a tiny universe
// of 256 consecutive addresses (Space::universe); sets are restricted to
// it so exact comparison of membership is cheap. The v6 universe
// straddles the carry between the two 64-bit words.
template <class Family>
class IntervalAlgebraProperty : public ::testing::Test {
 protected:
  using Set = BasicIntervalSet<Family>;
  static Set random_set(util::Rng& rng, std::set<std::uint32_t>& oracle) {
    Set set;
    const int pieces = 1 + static_cast<int>(rng.bounded(6));
    for (int i = 0; i < pieces; ++i) {
      const auto lo = static_cast<std::uint32_t>(rng.bounded(256));
      const auto hi =
          std::min<std::uint32_t>(255, lo + static_cast<std::uint32_t>(
                                               rng.bounded(40)));
      set.insert({Space<Family>::universe(lo), Space<Family>::universe(hi)});
      for (std::uint32_t v = lo; v <= hi; ++v) oracle.insert(v);
    }
    return set;
  }
};

TYPED_TEST_SUITE(IntervalAlgebraProperty, Families);

TYPED_TEST(IntervalAlgebraProperty, MatchesOracle) {
  using Set = typename TestFixture::Set;
  for (const std::uint64_t seed : {11, 22, 33, 44}) {
    util::Rng rng(seed);
    for (int round = 0; round < 50; ++round) {
      std::set<std::uint32_t> oracle_a;
      std::set<std::uint32_t> oracle_b;
      const Set a = this->random_set(rng, oracle_a);
      const Set b = this->random_set(rng, oracle_b);

      const Set u = a.union_with(b);
      const Set i = a.intersect(b);
      const Set d = a.subtract(b);

      for (std::uint32_t v = 0; v < 256; ++v) {
        const auto address = Space<TypeParam>::universe(v);
        const bool in_a = oracle_a.count(v) > 0;
        const bool in_b = oracle_b.count(v) > 0;
        EXPECT_EQ(a.contains(address), in_a);
        EXPECT_EQ(u.contains(address), in_a || in_b);
        EXPECT_EQ(i.contains(address), in_a && in_b);
        EXPECT_EQ(d.contains(address), in_a && !in_b);
      }
      if constexpr (std::same_as<TypeParam, Ipv4Family>) {
        // Inclusion-exclusion on counts.
        EXPECT_EQ(u.address_count() + i.address_count(),
                  a.address_count() + b.address_count());
        // to_prefixes covers exactly.
        std::uint64_t prefix_total = 0;
        for (const Prefix p : a.to_prefixes()) prefix_total += p.size();
        EXPECT_EQ(prefix_total, a.address_count());
      }
    }
  }
}

// --- inclusive-upper-bound regression suite ---------------------------
//
// The set is inclusive so the all-ones address is representable; every
// mutator and query involving `last + 1` must handle the top of the space
// without wrapping, in both families.

TYPED_TEST(IntervalSetTyped, InsertMergesAtTopOfSpace) {
  using S = Space<TypeParam>;
  typename TestFixture::Set set;
  set.insert(this->highs(9, 0));
  set.insert(this->highs(19, 10));  // adjacent below: must coalesce
  EXPECT_EQ(this->ranges(set), (std::vector{this->highs(19, 0)}));
  EXPECT_TRUE(set.contains(S::high(0)));
  // Re-inserting an interval ending at the top over an existing one.
  set.insert(this->highs(4, 0));
  EXPECT_EQ(this->ranges(set), (std::vector{this->highs(19, 0)}));
}

TYPED_TEST(IntervalSetTyped, FullSpaceAccounting) {
  using S = Space<TypeParam>;
  const auto full = TestFixture::Set::full_space();
  EXPECT_TRUE(full.contains(S::low(0)));
  EXPECT_TRUE(full.contains(S::high(0)));
  EXPECT_TRUE(full.contains_all(TestFixture::Range::full_space()));
  EXPECT_TRUE(full.complement().empty());
  EXPECT_EQ(typename TestFixture::Set().complement(), full);
}

TYPED_TEST(IntervalSetTyped, RemoveAtTopOfSpace) {
  using S = Space<TypeParam>;
  auto set = TestFixture::Set::full_space();
  set.remove(this->highs(0, 0));
  EXPECT_FALSE(set.contains(S::high(0)));
  EXPECT_TRUE(set.contains(S::high(1)));
  // Complement of "everything but the top" is exactly the top.
  EXPECT_EQ(this->ranges(set.complement()),
            (std::vector{this->highs(0, 0)}));
}

TYPED_TEST(IntervalSetTyped, ComplementRoundTripsAtBothEdges) {
  using S = Space<TypeParam>;
  typename TestFixture::Set set;
  set.insert(this->lows(0, 9));
  set.insert(this->highs(9, 0));
  const auto complement = set.complement();
  EXPECT_EQ(this->ranges(complement),
            (std::vector{typename TestFixture::Range{S::low(10),
                                                     S::high(10)}}));
  EXPECT_FALSE(complement.contains(S::low(0)));
  EXPECT_FALSE(complement.contains(S::high(0)));
  EXPECT_EQ(complement.complement(), set);
}

TYPED_TEST(IntervalSetTyped, InsertBridgingGapBelowTop) {
  typename TestFixture::Set set;
  set.insert(this->highs(100, 50));
  set.insert(this->highs(20, 0));
  set.insert(this->highs(49, 21));  // exact bridge
  EXPECT_EQ(this->ranges(set), (std::vector{this->highs(100, 0)}));
}

// --- IPv6 only: the carry between the two 64-bit words -----------------
//
// x:...:ffff:ffff:ffff:ffff and (x+1):: are neighbours although no word
// holds them both; every `last + 1` and `first - 1` must carry.

constexpr std::uint64_t kWord = 0x20010db800000007ULL;  // x's high word
constexpr std::uint64_t kOnes = ~0ULL;

Interval6 iv6(std::uint64_t hi_a, std::uint64_t lo_a, std::uint64_t hi_b,
              std::uint64_t lo_b) {
  return Interval6{Ipv6Address(hi_a, lo_a), Ipv6Address(hi_b, lo_b)};
}

TEST(IntervalSet6Carry, CoalescesAcrossTheWordBoundary) {
  const Interval6 below = iv6(kWord, kOnes - 9, kWord, kOnes);
  const Interval6 above = iv6(kWord + 1, 0, kWord + 1, 9);
  const std::vector<Interval6> whole = {iv6(kWord, kOnes - 9, kWord + 1, 9)};
  for (const bool below_first : {true, false}) {
    IntervalSet6 set;
    set.insert(below_first ? below : above);
    set.insert(below_first ? above : below);
    EXPECT_TRUE(std::ranges::equal(set.intervals(), whole));
  }
  const std::vector<Interval6> both = {above, below};
  EXPECT_TRUE(std::ranges::equal(IntervalSet6(both).intervals(), whole));
  IntervalSet6 lower;
  lower.insert(below);
  IntervalSet6 upper;
  upper.insert(above);
  EXPECT_TRUE(std::ranges::equal(lower.union_with(upper).intervals(), whole));
  // One address short of adjacent stays apart.
  IntervalSet6 gapped;
  gapped.insert(below);
  gapped.insert(iv6(kWord + 1, 1, kWord + 1, 9));
  EXPECT_EQ(gapped.interval_count(), 2u);
}

TEST(IntervalSet6Carry, RemoveAndSubtractSplitAcrossTheWordBoundary) {
  const Interval6 whole = iv6(kWord, kOnes - 9, kWord + 1, 9);
  IntervalSet6 set;
  set.insert(whole);

  IntervalSet6 without_last_below = set;
  without_last_below.remove(iv6(kWord, kOnes, kWord, kOnes));
  EXPECT_TRUE(std::ranges::equal(
      without_last_below.intervals(),
      std::vector{iv6(kWord, kOnes - 9, kWord, kOnes - 1),
                  iv6(kWord + 1, 0, kWord + 1, 9)}));

  IntervalSet6 without_first_above = set;
  without_first_above.remove(iv6(kWord + 1, 0, kWord + 1, 0));
  EXPECT_TRUE(std::ranges::equal(
      without_first_above.intervals(),
      std::vector{iv6(kWord, kOnes - 9, kWord, kOnes),
                  iv6(kWord + 1, 1, kWord + 1, 9)}));

  // A hole straddling the boundary leaves a piece on each side.
  IntervalSet6 hole;
  hole.insert(iv6(kWord, kOnes - 1, kWord + 1, 1));
  const IntervalSet6 split = set.subtract(hole);
  EXPECT_TRUE(std::ranges::equal(
      split.intervals(), std::vector{iv6(kWord, kOnes - 9, kWord, kOnes - 2),
                                     iv6(kWord + 1, 2, kWord + 1, 9)}));
  EXPECT_EQ(split, set.intersect(hole.complement()));
  EXPECT_EQ(split.union_with(hole).intersect(set), set);
}

TEST(IntervalSet6Carry, NeverStepsPastTheAllOnesAddress) {
  const Ipv6Address all_ones(kOnes, kOnes);
  const Interval6 top = iv6(kOnes, kOnes - 5, kOnes, kOnes);
  const Interval6 bottom = iv6(0, 0, 0, 3);
  // A range ending at the all-ones address does not wrap into ::.
  for (const bool top_first : {true, false}) {
    IntervalSet6 set;
    set.insert(top_first ? top : bottom);
    set.insert(top_first ? bottom : top);
    EXPECT_TRUE(
        std::ranges::equal(set.intervals(), std::vector{bottom, top}));
    EXPECT_TRUE(set.contains(all_ones));
    EXPECT_FALSE(set.contains(Ipv6Address(0, 4)));
    EXPECT_TRUE(std::ranges::equal(
        set.complement().intervals(),
        std::vector{iv6(0, 4, kOnes, kOnes - 6)}));
  }
  const std::vector<Interval6> pair = {top, bottom};
  EXPECT_TRUE(std::ranges::equal(IntervalSet6(pair).intervals(),
                                 std::vector{bottom, top}));
  // Re-inserting over the top and removing the all-ones address itself.
  IntervalSet6 set;
  set.insert(top);
  set.insert(iv6(kOnes, kOnes - 2, kOnes, kOnes));
  EXPECT_TRUE(std::ranges::equal(set.intervals(), std::vector{top}));
  set.remove(iv6(kOnes, kOnes, kOnes, kOnes));
  EXPECT_TRUE(std::ranges::equal(set.intervals(),
                                 std::vector{iv6(kOnes, kOnes - 5, kOnes,
                                                 kOnes - 1)}));
  // A hole reaching the all-ones address ends the walk there.
  IntervalSet6 holes;
  holes.insert(iv6(kOnes, kOnes - 1, kOnes, kOnes));
  EXPECT_TRUE(std::ranges::equal(
      IntervalSet6::full_space().subtract(holes).intervals(),
      std::vector{iv6(0, 0, kOnes, kOnes - 2)}));
}

constexpr std::uint32_t kTop = 0xffffffffu;

TEST(IntervalOverflow, AddressIndexerReachesTheTop) {
  IntervalSet set;
  set.insert(iv(5, 6));
  set.insert(iv(kTop - 1, kTop));
  const AddressIndexer indexer(set);
  ASSERT_EQ(indexer.size(), 4u);
  EXPECT_EQ(indexer.at(0).value(), 5u);
  EXPECT_EQ(indexer.at(3).value(), kTop);
}

TEST(IntervalOverflow, ToPrefixesCoversTheTop) {
  IntervalSet set;
  set.insert(iv(kTop, kTop));
  const auto prefixes = set.to_prefixes();
  ASSERT_EQ(prefixes.size(), 1u);
  EXPECT_EQ(prefixes[0], Prefix(Ipv4Address(kTop), 32));
  // And the full space covers as the single /0.
  const auto all = IntervalSet::full_space().to_prefixes();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0], Prefix(Ipv4Address(0), 0));
}

}  // namespace
}  // namespace tass::net
