// Unit tests for the incremental churn pipeline's delta layer:
// bgp::RibDelta (diff / apply / MRT update codec) and
// bgp::PrefixPartition::apply_delta with its PartitionDelta projection.
#include "bgp/rib_delta.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string_view>
#include <vector>

#include "bgp/partition.hpp"
#include "util/error.hpp"

namespace tass::bgp {
namespace {

net::Prefix pfx(std::string_view text) {
  return net::Prefix::parse_or_throw(text);
}

std::vector<Pfx2AsRecord> base_table() {
  return {
      {pfx("10.0.0.0/8"), {100}},
      {pfx("10.64.0.0/10"), {200}},
      {pfx("172.16.0.0/12"), {300, 301}},
      {pfx("192.0.2.0/24"), {400}},
  };
}

// ---- diff / apply ----------------------------------------------------

TEST(RibDeltaTest, DiffDetectsAllThreeChangeKinds) {
  const auto from = base_table();
  std::vector<Pfx2AsRecord> to = {
      {pfx("10.0.0.0/8"), {100}},           // unchanged
      {pfx("10.64.0.0/10"), {250}},         // reorigin
      {pfx("192.0.2.0/24"), {400}},         // unchanged
      {pfx("198.51.100.0/24"), {500}},      // announce
  };                                        // 172.16/12 withdrawn
  const RibDelta delta = RibDelta::diff(from, to);
  ASSERT_EQ(delta.announce.size(), 1u);
  EXPECT_EQ(delta.announce[0].prefix, pfx("198.51.100.0/24"));
  ASSERT_EQ(delta.withdraw.size(), 1u);
  EXPECT_EQ(delta.withdraw[0], pfx("172.16.0.0/12"));
  ASSERT_EQ(delta.reorigin.size(), 1u);
  EXPECT_EQ(delta.reorigin[0].origins, (std::vector<std::uint32_t>{250}));
  EXPECT_NO_THROW(delta.validate());

  // diff . apply round-trips to the target table (sorted by prefix).
  auto applied = delta.apply(from);
  std::sort(to.begin(), to.end(),
            [](const Pfx2AsRecord& a, const Pfx2AsRecord& b) {
              return a.prefix < b.prefix;
            });
  EXPECT_EQ(applied, to);
}

TEST(RibDeltaTest, DiffOfIdenticalTablesIsEmpty) {
  const auto table = base_table();
  const RibDelta delta = RibDelta::diff(table, table);
  EXPECT_TRUE(delta.empty());
  EXPECT_EQ(delta.change_count(), 0u);
  // Applying the empty delta returns the table, sorted by prefix.
  const auto applied = delta.apply(table);
  EXPECT_EQ(applied.size(), table.size());
  EXPECT_TRUE(std::is_sorted(applied.begin(), applied.end(),
                             [](const Pfx2AsRecord& a, const Pfx2AsRecord& b) {
                               return a.prefix < b.prefix;
                             }));
}

TEST(RibDeltaTest, DiffRejectsDuplicatePrefixesInEitherTable) {
  auto table = base_table();
  table.push_back({pfx("10.0.0.0/8"), {999}});
  EXPECT_THROW(RibDelta::diff(table, base_table()), Error);
  EXPECT_THROW(RibDelta::diff(base_table(), table), Error);
}

TEST(RibDeltaTest, ValidateRejectsCorruptAndDuplicateDeltas) {
  {
    RibDelta delta;  // duplicate within a section
    delta.withdraw = {pfx("10.0.0.0/8"), pfx("10.0.0.0/8")};
    EXPECT_THROW(delta.validate(), Error);
  }
  {
    RibDelta delta;  // same prefix in two sections
    delta.announce = {{pfx("10.0.0.0/8"), {1}}};
    delta.withdraw = {pfx("10.0.0.0/8")};
    EXPECT_THROW(delta.validate(), Error);
  }
  {
    RibDelta delta;  // announce without an origin
    delta.announce = {{pfx("10.0.0.0/8"), {}}};
    EXPECT_THROW(delta.validate(), Error);
  }
  {
    RibDelta delta;  // reorigin without an origin
    delta.reorigin = {{pfx("10.0.0.0/8"), {}}};
    EXPECT_THROW(delta.validate(), Error);
  }
}

TEST(RibDeltaTest, ApplyRejectsDeltasThatDoNotFitTheTable) {
  const auto table = base_table();
  {
    RibDelta delta;  // withdraw of an unknown prefix
    delta.withdraw = {pfx("203.0.113.0/24")};
    EXPECT_THROW(delta.apply(table), Error);
  }
  {
    RibDelta delta;  // announce of an existing prefix
    delta.announce = {{pfx("10.0.0.0/8"), {1}}};
    EXPECT_THROW(delta.apply(table), Error);
  }
  {
    RibDelta delta;  // reorigin of an unknown prefix
    delta.reorigin = {{pfx("203.0.113.0/24"), {1}}};
    EXPECT_THROW(delta.apply(table), Error);
  }
}

// ---- MRT update stream round-trip ------------------------------------

TEST(RibDeltaTest, MrtUpdateStreamRoundTripsThroughRebase) {
  const auto table = base_table();
  RibDelta delta;  // sections ascending by prefix (the canonical form
                   // diff/decode/rebased produce)
  delta.announce = {{pfx("198.18.0.0/15"), {600, 601}},  // multi-origin
                    {pfx("198.51.100.0/24"), {500}},
                    {pfx("203.0.113.0/24"), {500}}};     // same origin group
  delta.withdraw = {pfx("172.16.0.0/12"), pfx("192.0.2.0/24")};
  delta.reorigin = {{pfx("10.64.0.0/10"), {250}}};

  const auto wire = encode_mrt_updates(delta, 1441584000);
  std::size_t skipped = 7;
  const RibDelta decoded = decode_mrt_updates(wire, &skipped);
  EXPECT_EQ(skipped, 0u);
  // On the wire a reorigin is just a re-announcement; rebasing against the
  // pre-delta table recovers the three-way split exactly.
  EXPECT_TRUE(decoded.reorigin.empty());
  EXPECT_EQ(decoded.announce.size(),
            delta.announce.size() + delta.reorigin.size());
  const RibDelta rebased_delta = rebased(decoded, table);
  EXPECT_EQ(rebased_delta, delta);
}

TEST(RibDeltaTest, MrtUpdateStreamChunksLargeDeltas) {
  // More prefixes than fit one UPDATE message: forces the chunking path.
  RibDelta delta;
  for (std::uint32_t i = 0; i < 300; ++i) {
    delta.announce.push_back(
        {net::Prefix(net::Ipv4Address(0x0a000000u + (i << 8)), 24), {i + 1}});
  }
  const auto wire = encode_mrt_updates(delta, 0);
  const RibDelta decoded = decode_mrt_updates(wire);
  EXPECT_EQ(decoded.announce.size(), 300u);
  EXPECT_TRUE(decoded.withdraw.empty());
  EXPECT_EQ(decoded.announce, delta.announce);  // both ascending by prefix
}

TEST(RibDeltaTest, DecodeCoalescesRepeatedUpdatesLastOneWins) {
  // announce P, then withdraw P, then announce P again with new origins:
  // stream order must collapse to the final announcement.
  RibDelta first;
  first.announce = {{pfx("198.51.100.0/24"), {1}}};
  RibDelta second;
  second.withdraw = {pfx("198.51.100.0/24")};
  RibDelta third;
  third.announce = {{pfx("198.51.100.0/24"), {2}}};
  std::vector<std::byte> wire;
  for (const RibDelta* d : {&first, &second, &third}) {
    const auto part = encode_mrt_updates(*d, 0);
    wire.insert(wire.end(), part.begin(), part.end());
  }
  const RibDelta decoded = decode_mrt_updates(wire);
  ASSERT_EQ(decoded.announce.size(), 1u);
  EXPECT_EQ(decoded.announce[0].origins, (std::vector<std::uint32_t>{2}));
  EXPECT_TRUE(decoded.withdraw.empty());
}

TEST(RibDeltaTest, RebasedDropsNoOpReannouncements) {
  const auto table = base_table();
  RibDelta delta;
  delta.announce = {{pfx("10.0.0.0/8"), {100}},   // identical: drop
                    {pfx("10.64.0.0/10"), {9}},   // differs: reorigin
                    {pfx("198.51.100.0/24"), {5}}};  // new: announce
  const RibDelta result = rebased(delta, table);
  ASSERT_EQ(result.announce.size(), 1u);
  EXPECT_EQ(result.announce[0].prefix, pfx("198.51.100.0/24"));
  ASSERT_EQ(result.reorigin.size(), 1u);
  EXPECT_EQ(result.reorigin[0].prefix, pfx("10.64.0.0/10"));
  EXPECT_TRUE(result.withdraw.empty());

  RibDelta bad;
  bad.withdraw = {pfx("203.0.113.0/24")};
  EXPECT_THROW(rebased(bad, table), Error);
}

// ---- partition delta projection and in-place apply -------------------

std::vector<net::Prefix> disjoint_prefixes() {
  return {pfx("10.0.0.0/16"), pfx("10.1.0.0/16"), pfx("172.16.0.0/16"),
          pfx("192.0.2.0/24"), pfx("198.51.100.0/24")};
}

TEST(PartitionDeltaTest, PartitionDeltaIsTheSetDiffOfLiveCells) {
  const PrefixPartition partition(disjoint_prefixes());
  const std::vector<net::Prefix> target{
      pfx("10.0.0.0/16"), pfx("10.1.0.0/16"), pfx("192.0.2.0/24"),
      pfx("203.0.113.0/24")};
  const PartitionDelta delta = partition_delta(partition, target);
  EXPECT_EQ(delta.remove, (std::vector<net::Prefix>{
                              pfx("172.16.0.0/16"), pfx("198.51.100.0/24")}));
  EXPECT_EQ(delta.add, (std::vector<net::Prefix>{pfx("203.0.113.0/24")}));

  const std::vector<net::Prefix> duplicated{pfx("10.0.0.0/16"),
                                            pfx("10.0.0.0/16")};
  EXPECT_THROW(partition_delta(partition, duplicated), Error);
}

TEST(PartitionDeltaTest, ApplyDeltaKeepsSurvivingCellIndicesStable) {
  PrefixPartition partition(disjoint_prefixes());
  PartitionDelta delta;
  delta.remove = {pfx("10.1.0.0/16")};
  delta.add = {pfx("203.0.113.0/24"), pfx("198.18.0.0/15")};
  const PartitionApplyResult result = partition.apply_delta(delta);

  EXPECT_EQ(result.old_cell_count, 5u);
  EXPECT_EQ(result.new_cell_count, 6u);
  EXPECT_EQ(result.removed_cells, (std::vector<std::uint32_t>{1}));
  // First addition reuses the freed slot 1, second appends as slot 5.
  EXPECT_EQ(result.added_cells, (std::vector<std::uint32_t>{1, 5}));

  // Survivors: same index, same prefix, same locate().
  EXPECT_EQ(partition.prefix(0), pfx("10.0.0.0/16"));
  EXPECT_EQ(partition.prefix(2), pfx("172.16.0.0/16"));
  EXPECT_EQ(partition.locate(net::Ipv4Address::parse_or_throw("10.0.5.5")),
            std::optional<std::uint32_t>{0});
  // The withdrawn space no longer locates anywhere...
  EXPECT_EQ(partition.locate(net::Ipv4Address::parse_or_throw("10.1.5.5")),
            std::nullopt);
  // ...and the new cells do.
  EXPECT_EQ(
      partition.locate(net::Ipv4Address::parse_or_throw("203.0.113.9")),
      std::optional<std::uint32_t>{1});
  EXPECT_EQ(
      partition.locate(net::Ipv4Address::parse_or_throw("198.19.0.1")),
      std::optional<std::uint32_t>{5});
  EXPECT_EQ(partition.index_of(pfx("203.0.113.0/24")),
            std::optional<std::uint32_t>{1});
  EXPECT_EQ(partition.live_cells(), 6u);
  EXPECT_EQ(partition.free_cells(), 0u);
}

TEST(PartitionDeltaTest, SurplusRemovalsLeaveReusableFreeSlots) {
  PrefixPartition partition(disjoint_prefixes());
  PartitionDelta shrink;
  shrink.remove = {pfx("10.0.0.0/16"), pfx("192.0.2.0/24")};
  const auto first = partition.apply_delta(shrink);
  EXPECT_EQ(first.removed_cells, (std::vector<std::uint32_t>{0, 3}));
  EXPECT_TRUE(first.added_cells.empty());
  EXPECT_EQ(partition.size(), 5u);        // slots stay
  EXPECT_EQ(partition.live_cells(), 3u);  // cells do not
  EXPECT_EQ(partition.free_cells(), 2u);
  EXPECT_FALSE(partition.live(0));
  EXPECT_TRUE(partition.live(1));
  EXPECT_EQ(partition.address_count(),
            pfx("10.1.0.0/16").size() + pfx("172.16.0.0/16").size() +
                pfx("198.51.100.0/24").size());

  PartitionDelta grow;
  grow.add = {pfx("203.0.113.0/24")};
  const auto second = partition.apply_delta(grow);
  EXPECT_EQ(second.added_cells, (std::vector<std::uint32_t>{0}));  // reused
  EXPECT_EQ(partition.prefix(0), pfx("203.0.113.0/24"));
  EXPECT_EQ(partition.free_cells(), 1u);
}

TEST(PartitionDeltaTest, ApplyDeltaValidationIsStrongAndPreMutation) {
  PrefixPartition partition(disjoint_prefixes());
  {
    PartitionDelta delta;  // removing a non-cell
    delta.remove = {pfx("203.0.113.0/24")};
    EXPECT_THROW(partition.apply_delta(delta), Error);
  }
  {
    PartitionDelta delta;  // removing the same cell twice
    delta.remove = {pfx("10.0.0.0/16"), pfx("10.0.0.0/16")};
    EXPECT_THROW(partition.apply_delta(delta), Error);
  }
  {
    PartitionDelta delta;  // addition overlapping a surviving cell
    delta.add = {pfx("10.0.0.0/8")};
    EXPECT_THROW(partition.apply_delta(delta), Error);
  }
  {
    PartitionDelta delta;  // addition nested inside a surviving cell
    delta.add = {pfx("10.0.99.0/24")};
    EXPECT_THROW(partition.apply_delta(delta), Error);
  }
  {
    PartitionDelta delta;  // additions overlapping each other
    delta.add = {pfx("203.0.113.0/24"), pfx("203.0.113.128/25")};
    EXPECT_THROW(partition.apply_delta(delta), Error);
  }
  // All rejections happened before any mutation.
  EXPECT_EQ(partition.live_cells(), 5u);
  EXPECT_EQ(partition.free_cells(), 0u);
  for (std::size_t i = 0; i < partition.size(); ++i) {
    EXPECT_EQ(partition.prefix(i), disjoint_prefixes()[i]);
  }
}

TEST(PartitionDeltaTest, RemoveAndReAddSamePrefixIsAllowed) {
  PrefixPartition partition(disjoint_prefixes());
  PartitionDelta delta;
  delta.remove = {pfx("10.1.0.0/16")};
  delta.add = {pfx("10.1.0.0/16")};
  const auto result = partition.apply_delta(delta);
  EXPECT_EQ(result.added_cells, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(partition.locate(net::Ipv4Address::parse_or_throw("10.1.2.3")),
            std::optional<std::uint32_t>{1});
  EXPECT_EQ(partition.live_cells(), 5u);
}

TEST(PartitionDeltaTest, SplittingACellMirrorsDeaggregationChurn) {
  PrefixPartition partition(disjoint_prefixes());
  PartitionDelta delta;
  delta.remove = {pfx("172.16.0.0/16")};
  delta.add = {pfx("172.16.0.0/17"), pfx("172.16.128.0/17")};
  const auto result = partition.apply_delta(delta);
  EXPECT_EQ(result.added_cells, (std::vector<std::uint32_t>{2, 5}));
  EXPECT_EQ(
      partition.locate(net::Ipv4Address::parse_or_throw("172.16.1.1")),
      std::optional<std::uint32_t>{2});
  EXPECT_EQ(
      partition.locate(net::Ipv4Address::parse_or_throw("172.16.200.1")),
      std::optional<std::uint32_t>{5});
  EXPECT_EQ(partition.address_count(),
            PrefixPartition(disjoint_prefixes()).address_count());
}

// Probes for the overlap query, against cells laid out in slot order as:
// 0 a cell a narrower probe sits inside, 1 and 2 two siblings a wider
// probe contains, 3 and 4 the two halves of the block that ends at the
// all-ones address.
struct OverlapShapes {
  std::vector<std::string_view> cells;
  std::string_view inside_cell0;    // covered by cell 0
  std::string_view around_cells12;  // network in cell 1; holds 1 and 2
  std::string_view above_cells12;   // network in no cell; holds 1 and 2
  std::string_view to_all_ones;     // the parent of cells 3 and 4
  std::string_view disjoint;        // overlaps nothing
  std::string_view everything;      // the zero-length prefix
};

template <class Family>
void expect_overlap_query(const OverlapShapes& shapes) {
  using Prefix = typename Family::Prefix;
  using Hit = std::optional<std::uint32_t>;
  const auto parse = [](std::string_view text) {
    return Prefix::parse_or_throw(text);
  };
  std::vector<Prefix> cells;
  for (const std::string_view text : shapes.cells) cells.push_back(parse(text));
  BasicPrefixPartition<Family> partition(cells);
  const auto query = [&](std::string_view probe,
                         std::vector<std::uint32_t> skipped = {}) {
    return partition.overlapping_cell(parse(probe), [&](std::uint32_t slot) {
      return std::find(skipped.begin(), skipped.end(), slot) !=
             skipped.end();
    });
  };

  // A covering cell, and nothing once it is skipped.
  EXPECT_EQ(query(shapes.inside_cell0), Hit{0});
  EXPECT_EQ(query(shapes.inside_cell0, {0}), std::nullopt);
  // A cell equal to the probe.
  EXPECT_EQ(query(shapes.cells[2]), Hit{2});
  // Cells nested inside the probe, found by the sorted walk alone.
  EXPECT_EQ(query(shapes.above_cells12), Hit{1});
  EXPECT_EQ(query(shapes.above_cells12, {1}), Hit{2});
  // A skipped covering cell: the next inner cell is reported.
  EXPECT_EQ(query(shapes.around_cells12), Hit{1});
  EXPECT_EQ(query(shapes.around_cells12, {1}), Hit{2});
  EXPECT_EQ(query(shapes.around_cells12, {1, 2}), std::nullopt);
  // A probe ending at the all-ones address walks to the end of the view.
  EXPECT_EQ(query(shapes.to_all_ones), Hit{3});
  EXPECT_EQ(query(shapes.to_all_ones, {3}), Hit{4});
  EXPECT_EQ(query(shapes.to_all_ones, {3, 4}), std::nullopt);
  EXPECT_EQ(query(shapes.everything), Hit{0});
  EXPECT_EQ(query(shapes.everything, {0, 1, 2, 3}), Hit{4});
  EXPECT_EQ(query(shapes.everything, {0, 1, 2, 3, 4}), std::nullopt);
  EXPECT_EQ(query(shapes.disjoint), std::nullopt);

  // A removed cell is never reported.
  PartitionDeltaT<Family> delta;
  delta.remove = {cells[1]};
  partition.apply_delta(delta);
  EXPECT_EQ(query(shapes.around_cells12), Hit{2});
}

TEST(PartitionDeltaTest, OverlappingCellFindsCoveringAndNestedCellsV4) {
  expect_overlap_query<net::Ipv4Family>(
      {.cells = {"10.0.0.0/16", "172.16.0.0/16", "172.17.0.0/16",
                 "255.255.255.0/25", "255.255.255.128/25"},
       .inside_cell0 = "10.0.99.0/24",
       .around_cells12 = "172.16.0.0/15",
       .above_cells12 = "172.0.0.0/8",
       .to_all_ones = "255.255.255.0/24",
       .disjoint = "192.0.2.0/24",
       .everything = "0.0.0.0/0"});
}

TEST(PartitionDeltaTest, OverlappingCellFindsCoveringAndNestedCellsV6) {
  expect_overlap_query<net::Ipv6Family>(
      {.cells = {"2001:db8::/32", "2a00:4::/32", "2a00:5::/32", "ffff::/17",
                 "ffff:8000::/17"},
       .inside_cell0 = "2001:db8:99::/48",
       .around_cells12 = "2a00:4::/31",
       .above_cells12 = "2a00::/16",
       .to_all_ones = "ffff::/16",
       .disjoint = "3fff::/16",
       .everything = "::/0"});
}

TEST(PartitionDeltaTest, ReindexPatchesPerCellVectors) {
  PartitionApplyResult result;
  result.old_cell_count = 4;
  result.new_cell_count = 5;
  result.removed_cells = {1};
  result.added_cells = {1, 4};
  std::vector<std::uint32_t> counts{10, 20, 30, 40};
  result.reindex(counts);
  EXPECT_EQ(counts, (std::vector<std::uint32_t>{10, 0, 30, 40, 0}));
}

}  // namespace
}  // namespace tass::bgp
