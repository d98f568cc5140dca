// Fault-injection and politeness-budget tests for the stream ingest
// path: MrtFramer resync behaviour under truncation, corruption and
// inter-record garbage, the reactor's classification of hostile or noisy
// updates (overlaps, noops), mid-record EOF on a file-tail source, and
// per-AS pacing with an injected clock.
//
// The framing contract under corruption: for arbitrary feed bytes the
// framer never throws and never crashes; every intact BGP4MP record
// surrounded by corruption is still decoded (resync), and everything
// that is dropped is accounted — decode_errors, resyncs,
// bytes_discarded, truncated_tail — never silently skipped.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bgp/partition.hpp"
#include "bgp/rib_delta.hpp"
#include "core/ranking.hpp"
#include "core/reseed.hpp"
#include "net/interval.hpp"
#include "scan/engine.hpp"
#include "stream/framer.hpp"
#include "stream/reactor.hpp"
#include "stream/source.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace tass::stream {
namespace {

bgp::RibDelta announce_delta(
    std::initializer_list<std::pair<const char*, std::uint32_t>> entries) {
  bgp::RibDelta delta;
  for (const auto& [text, origin] : entries) {
    delta.announce.push_back(
        {net::Prefix::parse_or_throw(text), {origin}});
  }
  return delta;
}

bgp::RibDelta withdraw_delta(std::initializer_list<const char*> prefixes) {
  bgp::RibDelta delta;
  for (const char* text : prefixes) {
    delta.withdraw.push_back(net::Prefix::parse_or_throw(text));
  }
  std::sort(delta.withdraw.begin(), delta.withdraw.end());
  return delta;
}

std::vector<std::byte> wire_of(const bgp::RibDelta& delta,
                               std::uint32_t timestamp = 1441584000) {
  return bgp::encode_mrt_updates(delta, timestamp);
}

/// End offsets of every MRT record in `wire` (walking the length fields
/// of a known-good stream).
std::vector<std::size_t> record_boundaries(
    std::span<const std::byte> wire) {
  std::vector<std::size_t> boundaries;
  std::size_t offset = 0;
  while (offset + 12 <= wire.size()) {
    const std::size_t body =
        (std::to_integer<std::size_t>(wire[offset + 8]) << 24) |
        (std::to_integer<std::size_t>(wire[offset + 9]) << 16) |
        (std::to_integer<std::size_t>(wire[offset + 10]) << 8) |
        std::to_integer<std::size_t>(wire[offset + 11]);
    offset += 12 + body;
    boundaries.push_back(offset);
  }
  return boundaries;
}

/// Drains a framer completely, returning the decoded deltas.
std::vector<bgp::RibDelta> drain_all(MrtFramer& framer) {
  std::vector<bgp::RibDelta> out;
  while (auto delta = framer.next()) out.push_back(std::move(*delta));
  return out;
}

// --- Framer: truncation at every byte boundary -------------------------

TEST(StreamFramerTest, EveryTruncationYieldsCleanPrefixOfRecords) {
  std::vector<std::byte> wire = wire_of(
      announce_delta({{"10.0.0.0/24", 64500}, {"10.0.1.0/24", 64501}}));
  const auto more =
      wire_of(withdraw_delta({"10.0.0.0/24", "192.0.2.0/24"}), 1441584001);
  wire.insert(wire.end(), more.begin(), more.end());
  const std::vector<std::size_t> boundaries = record_boundaries(wire);
  ASSERT_GE(boundaries.size(), 2u);
  ASSERT_EQ(boundaries.back(), wire.size());

  for (std::size_t cut = 0; cut <= wire.size(); ++cut) {
    MrtFramer framer;
    framer.push(std::span<const std::byte>(wire.data(), cut));
    const auto decoded = drain_all(framer);
    framer.finish();
    // Exactly the records fully contained in the cut are decoded...
    const auto complete = static_cast<std::size_t>(
        std::upper_bound(boundaries.begin(), boundaries.end(), cut) -
        boundaries.begin());
    EXPECT_EQ(decoded.size(), complete) << "cut " << cut;
    const FramerStats& stats = framer.stats();
    EXPECT_EQ(stats.records, complete) << "cut " << cut;
    // ...a partial tail is accounted, never silently dropped...
    const std::size_t last_boundary = complete == 0
                                          ? 0
                                          : boundaries[complete - 1];
    EXPECT_EQ(stats.truncated_tail, cut > last_boundary ? 1u : 0u)
        << "cut " << cut;
    // ...and a pure truncation never looks like corruption.
    EXPECT_EQ(stats.decode_errors, 0u) << "cut " << cut;
    EXPECT_EQ(stats.resyncs, 0u) << "cut " << cut;
  }
}

TEST(StreamFramerTest, SingleByteFragmentsReassemble) {
  // One shared origin set -> one attribute group -> a single MRT record.
  const auto wire = wire_of(
      announce_delta({{"10.0.0.0/24", 64500}, {"10.9.0.0/16", 64500}}));
  MrtFramer framer;
  std::vector<bgp::RibDelta> decoded;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    framer.push(std::span<const std::byte>(wire.data() + i, 1));
    for (auto delta = framer.next(); delta; delta = framer.next()) {
      decoded.push_back(std::move(*delta));
    }
  }
  framer.finish();
  ASSERT_EQ(decoded.size(), 1u);  // one origin group -> one record
  ASSERT_EQ(decoded[0].announce.size(), 2u);
  EXPECT_EQ(framer.stats().truncated_tail, 0u);
}

// --- Framer: corruption between and inside records ---------------------

TEST(StreamFramerTest, GarbageBetweenRecordsIsSkippedNotFatal) {
  const auto first = wire_of(announce_delta({{"10.0.0.0/24", 64500}}));
  const auto second = wire_of(withdraw_delta({"192.0.2.0/24"}));
  // 0xAA never forms a plausible MRT type, so the garbage span is
  // unambiguous; the framer must discard exactly it and resync.
  std::vector<std::byte> wire = first;
  wire.insert(wire.end(), 37, std::byte{0xAA});
  wire.insert(wire.end(), second.begin(), second.end());

  MrtFramer framer;
  framer.push(wire);
  const auto decoded = drain_all(framer);
  framer.finish();
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].announce.size(), 1u);
  EXPECT_EQ(decoded[1].withdraw.size(), 1u);
  const FramerStats& stats = framer.stats();
  EXPECT_GE(stats.resyncs, 1u);
  EXPECT_EQ(stats.bytes_discarded, 37u);
  EXPECT_EQ(stats.truncated_tail, 0u);
}

TEST(StreamFramerTest, CorruptMiddleRecordResyncsToNextIntactRecord) {
  const auto first = wire_of(announce_delta({{"10.0.0.0/24", 64500}}));
  const auto third = wire_of(withdraw_delta({"192.0.2.0/24"}));
  // A record with a plausible BGP4MP header but a corrupt body: a copy
  // of a real record with one BGP-marker byte flipped (offset 12 MRT
  // header + 20 BGP4MP_AS4 preamble). The decoder throws FormatError,
  // and the framer must resync to the intact record after it without
  // losing it.
  std::vector<std::byte> bogus = wire_of(withdraw_delta({"198.18.0.0/15"}));
  bogus[32] ^= std::byte{0x01};

  std::vector<std::byte> wire = first;
  wire.insert(wire.end(), bogus.begin(), bogus.end());
  wire.insert(wire.end(), third.begin(), third.end());

  MrtFramer framer;
  framer.push(wire);
  const auto decoded = drain_all(framer);
  framer.finish();
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].announce.size(), 1u);
  EXPECT_EQ(decoded[1].withdraw.size(), 1u);
  const FramerStats& stats = framer.stats();
  EXPECT_GE(stats.decode_errors, 1u);
  EXPECT_GE(stats.resyncs, 1u);
  // Exactly the bogus record's bytes are discarded; no intact byte is.
  EXPECT_EQ(stats.bytes_discarded, bogus.size());
}

TEST(StreamFramerTest, OversizedLengthFieldIsCorruptionNotAStall) {
  // A corrupted length field larger than kMaxRecordBytes must be treated
  // as an implausible header immediately — not awaited forever.
  std::vector<std::byte> bogus(12, std::byte{0});
  bogus[5] = std::byte{16};
  bogus[7] = std::byte{4};
  bogus[8] = std::byte{0x7f};  // ~2 GiB "body"
  const auto real = wire_of(withdraw_delta({"192.0.2.0/24"}));
  std::vector<std::byte> wire = bogus;
  wire.insert(wire.end(), real.begin(), real.end());

  MrtFramer framer;
  framer.push(wire);
  const auto decoded = drain_all(framer);
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].withdraw.size(), 1u);
  EXPECT_GE(framer.stats().resyncs, 1u);
}

TEST(StreamFramerTest, SeededByteFlipsNeverCrashAndAccountEveryByte) {
  std::vector<std::byte> pristine = wire_of(announce_delta(
      {{"10.0.0.0/24", 64500}, {"10.0.1.0/24", 64501}, {"10.2.0.0/16", 9}}));
  const auto more = wire_of(
      withdraw_delta({"10.0.0.0/24", "172.16.0.0/12", "192.0.2.0/24"}));
  pristine.insert(pristine.end(), more.begin(), more.end());

  for (const std::uint64_t seed : {23ull, 46ull, 92ull, 184ull}) {
    util::Rng rng(seed);
    for (int round = 0; round < 200; ++round) {
      auto wire = pristine;
      const std::size_t flips = 1 + rng.bounded(8);
      for (std::size_t i = 0; i < flips; ++i) {
        const auto pos =
            static_cast<std::size_t>(rng.bounded(wire.size()));
        wire[pos] = static_cast<std::byte>(rng.bounded(256));
      }
      MrtFramer framer;
      // Random fragmentation while corrupted, for good measure.
      std::size_t offset = 0;
      std::size_t surfaced = 0;
      while (offset < wire.size()) {
        const std::size_t take = std::min<std::size_t>(
            wire.size() - offset, 1 + rng.bounded(61));
        framer.push(std::span<const std::byte>(wire.data() + offset, take));
        while (auto delta = framer.next()) {
          // Whatever survives decoding must be structurally sane.
          for (const auto& record : delta->announce) {
            EXPECT_LE(record.prefix.length(), 32);
            EXPECT_FALSE(record.origins.empty());
          }
          ++surfaced;
        }
        offset += take;
      }
      framer.finish();
      const FramerStats& stats = framer.stats();
      EXPECT_EQ(stats.bytes_in, wire.size());
      EXPECT_EQ(stats.records, surfaced);
    }
  }
}

// --- Reactor classification of hostile / noisy updates -----------------

struct SmallWorld {
  std::vector<bgp::Pfx2AsRecord> table;
  std::vector<std::uint32_t> counts;
};

SmallWorld small_world() {
  SmallWorld world;
  for (std::uint32_t i = 0; i < 6; ++i) {
    world.table.push_back(
        {net::Prefix(net::Ipv4Address(0x0a000000u + (i << 8)), 24),
         {100 + i}});
    world.counts.push_back(4 * (i + 1));
  }
  return world;
}

TEST(StreamReactorTest, OverlappingAnnouncesAreRejectedNotApplied) {
  SmallWorld world = small_world();
  StreamReactor reactor(world.table, world.counts);
  const std::uint64_t before =
      bgp::partition_fingerprint(reactor.partition());

  // Overlaps a live cell (10.0.0.0/24), contains one, and a batch-internal
  // pair where the second add nests inside the first.
  reactor.feed(wire_of(announce_delta({{"10.0.0.128/25", 999}})));
  reactor.feed(wire_of(announce_delta({{"10.0.0.0/16", 999}})));
  reactor.feed(wire_of(announce_delta({{"12.0.0.0/24", 999}})));
  reactor.feed(wire_of(announce_delta({{"12.0.0.0/25", 999}})));
  reactor.flush();

  const ReactorStats stats = reactor.stats();
  EXPECT_EQ(stats.rejected_overlaps, 3u);
  EXPECT_EQ(stats.applied_announces, 1u);  // 12.0.0.0/24 is disjoint
  EXPECT_NE(bgp::partition_fingerprint(reactor.partition()), before);
  EXPECT_TRUE(reactor.partition()
                  .index_of(net::Prefix::parse_or_throw("12.0.0.0/24"))
                  .has_value());
  EXPECT_FALSE(reactor.partition()
                   .index_of(net::Prefix::parse_or_throw("10.0.0.128/25"))
                   .has_value());
  // The rejected overlaps never entered the routing table either.
  EXPECT_EQ(reactor.table().size(), world.table.size() + 1);

  // A cell withdrawn earlier in the batch no longer blocks an add: its
  // two halves are applied, not rejected.
  bgp::RibDelta split = withdraw_delta({"10.0.1.0/24"});
  split.announce = announce_delta({{"10.0.1.0/25", 777},
                                   {"10.0.1.128/25", 777}})
                       .announce;
  reactor.feed(wire_of(split));
  reactor.flush();
  const ReactorStats after = reactor.stats();
  EXPECT_EQ(after.rejected_overlaps, 3u);
  EXPECT_EQ(after.applied_withdraws, 1u);
  EXPECT_EQ(after.applied_announces, 3u);
  for (const char* text : {"10.0.1.0/25", "10.0.1.128/25"}) {
    EXPECT_TRUE(reactor.partition()
                    .index_of(net::Prefix::parse_or_throw(text))
                    .has_value())
        << text;
  }
  EXPECT_FALSE(reactor.partition()
                   .index_of(net::Prefix::parse_or_throw("10.0.1.0/24"))
                   .has_value());
  EXPECT_EQ(reactor.table().size(), world.table.size() + 2);
}

TEST(StreamReactorTest, WireChatterIsCountedAsNoops) {
  SmallWorld world = small_world();
  StreamReactor reactor(world.table, world.counts);

  // Withdraw of an absent prefix + re-announcement with unchanged
  // origins: both legitimate chatter, neither may change or publish.
  std::uint64_t published = 0;
  reactor.set_publisher([&](PublishedPlan) { ++published; });
  reactor.feed(wire_of(withdraw_delta({"203.0.113.0/24"})));
  reactor.feed(wire_of(announce_delta({{"10.0.0.0/24", 100}})));
  reactor.flush();

  const ReactorStats stats = reactor.stats();
  EXPECT_EQ(stats.noop_updates, 2u);
  EXPECT_EQ(stats.applied_announces, 0u);
  EXPECT_EQ(stats.applied_withdraws, 0u);
  EXPECT_EQ(stats.plans_published, 0u);
  EXPECT_EQ(published, 0u);
  EXPECT_EQ(reactor.table(), world.table);
}

TEST(StreamReactorTest, ReoriginUpdatesTableWithoutRepublishing) {
  SmallWorld world = small_world();
  StreamReactor reactor(world.table, world.counts);
  std::uint64_t published = 0;
  reactor.set_publisher([&](PublishedPlan) { ++published; });

  reactor.feed(wire_of(announce_delta({{"10.0.0.0/24", 4242}})));
  reactor.flush();

  EXPECT_EQ(reactor.stats().applied_reorigins, 1u);
  EXPECT_EQ(published, 0u);  // topology and ranking are unchanged
  const bgp::Pfx2AsRecord record = reactor.table().front();
  EXPECT_EQ(record.prefix, net::Prefix::parse_or_throw("10.0.0.0/24"));
  EXPECT_EQ(record.origins, (std::vector<std::uint32_t>{4242}));
}

TEST(StreamReactorTest, WithoutRescannerNothingCountsAsRescanned) {
  SmallWorld world = small_world();
  StreamReactor reactor(world.table, world.counts);

  // No set_rescanner: the two new cells are applied and score zero, but
  // nothing was probed, so nothing may count as rescanned.
  reactor.feed(wire_of(
      announce_delta({{"12.0.0.0/24", 500}, {"12.0.1.0/24", 500}})));
  reactor.flush();

  const ReactorStats stats = reactor.stats();
  EXPECT_EQ(stats.applied_announces, 2u);
  EXPECT_EQ(stats.rescanned_cells, 0u);
  EXPECT_EQ(stats.rescanned_addresses, 0u);
  for (const char* text : {"12.0.0.0/24", "12.0.1.0/24"}) {
    const auto cell =
        reactor.partition().index_of(net::Prefix::parse_or_throw(text));
    ASSERT_TRUE(cell.has_value()) << text;
    EXPECT_EQ(reactor.counts()[*cell], 0u) << text;
  }
}

// --- Mid-record EOF on a file-tail source ------------------------------

std::string temp_path(const std::string& stem) {
  const char* dir = std::getenv("TMPDIR");
  std::string base = dir != nullptr && *dir != '\0' ? dir : "/tmp";
  return base + "/" + stem + "." + std::to_string(::getpid());
}

TEST(StreamReactorTest, MidRecordEofOnFileTailIsAccountedNotFatal) {
  const auto complete = wire_of(withdraw_delta({"10.0.1.0/24"}));
  const auto truncated = wire_of(announce_delta({{"12.0.0.0/24", 999}}));
  std::vector<std::byte> file_bytes = complete;
  // Cut the second record mid-body: a collector crash mid-write.
  file_bytes.insert(file_bytes.end(), truncated.begin(),
                    truncated.begin() + 17);

  const std::string path = temp_path("tass_stream_feed");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(file_bytes.data()),
              static_cast<std::streamsize>(file_bytes.size()));
  }

  SmallWorld world = small_world();
  StreamReactor reactor(world.table, world.counts);
  reactor.start(make_update_source(path, /*follow=*/false));
  reactor.join();
  std::remove(path.c_str());

  const ReactorStats stats = reactor.stats();
  EXPECT_EQ(stats.applied_withdraws, 1u);  // the complete record landed
  EXPECT_EQ(stats.applied_announces, 0u);  // the truncated one did not
  EXPECT_EQ(stats.framer.truncated_tail, 1u);
  EXPECT_EQ(stats.framer.records, 1u);
  EXPECT_FALSE(reactor.partition()
                   .index_of(net::Prefix::parse_or_throw("10.0.1.0/24"))
                   .has_value());
}

TEST(StreamReactorTest, MissingFeedFileIsATypedError) {
  EXPECT_THROW(make_update_source(temp_path("tass_no_such_feed"), false),
               Error);
}

// --- Per-AS politeness pacing (injected clock) -------------------------

class RangeOracle final : public scan::ProbeOracle {
 public:
  // Deterministic quarter density: every address divisible by 4.
  std::uint64_t count_responsive(net::Interval interval) const override {
    const std::uint64_t first = interval.first.value();
    const std::uint64_t last = interval.last.value();
    return last / 4 - (first + 3) / 4 + 1;
  }
};

TEST(StreamReactorTest, AsBudgetDefersAndLaterRescansCells) {
  SmallWorld world = small_world();
  double now = 1000.0;
  ReactorOptions options;
  options.as_probes_per_second = 1.0;
  options.as_probe_burst = 1.0;
  options.clock = [&now] { return now; };
  StreamReactor reactor(world.table, world.counts, options);

  RangeOracle oracle;
  const scan::ScanEngine engine;
  reactor.set_rescanner(&oracle, &engine);

  // Two new prefixes from the same origin AS in one batch: the bucket
  // (burst 1.0, full) covers the first rescan; the second must defer.
  reactor.feed(wire_of(
      announce_delta({{"12.0.0.0/24", 500}, {"12.0.1.0/24", 500}})));
  reactor.flush();

  ReactorStats stats = reactor.stats();
  EXPECT_EQ(stats.applied_announces, 2u);
  EXPECT_EQ(stats.paced_deferrals, 1u);
  EXPECT_EQ(stats.deferred_pending, 1u);

  const auto cell_hosts = [&](const char* text) {
    const auto cell =
        reactor.partition().index_of(net::Prefix::parse_or_throw(text));
    return cell ? reactor.counts()[*cell] : 0u;
  };
  EXPECT_EQ(cell_hosts("12.0.0.0/24"), 64u);  // rescanned: 256/4 hosts
  EXPECT_EQ(cell_hosts("12.0.1.0/24"), 0u);   // deferred: scored zero

  // Budget still dry at the same instant: polling does nothing.
  EXPECT_FALSE(reactor.poll());

  // Refill the bucket and poll: the deferred cell is rescanned and the
  // plan republished with its real score.
  now += 60.0;
  EXPECT_TRUE(reactor.poll());
  stats = reactor.stats();
  EXPECT_EQ(stats.deferred_pending, 0u);
  EXPECT_EQ(cell_hosts("12.0.1.0/24"), 64u);
}

TEST(StreamReactorTest, WithdrawnDeferredCellIsDroppedNotRescanned) {
  SmallWorld world = small_world();
  double now = 1000.0;
  ReactorOptions options;
  options.as_probes_per_second = 1.0;
  options.as_probe_burst = 1.0;
  options.clock = [&now] { return now; };
  StreamReactor reactor(world.table, world.counts, options);

  RangeOracle oracle;
  const scan::ScanEngine engine;
  reactor.set_rescanner(&oracle, &engine);

  reactor.feed(wire_of(
      announce_delta({{"12.0.0.0/24", 500}, {"12.0.1.0/24", 500}})));
  reactor.flush();
  ASSERT_EQ(reactor.stats().deferred_pending, 1u);

  // The deferred prefix is withdrawn before its budget arrives: the
  // deferral must be dropped against the post-delta partition, never
  // rescanned into a dead (or reused) slot.
  reactor.feed(wire_of(withdraw_delta({"12.0.1.0/24"})));
  reactor.flush();
  now += 60.0;
  reactor.poll();

  const ReactorStats stats = reactor.stats();
  EXPECT_EQ(stats.deferred_pending, 0u);
  EXPECT_FALSE(reactor.partition()
                   .index_of(net::Prefix::parse_or_throw("12.0.1.0/24"))
                   .has_value());
}

TEST(StreamReactorTest, ReusedSlotTakesTheNewOriginsForPacingAndTable) {
  SmallWorld world = small_world();
  double now = 1000.0;
  ReactorOptions options;
  options.as_probes_per_second = 1.0;
  options.as_probe_burst = 1.0;
  options.clock = [&now] { return now; };
  StreamReactor reactor(world.table, world.counts, options);

  RangeOracle oracle;
  const scan::ScanEngine engine;
  reactor.set_rescanner(&oracle, &engine);

  // Spend AS 500's whole burst on a first new cell.
  reactor.feed(wire_of(announce_delta({{"12.0.0.0/24", 500}})));
  reactor.flush();
  ASSERT_EQ(reactor.stats().paced_deferrals, 0u);

  // One batch: withdraw 10.0.1.0/24 (AS 101, slot 1) and announce a
  // disjoint prefix from AS 500, which reuses the freed slot. The rescan
  // is charged to AS 500's dry bucket and held; charged to AS 101's
  // untouched bucket it would have run.
  bgp::RibDelta swap = withdraw_delta({"10.0.1.0/24"});
  swap.announce = announce_delta({{"13.0.0.0/24", 500}}).announce;
  reactor.feed(wire_of(swap));
  reactor.flush();

  const auto cell =
      reactor.partition().index_of(net::Prefix::parse_or_throw("13.0.0.0/24"));
  ASSERT_EQ(cell, std::optional<std::uint32_t>{1});  // the reused slot
  ReactorStats stats = reactor.stats();
  EXPECT_EQ(stats.paced_deferrals, 1u);
  EXPECT_EQ(stats.deferred_pending, 1u);
  EXPECT_EQ(reactor.counts()[*cell], 0u);

  const std::vector<bgp::Pfx2AsRecord> table = reactor.table();
  const auto find = [&](const char* text) {
    return std::find_if(table.begin(), table.end(), [&](const auto& r) {
      return r.prefix == net::Prefix::parse_or_throw(text);
    });
  };
  EXPECT_EQ(find("10.0.1.0/24"), table.end());
  ASSERT_NE(find("13.0.0.0/24"), table.end());
  EXPECT_EQ(find("13.0.0.0/24")->origins, (std::vector<std::uint32_t>{500}));
  EXPECT_TRUE(std::is_sorted(
      table.begin(), table.end(),
      [](const auto& a, const auto& b) { return a.prefix < b.prefix; }));

  // Re-announcing the same origins changes nothing.
  reactor.feed(wire_of(announce_delta({{"13.0.0.0/24", 500}})));
  reactor.flush();
  stats = reactor.stats();
  EXPECT_EQ(stats.noop_updates, 1u);
  EXPECT_EQ(stats.applied_reorigins, 0u);

  // Once AS 500's budget refills the held cell is rescanned.
  now += 60.0;
  EXPECT_TRUE(reactor.poll());
  EXPECT_EQ(reactor.stats().deferred_pending, 0u);
  EXPECT_EQ(reactor.counts()[*cell], 64u);
}

// --- Classification at batch scale --------------------------------------

TEST(StreamReactorTest, OneBatchOfManySplitsMatchesTheBatchPath) {
  // 160 /24 cells; one batch withdraws 120 of them and announces both
  // /25 halves of each. Every half overlaps a cell withdrawn earlier in
  // the same batch, and so must be applied, never rejected.
  std::vector<bgp::Pfx2AsRecord> table;
  std::vector<std::uint32_t> counts;
  for (std::uint32_t i = 0; i < 160; ++i) {
    table.push_back({net::Prefix(net::Ipv4Address(0x0a000000u + (i << 8)), 24),
                     {64500 + i % 7}});
    counts.push_back(i % 64);
  }
  bgp::RibDelta split;
  for (std::uint32_t i = 0; i < 160; i += 4) {
    for (std::uint32_t j = i; j < i + 3; ++j) {
      const net::Prefix cell = table[j].prefix;
      split.withdraw.push_back(cell);
      split.announce.push_back(
          {net::Prefix(cell.network(), 25), {65000 + j}});
      split.announce.push_back(
          {net::Prefix(net::Ipv4Address(cell.network().value() + 128), 25),
           {65000 + j}});
    }
  }
  ASSERT_GE(split.withdraw.size(), 100u);

  RangeOracle oracle;
  const scan::ScanEngine engine;
  StreamReactor reactor(table, counts);
  reactor.set_rescanner(&oracle, &engine);
  reactor.feed(wire_of(split));
  reactor.flush();

  const ReactorStats stats = reactor.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.applied_withdraws, split.withdraw.size());
  EXPECT_EQ(stats.applied_announces, split.announce.size());
  EXPECT_EQ(stats.rejected_overlaps, 0u);
  EXPECT_EQ(stats.noop_updates, 0u);

  // Batch path: apply + partition_delta + apply_delta + churn_step.
  std::vector<net::Prefix> initial;
  for (const auto& record : table) initial.push_back(record.prefix);
  bgp::PrefixPartition partition(std::move(initial));
  core::DensityRanking ranking =
      core::rank_by_density(std::span<const std::uint32_t>(counts), partition,
                            core::PrefixMode::kMore);
  const std::vector<bgp::Pfx2AsRecord> target_table = split.apply(table);
  std::vector<net::Prefix> target;
  for (const auto& record : target_table) target.push_back(record.prefix);
  const bgp::PartitionApplyResult applied =
      partition.apply_delta(bgp::partition_delta(partition, target));
  core::churn_step(ranking, counts, partition, applied, &oracle);

  EXPECT_EQ(reactor.table(), target_table);
  const bgp::PrefixPartition& got = reactor.partition();
  ASSERT_EQ(got.size(), partition.size());
  for (std::uint32_t slot = 0; slot < got.size(); ++slot) {
    ASSERT_EQ(got.live(slot), partition.live(slot)) << "slot " << slot;
    if (!got.live(slot)) continue;
    EXPECT_EQ(got.prefix(slot), partition.prefix(slot)) << "slot " << slot;
  }
  EXPECT_EQ(bgp::partition_fingerprint(got),
            bgp::partition_fingerprint(partition));
  EXPECT_TRUE(std::ranges::equal(reactor.counts(), counts));
  EXPECT_EQ(reactor.ranking().ranked.size(), ranking.ranked.size());
  EXPECT_EQ(reactor.ranking().total_hosts, ranking.total_hosts);
}

TEST(StreamReactorTest, OverlappingAddsInOneBatchFirstInFifoOrderWins) {
  const auto run = [](std::initializer_list<const char*> order) {
    SmallWorld world = small_world();
    StreamReactor reactor(world.table, world.counts);
    // One feed per add: the queue keeps them in this FIFO order, and one
    // flush classifies them in one batch.
    for (const char* text : order) {
      reactor.feed(wire_of(announce_delta({{text, 999}})));
    }
    reactor.flush();
    EXPECT_EQ(reactor.stats().batches, 1u);
    return reactor.table();
  };
  const auto has = [](const std::vector<bgp::Pfx2AsRecord>& table,
                      const char* text) {
    return std::ranges::any_of(table, [&](const bgp::Pfx2AsRecord& r) {
      return r.prefix == net::Prefix::parse_or_throw(text);
    });
  };

  // Covering first: the /16 wins; the /24 nested in it is rejected, and
  // a disjoint later add still lands.
  const auto covering_first =
      run({"12.0.0.0/16", "12.0.5.0/24", "13.0.0.0/24"});
  EXPECT_TRUE(has(covering_first, "12.0.0.0/16"));
  EXPECT_FALSE(has(covering_first, "12.0.5.0/24"));
  EXPECT_TRUE(has(covering_first, "13.0.0.0/24"));

  // Nested first: the /24 wins; the /16 covering it is rejected, and
  // the rejected /16 blocks nothing: a /17 beside the /24 lands.
  const auto nested_first =
      run({"12.0.5.0/24", "12.0.0.0/16", "12.0.128.0/17"});
  EXPECT_TRUE(has(nested_first, "12.0.5.0/24"));
  EXPECT_FALSE(has(nested_first, "12.0.0.0/16"));
  EXPECT_TRUE(has(nested_first, "12.0.128.0/17"));
}

TEST(StreamReactorTest, LongAsSetsRoundTripThroughTable) {
  SmallWorld world = small_world();
  StreamReactor reactor(world.table, world.counts);
  const net::Prefix cell = net::Prefix::parse_or_throw("10.0.2.0/24");
  const auto reorigin = [&](std::vector<std::uint32_t> origins) {
    bgp::RibDelta delta;
    delta.announce.push_back({cell, origins});
    reactor.feed(wire_of(delta));
    reactor.flush();
    const std::vector<bgp::Pfx2AsRecord> table = reactor.table();
    const auto it = std::ranges::find_if(
        table, [&](const bgp::Pfx2AsRecord& r) { return r.prefix == cell; });
    ASSERT_NE(it, table.end());
    EXPECT_EQ(it->origins, origins);
  };
  // Five ASNs spill out of the slot; back to one, then a longer set
  // again (reusing the freed spill entry), then two inline.
  reorigin({64501, 64502, 64503, 64504, 64505});
  reorigin({7});
  reorigin({11, 12, 13});
  reorigin({21, 22});
  EXPECT_EQ(reactor.stats().applied_reorigins, 4u);

  // A withdrawn spilled cell re-announced with a short set, and a new
  // cell with a long one.
  reorigin({31, 32, 33, 34});
  reactor.feed(wire_of(withdraw_delta({"10.0.2.0/24"})));
  reactor.flush();
  bgp::RibDelta delta;
  delta.announce.push_back({cell, {41}});
  delta.announce.push_back(
      {net::Prefix::parse_or_throw("12.0.0.0/24"), {51, 52, 53, 54, 55, 56}});
  reactor.feed(wire_of(delta));
  reactor.flush();
  std::vector<bgp::Pfx2AsRecord> want = world.table;
  want[2].origins = {41};
  want.push_back({net::Prefix::parse_or_throw("12.0.0.0/24"),
                  {51, 52, 53, 54, 55, 56}});
  EXPECT_EQ(reactor.table(), want);
}

}  // namespace
}  // namespace tass::stream
