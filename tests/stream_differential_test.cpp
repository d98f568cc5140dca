// Streamed-vs-batch differential suite for the live BGP stream reactor.
//
// The contract under test (the reactor's reason to exist): replaying a
// churn trace through the streaming path — MRT wire bytes, arbitrarily
// fragmented, through MrtFramer, the coalescing queue, and the reactor's
// classify/delta/rescan/rerank batch pipeline — must land on exactly the
// state the batch path produces from the same trace: decode + rebased +
// RibDelta::apply + partition_delta + apply_delta + core::churn_step.
//
// Two equivalence tiers are pinned:
//   * Lockstep (one churn step == one reactor batch): *bit-identical*
//     partition (slot numbering included), counts, ranking (every field,
//     float bits, RankedPrefix::index included) and routing table, for
//     any fragmentation of the wire.
//   * Whole-stream (many steps folded through the queue, small batches,
//     or the asynchronous two-thread mode): batch boundaries shift slot
//     assignment, so equality is semantic — identical live prefix sets,
//     per-prefix counts, locate() behaviour, and rankings on every
//     index-independent field, in identical (canonical) order.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "bgp/partition.hpp"
#include "bgp/pfx2as.hpp"
#include "bgp/rib_delta.hpp"
#include "census/topology.hpp"
#include "core/ranking.hpp"
#include "core/reseed.hpp"
#include "net/interval.hpp"
#include "scan/engine.hpp"
#include "scan/scope.hpp"
#include "state/image.hpp"
#include "stream/reactor.hpp"
#include "stream/source.hpp"
#include "util/rng.hpp"

namespace tass {
namespace {

// Probe oracle over a sorted, duplicate-free address vector (the same
// reference oracle the delta differential suite uses).
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
    ASSERT_EQ(a.density, b.density) << "rank " << i;
    ASSERT_EQ(a.host_share, b.host_share) << "rank " << i;
  }
}

// Index-independent ranking equality: the prefix tie-break makes the
// rank order canonical across cell numberings, so everything but the
// slot index must agree exactly.
void expect_rankings_semantically_identical(const core::DensityRanking& got,
                                            const core::DensityRanking& want) {
  EXPECT_EQ(got.mode, want.mode);
  EXPECT_EQ(got.total_hosts, want.total_hosts);
  EXPECT_EQ(got.advertised_addresses, want.advertised_addresses);
  ASSERT_EQ(got.ranked.size(), want.ranked.size());
  for (std::size_t i = 0; i < got.ranked.size(); ++i) {
    const core::RankedPrefix& a = got.ranked[i];
    const core::RankedPrefix& b = want.ranked[i];
    ASSERT_EQ(a.prefix, b.prefix) << "rank " << i;
    ASSERT_EQ(a.size, b.size) << "rank " << i;
    ASSERT_EQ(a.hosts, b.hosts) << "rank " << i;
    ASSERT_EQ(a.density, b.density) << "rank " << i;
    ASSERT_EQ(a.host_share, b.host_share) << "rank " << i;
  }
}

struct World {
  std::vector<bgp::Pfx2AsRecord> table;  // ascending by prefix
  std::vector<std::uint32_t> hosts;      // sorted responsive addresses
};

// Same synthetic world the delta differential uses, except the table is
// sorted by prefix: the reactor's bootstrap contract (cell i == table[i])
// needs both sides to share the initial cell numbering.
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
  for (int i = 0; i < 1400; ++i) {
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
  std::sort(world.table.begin(), world.table.end(),
            [](const bgp::Pfx2AsRecord& a, const bgp::Pfx2AsRecord& b) {
              return a.prefix < b.prefix;
            });
  return world;
}

// One step of BGP churn: withdrawals, deaggregation splits, aggregation
// merges, reorigins (the delta differential's generator).
bgp::RibDelta draw_churn(const std::vector<bgp::Pfx2AsRecord>& table,
                         util::Rng& rng) {
  std::vector<std::size_t> order(table.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(std::span(order));

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
      const auto sib = std::find_if(
          table.begin(), table.end(),
          [&](const bgp::Pfx2AsRecord& r) { return r.prefix == sibling; });
      const auto sib_index = static_cast<std::size_t>(sib - table.begin());
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

// Feeds `wire` to the reactor in random fragments of 1..max_fragment
// bytes — the framer must reassemble regardless of where reads split.
void feed_fragmented(stream::StreamReactor& reactor,
                     std::span<const std::byte> wire, util::Rng& rng,
                     std::size_t max_fragment) {
  std::size_t offset = 0;
  while (offset < wire.size()) {
    const std::size_t take = std::min<std::size_t>(
        wire.size() - offset, 1 + rng.bounded(max_fragment));
    reactor.feed(wire.subspan(offset, take));
    offset += take;
  }
}

void expect_partitions_bit_identical(const bgp::PrefixPartition& got,
                                     const bgp::PrefixPartition& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got.live_cells(), want.live_cells());
  EXPECT_EQ(got.address_count(), want.address_count());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.live(i), want.live(i)) << "slot " << i;
    if (got.live(i)) {
      ASSERT_EQ(got.prefix(i), want.prefix(i)) << "slot " << i;
    }
  }
  EXPECT_EQ(bgp::partition_fingerprint(got),
            bgp::partition_fingerprint(want));
}

// Semantic comparison for replays whose batch boundaries (and therefore
// slot numbering) differ: live sets, per-prefix counts, locate().
void expect_states_semantically_identical(
    const stream::StreamReactor& reactor,
    const bgp::PrefixPartition& want_partition,
    const std::vector<std::uint32_t>& want_counts, std::uint64_t probe_seed) {
  const bgp::PrefixPartition& got = reactor.partition();
  auto got_live = got.live_prefixes();
  auto want_live = want_partition.live_prefixes();
  std::sort(got_live.begin(), got_live.end());
  std::sort(want_live.begin(), want_live.end());
  ASSERT_EQ(got_live, want_live);
  EXPECT_EQ(got.address_count(), want_partition.address_count());
  // (partition_fingerprint hashes live prefixes in slot order, so it is
  // only comparable between identically-numbered partitions — the
  // lockstep test covers that; here the numbering legitimately differs.)

  for (const net::Prefix prefix : want_live) {
    const auto got_cell = got.index_of(prefix);
    const auto want_cell = want_partition.index_of(prefix);
    ASSERT_TRUE(got_cell.has_value()) << prefix.to_string();
    ASSERT_TRUE(want_cell.has_value()) << prefix.to_string();
    ASSERT_EQ(reactor.counts()[*got_cell], want_counts[*want_cell])
        << prefix.to_string();
  }

  util::Rng rng(probe_seed);
  for (int k = 0; k < 4000; ++k) {
    const net::Ipv4Address address(
        static_cast<std::uint32_t>(rng.bounded(1ull << 32)));
    const auto got_cell = got.locate(address);
    const auto want_cell = want_partition.locate(address);
    ASSERT_EQ(got_cell.has_value(), want_cell.has_value())
        << address.to_string();
    if (got_cell) {
      ASSERT_EQ(got.prefix(*got_cell), want_partition.prefix(*want_cell))
          << address.to_string();
    }
  }
}

// --- Lockstep: one churn step == one reactor batch, bit-identical ------

TEST(StreamDifferentialTest, LockstepReplayIsBitIdenticalToBatch) {
  constexpr int kSteps = 8;
  for (const std::uint64_t seed : {101ull, 202ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(util::mix64(seed, 1));
    World world = generate_world(seed);

    const scan::ScanEngine engine;
    VectorOracle oracle(world.hosts);

    // Batch side.
    std::vector<net::Prefix> initial;
    for (const auto& record : world.table) initial.push_back(record.prefix);
    bgp::PrefixPartition partition(initial);
    std::vector<std::uint32_t> counts =
        attribute_from_scratch(partition, oracle, engine);
    core::DensityRanking ranking =
        core::rank_by_density(counts, partition, core::PrefixMode::kMore);

    // Streamed side: bootstrapped from the identical table and counts.
    stream::ReactorOptions options;
    options.max_batch = 1u << 14;  // a whole step always fits one batch
    stream::StreamReactor reactor(world.table, counts, options);
    reactor.set_rescanner(&oracle, &engine);
    std::vector<stream::PublishedPlan> plans;
    reactor.set_publisher(
        [&](stream::PublishedPlan plan) { plans.push_back(std::move(plan)); });

    auto table = world.table;
    for (int step = 0; step < kSteps; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const bgp::RibDelta delta = draw_churn(table, rng);
      const auto wire = bgp::encode_mrt_updates(
          delta, static_cast<std::uint32_t>(1441584000 + step));

      // Batch path: decode + rebase + apply + delta + churn_step.
      const bgp::RibDelta decoded =
          bgp::rebased(bgp::decode_mrt_updates(wire), table);
      ASSERT_EQ(decoded, delta);
      table = delta.apply(table);
      std::vector<net::Prefix> target;
      for (const auto& record : table) target.push_back(record.prefix);
      const bgp::PartitionApplyResult applied =
          partition.apply_delta(partition_delta(partition, target));
      core::churn_step(ranking, counts, partition, applied, &oracle);

      // Streamed path: the same wire, randomly fragmented, one flush.
      const std::size_t max_fragment =
          1 + rng.bounded(step % 2 == 0 ? 7 : wire.size());
      feed_fragmented(reactor, wire, rng, max_fragment);
      reactor.flush();

      // The step published one plan, fingerprinted with the topology it
      // sealed.
      ASSERT_EQ(plans.size(), static_cast<std::size_t>(step + 1));
      EXPECT_EQ(plans.back().fingerprint,
                bgp::partition_fingerprint(reactor.partition()));

      // Bit-identical state, every layer.
      ASSERT_EQ(reactor.table(), table);
      expect_partitions_bit_identical(reactor.partition(), partition);
      ASSERT_EQ(reactor.counts().size(), counts.size());
      ASSERT_TRUE(std::equal(reactor.counts().begin(),
                             reactor.counts().end(), counts.begin(),
                             counts.end()));
      expect_rankings_bit_identical(reactor.ranking(), ranking);
    }

    // A valid trace never trips the overlap guard or the resync path,
    // and every topology-changing step published exactly one plan.
    const stream::ReactorStats stats = reactor.stats();
    EXPECT_EQ(stats.rejected_overlaps, 0u);
    EXPECT_EQ(stats.framer.decode_errors, 0u);
    EXPECT_EQ(stats.framer.resyncs, 0u);
    EXPECT_EQ(stats.framer.bytes_discarded, 0u);
    EXPECT_EQ(stats.plans_published, static_cast<std::uint64_t>(kSteps));
    ASSERT_EQ(plans.size(), static_cast<std::size_t>(kSteps));
    for (std::size_t i = 0; i < plans.size(); ++i) {
      EXPECT_EQ(plans[i].seq, i + 1);
    }
    // The last sealed image is loadable and names the final topology.
    const state::StateImage image = state::StateImage::attach(
        plans.back().image);
    EXPECT_EQ(image.info().fingerprint,
              bgp::partition_fingerprint(partition));
    reactor.finish();
    EXPECT_EQ(reactor.stats().framer.truncated_tail, 0u);
  }
}

// --- Whole-stream: many steps through the queue in small batches -------

TEST(StreamDifferentialTest, WholeStreamReplayMatchesBatchSemantically) {
  constexpr int kSteps = 10;
  const std::uint64_t seed = 707;
  util::Rng rng(util::mix64(seed, 3));
  World world = generate_world(seed);

  const scan::ScanEngine engine;
  VectorOracle oracle(world.hosts);

  std::vector<net::Prefix> initial;
  for (const auto& record : world.table) initial.push_back(record.prefix);
  bgp::PrefixPartition partition(initial);
  std::vector<std::uint32_t> counts =
      attribute_from_scratch(partition, oracle, engine);
  core::DensityRanking ranking =
      core::rank_by_density(counts, partition, core::PrefixMode::kMore);

  stream::ReactorOptions options;
  options.max_batch = 7;  // force many mid-step batch boundaries
  stream::StreamReactor reactor(world.table, counts, options);
  reactor.set_rescanner(&oracle, &engine);
  // The sync API publishes on this thread, right after the batch that
  // changed the topology: every plan names the partition held then.
  std::size_t published = 0;
  reactor.set_publisher([&](stream::PublishedPlan plan) {
    ++published;
    EXPECT_EQ(plan.fingerprint,
              bgp::partition_fingerprint(reactor.partition()));
  });

  // Concatenate the whole trace, then replay both sides.
  std::vector<std::byte> wire;
  auto table = world.table;
  for (int step = 0; step < kSteps; ++step) {
    const bgp::RibDelta delta = draw_churn(table, rng);
    const auto step_wire = bgp::encode_mrt_updates(
        delta, static_cast<std::uint32_t>(1441584000 + step));
    wire.insert(wire.end(), step_wire.begin(), step_wire.end());

    table = delta.apply(table);
    std::vector<net::Prefix> target;
    for (const auto& record : table) target.push_back(record.prefix);
    const bgp::PartitionApplyResult applied =
        partition.apply_delta(partition_delta(partition, target));
    core::churn_step(ranking, counts, partition, applied, &oracle);
  }

  feed_fragmented(reactor, wire, rng, 4096);
  reactor.flush();
  reactor.finish();
  EXPECT_GT(published, static_cast<std::size_t>(kSteps));

  // Queue folding may collapse announce→withdraw→announce chains across
  // steps, but the surviving state must be the batch path's final state.
  ASSERT_EQ(reactor.table(), table);
  expect_states_semantically_identical(reactor, partition, counts,
                                       util::mix64(seed, 4));
  expect_rankings_semantically_identical(
      reactor.ranking(),
      core::rank_by_density(counts, partition, core::PrefixMode::kMore));

  const stream::ReactorStats stats = reactor.stats();
  EXPECT_EQ(stats.rejected_overlaps, 0u);
  EXPECT_EQ(stats.framer.decode_errors, 0u);
  EXPECT_GE(stats.batches, 2u);
}

// --- Asynchronous mode lands on the same state as synchronous ----------

TEST(StreamDifferentialTest, AsyncReplayMatchesBatchSemantically) {
  constexpr int kSteps = 6;
  const std::uint64_t seed = 1111;
  util::Rng rng(util::mix64(seed, 7));
  World world = generate_world(seed);

  const scan::ScanEngine engine;
  VectorOracle oracle(world.hosts);

  std::vector<net::Prefix> initial;
  for (const auto& record : world.table) initial.push_back(record.prefix);
  bgp::PrefixPartition partition(initial);
  std::vector<std::uint32_t> counts =
      attribute_from_scratch(partition, oracle, engine);
  core::DensityRanking ranking =
      core::rank_by_density(counts, partition, core::PrefixMode::kMore);

  std::vector<std::byte> wire;
  auto table = world.table;
  for (int step = 0; step < kSteps; ++step) {
    const bgp::RibDelta delta = draw_churn(table, rng);
    const auto step_wire = bgp::encode_mrt_updates(
        delta, static_cast<std::uint32_t>(1441584000 + step));
    wire.insert(wire.end(), step_wire.begin(), step_wire.end());
    table = delta.apply(table);
    std::vector<net::Prefix> target;
    for (const auto& record : table) target.push_back(record.prefix);
    const bgp::PartitionApplyResult applied =
        partition.apply_delta(partition_delta(partition, target));
    core::churn_step(ranking, counts, partition, applied, &oracle);
  }

  stream::ReactorOptions options;
  options.max_batch = 64;
  options.max_batch_delay_seconds = 0.002;
  options.read_chunk = 509;  // prime-sized reads fragment mid-record
  stream::StreamReactor reactor(world.table,
                                attribute_from_scratch(
                                    bgp::PrefixPartition(initial), oracle,
                                    engine),
                                options);
  reactor.set_rescanner(&oracle, &engine);
  std::uint64_t last_seq = 0;
  std::uint64_t published = 0;
  std::uint64_t final_fingerprint = 0;
  reactor.set_publisher([&](stream::PublishedPlan plan) {
    EXPECT_EQ(plan.seq, last_seq + 1);  // pipeline thread: ordered
    last_seq = plan.seq;
    ++published;
    final_fingerprint = plan.fingerprint;
  });

  auto source = std::make_unique<stream::BufferSource>(
      std::vector<std::byte>(wire.begin(), wire.end()), /*max_chunk=*/389);
  source->close();
  reactor.start(std::move(source));
  reactor.join();

  EXPECT_GE(published, 1u);
  // The last plan names the reactor's own final topology (fingerprints
  // are slot-order bound, so the batch partition's digest may differ).
  EXPECT_EQ(final_fingerprint,
            bgp::partition_fingerprint(reactor.partition()));
  ASSERT_EQ(reactor.table(), table);
  expect_states_semantically_identical(reactor, partition, counts,
                                       util::mix64(seed, 8));
  expect_rankings_semantically_identical(
      reactor.ranking(),
      core::rank_by_density(counts, partition, core::PrefixMode::kMore));
  EXPECT_EQ(reactor.stats().rejected_overlaps, 0u);
}

}  // namespace
}  // namespace tass
