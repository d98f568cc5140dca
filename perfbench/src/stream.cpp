#include "stream.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "bgp/partition.hpp"
#include "core/reseed.hpp"
#include "serve/generation.hpp"
#include "state/image.hpp"
#include "stream/reactor.hpp"
#include "stream/source.hpp"

namespace perfbench {

namespace {

scan::ScanEngine rescan_engine() {
  scan::EngineConfig config;
  config.threads = 1;
  return scan::ScanEngine(config);
}

}  // namespace

StreamShadow batch_shadow(const ChurnTrace& trace, const scan::ProbeOracle& oracle,
                          Tracer* tracer) {
  const scan::ScanEngine engine = rescan_engine();
  StreamShadow shadow;
  std::vector<net::Prefix> initial;
  for (const auto& record : trace.table) initial.push_back(record.prefix);
  shadow.partition = bgp::PrefixPartition(std::move(initial));
  shadow.counts = trace.counts;
  shadow.ranking =
      core::rank_by_density(shadow.counts, shadow.partition, core::PrefixMode::kMore);
  for (const bgp::RibDelta& delta : trace.deltas) {
    bgp::PartitionDelta pdelta;
    pdelta.remove = delta.withdraw;
    for (const auto& record : delta.announce) pdelta.add.push_back(record.prefix);
    bgp::PartitionApplyResult applied;
    {
      Span span(tracer, "bgp.apply_delta");
      applied = shadow.partition.apply_delta(pdelta);
    }
    trace_count(tracer, "trie.update_dirty_blocks",
                static_cast<double>(applied.index_stats.dirty_blocks));
    trace_count(tracer, "trie.update_rebuilds", applied.index_stats.rebuilt ? 1.0 : 0.0);
    core::ChurnStepStats step;
    {
      // churn_step = rescan of the invalidated cells + rerank_cells.
      Span span(tracer, "core.rerank");
      step = core::churn_step(shadow.ranking, shadow.counts, shadow.partition,
                              applied, oracle, engine);
    }
    trace_count(tracer, "scan.rescan_cells", static_cast<double>(step.rescanned_cells));
    trace_count(tracer, "scan.rescan_addresses",
                static_cast<double>(step.rescanned_addresses));
    if (tracer != nullptr) {
      Span span(tracer, "state.encode");
      (void)state::encode_image(shadow.partition, shadow.ranking);
    }
  }
  shadow.live_sorted = shadow.partition.live_prefixes();
  std::sort(shadow.live_sorted.begin(), shadow.live_sorted.end());
  return shadow;
}

namespace {

struct PlanImage {
  std::uint64_t fingerprint = 0;
  std::vector<std::byte> bytes;
};

struct Replay {
  bool paced = false;
  double elapsed_s = 0.0;
  stream::ReactorStats stats;
  std::vector<std::pair<Clock::time_point, std::uint64_t>> publishes;  // (at, applied)
  std::vector<double> install_us;
  std::vector<Clock::time_point> appended;  // paced: when step i was fed
};

/// Compares a finished reactor with the shadow.
void referee_replay(const stream::StreamReactor& reactor, const Replay& replay,
                    std::uint64_t last_fingerprint, std::uint64_t bytes_total,
                    std::uint64_t reader_failures, const ChurnTrace& trace,
                    const StreamShadow& shadow, Referee& referee) {
  const stream::ReactorStats& stats = replay.stats;
  referee.check(stats.framer.decode_errors == 0 && stats.framer.resyncs == 0 &&
                stats.framer.bytes_in == bytes_total,
                "stream: framer errors or lost bytes");
  referee.check(stats.rejected_overlaps == 0 && stats.queue.dropped == 0,
                "stream: overlaps rejected or updates dropped");
  referee.check(reader_failures == 0, "stream: a published generation failed to attach");
  std::vector<bgp::Pfx2AsRecord> expected_table = trace.final_table;
  if (referee.plant("stream")) expected_table.front().origins.front() ^= 1u;
  referee.check(reactor.table() == expected_table,
                "stream: final table differs from the batch shadow");

  const bgp::PrefixPartition& got = reactor.partition();
  std::vector<net::Prefix> live = got.live_prefixes();
  std::sort(live.begin(), live.end());
  referee.check(live == shadow.live_sorted,
                "stream: live cells differ from the batch shadow");
  std::uint64_t count_mismatches = 0;
  for (std::size_t slot = 0; slot < got.size(); ++slot) {
    if (!got.live(slot)) continue;
    const auto want = shadow.partition.index_of(got.prefix(slot));
    count_mismatches += !want || reactor.counts()[slot] != shadow.counts[*want];
  }
  referee.check(count_mismatches == 0, "stream: %llu cell counts differ",
                static_cast<unsigned long long>(count_mismatches));
  const core::DensityRanking& a = reactor.ranking();
  const core::DensityRanking& b = shadow.ranking;
  bool same_ranking = a.total_hosts == b.total_hosts &&
                      a.advertised_addresses == b.advertised_addresses &&
                      a.ranked.size() == b.ranked.size();
  for (std::size_t i = 0; same_ranking && i < a.ranked.size(); ++i) {
    same_ranking = a.ranked[i].prefix == b.ranked[i].prefix &&
                   a.ranked[i].size == b.ranked[i].size &&
                   a.ranked[i].hosts == b.ranked[i].hosts &&
                   a.ranked[i].density == b.ranked[i].density &&
                   a.ranked[i].host_share == b.ranked[i].host_share;
  }
  referee.check(same_ranking, "stream: ranking differs from the batch shadow");
  referee.check(last_fingerprint == bgp::partition_fingerprint(got),
                "stream: last published plan does not name the final partition");
}

/// One asynchronous replay: `pace_s` == 0 buffers the whole trace up
/// front; otherwise step i is appended when it falls due.
Replay replay_async(const ChurnTrace& trace, const StreamShadow& shadow,
                    const scan::ProbeOracle& oracle, double pace_s,
                    Clock::time_point* start_out, Referee& referee) {
  const scan::ScanEngine engine = rescan_engine();
  // Everything the publisher touches is declared before the reactor, so
  // it outlives the reactor's threads on every path.
  Replay replay;
  replay.paced = pace_s > 0.0;
  serve::GenerationStore<PlanImage> store(/*reader_slots=*/1);
  const serve::GenerationStore<PlanImage>::Generation* retiring = nullptr;
  std::uint64_t last_fingerprint = 0;

  stream::ReactorOptions options;
  if (pace_s > 0.0) options.max_batch_delay_seconds = 0.002;
  stream::StreamReactor reactor(trace.table, trace.counts, options);
  reactor.set_rescanner(&oracle, &engine);
  reactor.set_publisher([&](stream::PublishedPlan plan) {
    const auto at = Clock::now();
    const stream::ReactorStats before = reactor.stats();
    replay.publishes.emplace_back(at, before.applied_announces + before.applied_withdraws +
                                          before.applied_reorigins + plan.batch_updates);
    last_fingerprint = plan.fingerprint;
    const auto install_start = Clock::now();
    // The displaced generation is retired one publish later: by then the
    // reader has long let go of it, so retire never waits on the reader.
    const auto* displaced =
        store.install(PlanImage{plan.fingerprint, std::move(plan.image)});
    if (retiring != nullptr) store.retire(retiring);
    retiring = displaced;
    replay.install_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - install_start).count());
  });

  // A reader races every swap: each generation it sees must attach
  // under the fingerprint it was published with.
  std::atomic<std::uint64_t> reader_failures{0};
  std::jthread reader([&](std::stop_token stop) {
    std::uint64_t last_seq = 0;
    const auto verify_current = [&] {
      const auto ref = store.acquire(0);
      if (!ref || ref.seq() == last_seq) return false;
      last_seq = ref.seq();
      try {
        const state::StateImage image =
            state::StateImage::attach(ref.image().bytes, ref.image().fingerprint);
      } catch (const std::exception&) {
        reader_failures.fetch_add(1);
      }
      return true;
    };
    while (!stop.stop_requested()) {
      if (!verify_current()) std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    verify_current();
  });

  std::uint64_t bytes_total = 0;
  for (const auto& wire : trace.wires) bytes_total += wire.size();
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  if (start_out != nullptr) *start_out = start;
  if (pace_s <= 0.0) {
    std::vector<std::byte> wire;
    wire.reserve(bytes_total);
    for (const auto& step : trace.wires) wire.insert(wire.end(), step.begin(), step.end());
    auto source = std::make_unique<stream::BufferSource>(std::move(wire));
    source->close();
    std::this_thread::sleep_until(start);
    reactor.start(std::move(source));
  } else {
    auto source = std::make_unique<stream::BufferSource>();
    stream::BufferSource* feed = source.get();
    reactor.start(std::move(source));
    for (std::size_t i = 0; i < trace.wires.size(); ++i) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(pace_s * static_cast<double>(i))));
      feed->append(trace.wires[i]);
      replay.appended.push_back(Clock::now());
    }
    feed->close();
  }
  reactor.join();
  replay.elapsed_s = std::chrono::duration<double>(Clock::now() - start).count();
  reader.request_stop();
  reader.join();
  if (retiring != nullptr) store.retire(retiring);
  replay.stats = reactor.stats();

  referee.attempt();
  referee_replay(reactor, replay, last_fingerprint, bytes_total, reader_failures.load(),
                 trace, shadow, referee);
  return replay;
}

/// Per-update latency of a paced replay: update j (of step s) is
/// published by the first plan whose cumulative applied count exceeds
/// j; its latency runs from step s's due time. Time the feeder overslept
/// its timer while the reactor had nothing to do is the generator's, not
/// the reactor's, and is not charged.
std::vector<double> paced_latency_ms(const ChurnTrace& trace, const Replay& replay,
                                     Clock::time_point start, double pace_s) {
  std::vector<double> out;
  std::size_t event = 0;
  std::uint64_t index = 0;
  Clock::time_point previous_publish = start;
  for (std::size_t step = 0; step < trace.step_updates.size(); ++step) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(pace_s * static_cast<double>(step)));
    const auto ready = std::max(due, previous_publish);
    const auto overslept = step < replay.appended.size() && replay.appended[step] > ready
                               ? replay.appended[step] - ready
                               : Clock::duration::zero();
    for (std::uint64_t u = 0; u < trace.step_updates[step]; ++u, ++index) {
      while (event < replay.publishes.size() && replay.publishes[event].second <= index) {
        ++event;
      }
      if (event == replay.publishes.size()) return out;
      previous_publish = replay.publishes[event].first;
      out.push_back(std::chrono::duration<double, std::milli>(previous_publish - due -
                                                              overslept)
                        .count());
    }
  }
  return out;
}

}  // namespace

void traced_sync_replay(const ChurnTrace& trace, const scan::ProbeOracle& oracle,
                        Tracer* tracer) {
  const scan::ScanEngine engine = rescan_engine();
  serve::GenerationStore<PlanImage> store(/*reader_slots=*/1);
  stream::StreamReactor reactor(trace.table, trace.counts);
  reactor.set_rescanner(&oracle, &engine);
  reactor.set_publisher([&](stream::PublishedPlan plan) {
    Span span(tracer, "serve.install");
    const auto* displaced =
        store.install(PlanImage{plan.fingerprint, std::move(plan.image)});
    if (displaced != nullptr) store.retire(displaced);
  });
  for (const auto& wire : trace.wires) {
    {
      Span span(tracer, "stream.feed");
      reactor.feed(wire);
    }
    Span span(tracer, "stream.flush");
    reactor.flush();
  }
}

StreamPhaseResult run_stream_phase(const World& world, const StreamShadow& burst_shadow,
                                   const StreamShadow& paced_shadow, const Sizes& sizes,
                                   double seconds, Referee& referee) {
  StreamPhaseResult out;
  const scan::ProbeOracle& oracle = *world.v4.seed_oracle;
  const auto record = [&](const Replay& replay) {
    out.install_us.insert(out.install_us.end(), replay.install_us.begin(),
                          replay.install_us.end());
    out.decode_errors += replay.stats.framer.decode_errors;
    out.rejected_overlaps += replay.stats.rejected_overlaps;
    if (replay.paced) return;
    out.batches.push_back(static_cast<double>(replay.stats.batches));
    out.plans_published.push_back(static_cast<double>(replay.stats.plans_published));
    out.coalesce_ratio.push_back(
        replay.stats.queue.offered == 0
            ? 0.0
            : static_cast<double>(replay.stats.queue.coalesced) /
                  static_cast<double>(replay.stats.queue.offered));
  };

  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(seconds / 2.0));
  while (out.updates_per_s.empty() || Clock::now() < deadline) {
    const Replay replay = replay_async(world.burst, burst_shadow, oracle, 0.0, nullptr, referee);
    out.updates_per_s.push_back(static_cast<double>(world.burst.updates_total) /
                                replay.elapsed_s);
    record(replay);
  }

  Clock::time_point start;
  const Replay paced =
      replay_async(world.paced, paced_shadow, oracle, sizes.pace_seconds, &start, referee);
  out.plan_latency_ms = paced_latency_ms(world.paced, paced, start, sizes.pace_seconds);
  record(paced);
  return out;
}

}  // namespace perfbench
