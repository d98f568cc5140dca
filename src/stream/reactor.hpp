// StreamReactor — the live-churn driver of the incremental pipeline.
//
// The paper's footprint-reduction loop is only honest if the TASS
// selection tracks the routing table as it actually moves; real scanners
// demonstrably re-steer off BGP signals within minutes (PAPERS.md). The
// reactor closes that loop for the serving daemon: it tails an
// UpdateSource of MRT BGP4MP messages, reassembles and decodes them
// through MrtFramer (with mid-stream resync on corruption), folds the
// per-prefix churn through a bounded CoalescingQueue, and drives the
// existing incremental machinery — PrefixPartition::apply_delta, then
// core::churn_step — on a dedicated pipeline thread. Each re-scoped plan
// is sealed with state::encode_image and handed to the publisher
// callback, which typically installs it into a serve::GenerationStore
// (the reactor's pipeline thread is the store's single writer) or
// atomically writes it for tass_serve to reload.
//
// Equivalence contract (pinned by tests/stream_differential_test.cpp):
// with pacing disabled, feeding the reactor the encoded wire of a churn
// step and flushing produces a partition, ranking and counts vector
// bit-identical to the batch path — decode + rebased + apply +
// partition_delta + apply_delta + core::churn_step — for the same step,
// for any fragmentation of the wire.
//
// Per-AS politeness (the paper's good-citizenship arm): when
// `as_probes_per_second` is set, each origin AS owns a scan::TokenBucket
// and a cell rescan must consume tokens equal to its address count
// (clamped to the burst) before the re-probe runs. Cells whose AS is out
// of budget are deferred — ranked at zero until their budget allows the
// rescan — and surfaced via paced_deferrals / deferred_pending, so burst
// churn in one AS can never make the reactor hammer that AS's space.
//
// Threading model: start() spawns two threads — ingest (source → framer
// → queue) and pipeline (queue → delta → rescan → rerank → publish).
// The sync API (feed/poll/flush) runs everything on the caller's thread
// for deterministic tests. The two modes must not be mixed while
// running. partition()/ranking()/table() may only be read when no
// pipeline thread is running (after stop()); stats() is safe anytime.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bgp/partition.hpp"
#include "bgp/pfx2as.hpp"
#include "core/ranking.hpp"
#include "scan/engine.hpp"
#include "scan/ratelimit.hpp"
#include "stream/framer.hpp"
#include "stream/queue.hpp"
#include "stream/source.hpp"

namespace tass::stream {

struct ReactorOptions {
  /// Ranking granularity of the plan (must match the bootstrap ranking).
  core::PrefixMode mode = core::PrefixMode::kMore;

  /// Churn queue bound and what to do when a burst fills it.
  std::size_t queue_capacity = 1u << 16;
  OverflowPolicy overflow = OverflowPolicy::kBlock;

  /// Pipeline batching: a batch closes after `max_batch` folded actions
  /// or `max_batch_delay_seconds` of waiting, whichever comes first —
  /// the bounded-latency knob between per-update replanning and
  /// amortised bursts.
  std::size_t max_batch = 4096;
  double max_batch_delay_seconds = 0.025;

  /// Ingest read size per source poll.
  std::size_t read_chunk = 64u * 1024;

  /// Per-origin-AS politeness budget for rescans: each AS accrues this
  /// many probe tokens per second (burst defaults to one second of
  /// rate); a cell rescan consumes its address count, clamped to the
  /// burst. <= 0 disables pacing (every invalidated cell rescans
  /// immediately — the bit-identical-to-batch configuration).
  double as_probes_per_second = 0.0;
  double as_probe_burst = 0.0;

  /// Time source (seconds, monotonic). Injectable for deterministic
  /// pacing/latency tests; defaults to std::chrono::steady_clock.
  std::function<double()> clock;
};

/// One sealed plan handed to the publisher after a batch changed the
/// topology or ranking.
struct PublishedPlan {
  std::uint64_t seq = 0;          // monotonic per reactor, from 1
  std::uint64_t fingerprint = 0;  // bgp::partition_fingerprint
  std::vector<std::byte> image;   // state::encode_image bytes (TSIM)
  std::uint64_t batch_updates = 0;       // folded actions in the batch
  double update_to_plan_seconds = 0.0;   // oldest enqueue → publish
};

/// Cumulative reactor accounting (all monotonic except the gauges).
struct ReactorStats {
  FramerStats framer;
  QueueStats queue;
  std::uint64_t batches = 0;
  std::uint64_t applied_announces = 0;
  std::uint64_t applied_withdraws = 0;
  std::uint64_t applied_reorigins = 0;
  /// Withdraws of absent prefixes and re-announcements with unchanged
  /// origins — legitimate wire chatter that changes nothing.
  std::uint64_t noop_updates = 0;
  /// Announces overlapping a live cell (or another batch add): the
  /// partition stays disjoint, the update is counted and dropped.
  std::uint64_t rejected_overlaps = 0;
  std::uint64_t paced_deferrals = 0;   // rescans postponed by AS budget
  std::uint64_t deferred_pending = 0;  // gauge: cells awaiting budget
  std::uint64_t plans_published = 0;
  std::uint64_t rescanned_cells = 0;
  std::uint64_t rescanned_addresses = 0;
  double last_update_to_plan_seconds = 0.0;
  double max_update_to_plan_seconds = 0.0;
};

class StreamReactor {
 public:
  using Publisher = std::function<void(PublishedPlan)>;

  /// Bootstraps from a routing table and its per-cell responsive counts
  /// (cell i == table[i]). The table must be ascending by prefix,
  /// duplicate-free, pairwise disjoint, with non-empty origin sets;
  /// counts must be table-aligned. Throws tass::Error on overlap (via
  /// the partition build).
  StreamReactor(std::vector<bgp::Pfx2AsRecord> table,
                std::vector<std::uint32_t> counts,
                ReactorOptions options = {});
  ~StreamReactor();

  StreamReactor(const StreamReactor&) = delete;
  StreamReactor& operator=(const StreamReactor&) = delete;

  /// Attaches the rescan capability: cells invalidated by churn are
  /// re-probed against `oracle` (borrowed; must outlive the reactor or
  /// be reset to null). Without a rescanner, invalidated cells score
  /// zero until the next full seed and nothing counts as rescanned.
  /// `engine` has no effect (removed by the benchmark-declared cleanup,
  /// ROADMAP item 6).
  void set_rescanner(const scan::ProbeOracle* oracle,
                     const scan::ScanEngine* engine);

  /// Publisher for sealed plans, invoked on the pipeline thread (the
  /// single-writer seat of a serve::GenerationStore). Set before
  /// start()/feed().
  void set_publisher(Publisher publisher);

  // --- Synchronous mode (deterministic; everything on this thread) ---

  /// Pushes raw feed bytes: frames, decodes, and enqueues. When the
  /// queue fills, a batch is processed inline (backpressure never drops
  /// under kBlock).
  void feed(std::span<const std::byte> data);

  /// Processes one batch if the queue or the deferred set has work;
  /// returns whether a batch ran.
  bool poll();

  /// Processes batches until the queue is empty and no deferred rescan
  /// is currently within budget.
  void flush();

  /// End-of-stream bookkeeping: accounts a partial framer tail.
  void finish();

  // --- Asynchronous mode ---

  /// Spawns the ingest + pipeline threads over `source`. The reactor
  /// runs until the source is exhausted (then drains and idles) or
  /// stop(). One start per reactor lifetime at a time.
  void start(std::unique_ptr<UpdateSource> source);

  /// Stops the threads: closes the queue (waking any blocked producer),
  /// joins ingest, drains remaining work, joins pipeline. Idempotent.
  void stop();

  /// Graceful end-of-feed: blocks until the source is exhausted and
  /// every queued update has been processed, then joins the threads.
  /// The source must terminate (EOF / close()) for join to return.
  void join();

  bool running() const noexcept { return running_; }

  // --- State views (not concurrent with a running pipeline) ---

  const bgp::PrefixPartition& partition() const noexcept {
    return partition_;
  }
  const core::DensityRanking& ranking() const noexcept { return ranking_; }
  const std::vector<bgp::Pfx2AsRecord>& table() const noexcept {
    return table_;
  }
  std::span<const std::uint32_t> counts() const noexcept { return counts_; }

  /// Snapshot of the reactor counters (thread-safe anytime).
  ReactorStats stats() const;

 private:
  struct Deferred {
    std::uint32_t cell = 0;
    net::Prefix prefix;   // guards against slot reuse after removal
    std::uint32_t asn = 0;
    double enqueued_at = 0.0;
  };

  void ingest_loop(UpdateSource& source);
  void pipeline_loop();

  /// Decodes framer output into queue actions. `blocking` selects
  /// offer() (ingest thread) vs try_offer()+inline batch (sync mode).
  void drain_framer(bool blocking);
  void enqueue_action(PrefixAction action, bool blocking);

  /// Drains one batch through classify → delta → rescan → rerank →
  /// publish. Returns whether any work was done.
  bool process_batch();

  /// True when an announce of `prefix` would overlap a cell surviving
  /// this batch (present, live, and not in `withdrawn_cells`).
  bool overlaps_surviving(const net::Prefix& prefix,
                          const std::vector<std::uint32_t>& withdrawn_cells)
      const;

  /// Moves budget-ready deferred cells into `dirty`, consuming tokens.
  void collect_ready_deferred(double now,
                              std::vector<std::uint32_t>& dirty,
                              double& oldest_enqueue);

  /// Spends `prefix`'s rescan cost (its address count, clamped to the
  /// burst) from `asn`'s token bucket; false when the AS is out of
  /// budget.
  bool try_spend_budget(std::uint32_t asn, const net::Prefix& prefix,
                        double now);
  bool pacing_enabled() const noexcept {
    return options_.as_probes_per_second > 0.0;
  }

  /// Binary search of table_ by prefix; table_.size() when absent.
  std::size_t table_find(const net::Prefix& prefix) const noexcept;

  void snapshot_framer_stats();

  ReactorOptions options_;
  std::function<double()> clock_;

  // Plan state (pipeline thread exclusively while running).
  std::vector<bgp::Pfx2AsRecord> table_;  // ascending by prefix
  bgp::PrefixPartition partition_;
  std::vector<std::uint32_t> counts_;
  core::DensityRanking ranking_;
  std::vector<Deferred> deferred_;
  std::unordered_map<std::uint32_t, scan::TokenBucket> buckets_;
  std::uint64_t seq_ = 0;

  const scan::ProbeOracle* oracle_ = nullptr;
  Publisher publisher_;

  // Ingest state (ingest thread, or caller in sync mode).
  MrtFramer framer_;
  CoalescingQueue queue_;

  std::unique_ptr<UpdateSource> source_;
  std::thread ingest_thread_;
  std::thread pipeline_thread_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> running_{false};

  // Counter snapshot readable from any thread.
  mutable std::mutex stats_mutex_;
  ReactorStats stats_;
};

}  // namespace tass::stream
