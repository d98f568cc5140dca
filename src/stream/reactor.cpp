#include "stream/reactor.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#include "core/reseed.hpp"
#include "state/image.hpp"
#include "util/endian.hpp"
#include "util/error.hpp"

namespace tass::stream {
namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// True when `prefix` equals/contains/is-contained-by any prefix in the
/// ascending `sorted` set. Ancestor probes cover "contained by" (a CIDR
/// container is always an ancestor); the first successor at or after
/// `prefix` covers "contains" (any overlapping successor's network lies
/// inside `prefix`).
bool overlaps_sorted(const net::Prefix& prefix,
                     const std::vector<net::Prefix>& sorted) {
  net::Prefix ancestor = prefix;
  while (true) {
    if (std::binary_search(sorted.begin(), sorted.end(), ancestor)) {
      return true;
    }
    if (ancestor.length() == 0) break;
    ancestor = ancestor.parent();
  }
  auto it = std::lower_bound(sorted.begin(), sorted.end(), prefix);
  return it != sorted.end() && prefix.contains(*it);
}

}  // namespace

StreamReactor::StreamReactor(std::vector<bgp::Pfx2AsRecord> table,
                             std::vector<std::uint32_t> counts,
                             ReactorOptions options)
    : options_(std::move(options)),
      clock_(options_.clock ? options_.clock : steady_seconds),
      table_(std::move(table)),
      counts_(std::move(counts)),
      queue_(options_.queue_capacity, options_.overflow) {
  TASS_EXPECTS(counts_.size() == table_.size());
  std::vector<net::Prefix> prefixes;
  prefixes.reserve(table_.size());
  for (std::size_t i = 0; i < table_.size(); ++i) {
    TASS_EXPECTS(!table_[i].origins.empty());
    if (i > 0) TASS_EXPECTS(table_[i - 1].prefix < table_[i].prefix);
    prefixes.push_back(table_[i].prefix);
  }
  partition_ = bgp::PrefixPartition(std::move(prefixes));
  ranking_ = core::rank_by_density(std::span<const std::uint32_t>(counts_),
                                   partition_, options_.mode);
}

StreamReactor::~StreamReactor() { stop(); }

void StreamReactor::set_rescanner(const scan::ProbeOracle* oracle,
                                  const scan::ScanEngine* /*engine*/) {
  oracle_ = oracle;
}

void StreamReactor::set_publisher(Publisher publisher) {
  publisher_ = std::move(publisher);
}

std::size_t StreamReactor::table_find(
    const net::Prefix& prefix) const noexcept {
  auto it = std::lower_bound(
      table_.begin(), table_.end(), prefix,
      [](const bgp::Pfx2AsRecord& record, const net::Prefix& p) {
        return record.prefix < p;
      });
  if (it != table_.end() && it->prefix == prefix) {
    return static_cast<std::size_t>(it - table_.begin());
  }
  return table_.size();
}

bool StreamReactor::try_spend_budget(std::uint32_t asn,
                                     const net::Prefix& prefix, double now) {
  auto it = buckets_.find(asn);
  if (it == buckets_.end()) {
    const double rate = options_.as_probes_per_second;
    const double burst = options_.as_probe_burst > 0.0
                             ? options_.as_probe_burst
                             : std::max(rate, 1.0);
    it = buckets_.emplace(asn, scan::TokenBucket(rate, burst)).first;
  }
  scan::TokenBucket& bucket = it->second;
  return bucket.try_consume(
      std::min(static_cast<double>(prefix.size()), bucket.burst()), now);
}

void StreamReactor::snapshot_framer_stats() {
  std::lock_guard lock(stats_mutex_);
  stats_.framer = framer_.stats();
}

void StreamReactor::drain_framer(bool blocking) {
  while (std::optional<bgp::RibDelta> delta = framer_.next()) {
    const double now = clock_();
    // Wire order: an UPDATE carries its withdrawals before its NLRI, and
    // encode_mrt_updates writes withdrawal messages first — preserving
    // that order into the queue keeps remove-before-add semantics for
    // overlap-shaped churn (e.g. merge steps).
    for (const net::Prefix& prefix : delta->withdraw) {
      enqueue_action(PrefixAction{prefix, std::nullopt, now}, blocking);
    }
    for (bgp::Pfx2AsRecord& record : delta->announce) {
      enqueue_action(
          PrefixAction{record.prefix, std::move(record.origins), now},
          blocking);
    }
  }
}

void StreamReactor::enqueue_action(PrefixAction action, bool blocking) {
  if (blocking) {
    queue_.offer(std::move(action));  // false only when closed: shutdown
    return;
  }
  // Sync mode: a full queue is drained inline — backpressure becomes an
  // immediate batch on the caller's thread, so kBlock never deadlocks.
  while (!queue_.try_offer(action)) {
    if (queue_.closed()) return;
    const bool did_work = process_batch();
    TASS_EXPECTS(did_work);  // the queue was full, so a batch must drain
  }
}

bool StreamReactor::overlaps_surviving(
    const net::Prefix& prefix,
    const std::vector<std::uint32_t>& withdrawn_cells) const {
  const auto withdrawn = [&](std::uint32_t cell) {
    return std::find(withdrawn_cells.begin(), withdrawn_cells.end(), cell) !=
           withdrawn_cells.end();
  };
  // A live cell containing prefix's network overlaps it (two prefixes
  // sharing an address nest by CIDR structure).
  if (std::optional<std::uint32_t> hit = partition_.locate(prefix.network())) {
    if (!withdrawn(*hit)) return true;
  }
  // Live cells whose network lies inside `prefix` are contained in it.
  const bgp::PrefixPartition::Raw raw = partition_.raw();
  const bgp::SortedCell probe{prefix, 0};
  auto it = std::lower_bound(raw.sorted.begin(), raw.sorted.end(), probe);
  for (; it != raw.sorted.end() &&
         it->prefix.network().value() <= prefix.last().value();
       ++it) {
    if (!withdrawn(it->slot)) return true;
  }
  return false;
}

void StreamReactor::collect_ready_deferred(
    double now, std::vector<std::uint32_t>& dirty, double& oldest_enqueue) {
  if (deferred_.empty()) return;
  std::vector<Deferred> keep;
  keep.reserve(deferred_.size());
  for (Deferred& entry : deferred_) {
    // The slot may have been freed — or freed and reused by a different
    // prefix — since the deferral; a re-announced identical prefix gets
    // rescanned through the added-cells path instead.
    if (entry.cell >= partition_.size() || !partition_.live(entry.cell) ||
        partition_.prefix(entry.cell) != entry.prefix) {
      continue;
    }
    if (try_spend_budget(entry.asn, entry.prefix, now)) {
      dirty.push_back(entry.cell);
      oldest_enqueue = std::min(oldest_enqueue, entry.enqueued_at);
    } else {
      keep.push_back(entry);
    }
  }
  deferred_.swap(keep);
}

bool StreamReactor::process_batch() {
  const double now = clock_();
  std::vector<PrefixAction> actions = queue_.drain(options_.max_batch);

  double oldest = std::numeric_limits<double>::infinity();

  // --- Classify against the current table -------------------------------
  std::vector<net::Prefix> removes;
  std::vector<std::uint32_t> withdrawn_cells;
  std::vector<bgp::Pfx2AsRecord> adds;
  std::vector<double> adds_enqueued;
  std::vector<net::Prefix> adds_sorted;  // overlap probe set, ascending
  std::uint64_t announces = 0, withdraws = 0, reorigins = 0, noops = 0,
                rejected = 0;

  for (PrefixAction& action : actions) {
    const std::size_t pos = table_find(action.prefix);
    if (action.is_withdraw()) {
      if (pos == table_.size()) {
        ++noops;  // withdraw of an absent prefix: wire chatter
        continue;
      }
      removes.push_back(action.prefix);
      withdrawn_cells.push_back(*partition_.index_of(action.prefix));
      ++withdraws;
      oldest = std::min(oldest, action.enqueued_at);
      continue;
    }
    if (pos != table_.size()) {
      if (table_[pos].origins == *action.origins) {
        ++noops;  // re-announcement with unchanged origins
      } else {
        table_[pos].origins = std::move(*action.origins);
        ++reorigins;
        oldest = std::min(oldest, action.enqueued_at);
      }
      continue;
    }
    if (overlaps_surviving(action.prefix, withdrawn_cells) ||
        overlaps_sorted(action.prefix, adds_sorted)) {
      ++rejected;  // keeps the partition disjoint; counted, never applied
      continue;
    }
    adds_sorted.insert(
        std::lower_bound(adds_sorted.begin(), adds_sorted.end(),
                         action.prefix),
        action.prefix);
    adds.push_back(
        bgp::Pfx2AsRecord{action.prefix, std::move(*action.origins)});
    adds_enqueued.push_back(action.enqueued_at);
    ++announces;
    oldest = std::min(oldest, action.enqueued_at);
  }

  // --- Patch the table (one ascending merge, == RibDelta::apply) --------
  std::vector<net::Prefix> add_prefixes;
  if (!removes.empty() || !adds.empty()) {
    std::sort(removes.begin(), removes.end());
    std::vector<std::size_t> add_order(adds.size());
    for (std::size_t i = 0; i < add_order.size(); ++i) add_order[i] = i;
    std::sort(add_order.begin(), add_order.end(),
              [&](std::size_t a, std::size_t b) {
                return adds[a].prefix < adds[b].prefix;
              });
    add_prefixes.reserve(adds.size());
    std::vector<double> sorted_enqueued;
    sorted_enqueued.reserve(adds.size());
    std::vector<bgp::Pfx2AsRecord> sorted_adds;
    sorted_adds.reserve(adds.size());
    for (const std::size_t i : add_order) {
      add_prefixes.push_back(adds[i].prefix);
      sorted_enqueued.push_back(adds_enqueued[i]);
      sorted_adds.push_back(std::move(adds[i]));
    }
    adds = std::move(sorted_adds);
    adds_enqueued = std::move(sorted_enqueued);

    std::vector<bgp::Pfx2AsRecord> merged;
    merged.reserve(table_.size() + adds.size() - removes.size());
    std::size_t ai = 0, ri = 0;
    for (bgp::Pfx2AsRecord& record : table_) {
      while (ai < adds.size() && adds[ai].prefix < record.prefix) {
        merged.push_back(std::move(adds[ai++]));
      }
      if (ri < removes.size() && removes[ri] == record.prefix) {
        ++ri;
        continue;
      }
      merged.push_back(std::move(record));
    }
    while (ai < adds.size()) merged.push_back(std::move(adds[ai++]));
    table_ = std::move(merged);
  }

  // --- Patch the partition --------------------------------------------
  bgp::PartitionDelta pdelta{std::move(removes), add_prefixes};
  bgp::PartitionApplyResult result;
  if (!pdelta.empty()) {
    result = partition_.apply_delta(pdelta);
  } else {
    result.old_cell_count =
        static_cast<std::uint32_t>(partition_.size());
    result.new_cell_count = result.old_cell_count;
  }

  // Deferred budgets are re-checked against the post-delta partition so
  // a cell withdrawn (or reused) this batch can never reach the dirty
  // set.
  std::vector<std::uint32_t> dirty;
  collect_ready_deferred(now, dirty, oldest);
  std::sort(dirty.begin(), dirty.end());

  if (announces + withdraws + reorigins + noops + rejected == 0 &&
      dirty.empty()) {
    return false;
  }

  // Politeness shaping: an added cell may only rescan when its origin
  // AS has probe budget; otherwise it is held (ranked at zero until the
  // bucket refills).
  std::vector<std::uint32_t> held;
  if (oracle_ != nullptr && pacing_enabled()) {
    for (std::size_t i = 0; i < result.added_cells.size(); ++i) {
      const std::uint32_t cell = result.added_cells[i];
      const net::Prefix prefix = partition_.prefix(cell);
      const std::size_t pos = table_find(prefix);
      const std::uint32_t asn =
          pos != table_.size() ? table_[pos].origins.front() : 0;
      if (try_spend_budget(asn, prefix, now)) continue;
      // added_cells is ascending and parallel to the sorted adds, so
      // index i maps the cell back to its enqueue time.
      const double enqueued_at =
          i < adds_enqueued.size() ? adds_enqueued[i] : now;
      deferred_.push_back(Deferred{cell, prefix, asn, enqueued_at});
      held.push_back(cell);
    }
  }

  const bool changed = !pdelta.empty() || !dirty.empty();
  core::ChurnStepStats step;
  if (changed) {
    step = core::churn_step(ranking_, counts_, partition_, result, oracle_,
                            dirty, held);
  }

  // --- Publish ----------------------------------------------------------
  double latency = 0.0;
  bool published = false;
  if (changed && publisher_) {
    PublishedPlan plan;
    plan.seq = ++seq_;
    plan.image = state::encode_image(partition_, ranking_);
    // encode_image hashed the partition into the header; read it back
    // rather than hashing every live cell a second time.
    plan.fingerprint = util::load_le64(
        std::span<const std::byte>(plan.image)
            .subspan<state::kFingerprintOffset, 8>());
    plan.batch_updates = announces + withdraws + reorigins;
    latency = oldest == std::numeric_limits<double>::infinity()
                  ? 0.0
                  : std::max(0.0, clock_() - oldest);
    plan.update_to_plan_seconds = latency;
    published = true;
    publisher_(std::move(plan));
  }

  {
    std::lock_guard lock(stats_mutex_);
    ++stats_.batches;
    stats_.applied_announces += announces;
    stats_.applied_withdraws += withdraws;
    stats_.applied_reorigins += reorigins;
    stats_.noop_updates += noops;
    stats_.rejected_overlaps += rejected;
    stats_.paced_deferrals += held.size();
    stats_.deferred_pending = deferred_.size();
    stats_.rescanned_cells += step.rescanned_cells;
    stats_.rescanned_addresses += step.rescanned_addresses;
    if (published) {
      ++stats_.plans_published;
      stats_.last_update_to_plan_seconds = latency;
      stats_.max_update_to_plan_seconds =
          std::max(stats_.max_update_to_plan_seconds, latency);
    }
  }
  return true;
}

// --- Synchronous mode ----------------------------------------------------

void StreamReactor::feed(std::span<const std::byte> data) {
  TASS_EXPECTS(!running_.load(std::memory_order_relaxed));
  framer_.push(data);
  drain_framer(/*blocking=*/false);
  snapshot_framer_stats();
}

bool StreamReactor::poll() {
  TASS_EXPECTS(!running_.load(std::memory_order_relaxed));
  return process_batch();
}

void StreamReactor::flush() {
  TASS_EXPECTS(!running_.load(std::memory_order_relaxed));
  while (process_batch()) {
  }
}

void StreamReactor::finish() {
  TASS_EXPECTS(!running_.load(std::memory_order_relaxed));
  framer_.finish();
  snapshot_framer_stats();
}

// --- Asynchronous mode ---------------------------------------------------

void StreamReactor::ingest_loop(UpdateSource& source) {
  std::vector<std::byte> chunk(options_.read_chunk);
  while (!stop_requested_.load(std::memory_order_relaxed)) {
    const std::size_t got = source.read(std::span(chunk));
    if (got == 0) {
      if (source.exhausted()) break;
      // Sources with no internal park (BufferSource) would spin here.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    framer_.push(std::span<const std::byte>(chunk.data(), got));
    drain_framer(/*blocking=*/true);
    snapshot_framer_stats();
  }
  framer_.finish();
  snapshot_framer_stats();
  // Sole producer: closing here lets the pipeline drain and quiesce.
  queue_.close();
}

void StreamReactor::pipeline_loop() {
  while (true) {
    const bool have =
        queue_.wait_nonempty(options_.max_batch_delay_seconds);
    if (have || !deferred_.empty()) process_batch();
    if (queue_.closed() && queue_.size() == 0) {
      if (deferred_.empty() ||
          stop_requested_.load(std::memory_order_relaxed)) {
        break;
      }
      // Feed ended but paced rescans still owe probes: tick until the
      // budgets refill or stop() is requested. wait_nonempty returns
      // immediately on a closed queue, so pace the loop explicitly.
      if (!have) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            options_.max_batch_delay_seconds));
      }
    }
  }
}

void StreamReactor::start(std::unique_ptr<UpdateSource> source) {
  TASS_EXPECTS(source != nullptr);
  TASS_EXPECTS(!running_.load());
  TASS_EXPECTS(!queue_.closed());  // one start per reactor lifetime
  stop_requested_.store(false);
  source_ = std::move(source);
  running_.store(true);
  ingest_thread_ = std::thread([this] { ingest_loop(*source_); });
  pipeline_thread_ = std::thread([this] { pipeline_loop(); });
}

void StreamReactor::stop() {
  stop_requested_.store(true);
  queue_.close();
  if (ingest_thread_.joinable()) ingest_thread_.join();
  if (pipeline_thread_.joinable()) pipeline_thread_.join();
  source_.reset();
  running_.store(false);
}

void StreamReactor::join() {
  if (ingest_thread_.joinable()) ingest_thread_.join();
  if (pipeline_thread_.joinable()) pipeline_thread_.join();
  source_.reset();
  running_.store(false);
}

ReactorStats StreamReactor::stats() const {
  ReactorStats out;
  {
    std::lock_guard lock(stats_mutex_);
    out = stats_;
  }
  out.queue = queue_.stats();
  return out;
}

}  // namespace tass::stream
