#include "stream/reactor.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <limits>
#include <map>
#include <optional>

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

}  // namespace

StreamReactor::StreamReactor(std::vector<bgp::Pfx2AsRecord> table,
                             std::vector<std::uint32_t> counts,
                             ReactorOptions options)
    : options_(std::move(options)),
      clock_(options_.clock ? options_.clock : steady_seconds),
      counts_(std::move(counts)),
      queue_(options_.queue_capacity, options_.overflow) {
  TASS_EXPECTS(counts_.size() == table.size());
  std::vector<net::Prefix> prefixes;
  prefixes.reserve(table.size());
  origins_.resize(table.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    TASS_EXPECTS(!table[i].origins.empty());
    if (i > 0) TASS_EXPECTS(table[i - 1].prefix < table[i].prefix);
    prefixes.push_back(table[i].prefix);
    origins_.assign(static_cast<std::uint32_t>(i), std::move(table[i].origins));
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

void StreamReactor::SlotOrigins::resize(std::size_t slots) {
  for (std::size_t slot = slots; slot < slots_.size(); ++slot) {
    clear(static_cast<std::uint32_t>(slot));
  }
  slots_.resize(slots);
}

std::span<const std::uint32_t> StreamReactor::SlotOrigins::operator[](
    std::uint32_t slot) const {
  const Slot& entry = slots_[slot];
  if (entry.size <= 2) return {entry.data, entry.size};
  return spill_[entry.data[0]];
}

void StreamReactor::SlotOrigins::assign(std::uint32_t slot,
                                        std::vector<std::uint32_t>&& origins) {
  Slot& entry = slots_[slot];
  if (origins.size() <= 2) {
    clear(slot);
    entry.size = static_cast<std::uint32_t>(origins.size());
    std::copy(origins.begin(), origins.end(), entry.data);
    return;
  }
  if (entry.size <= 2) {
    if (free_spill_.empty()) {
      entry.data[0] = static_cast<std::uint32_t>(spill_.size());
      spill_.emplace_back();
    } else {
      entry.data[0] = free_spill_.back();
      free_spill_.pop_back();
    }
  }
  entry.size = static_cast<std::uint32_t>(origins.size());
  spill_[entry.data[0]] = std::move(origins);
}

void StreamReactor::SlotOrigins::clear(std::uint32_t slot) {
  Slot& entry = slots_[slot];
  if (entry.size > 2) {
    spill_[entry.data[0]] = {};
    free_spill_.push_back(entry.data[0]);
  }
  entry = Slot{};
}

std::vector<bgp::Pfx2AsRecord> StreamReactor::table() const {
  const bgp::PrefixPartition::Raw raw = partition_.raw();
  std::vector<bgp::Pfx2AsRecord> table;
  table.reserve(raw.sorted.size());
  for (const bgp::SortedCell& cell : raw.sorted) {
    const std::span<const std::uint32_t> origins = origins_[cell.slot];
    table.push_back({cell.prefix, {origins.begin(), origins.end()}});
  }
  return table;
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

void StreamReactor::enqueue_action(PrefixAction&& action, bool blocking) {
  if (blocking) {
    queue_.offer(std::move(action));  // false only when closed: shutdown
    return;
  }
  // Sync mode: a full queue is drained inline — backpressure becomes an
  // immediate batch on the caller's thread, so kBlock never deadlocks.
  // A refused try_offer leaves `action` whole for the retry.
  while (!queue_.try_offer(std::move(action))) {
    if (queue_.closed()) return;
    const bool did_work = process_batch();
    TASS_EXPECTS(did_work);  // the queue was full, so a batch must drain
  }
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
  queue_.drain(batch_, options_.max_batch);

  double oldest = std::numeric_limits<double>::infinity();

  // --- Classify against the live partition ----------------------------
  std::vector<net::Prefix> removes;
  std::vector<std::uint32_t> withdrawn_cells;
  // The batch's accepted adds by prefix, each naming its action in
  // batch_: the in-batch overlap probe (a neighbour lookup), and, walked
  // in order, the ascending add list apply_delta wants.
  std::pmr::map<net::Prefix, std::uint32_t> adds(&add_nodes_);
  std::uint64_t announces = 0, withdraws = 0, reorigins = 0, noops = 0,
                rejected = 0;
  withdrawn_.resize(partition_.size());
  const auto withdrawn = [&](std::uint32_t cell) {
    return withdrawn_[cell] != 0;
  };

  for (std::size_t i = 0; i < batch_.size(); ++i) {
    PrefixAction& action = batch_[i];
    const std::optional<std::uint32_t> cell =
        partition_.index_of(action.prefix);
    if (action.is_withdraw()) {
      if (!cell) {
        ++noops;  // withdraw of an absent prefix: wire chatter
        continue;
      }
      removes.push_back(action.prefix);
      withdrawn_cells.push_back(*cell);
      withdrawn_[*cell] = 1;
      ++withdraws;
      oldest = std::min(oldest, action.enqueued_at);
      continue;
    }
    if (cell) {
      if (std::ranges::equal(origins_[*cell], *action.origins)) {
        ++noops;  // re-announcement with unchanged origins
      } else {
        origins_.assign(*cell, std::move(*action.origins));
        ++reorigins;
        oldest = std::min(oldest, action.enqueued_at);
      }
      continue;
    }
    // Of the disjoint accepted adds, only the first at or after the
    // prefix (starting inside it) and the one before it (containing it)
    // can overlap it. A cell withdrawn earlier in this batch no longer
    // blocks an add.
    const auto next = adds.lower_bound(action.prefix);
    if ((next != adds.end() && action.prefix.contains(next->first)) ||
        (next != adds.begin() &&
         std::prev(next)->first.contains(action.prefix)) ||
        partition_.overlapping_cell(action.prefix, withdrawn)) {
      ++rejected;  // keeps the partition disjoint; counted, never applied
      continue;
    }
    adds.emplace_hint(next, action.prefix, static_cast<std::uint32_t>(i));
    ++announces;
    oldest = std::min(oldest, action.enqueued_at);
  }
  for (const std::uint32_t cell : withdrawn_cells) withdrawn_[cell] = 0;

  // --- Patch the partition and the per-slot origins --------------------
  // apply_delta assigns slots in `add` order, so ascending adds give the
  // slots the batch path's (sorted) partition_delta would.
  bgp::PartitionDelta pdelta;
  pdelta.remove = std::move(removes);
  std::vector<std::uint32_t> add_actions;  // batch_ index per pdelta.add
  pdelta.add.reserve(adds.size());
  add_actions.reserve(adds.size());
  for (const auto& [prefix, index] : adds) {
    pdelta.add.push_back(prefix);
    add_actions.push_back(index);
  }
  bgp::PartitionApplyResult result;
  if (!pdelta.empty()) {
    result = partition_.apply_delta(pdelta);
    origins_.resize(result.new_cell_count);
    for (const std::uint32_t cell : result.removed_cells) origins_.clear(cell);
    for (std::size_t i = 0; i < add_actions.size(); ++i) {
      origins_.assign(result.added_cells[i],
                      std::move(*batch_[add_actions[i]].origins));
    }
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
      const std::uint32_t asn = origins_[cell].front();
      if (try_spend_budget(asn, prefix, now)) continue;
      // added_cells is parallel to the sorted adds.
      deferred_.push_back(
          Deferred{cell, prefix, asn, batch_[add_actions[i]].enqueued_at});
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
