// Fixed-size worker pool for the scan pipeline's data-parallel stages.
//
// The pool deliberately avoids work stealing and dynamic scheduling
// games: a parallel region is a fixed set of shards handed out from an
// atomic counter, and every consumer writes into a result slot addressed
// by shard index. Because shard *boundaries* depend only on the workload
// (never on the pool size or on scheduling), merging the per-shard slots
// in index order reproduces the sequential result bit for bit — the
// property the attribution and evaluation stages rely on to stay
// deterministic under any thread count.
//
// The calling thread participates in every region, so a pool constructed
// with 1 thread degenerates to plain inline execution and nested regions
// launched from worker threads always make progress.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace tass::util {

/// Deterministic shard count for a workload of `total_items` when every
/// shard owns a dense result slot of `cells` entries of `bytes_per_cell`
/// each (attribution-style count vectors): one shard per
/// `min_items_per_shard` items, capped at 1024 and so that the slot
/// arrays fit a fixed memory budget however large one slot is. Depends
/// only on the inputs, never on the pool size — so results merged in
/// shard order are thread-count invariant.
std::size_t shard_count_for_slots(std::uint64_t total_items,
                                  std::uint64_t min_items_per_shard,
                                  std::uint64_t cells,
                                  std::size_t bytes_per_cell) noexcept;

/// The pipeline-wide dispatch convention for a `threads` knob: 1 runs the
/// shards inline on the calling thread, 0 uses the process-wide pool, and
/// N > 1 uses a dedicated pool of N participants. The shard set is the
/// same in every case, so results never depend on the choice.
void run_shards(unsigned threads, std::size_t shard_count,
                const std::function<void(std::size_t)>& fn);

class ThreadPool {
 public:
  /// A pool with `threads` participants including the calling thread
  /// (i.e. `threads - 1` workers are spawned). 0 means one participant
  /// per hardware thread.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Participants, counting the calling thread.
  unsigned thread_count() const noexcept {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Invokes fn(shard) exactly once for every shard in [0, shard_count),
  /// distributed over the workers plus the calling thread, and blocks
  /// until all shards finished. The first exception thrown by any shard
  /// is rethrown here (the remaining shards still run). Reentrant: fn may
  /// itself call into the pool.
  void for_each_shard(std::size_t shard_count,
                      const std::function<void(std::size_t)>& fn);

  /// Process-wide pool sized to the hardware, built on first use. Shared
  /// by every pipeline stage that does not get an explicit pool.
  static ThreadPool& shared();

  /// Deterministic chunk boundaries used by run_chunks: chunk `shard`
  /// of `shard_count` over [begin, begin + total). 128-bit intermediates
  /// keep the split exact for any uint64 range.
  static constexpr std::pair<std::uint64_t, std::uint64_t> chunk_bounds(
      std::uint64_t begin, std::uint64_t total, std::size_t shard_count,
      std::size_t shard) noexcept {
    const auto at = [&](std::size_t s) {
      return begin + static_cast<std::uint64_t>(
                         static_cast<__uint128_t>(total) * s / shard_count);
    };
    return {at(shard), at(shard + 1)};
  }

 private:
  struct Job {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t shard_count = 0;
    std::atomic<std::size_t> next{0};
    std::size_t completed = 0;        // guarded by ThreadPool::mutex_
    std::exception_ptr error;         // guarded by ThreadPool::mutex_
    std::condition_variable done_cv;
  };

  void worker_loop();
  // Runs one shard and does the completion bookkeeping. Returns false if
  // the job had no shard left to claim.
  bool run_one_shard(Job& job, const std::function<void(std::size_t)>& fn);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<Job>> jobs_;
  bool stop_ = false;
};

/// run_shards over chunked index ranges: the range [begin, end) is split
/// into `shard_count` (clamped to the range size) contiguous chunks with
/// ThreadPool::chunk_bounds boundaries, and fn(shard, chunk_begin,
/// chunk_end) runs once per chunk.
template <typename Fn>
void run_chunks(unsigned threads, std::uint64_t begin, std::uint64_t end,
                std::size_t shard_count, Fn&& fn) {
  if (begin >= end) return;
  const std::uint64_t total = end - begin;
  if (shard_count > total) shard_count = static_cast<std::size_t>(total);
  if (shard_count == 0) shard_count = 1;
  run_shards(threads, shard_count, [&](std::size_t shard) {
    const auto [lo, hi] =
        ThreadPool::chunk_bounds(begin, total, shard_count, shard);
    fn(shard, lo, hi);
  });
}

}  // namespace tass::util
