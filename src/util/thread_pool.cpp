#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>

namespace tass::util {
namespace {

// The inline path of a region: every shard runs even when one throws, and
// the first exception is rethrown at the end, as on the pooled path.
void run_inline(std::size_t shard_count,
                const std::function<void(std::size_t)>& fn) {
  std::exception_ptr error;
  for (std::size_t shard = 0; shard < shard_count; ++shard) {
    try {
      fn(shard);
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace

std::size_t shard_count_for_slots(std::uint64_t total_items,
                                  std::uint64_t min_items_per_shard,
                                  std::uint64_t cells,
                                  std::size_t bytes_per_cell) noexcept {
  constexpr std::uint64_t kSlotMemoryBudget = 64ULL << 20;  // bytes
  // Clamp every divisor: a zero grain, a zero-cell workload AND a
  // zero-byte slot type (callers sizing for a slot-free reduction) must
  // all yield a valid divisor, not a division by zero.
  const std::uint64_t slot_bytes =
      std::max<std::uint64_t>(1, cells) *
      std::max<std::uint64_t>(1, bytes_per_cell);
  const std::uint64_t max_shards =
      std::clamp<std::uint64_t>(kSlotMemoryBudget / slot_bytes, 1, 1024);
  return static_cast<std::size_t>(std::clamp<std::uint64_t>(
      total_items / std::max<std::uint64_t>(1, min_items_per_shard), 1,
      max_shards));
}

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads - 1);
  for (unsigned i = 1; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

bool ThreadPool::run_one_shard(Job& job,
                               const std::function<void(std::size_t)>& fn) {
  const std::size_t shard = job.next.fetch_add(1, std::memory_order_relaxed);
  if (shard >= job.shard_count) return false;
  std::exception_ptr error;
  try {
    fn(shard);
  } catch (...) {
    error = std::current_exception();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (error && !job.error) job.error = error;
  if (++job.completed == job.shard_count) job.done_cv.notify_all();
  return true;
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
    if (stop_) return;
    const std::shared_ptr<Job> job = jobs_.front();
    if (job->next.load(std::memory_order_relaxed) >= job->shard_count) {
      // Exhausted; retire it and look for the next job.
      jobs_.pop_front();
      continue;
    }
    lock.unlock();
    run_one_shard(*job, *job->fn);
    lock.lock();
  }
}

void ThreadPool::for_each_shard(std::size_t shard_count,
                                const std::function<void(std::size_t)>& fn) {
  if (shard_count == 0) return;
  if (workers_.empty() || shard_count == 1) {
    run_inline(shard_count, fn);
    return;
  }

  const auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->shard_count = shard_count;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_.push_back(job);
  }
  work_cv_.notify_all();

  // The caller participates until no shard is left to claim...
  while (run_one_shard(*job, fn)) {
  }

  // ...then waits for shards still in flight on other threads.
  std::unique_lock<std::mutex> lock(mutex_);
  job->done_cv.wait(lock,
                    [&] { return job->completed == job->shard_count; });
  const auto it = std::find(jobs_.begin(), jobs_.end(), job);
  if (it != jobs_.end()) jobs_.erase(it);
  if (job->error) std::rethrow_exception(job->error);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(0);
  return pool;
}

void run_shards(unsigned threads, std::size_t shard_count,
                const std::function<void(std::size_t)>& fn) {
  if (threads == 1 || shard_count <= 1) {
    run_inline(shard_count, fn);
  } else if (threads == 0) {
    ThreadPool::shared().for_each_shard(shard_count, fn);
  } else {
    ThreadPool pool(threads);
    pool.for_each_shard(shard_count, fn);
  }
}

}  // namespace tass::util
