// Tests for util/thread_pool: exact shard coverage, deterministic chunk
// boundaries, caller participation, nesting and exception propagation —
// the guarantees the parallel scan pipeline is built on.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace tass::util {
namespace {

TEST(ShardCountForSlots, ScalesWithWorkloadNotPool) {
  // A 1-byte, 1-cell slot leaves the 1024-shard cap in force.
  EXPECT_EQ(shard_count_for_slots(0, 100, 1, 1), 1u);
  EXPECT_EQ(shard_count_for_slots(99, 100, 1, 1), 1u);
  EXPECT_EQ(shard_count_for_slots(100, 100, 1, 1), 1u);
  EXPECT_EQ(shard_count_for_slots(1000, 100, 1, 1), 10u);
  EXPECT_EQ(shard_count_for_slots(1ULL << 40, 1, 1, 1), 1024u);  // capped
  // A 1 MiB slot caps fan-out at 64 MiB / 1 MiB = 64 shards.
  EXPECT_EQ(shard_count_for_slots(1'000'000, 100, 1ULL << 20, 1), 64u);
  EXPECT_EQ(shard_count_for_slots(42, 0, 1, 1), 42u);  // zero grain as 1
}

TEST(ShardCountForSlots, ZeroBytesPerCellDoesNotDivideByZero) {
  // bytes_per_cell == 0 models a slot-free reduction; it must clamp to
  // a 1-byte slot instead of dividing the memory budget by zero.
  const std::size_t shards = shard_count_for_slots(1'000'000, 1'000, 0, 0);
  EXPECT_GE(shards, 1u);
  EXPECT_LE(shards, 1024u);
  // And it agrees with the smallest legal slot description.
  EXPECT_EQ(shards, shard_count_for_slots(1'000'000, 1'000, 1, 1));
}

TEST(ShardCountForSlots, BudgetCapStillApplies) {
  // A huge slot (1M cells x 8 bytes = 8 MiB) caps fan-out at
  // 64 MiB / 8 MiB = 8 shards however large the workload is.
  EXPECT_EQ(shard_count_for_slots(1ULL << 40, 1, 1'000'000, 8), 8u);
}

TEST(ThreadPool, RunsEveryShardExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.thread_count(), threads);
    std::vector<std::atomic<int>> hits(137);
    pool.for_each_shard(hits.size(), [&](std::size_t shard) {
      hits[shard].fetch_add(1);
    });
    for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
  }
}

TEST(RunChunks, ChunksCoverTheRangeExactly) {
  // Chunk boundaries must tile [begin, end) without gaps or overlaps and
  // be identical for any pool size (they depend only on the arguments).
  const std::uint64_t begin = 1000;
  const std::uint64_t end = 1000 + 12345;
  std::vector<std::atomic<int>> touched(12345);
  run_chunks(4, begin, end, 16,
             [&](std::size_t, std::uint64_t lo, std::uint64_t hi) {
               EXPECT_LT(lo, hi);
               for (std::uint64_t i = lo; i < hi; ++i) {
                 touched[i - begin].fetch_add(1);
               }
             });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(RunChunks, ChunkBoundariesAreDeterministic) {
  // Record the boundaries with two differently-sized pools; they must
  // agree because the merge-order determinism of the pipeline depends on
  // it.
  const auto boundaries = [](unsigned threads) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> chunks(7);
    run_chunks(threads, 3, 1000, 7,
               [&](std::size_t shard, std::uint64_t lo, std::uint64_t hi) {
                 chunks[shard] = {lo, hi};
               });
    return chunks;
  };
  EXPECT_EQ(boundaries(1), boundaries(8));
}

TEST(RunChunks, ShardCountLargerThanRangeIsClamped) {
  std::atomic<int> calls{0};
  run_chunks(3, 0, 2, 100,
             [&](std::size_t, std::uint64_t lo, std::uint64_t hi) {
               EXPECT_EQ(hi, lo + 1);
               calls.fetch_add(1);
             });
  EXPECT_EQ(calls.load(), 2);
}

TEST(ThreadPool, PropagatesTheFirstException) {
  // ThreadPool(1) has no workers and runs the region inline; the contract
  // is the same there, and inline the first error is shard 7's.
  for (const unsigned threads : {4u, 1u}) {
    ThreadPool pool(threads);
    std::atomic<int> completed{0};
    try {
      pool.for_each_shard(32, [&](std::size_t shard) {
        if (shard == 7 || shard == 20) {
          throw std::runtime_error("shard " + std::to_string(shard));
        }
        completed.fetch_add(1);
      });
      ADD_FAILURE() << "no exception with " << threads << " threads";
    } catch (const std::runtime_error& error) {
      if (threads == 1) {
        EXPECT_STREQ(error.what(), "shard 7");
      }
    }
    // The remaining shards still ran to completion.
    EXPECT_EQ(completed.load(), 30) << threads;
  }
}

TEST(ThreadPool, NestedRegionsMakeProgress) {
  // Regions launched from inside a shared-pool shard reenter the same
  // pool (threads = 0) and must still complete.
  std::atomic<std::uint64_t> sum{0};
  ThreadPool::shared().for_each_shard(8, [&](std::size_t outer) {
    run_chunks(0, 0, 100, 4,
               [&](std::size_t, std::uint64_t lo, std::uint64_t hi) {
                 sum.fetch_add((hi - lo) * (outer + 1));
               });
  });
  // sum = 100 * (1 + 2 + ... + 8)
  EXPECT_EQ(sum.load(), 100u * 36u);
}

TEST(ThreadPool, SharedPoolIsUsableAndStable) {
  ThreadPool& a = ThreadPool::shared();
  ThreadPool& b = ThreadPool::shared();
  EXPECT_EQ(&a, &b);
  std::atomic<std::uint64_t> sum{0};
  run_chunks(0, 0, 1'000, 13,
             [&](std::size_t, std::uint64_t lo, std::uint64_t hi) {
               std::uint64_t local = 0;
               for (std::uint64_t i = lo; i < hi; ++i) local += i;
               sum.fetch_add(local);
             });
  EXPECT_EQ(sum.load(), 999u * 1000u / 2);
}

}  // namespace
}  // namespace tass::util
