// Unit tests for the bounded per-prefix-coalescing churn queue: folding
// semantics (newest wins, FIFO position and oldest timestamp kept),
// backpressure under both overflow policies, the counters the reactor's
// burst accounting is built on, and the flat storage underneath: ring
// wrap-around, drained index slots, index rebuilds, and offers that
// leave a refused action whole.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "net/prefix.hpp"
#include "stream/queue.hpp"
#include "util/rng.hpp"

namespace tass::stream {
namespace {

net::Prefix pfx(const char* text) { return net::Prefix::parse_or_throw(text); }

PrefixAction announce(const char* text, std::vector<std::uint32_t> origins,
                      double at = 0.0) {
  return PrefixAction{pfx(text), std::move(origins), at};
}

PrefixAction withdraw(const char* text, double at = 0.0) {
  return PrefixAction{pfx(text), std::nullopt, at};
}

TEST(CoalescingQueueTest, AnnounceWithdrawAnnounceCollapsesToFinalState) {
  CoalescingQueue queue(16);
  EXPECT_TRUE(queue.offer(announce("10.0.0.0/24", {1}, 1.0)));
  EXPECT_TRUE(queue.offer(withdraw("10.0.0.0/24", 2.0)));
  EXPECT_TRUE(queue.offer(announce("10.0.0.0/24", {7}, 3.0)));

  const auto drained = queue.drain();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_FALSE(drained[0].is_withdraw());
  EXPECT_EQ(*drained[0].origins, (std::vector<std::uint32_t>{7}));
  // The fold keeps the oldest enqueue time so latency is never
  // under-reported for an update that sat through the whole flap.
  EXPECT_EQ(drained[0].enqueued_at, 1.0);

  const QueueStats stats = queue.stats();
  EXPECT_EQ(stats.offered, 3u);
  EXPECT_EQ(stats.coalesced, 2u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.drained, 1u);
  EXPECT_EQ(stats.high_water, 1u);
}

TEST(CoalescingQueueTest, FoldKeepsFifoPosition) {
  CoalescingQueue queue(16);
  ASSERT_TRUE(queue.offer(announce("10.0.0.0/24", {1})));
  ASSERT_TRUE(queue.offer(announce("10.0.1.0/24", {2})));
  ASSERT_TRUE(queue.offer(withdraw("10.0.0.0/24")));  // folds into slot 0

  const auto drained = queue.drain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].prefix, pfx("10.0.0.0/24"));
  EXPECT_TRUE(drained[0].is_withdraw());
  EXPECT_EQ(drained[1].prefix, pfx("10.0.1.0/24"));
}

TEST(CoalescingQueueTest, DrainedPrefixRequeuesAsNewEntry) {
  CoalescingQueue queue(16);
  ASSERT_TRUE(queue.offer(announce("10.0.0.0/24", {1})));
  ASSERT_EQ(queue.drain().size(), 1u);
  // After a drain the prefix's index entry is gone: the next offer is a
  // fresh push, not a fold into a phantom slot.
  ASSERT_TRUE(queue.offer(withdraw("10.0.0.0/24")));
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.stats().coalesced, 0u);
  const auto drained = queue.drain();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_TRUE(drained[0].is_withdraw());
}

TEST(CoalescingQueueTest, DrainMaxPopsFifoPrefix) {
  CoalescingQueue queue(16);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(queue.offer(
        announce(("10.0." + std::to_string(i) + ".0/24").c_str(),
                 {static_cast<std::uint32_t>(i)})));
  }
  const auto first = queue.drain(2);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].prefix, pfx("10.0.0.0/24"));
  EXPECT_EQ(first[1].prefix, pfx("10.0.1.0/24"));
  EXPECT_EQ(queue.size(), 3u);
  // Folding still targets the remaining entries after a partial drain
  // (the absolute-position index must survive the base shift).
  ASSERT_TRUE(queue.offer(withdraw("10.0.4.0/24")));
  EXPECT_EQ(queue.stats().coalesced, 1u);
  const auto rest = queue.drain();
  ASSERT_EQ(rest.size(), 3u);
  EXPECT_TRUE(rest[2].is_withdraw());
}

TEST(CoalescingQueueTest, DropNewestCountsDiscardsButFoldsWhenFull) {
  CoalescingQueue queue(1, OverflowPolicy::kDropNewest);
  ASSERT_TRUE(queue.offer(announce("10.0.0.0/24", {1})));
  // Full queue: a distinct prefix is dropped and counted...
  EXPECT_FALSE(queue.offer(announce("10.0.1.0/24", {2})));
  EXPECT_EQ(queue.stats().dropped, 1u);
  // ...but an update for an already-queued prefix always folds.
  EXPECT_TRUE(queue.offer(withdraw("10.0.0.0/24")));
  EXPECT_EQ(queue.stats().coalesced, 1u);
  EXPECT_EQ(queue.stats().dropped, 1u);
  const auto drained = queue.drain();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_TRUE(drained[0].is_withdraw());
}

TEST(CoalescingQueueTest, TryOfferRejectsWhenFullWithoutCounting) {
  CoalescingQueue queue(1);
  ASSERT_TRUE(queue.try_offer(announce("10.0.0.0/24", {1})));
  EXPECT_FALSE(queue.try_offer(announce("10.0.1.0/24", {2})));
  // A rejected try_offer is the caller's to retry: it must not inflate
  // the offered count.
  EXPECT_EQ(queue.stats().offered, 1u);
  EXPECT_EQ(queue.stats().dropped, 0u);
}

TEST(CoalescingQueueTest, BlockingOfferWaitsForSpace) {
  CoalescingQueue queue(2, OverflowPolicy::kBlock);
  ASSERT_TRUE(queue.offer(announce("10.0.0.0/24", {1})));
  ASSERT_TRUE(queue.offer(announce("10.0.1.0/24", {2})));

  std::atomic<bool> accepted{false};
  std::thread producer([&] {
    // Full: this offer must block until the consumer drains.
    EXPECT_TRUE(queue.offer(announce("10.0.2.0/24", {3})));
    accepted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(accepted.load());
  EXPECT_EQ(queue.drain(1).size(), 1u);
  producer.join();
  EXPECT_TRUE(accepted.load());
  EXPECT_EQ(queue.stats().blocked, 1u);
  EXPECT_EQ(queue.size(), 2u);
}

TEST(CoalescingQueueTest, CloseWakesBlockedProducerAndRejectsOffers) {
  CoalescingQueue queue(1, OverflowPolicy::kBlock);
  ASSERT_TRUE(queue.offer(announce("10.0.0.0/24", {1})));
  std::thread producer([&] {
    EXPECT_FALSE(queue.offer(announce("10.0.1.0/24", {2})));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue.close();
  producer.join();
  EXPECT_FALSE(queue.offer(announce("10.0.2.0/24", {3})));
  // Entries queued before the close stay drainable.
  EXPECT_EQ(queue.drain().size(), 1u);
}

TEST(CoalescingQueueTest, WaitNonemptySignalsDataAndClose) {
  CoalescingQueue queue(4);
  EXPECT_FALSE(queue.wait_nonempty(0.005));  // times out empty
  ASSERT_TRUE(queue.offer(announce("10.0.0.0/24", {1})));
  EXPECT_TRUE(queue.wait_nonempty(0.005));
  queue.drain();
  // A closed empty queue returns immediately instead of timing out.
  queue.close();
  EXPECT_FALSE(queue.wait_nonempty(60.0));
}

TEST(CoalescingQueueTest, HighWaterTracksPeakDepth) {
  CoalescingQueue queue(16);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(queue.offer(
        announce(("10.1." + std::to_string(i) + ".0/24").c_str(), {1})));
  }
  queue.drain();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(queue.offer(
        announce(("10.2." + std::to_string(i) + ".0/24").c_str(), {1})));
  }
  EXPECT_EQ(queue.stats().high_water, 6u);
  EXPECT_EQ(queue.stats().drained, 6u);
}

/// The i-th of 2^16 distinct /24 prefixes.
net::Prefix nth_prefix(std::uint32_t i) {
  return net::Prefix(net::Ipv4Address(0x0a000000u + (i << 8)), 24);
}

/// Drives `queue` with `rounds` of random offers over `keys` distinct
/// prefixes, each round ending in a random partial drain, and checks
/// every drained entry against a reference model: a FIFO of prefixes
/// plus the newest origins per queued prefix. Returns the entries
/// drained.
std::uint64_t check_against_model(CoalescingQueue& queue, std::uint32_t keys,
                                  int rounds, std::uint64_t seed) {
  std::deque<std::uint32_t> order;
  std::map<std::uint32_t, std::uint32_t> newest;
  util::Rng rng(seed);
  std::uint32_t value = 0;
  std::uint64_t drained = 0;
  const std::uint64_t burst = 2 * queue.capacity() / 3 + 1;
  for (int round = 0; round < rounds; ++round) {
    const std::uint64_t offers = 1 + rng.bounded(burst);
    for (std::uint64_t k = 0; k < offers; ++k) {
      const auto i = static_cast<std::uint32_t>(rng.bounded(keys));
      PrefixAction action{nth_prefix(i), std::vector<std::uint32_t>{++value},
                          0.0};
      if (!queue.try_offer(std::move(action))) {
        EXPECT_EQ(order.size(), queue.capacity());
        EXPECT_EQ(newest.count(i), 0u);
        continue;
      }
      if (newest.count(i) == 0) order.push_back(i);
      newest[i] = value;
    }
    const std::size_t take = rng.bounded(burst);
    const std::vector<PrefixAction> out = queue.drain(take);
    EXPECT_EQ(out.size(),
              take == 0 ? order.size() : std::min(take, order.size()));
    for (const PrefixAction& action : out) {
      if (order.empty()) return drained;
      EXPECT_EQ(action.prefix, nth_prefix(order.front()));
      EXPECT_EQ(*action.origins,
                (std::vector<std::uint32_t>{newest[order.front()]}));
      newest.erase(order.front());
      order.pop_front();
      ++drained;
    }
    EXPECT_EQ(queue.size(), order.size());
  }
  return drained;
}

TEST(CoalescingQueueTest, RingWrapsKeepFifoOrderAndFoldIntoTheRightEntry) {
  // Enough offer/drain cycles to wrap an 8-entry ring many times.
  CoalescingQueue queue(8);
  const std::uint64_t drained = check_against_model(queue, 12, 400, 7);
  EXPECT_GT(drained, 10u * 8u);
  EXPECT_EQ(queue.stats().drained, drained);
  EXPECT_EQ(queue.stats().high_water, 8u);
}

TEST(CoalescingQueueTest, DrainedPrefixBecomesNewTailUndrainedFoldsInPlace) {
  CoalescingQueue queue(16);
  ASSERT_TRUE(queue.offer(announce("10.0.0.0/24", {1})));
  ASSERT_TRUE(queue.offer(announce("10.0.1.0/24", {2})));
  ASSERT_TRUE(queue.offer(announce("10.0.2.0/24", {3})));
  ASSERT_EQ(queue.drain(1).size(), 1u);  // 10.0.0.0/24 leaves
  // Its index slot now lies behind the head: the re-offer is a new tail
  // entry, while an offer for a still-queued prefix folds in place.
  ASSERT_TRUE(queue.offer(announce("10.0.0.0/24", {4})));
  ASSERT_TRUE(queue.offer(announce("10.0.1.0/24", {5})));
  EXPECT_EQ(queue.stats().coalesced, 1u);

  const auto drained = queue.drain();
  ASSERT_EQ(drained.size(), 3u);
  EXPECT_EQ(drained[0].prefix, pfx("10.0.1.0/24"));
  EXPECT_EQ(*drained[0].origins, (std::vector<std::uint32_t>{5}));
  EXPECT_EQ(drained[1].prefix, pfx("10.0.2.0/24"));
  EXPECT_EQ(drained[2].prefix, pfx("10.0.0.0/24"));
  EXPECT_EQ(*drained[2].origins, (std::vector<std::uint32_t>{4}));
}

TEST(CoalescingQueueTest, RefusedTryOfferLeavesTheActionWholeForRetry) {
  CoalescingQueue queue(1);
  ASSERT_TRUE(queue.try_offer(announce("10.0.0.0/24", {1})));
  PrefixAction action = announce("10.0.1.0/24", {5, 6, 7, 8, 9}, 2.5);
  EXPECT_FALSE(queue.try_offer(std::move(action)));
  // Refused: nothing was moved out of the caller's action.
  EXPECT_EQ(action.prefix, pfx("10.0.1.0/24"));
  ASSERT_TRUE(action.origins.has_value());
  EXPECT_EQ(*action.origins, (std::vector<std::uint32_t>{5, 6, 7, 8, 9}));
  EXPECT_EQ(action.enqueued_at, 2.5);

  ASSERT_EQ(queue.drain().size(), 1u);
  EXPECT_TRUE(queue.try_offer(std::move(action)));
  const auto drained = queue.drain();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(*drained[0].origins, (std::vector<std::uint32_t>{5, 6, 7, 8, 9}));
  EXPECT_EQ(drained[0].enqueued_at, 2.5);
}

TEST(CoalescingQueueTest, OldestTimestampSurvivesRingWrap) {
  CoalescingQueue queue(4);
  // Push the head to the ring's last slot so the next entries wrap.
  for (std::uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(queue.offer(PrefixAction{nth_prefix(i), std::nullopt, 0.0}));
  }
  ASSERT_EQ(queue.drain().size(), 3u);
  ASSERT_TRUE(queue.offer(announce("12.0.0.0/24", {1}, 1.0)));
  ASSERT_TRUE(queue.offer(announce("12.0.1.0/24", {1}, 1.5)));  // wraps
  for (int k = 0; k < 5; ++k) {
    const double at = 2.0 + k;
    ASSERT_TRUE(queue.offer(announce("12.0.1.0/24", {7}, at)));
    ASSERT_TRUE(queue.offer(withdraw("12.0.0.0/24", at)));
  }
  const auto drained = queue.drain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_TRUE(drained[0].is_withdraw());
  EXPECT_EQ(drained[0].enqueued_at, 1.0);
  EXPECT_EQ(*drained[1].origins, (std::vector<std::uint32_t>{7}));
  EXPECT_EQ(drained[1].enqueued_at, 1.5);
}

TEST(CoalescingQueueTest, ManyDistinctPrefixesGrowTheIndexAndStillFold) {
  // Far more distinct queued prefixes than the index's initial 64 slots,
  // offered in two passes: the second pass must fold every one.
  constexpr std::uint32_t kPrefixes = 5000;
  CoalescingQueue queue(kPrefixes);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint32_t i = 0; i < kPrefixes; ++i) {
      ASSERT_TRUE(queue.offer(PrefixAction{
          nth_prefix(i),
          std::vector<std::uint32_t>{static_cast<std::uint32_t>(pass), i},
          static_cast<double>(pass)}));
    }
  }
  EXPECT_EQ(queue.size(), kPrefixes);
  EXPECT_EQ(queue.stats().coalesced, kPrefixes);
  const auto drained = queue.drain();
  ASSERT_EQ(drained.size(), kPrefixes);
  for (std::uint32_t i = 0; i < kPrefixes; ++i) {
    ASSERT_EQ(drained[i].prefix, nth_prefix(i));
    ASSERT_EQ(*drained[i].origins, (std::vector<std::uint32_t>{1, i}));
    ASSERT_EQ(drained[i].enqueued_at, 0.0);
  }
  // A stream over 3000 prefixes through a 64-entry window rebuilds the
  // index many times over drained slots; folds still find the live
  // entry.
  CoalescingQueue window(64);
  EXPECT_GT(check_against_model(window, 3000, 1500, 11), 10000u);
  EXPECT_GT(window.stats().coalesced, 0u);
}

TEST(CoalescingQueueTest, ConcurrentProducerAndConsumerKeepEveryFinalState) {
  // The ingest/pipeline handoff: one thread offers under kBlock while
  // another drains small batches. Per prefix, drained values only grow
  // (newest wins, one entry at a time) and the last one drained is the
  // last one offered.
  constexpr std::uint32_t kKeys = 300;
  constexpr std::uint32_t kOffers = 20000;
  CoalescingQueue queue(64, OverflowPolicy::kBlock);
  std::thread producer([&] {
    for (std::uint32_t v = 1; v <= kOffers; ++v) {
      EXPECT_TRUE(queue.offer(PrefixAction{
          nth_prefix(v * 7919 % kKeys), std::vector<std::uint32_t>{v}, 0.0}));
    }
    queue.close();
  });
  std::vector<std::uint32_t> last(kKeys, 0);
  std::vector<PrefixAction> batch;
  while (true) {
    // Read before the drain: once closed, no offer lands after it.
    const bool closed = queue.closed();
    queue.drain(batch, 16);
    for (const PrefixAction& action : batch) {
      const std::uint32_t key =
          (action.prefix.network().value() >> 8) & 0xffff;
      ASSERT_LT(key, kKeys);
      EXPECT_GT(action.origins->front(), last[key]);
      last[key] = action.origins->front();
    }
    if (batch.empty()) {
      if (closed) break;
      queue.wait_nonempty(0.01);
    }
  }
  producer.join();
  for (std::uint32_t key = 0; key < kKeys; ++key) {
    std::uint32_t newest = 0;
    for (std::uint32_t v = 1; v <= kOffers; ++v) {
      if (v * 7919 % kKeys == key) newest = v;
    }
    EXPECT_EQ(last[key], newest) << "key " << key;
  }
  const QueueStats stats = queue.stats();
  EXPECT_EQ(stats.offered, kOffers);
  EXPECT_EQ(stats.drained + stats.coalesced, kOffers);
}

}  // namespace
}  // namespace tass::stream
