// Tests for scan/ratelimit: the token bucket the stream reactor paces
// its per-origin-AS rescans with.
#include "scan/ratelimit.hpp"

#include <gtest/gtest.h>

namespace tass::scan {
namespace {

TEST(TokenBucket, StartsFullAndConsumes) {
  TokenBucket bucket(100.0, 10.0);
  EXPECT_DOUBLE_EQ(bucket.rate(), 100.0);
  EXPECT_DOUBLE_EQ(bucket.burst(), 10.0);
  EXPECT_TRUE(bucket.try_consume(10.0, 0.0));
  EXPECT_FALSE(bucket.try_consume(1.0, 0.0));
}

TEST(TokenBucket, RefillsAtRate) {
  TokenBucket bucket(100.0, 50.0);
  EXPECT_TRUE(bucket.try_consume(50.0, 0.0));
  EXPECT_FALSE(bucket.try_consume(20.0, 0.1));  // only 10 accrued
  EXPECT_TRUE(bucket.try_consume(20.0, 0.2));   // 20 accrued by now
}

TEST(TokenBucket, CapsAtBurst) {
  TokenBucket bucket(1000.0, 5.0);
  EXPECT_TRUE(bucket.try_consume(5.0, 0.0));
  // After a long idle period the bucket holds only `burst` tokens.
  EXPECT_FALSE(bucket.try_consume(6.0, 100.0));
  EXPECT_TRUE(bucket.try_consume(5.0, 100.0));
  EXPECT_FALSE(bucket.try_consume(1.0, 100.0));
}

TEST(TokenBucket, TimeNeverRunsBackwards) {
  TokenBucket bucket(10.0, 10.0);
  EXPECT_TRUE(bucket.try_consume(10.0, 5.0));
  // An earlier timestamp must not refill.
  EXPECT_FALSE(bucket.try_consume(1.0, 1.0));
}

}  // namespace
}  // namespace tass::scan
