// Probe pacing: token-bucket rate limiting.
//
// Being a good Internet citizen is not only about *what* you probe but
// *how fast*: responsible scanners cap their probe rate. This module
// provides a deterministic token bucket (the ZMap -r/--rate mechanism);
// the stream reactor keeps one per origin AS to bound its rescans.
//
// Time is passed in explicitly (seconds as double) so simulations and
// tests are deterministic; nothing here reads a wall clock.
#pragma once

namespace tass::scan {

/// Deterministic token bucket: `rate` tokens per second accrue up to
/// `burst`; a probe consumes one token.
class TokenBucket {
 public:
  TokenBucket(double rate_per_second, double burst);

  /// Attempts to consume `tokens` at time `now`; returns success.
  bool try_consume(double tokens, double now) noexcept;

  double rate() const noexcept { return rate_; }
  double burst() const noexcept { return burst_; }

 private:
  void refill(double now) noexcept;

  double rate_;
  double burst_;
  double tokens_;
  double last_refill_ = 0.0;
};

}  // namespace tass::scan
