#include "scan/ratelimit.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace tass::scan {

TokenBucket::TokenBucket(double rate_per_second, double burst)
    : rate_(rate_per_second), burst_(burst), tokens_(burst) {
  TASS_EXPECTS(rate_per_second > 0.0);
  TASS_EXPECTS(burst >= 1.0);
}

void TokenBucket::refill(double now) noexcept {
  if (now <= last_refill_) return;
  tokens_ = std::min(burst_, tokens_ + (now - last_refill_) * rate_);
  last_refill_ = now;
}

bool TokenBucket::try_consume(double tokens, double now) noexcept {
  TASS_EXPECTS(tokens >= 0.0);
  refill(now);
  if (tokens_ + 1e-9 < tokens) return false;
  tokens_ -= tokens;
  return true;
}

}  // namespace tass::scan
