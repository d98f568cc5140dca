// Strict command-line arguments for the example tools. A malformed or
// out-of-range value throws tass::ParseError naming the argument, so a
// tool prints `error:` and exits 1 instead of running on a truncated or
// defaulted value or tripping a library precondition.
#pragma once

#include <cstdint>
#include <string>

#include "core/ranking.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace tass::args {

inline constexpr std::uint64_t kNoMax = ~std::uint64_t{0};

// A whole decimal number in [min, max]; `what` names the argument.
inline std::uint64_t parse_count(const std::string& text, const char* what,
                                 std::uint64_t max = kNoMax,
                                 std::uint64_t min = 0) {
  const auto value = util::parse_u64(text);
  if (!value || *value < min || *value > max) {
    std::string message = std::string(what) + " must be an integer >= " +
                          std::to_string(min);
    if (max != kNoMax) message += " and <= " + std::to_string(max);
    throw ParseError(message + ", got '" + text + "'");
  }
  return *value;
}

// A fraction in [0, 1] (or (0, 1] when `zero_ok` is false); `what` names
// the argument.
inline double parse_fraction(const std::string& text, const char* what,
                             bool zero_ok = true) {
  const double value = util::parse_double(text).value_or(-1.0);
  if (!((zero_ok ? value >= 0.0 : value > 0.0) && value <= 1.0)) {
    throw ParseError(std::string(what) + " must be in " +
                     (zero_ok ? "[0, 1]" : "(0, 1]") + ", got '" + text +
                     "'");
  }
  return value;
}

// The coverage target phi is a fraction in (0, 1].
inline double parse_phi(const std::string& text) {
  return parse_fraction(text, "phi", /*zero_ok=*/false);
}

// The prefix granularity: "less" or "more".
inline core::PrefixMode parse_mode(const std::string& text) {
  if (text == "less") return core::PrefixMode::kLess;
  if (text == "more") return core::PrefixMode::kMore;
  throw ParseError("prefix mode must be 'less' or 'more', got '" + text +
                   "'");
}

}  // namespace tass::args
