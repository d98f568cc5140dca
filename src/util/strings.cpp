#include "util/strings.hpp"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace tass::util {

std::string read_text_file(const std::string& path, const char* what) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw Error("cannot open " + std::string(what) + " file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::optional<std::uint64_t> parse_u64(std::string_view text) noexcept {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  const char* first = text.data();
  const char* last = first + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value, 10);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return value;
}

std::optional<std::uint32_t> parse_u32(std::string_view text) noexcept {
  const auto wide = parse_u64(text);
  if (!wide || *wide > 0xffffffffULL) return std::nullopt;
  return static_cast<std::uint32_t>(*wide);
}

std::optional<double> parse_double(std::string_view text) noexcept {
  if (text.empty()) return std::nullopt;
  double value = 0.0;
  const char* first = text.data();
  const char* last = first + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return value;
}

std::string with_thousands(std::uint64_t value) {
  const std::string digits = std::to_string(value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  const std::size_t lead = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - lead) % 3 == 0 && i >= lead) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

std::string fixed(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return buffer;
}

}  // namespace tass::util
