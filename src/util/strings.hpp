// Small string utilities used by the text-format parsers (pfx2as,
// hitlists, blocklists, CLI arguments). The scanning helpers (trim, the
// line and field cursors, the numeric parsers) work on string_view and
// never allocate; only the functions returning std::string do.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace tass::util {

/// ASCII whitespace as the C locale's isspace defines it.
constexpr bool is_space(char c) noexcept {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Walks a document line by line without allocating. Each next() yields
/// one line without its '\n' (a CRLF line keeps its '\r', which trim()
/// removes). The last line needs no terminator; a terminator at the very
/// end opens no further line, and empty text has no lines at all.
class LineCursor {
 public:
  constexpr explicit LineCursor(std::string_view text) noexcept
      : rest_(text) {}

  /// Stores the next line in `line`; false once the text is exhausted.
  constexpr bool next(std::string_view& line) noexcept {
    if (rest_.empty()) return false;
    const std::size_t end = rest_.find('\n');
    if (end == std::string_view::npos) {
      line = rest_;
      rest_ = {};
    } else {
      line = rest_.substr(0, end);
      rest_.remove_prefix(end + 1);
    }
    return true;
  }

 private:
  std::string_view rest_;
};

/// Walks the whitespace-separated fields of a line without allocating:
/// runs of whitespace separate fields and never yield empty ones.
class FieldCursor {
 public:
  constexpr explicit FieldCursor(std::string_view text) noexcept
      : rest_(text) {}

  /// Stores the next field in `field`; false once none is left.
  constexpr bool next(std::string_view& field) noexcept {
    std::size_t begin = 0;
    while (begin < rest_.size() && is_space(rest_[begin])) ++begin;
    if (begin == rest_.size()) return false;
    std::size_t end = begin;
    while (end < rest_.size() && !is_space(rest_[end])) ++end;
    field = rest_.substr(begin, end - begin);
    rest_.remove_prefix(end);
    return true;
  }

 private:
  std::string_view rest_;
};

/// Removes leading and trailing ASCII whitespace.
constexpr std::string_view trim(std::string_view text) noexcept {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && is_space(text[begin])) ++begin;
  while (end > begin && is_space(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

/// Strict base-10 unsigned parse of the full string; rejects empty input,
/// signs, leading '+', whitespace, and overflow.
std::optional<std::uint64_t> parse_u64(std::string_view text) noexcept;

/// As parse_u64 but range-checked to 32 bits.
std::optional<std::uint32_t> parse_u32(std::string_view text) noexcept;

/// Strict double parse of the full string.
std::optional<double> parse_double(std::string_view text) noexcept;

/// True if `text` begins with `prefix`.
constexpr bool starts_with(std::string_view text,
                           std::string_view prefix) noexcept {
  return text.substr(0, prefix.size()) == prefix;
}

/// Slurps a whole file as bytes-in-a-string (the text parsers operate
/// on string_view documents). Throws tass::Error("cannot open <what>
/// file: <path>") if unreadable — `what` names the format for the
/// message ("pfx2as", "hitlist", ...).
std::string read_text_file(const std::string& path, const char* what);

/// Formats a count with thousands separators ("1234567" -> "1,234,567").
std::string with_thousands(std::uint64_t value);

/// Formats a double with fixed precision (no locale surprises).
std::string fixed(double value, int digits);

}  // namespace tass::util
