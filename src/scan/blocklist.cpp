#include "scan/blocklist.hpp"

#include <fstream>
#include <sstream>
#include <vector>

#include "net/family.hpp"
#include "net/special_use.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace tass::scan {

Blocklist Blocklist::parse(std::string_view text) {
  // Each family's entries are collected, then become one set in one sort
  // and one merge pass, so a long blocklist parses in O(n log n).
  std::vector<net::Interval> blocked;
  std::vector<net::Interval6> blocked6;
  util::LineCursor lines(text);
  for (std::string_view raw; lines.next(raw);) {
    std::string_view line = raw;
    if (const auto hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = util::trim(line);
    if (line.empty()) continue;

    if (const auto dash = line.find('-');
        dash != std::string_view::npos) {
      // Ranges are a v4-only extension of the ZMap grammar; a v6 line
      // with a dash is rejected outright rather than guessed at.
      if (line.find(':') != std::string_view::npos) {
        throw ParseError(
            "IPv6 blocklist ranges are not supported (use prefixes): '" +
            std::string(line) + "'");
      }
      const auto first =
          net::Ipv4Address::parse_or_throw(util::trim(line.substr(0, dash)));
      const auto last =
          net::Ipv4Address::parse_or_throw(util::trim(line.substr(dash + 1)));
      if (last < first) {
        throw ParseError("blocklist range is inverted: '" +
                         std::string(line) + "'");
      }
      blocked.push_back({first, last});
    } else {
      // One grammar for both families: a CIDR prefix or a bare address
      // (a full-length block), dispatched by the detected family.
      const auto entry = net::GenericPrefix::parse_or_throw(line);
      if (const auto prefix = entry.v4()) {
        blocked.push_back(net::Interval::of(*prefix));
      } else {
        blocked6.push_back(net::Interval6::of(*entry.v6()));
      }
    }
  }
  return Blocklist(net::IntervalSet(blocked), net::IntervalSet6(blocked6));
}

Blocklist Blocklist::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open blocklist file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

Blocklist Blocklist::default_blocklist() {
  return Blocklist(net::reserved_space());
}

}  // namespace tass::scan
