#include "scan/blocklist.hpp"

#include <fstream>
#include <sstream>

#include "net/family.hpp"
#include "net/special_use.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace tass::scan {

Blocklist Blocklist::parse(std::string_view text) {
  net::IntervalSet blocked;
  std::vector<net::Ipv6Prefix> blocked6;
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
      // Ranges are a v4-only extension (128-bit range-to-CIDR cover is
      // not implemented; the parser says so rather than guessing).
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
      blocked.insert(net::Interval{first, last});
    } else {
      // One grammar for both families: a CIDR prefix or a bare address
      // (a full-length block), dispatched by the detected family.
      // IPv6 entries used to fail the v4 grammar; they are first-class
      // now, and malformed lines of either family still throw.
      const auto entry = net::GenericPrefix::parse_or_throw(line);
      if (const auto prefix = entry.v4()) {
        blocked.insert(*prefix);
      } else {
        blocked6.push_back(*entry.v6());
      }
    }
  }
  Blocklist result(std::move(blocked));
  for (const net::Ipv6Prefix prefix : blocked6) result.add(prefix);
  return result;
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
