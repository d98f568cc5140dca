#include "census/hitlist6.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"

namespace tass::census {

std::vector<net::Ipv6Address> parse_hitlist6(std::string_view text,
                                             bool strict,
                                             std::size_t* skipped) {
  std::vector<net::Ipv6Address> addresses;
  std::size_t skip_count = 0;
  util::LineCursor lines(text);
  for (std::string_view raw; lines.next(raw);) {
    const std::string_view line = util::trim(raw);
    if (line.empty() || line.front() == '#') continue;
    const auto address = net::Ipv6Address::parse(line);
    if (address) {
      addresses.push_back(*address);
    } else if (strict) {
      throw ParseError("invalid IPv6 hitlist address: '" +
                       std::string(line) + "'");
    } else {
      ++skip_count;
    }
  }
  if (skipped != nullptr) *skipped = skip_count;
  return addresses;
}

std::vector<net::Ipv6Address> load_hitlist6(const std::string& path,
                                            bool strict) {
  return parse_hitlist6(util::read_text_file(path, "hitlist"), strict);
}

}  // namespace tass::census
