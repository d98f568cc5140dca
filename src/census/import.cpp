#include "census/import.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace tass::census {

std::vector<std::uint32_t> parse_address_list(std::string_view text,
                                              bool strict,
                                              std::size_t* skipped) {
  std::vector<std::uint32_t> addresses;
  std::size_t skip_count = 0;
  util::LineCursor lines(text);
  for (std::string_view raw; lines.next(raw);) {
    std::string_view line = util::trim(raw);
    if (line.empty() || line.front() == '#') continue;
    // CSV exports: the address is the first field.
    if (const auto comma = line.find(','); comma != std::string_view::npos) {
      line = util::trim(line.substr(0, comma));
    }
    if (const auto addr = net::Ipv4Address::parse(line)) {
      addresses.push_back(addr->value());
    } else if (strict) {
      throw ParseError("invalid address in export: '" + std::string(line) +
                       "'");
    } else {
      ++skip_count;
    }
  }
  if (skipped != nullptr) *skipped = skip_count;
  return addresses;
}

std::vector<std::uint32_t> load_address_list(const std::string& path,
                                             bool strict) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open address list: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_address_list(buffer.str(), strict);
}

Snapshot snapshot_from_addresses(std::shared_ptr<const Topology> topology,
                                 Protocol protocol, int month_index,
                                 std::span<const std::uint32_t> addresses,
                                 ImportStats* stats) {
  TASS_EXPECTS(topology != nullptr);
  const Topology& topo = *topology;
  ImportStats local;
  std::vector<CellPopulation> cells(topo.m_partition.size());
  for (const std::uint32_t address : addresses) {
    const auto cell = topo.m_partition.locate(net::Ipv4Address(address));
    if (!cell) {
      ++local.outside_topology;
      continue;
    }
    cells[*cell].stable.push_back(static_cast<std::uint32_t>(
        topo.m_partition.prefix(*cell).offset_of(net::Ipv4Address(address))));
  }
  for (CellPopulation& cell : cells) {
    std::sort(cell.stable.begin(), cell.stable.end());
    const auto unique_end =
        std::unique(cell.stable.begin(), cell.stable.end());
    local.duplicates += static_cast<std::uint64_t>(
        cell.stable.end() - unique_end);
    cell.stable.erase(unique_end, cell.stable.end());
    local.imported += cell.stable.size();
  }
  if (stats != nullptr) *stats = local;
  return Snapshot(std::move(topology), protocol, month_index,
                  std::move(cells));
}

}  // namespace tass::census
