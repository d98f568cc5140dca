// CAIDA Routeviews Prefix-to-AS (pfx2as) text format.
//
// This is the prefix source the paper uses instead of the coarse prefix
// annotations in the censys.io dataset (§3.2). One record per line:
//
//   <network> TAB <prefix length> TAB <origin>
//
// where <origin> is a single ASN ("13335"), a multi-origin list separated
// by commas ("701,1239"), or an AS-set joined by underscores ("4_5_6").
// Comments (#...) and blank lines are ignored by the reader.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/family.hpp"

namespace tass::bgp {

/// One pfx2as record: an announced prefix and its origin AS(es).
/// CAIDA's routeviews6 dumps share the v4 line grammar; only the network
/// grammar differs, so one record type serves both families.
template <class Family>
struct BasicPfx2AsRecord {
  typename Family::Prefix prefix;
  std::vector<std::uint32_t> origins;  // >= 1 entry

  friend bool operator==(const BasicPfx2AsRecord&,
                         const BasicPfx2AsRecord&) = default;
};

using Pfx2AsRecord = BasicPfx2AsRecord<net::Ipv4Family>;
using Pfx2As6Record = BasicPfx2AsRecord<net::Ipv6Family>;

/// Parses one pfx2as line. Throws tass::ParseError on malformed input.
Pfx2AsRecord parse_pfx2as_line(std::string_view line);

/// Parses a whole pfx2as document (skips blank lines and '#' comments).
/// `strict` == false skips malformed lines instead of throwing, counting
/// them in `skipped` when provided — real CAIDA dumps occasionally carry
/// v6 leakage that callers may want to tolerate.
std::vector<Pfx2AsRecord> parse_pfx2as(std::string_view text,
                                       bool strict = true,
                                       std::size_t* skipped = nullptr);

/// Reads a pfx2as file from disk. Throws tass::Error if unreadable.
std::vector<Pfx2AsRecord> load_pfx2as(const std::string& path,
                                      bool strict = true);

/// Serialises records in the exact CAIDA format (tab-separated, comma for
/// multi-origin, underscore inside AS-sets is not reproduced — records we
/// emit always carry explicit origin lists).
std::string format_pfx2as(std::span<const Pfx2AsRecord> records);

/// Writes records to a file. Throws tass::Error on I/O failure.
void save_pfx2as(const std::string& path,
                 std::span<const Pfx2AsRecord> records);

/// The IPv6 twins: same grammar with an IPv6 network field and prefix
/// lengths up to 128. The v4 readers treat v6 rows as malformed (skipped
/// when strict == false); mixed dumps are split by running both readers.
Pfx2As6Record parse_pfx2as6_line(std::string_view line);
std::vector<Pfx2As6Record> parse_pfx2as6(std::string_view text,
                                         bool strict = true,
                                         std::size_t* skipped = nullptr);
std::vector<Pfx2As6Record> load_pfx2as6(const std::string& path,
                                        bool strict = true);
std::string format_pfx2as6(std::span<const Pfx2As6Record> records);

}  // namespace tass::bgp
