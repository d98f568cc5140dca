#include "bgp/pfx2as.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace tass::bgp {

namespace {

// Origin field grammar: comma-separated origin alternatives, each either a
// plain ASN or an underscore-joined AS-set. We flatten to the union of ASNs,
// preserving first-seen order. Both separators delimit one ASN token, so
// one pass over the field finds them all; every token, empty ones
// included, must be an ASN.
std::vector<std::uint32_t> parse_origins(std::string_view field) {
  std::vector<std::uint32_t> origins;
  std::size_t begin = 0;
  for (std::size_t i = 0; i <= field.size(); ++i) {
    if (i < field.size() && field[i] != ',' && field[i] != '_') continue;
    const auto asn = util::parse_u32(field.substr(begin, i - begin));
    if (!asn) {
      throw ParseError("invalid ASN in pfx2as origin field: '" +
                       std::string(field) + "'");
    }
    if (std::find(origins.begin(), origins.end(), *asn) == origins.end()) {
      origins.push_back(*asn);
    }
    begin = i + 1;
  }
  return origins;
}

// The three whitespace-separated fields of a pfx2as line: network,
// length, origins.
std::array<std::string_view, 3> split_fields(std::string_view line) {
  std::array<std::string_view, 3> fields;
  std::size_t count = 0;
  util::FieldCursor cursor(line);
  for (std::string_view field; cursor.next(field); ++count) {
    if (count < fields.size()) fields[count] = field;
  }
  if (count != fields.size()) {
    throw ParseError("pfx2as line must have 3 fields, got " +
                     std::to_string(count) + ": '" + std::string(line) +
                     "'");
  }
  return fields;
}

// Shared document loop: both families skip blanks/comments and apply the
// same strict-vs-skip policy around their line parser.
template <typename Record, typename LineParser>
std::vector<Record> parse_document(std::string_view text, bool strict,
                                   std::size_t* skipped,
                                   LineParser&& parse_line) {
  std::vector<Record> records;
  std::size_t skip_count = 0;
  util::LineCursor lines(text);
  for (std::string_view raw; lines.next(raw);) {
    const std::string_view line = util::trim(raw);
    if (line.empty() || line.front() == '#') continue;
    if (strict) {
      records.push_back(parse_line(line));
    } else {
      try {
        records.push_back(parse_line(line));
      } catch (const ParseError&) {
        ++skip_count;
      }
    }
  }
  if (skipped != nullptr) *skipped = skip_count;
  return records;
}

// One line of either family: the network grammar and the length bound
// come from the family; v6 errors name the family.
template <class Family>
BasicPfx2AsRecord<Family> parse_line(std::string_view line) {
  constexpr const char* family = Family::kBits == 32 ? "" : "IPv6 ";
  const auto fields = split_fields(line);
  const auto network = Family::Address::parse(fields[0]);
  if (!network) {
    throw ParseError(std::string("invalid ") + family +
                     "network in pfx2as line: '" +
                     std::string(fields[0]) + "'");
  }
  const auto length = util::parse_u32(fields[1]);
  if (!length || *length > static_cast<std::uint32_t>(Family::kBits)) {
    throw ParseError(std::string("invalid ") + family +
                     "prefix length in pfx2as line: '" +
                     std::string(fields[1]) + "'");
  }
  return {typename Family::Prefix(*network, static_cast<int>(*length)),
          parse_origins(fields[2])};
}

template <class Family>
std::string format_records(std::span<const BasicPfx2AsRecord<Family>> records) {
  std::string out;
  for (const auto& record : records) {
    out += record.prefix.network().to_string();
    out += '\t';
    out += std::to_string(record.prefix.length());
    out += '\t';
    for (std::size_t i = 0; i < record.origins.size(); ++i) {
      if (i != 0) out += ',';
      out += std::to_string(record.origins[i]);
    }
    out += '\n';
  }
  return out;
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw Error("cannot open pfx2as file for writing: " + path);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) throw Error("short write to pfx2as file: " + path);
}

}  // namespace

Pfx2AsRecord parse_pfx2as_line(std::string_view line) {
  return parse_line<net::Ipv4Family>(line);
}

std::vector<Pfx2AsRecord> parse_pfx2as(std::string_view text, bool strict,
                                       std::size_t* skipped) {
  return parse_document<Pfx2AsRecord>(text, strict, skipped,
                                      parse_pfx2as_line);
}

std::vector<Pfx2AsRecord> load_pfx2as(const std::string& path, bool strict) {
  return parse_pfx2as(util::read_text_file(path, "pfx2as"), strict);
}

std::string format_pfx2as(std::span<const Pfx2AsRecord> records) {
  return format_records(records);
}

void save_pfx2as(const std::string& path,
                 std::span<const Pfx2AsRecord> records) {
  write_text(path, format_pfx2as(records));
}

Pfx2As6Record parse_pfx2as6_line(std::string_view line) {
  return parse_line<net::Ipv6Family>(line);
}

std::vector<Pfx2As6Record> parse_pfx2as6(std::string_view text, bool strict,
                                         std::size_t* skipped) {
  return parse_document<Pfx2As6Record>(text, strict, skipped,
                                       parse_pfx2as6_line);
}

std::vector<Pfx2As6Record> load_pfx2as6(const std::string& path,
                                        bool strict) {
  return parse_pfx2as6(util::read_text_file(path, "pfx2as"), strict);
}

std::string format_pfx2as6(std::span<const Pfx2As6Record> records) {
  return format_records(records);
}

}  // namespace tass::bgp
