#include "serve/wire.hpp"

#include <bit>
#include <cstring>

#include "util/error.hpp"

namespace tass::serve {

namespace {

// The wire is little-endian; the pipeline only targets LE hosts (the
// state image makes the same assumption), so the codecs are memcpy with
// a compile-time guard rather than byte-swapping paths nothing tests.
static_assert(std::endian::native == std::endian::little,
              "the tass_serve wire codec assumes a little-endian host");

template <typename T>
void put_raw(std::vector<std::uint8_t>& out, T value) {
  const std::size_t at = out.size();
  out.resize(at + sizeof value);
  std::memcpy(out.data() + at, &value, sizeof value);
}

}  // namespace

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t value) {
  put_raw(out, value);
}
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  put_raw(out, value);
}
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t value) {
  put_raw(out, value);
}
void put_f64(std::vector<std::uint8_t>& out, double value) {
  put_raw(out, value);
}

std::uint8_t Cursor::u8() {
  if (remaining() < 1) throw FormatError("serve: truncated payload (u8)");
  return data_[pos_++];
}

std::uint16_t Cursor::u16() {
  if (remaining() < 2) throw FormatError("serve: truncated payload (u16)");
  std::uint16_t value;
  std::memcpy(&value, data_.data() + pos_, sizeof value);
  pos_ += sizeof value;
  return value;
}

std::uint32_t Cursor::u32() {
  if (remaining() < 4) throw FormatError("serve: truncated payload (u32)");
  std::uint32_t value;
  std::memcpy(&value, data_.data() + pos_, sizeof value);
  pos_ += sizeof value;
  return value;
}

std::uint64_t Cursor::u64() {
  if (remaining() < 8) throw FormatError("serve: truncated payload (u64)");
  std::uint64_t value;
  std::memcpy(&value, data_.data() + pos_, sizeof value);
  pos_ += sizeof value;
  return value;
}

double Cursor::f64() {
  std::uint64_t bits = u64();
  double value;
  std::memcpy(&value, &bits, sizeof value);
  return value;
}

std::span<const std::uint8_t> Cursor::bytes(std::size_t n) {
  if (remaining() < n) throw FormatError("serve: truncated payload (bytes)");
  const auto view = data_.subspan(pos_, n);
  pos_ += n;
  return view;
}

void encode_request_header(std::vector<std::uint8_t>& out,
                           const RequestHeader& header) {
  out.push_back(static_cast<std::uint8_t>(header.op));
  out.push_back(static_cast<std::uint8_t>(header.family));
  put_u16(out, 0);
  put_u32(out, header.request_id);
  put_u32(out, header.count);
}

void encode_response_header(std::vector<std::uint8_t>& out,
                            const ResponseHeader& header) {
  out.push_back(static_cast<std::uint8_t>(header.op));
  out.push_back(static_cast<std::uint8_t>(header.status));
  put_u16(out, 0);
  put_u32(out, header.request_id);
  put_u64(out, header.generation);
  put_u64(out, header.fingerprint);
  put_u32(out, header.count);
}

namespace {

Op checked_op(std::uint8_t raw) {
  if (raw < static_cast<std::uint8_t>(Op::kPing) ||
      raw > static_cast<std::uint8_t>(Op::kReduce)) {
    throw FormatError("serve: unknown op " + std::to_string(raw));
  }
  return static_cast<Op>(raw);
}

net::AddressFamily checked_family(std::uint8_t raw) {
  // 0 is the "no image needed" wildcard; it decodes as kIpv4 and the
  // server ignores it for family-free ops.
  if (raw != 0 && raw != 4 && raw != 6) {
    throw FormatError("serve: unknown address family " +
                      std::to_string(raw));
  }
  return raw == 6 ? net::AddressFamily::kIpv6 : net::AddressFamily::kIpv4;
}

}  // namespace

RequestHeader decode_request_header(Cursor& cursor) {
  RequestHeader header;
  header.op = checked_op(cursor.u8());
  header.family = checked_family(cursor.u8());
  if (cursor.u16() != 0) {
    throw FormatError("serve: non-zero reserved field in request header");
  }
  header.request_id = cursor.u32();
  header.count = cursor.u32();
  return header;
}

ResponseHeader decode_response_header(Cursor& cursor) {
  ResponseHeader header;
  header.op = checked_op(cursor.u8());
  const std::uint8_t status = cursor.u8();
  if (status > static_cast<std::uint8_t>(Status::kAccepted)) {
    throw FormatError("serve: unknown status " + std::to_string(status));
  }
  header.status = static_cast<Status>(status);
  if (cursor.u16() != 0) {
    throw FormatError("serve: non-zero reserved field in response header");
  }
  header.request_id = cursor.u32();
  header.generation = cursor.u64();
  header.fingerprint = cursor.u64();
  header.count = cursor.u32();
  return header;
}

void put_address(std::vector<std::uint8_t>& out, std::uint32_t address) {
  put_u32(out, address);
}

void put_address(std::vector<std::uint8_t>& out, net::Ipv6Address address) {
  put_u64(out, address.hi());
  put_u64(out, address.lo());
}

void put_prefix(std::vector<std::uint8_t>& out, net::Prefix prefix) {
  put_u32(out, prefix.network().value());
  put_u32(out, static_cast<std::uint32_t>(prefix.length()));
}

void put_prefix(std::vector<std::uint8_t>& out, net::Ipv6Prefix prefix) {
  put_u64(out, prefix.network().hi());
  put_u64(out, prefix.network().lo());
  put_u32(out, static_cast<std::uint32_t>(prefix.length()));
  put_u32(out, 0);
}

net::GenericPrefix read_prefix(Cursor& cursor, net::AddressFamily family) {
  if (family == net::AddressFamily::kIpv4) {
    const std::uint32_t network = cursor.u32();
    const std::uint32_t length = cursor.u32();
    if (length > 32) {
      throw FormatError("serve: IPv4 prefix length " +
                        std::to_string(length));
    }
    return net::GenericPrefix::from(
        net::Prefix(net::Ipv4Address(network), static_cast<int>(length)));
  }
  const std::uint64_t hi = cursor.u64();
  const std::uint64_t lo = cursor.u64();
  const std::uint32_t length = cursor.u32();
  if (cursor.u32() != 0) {
    throw FormatError("serve: non-zero pad in IPv6 prefix row");
  }
  if (length > 128) {
    throw FormatError("serve: IPv6 prefix length " + std::to_string(length));
  }
  return net::GenericPrefix::from(
      net::Ipv6Prefix(net::Ipv6Address(hi, lo), static_cast<int>(length)));
}

void encode_plan_params(std::vector<std::uint8_t>& out,
                        const PlanParams& params) {
  put_f64(out, params.phi);
  put_f64(out, params.min_density);
  put_u64(out, params.max_addresses);
}

PlanParams decode_plan_params(Cursor& cursor) {
  PlanParams params;
  params.phi = cursor.f64();
  params.min_density = cursor.f64();
  params.max_addresses = cursor.u64();
  return params;
}

void encode_sample_params(std::vector<std::uint8_t>& out,
                          const SampleParams& params) {
  put_u64(out, params.budget);
  put_u32(out, params.floor);
  put_u32(out, 0);  // reserved
  put_u64(out, params.seed);
  put_f64(out, params.phi);
  put_f64(out, params.min_density);
}

SampleParams decode_sample_params(Cursor& cursor) {
  SampleParams params;
  params.budget = cursor.u64();
  params.floor = cursor.u32();
  if (cursor.u32() != 0) {
    throw FormatError("serve: non-zero reserved field in sample params");
  }
  params.seed = cursor.u64();
  params.phi = cursor.f64();
  params.min_density = cursor.f64();
  return params;
}

void encode_reduce_params(std::vector<std::uint8_t>& out,
                          const ReduceParams& params) {
  put_f64(out, params.phi);
  put_f64(out, params.min_density);
  put_u64(out, params.max_addresses);
  put_f64(out, params.max_overshoot);
  put_u32(out, params.min_prefixes);
  put_u32(out, 0);  // reserved
}

ReduceParams decode_reduce_params(Cursor& cursor) {
  ReduceParams params;
  params.phi = cursor.f64();
  params.min_density = cursor.f64();
  params.max_addresses = cursor.u64();
  params.max_overshoot = cursor.f64();
  params.min_prefixes = cursor.u32();
  if (cursor.u32() != 0) {
    throw FormatError("serve: non-zero reserved field in reduce params");
  }
  return params;
}

std::vector<std::uint8_t> frame(std::span<const std::uint8_t> payload) {
  if (payload.size() > kMaxFrameBytes) {
    throw Error("serve: frame payload of " +
                std::to_string(payload.size()) + " bytes exceeds the " +
                std::to_string(kMaxFrameBytes) + " byte cap");
  }
  std::vector<std::uint8_t> out;
  out.reserve(4 + payload.size());
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::optional<std::span<const std::uint8_t>> next_frame(
    std::span<const std::uint8_t> buffer, std::size_t& offset) {
  if (buffer.size() - offset < 4) return std::nullopt;
  std::uint32_t length;
  std::memcpy(&length, buffer.data() + offset, sizeof length);
  if (length > kMaxFrameBytes) {
    throw FormatError("serve: announced frame of " +
                      std::to_string(length) + " bytes exceeds the cap");
  }
  if (buffer.size() - offset - 4 < length) return std::nullopt;
  const auto payload = buffer.subspan(offset + 4, length);
  offset += 4 + static_cast<std::size_t>(length);
  return payload;
}

}  // namespace tass::serve
