// The tass_serve wire protocol: length-prefixed binary frames.
//
// One frame is a little-endian u32 payload length followed by that many
// payload bytes (kMaxFrameBytes cap; an oversized announcement is a
// protocol error and closes the connection). Requests and responses
// share the frame layer and differ only in their fixed payload headers:
//
//   request  header (12 bytes):
//     u8  op          one of Op
//     u8  family      4 / 6 selects the served image; 0 for ops that
//                     need none (ping, stats, shutdown)
//     u16 reserved    must be zero
//     u32 request_id  echoed verbatim in the response
//     u32 count       op-specific element count (batch size, top-n,
//                     path length); 0 when unused
//   response header (28 bytes):
//     u8  op          echoed
//     u8  status      Status
//     u16 reserved    zero
//     u32 request_id  echoed
//     u64 generation  sequence number of the generation that answered
//     u64 fingerprint topology fingerprint of that generation
//     u32 count       op-specific element count
//
// Every data-plane response carries the (generation, fingerprint) pair
// of the exact image that produced it, so a client can bind each answer
// to one generation even while reloads are racing the request stream —
// the invariant the swap-stress test asserts.
//
// Batched bodies are flat little-endian arrays in the family's natural
// width (v4 addresses u32, v6 addresses hi/lo u64 pairs), sized so a
// whole request batch feeds LpmIndex::lookup_many /
// PrefixPartition::tally_cells in one call.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/family.hpp"
#include "net/ipv6.hpp"
#include "net/prefix.hpp"

namespace tass::serve {

inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;
inline constexpr std::size_t kRequestHeaderBytes = 12;
inline constexpr std::size_t kResponseHeaderBytes = 28;

enum class Op : std::uint8_t {
  kPing = 1,      // liveness probe; empty body both ways
  kInfo = 2,      // image header fields of the current generation
  kRank = 3,      // top-n ranked prefixes; count = n
  kPlan = 4,      // density selection; body = phi/min_density/budget
  kLocate = 5,    // batch scope/attribution: addresses -> cell indices
  kTally = 6,     // batch attribution histogram over the partition
  kStats = 7,     // serving counters (process-wide, generation-free)
  kReload = 8,    // control: swap in a new image; body = path
  kShutdown = 9,  // control: stop the daemon
  kSample = 10,   // sampled-scan budget allocation; body = SampleParams
  kReduce = 11,   // overshoot-bounded plan reduction; body = ReduceParams
};

enum class Status : std::uint8_t {
  kOk = 0,
  kError = 1,     // body = error message bytes (count = length)
  kAccepted = 2,  // async control op queued; body = u64 ticket
};

struct RequestHeader {
  Op op = Op::kPing;
  net::AddressFamily family = net::AddressFamily::kIpv4;
  std::uint32_t request_id = 0;
  std::uint32_t count = 0;
};

struct ResponseHeader {
  Op op = Op::kPing;
  Status status = Status::kOk;
  std::uint32_t request_id = 0;
  std::uint64_t generation = 0;
  std::uint64_t fingerprint = 0;
  std::uint32_t count = 0;
};

/// One ranked-prefix row of a kRank response (family-specific byte
/// layout on the wire; this is the decoded form).
struct RankRow {
  net::GenericPrefix prefix;
  std::uint64_t hosts = 0;
  double density = 0.0;
};

/// Decoded kPlan request body.
struct PlanParams {
  double phi = 1.0;
  double min_density = 0.0;
  std::uint64_t max_addresses = 0;  // 0 = unbounded
};

/// Decoded kPlan response body.
struct PlanReply {
  std::uint64_t selected_addresses = 0;
  std::uint64_t covered_hosts = 0;
  std::uint64_t total_hosts = 0;
  std::vector<net::GenericPrefix> prefixes;
};

/// Decoded kSample request body (mirrors scan::SampleParams — the
/// daemon plans the budget allocation; drawing the concrete targets is
/// the client's job, seeded by the reply's `seed`).
struct SampleParams {
  std::uint64_t budget = 100'000;
  std::uint32_t floor = 16;
  std::uint64_t seed = 1;
  double phi = 1.0;
  double min_density = 0.0;
};

/// One cell row of a kSample response.
struct SampleRow {
  std::uint32_t cell = 0;
  net::GenericPrefix prefix;
  std::uint64_t universe = 0;
  std::uint64_t draws = 0;
  std::uint64_t seed_hosts = 0;
};

/// Decoded kSample response body.
struct SampleReply {
  std::uint64_t total_draws = 0;
  std::uint64_t frame_units = 0;
  std::uint64_t seed = 0;
  std::vector<SampleRow> rows;  // ranking (density) order
};

/// Decoded kReduce request body: a density selection (the kPlan
/// parameters) post-processed by bgp::reduce into a minimal target list
/// whose address overshoot is bounded by `max_overshoot`.
struct ReduceParams {
  double phi = 1.0;
  double min_density = 0.0;
  std::uint64_t max_addresses = 0;  // 0 = unbounded
  double max_overshoot = 0.05;      // fraction of the exact union
  std::uint32_t min_prefixes = 0;   // stop reducing below this count
};

/// Decoded kReduce response body. `prefixes` is the reduced list; the
/// counters report what the reduction did to the selection.
struct ReduceReply {
  std::uint64_t selected_prefixes = 0;   // before reduction
  std::uint64_t selected_addresses = 0;  // exact union (v4 addresses,
                                         // v6 /64 units)
  std::uint64_t overshoot_addresses = 0;
  std::uint64_t merges = 0;
  std::vector<net::GenericPrefix> prefixes;
};

/// Decoded kInfo response body.
struct InfoReply {
  std::uint64_t total_hosts = 0;
  std::uint64_t advertised_addresses = 0;
  std::uint64_t cells = 0;
  std::uint64_t live_cells = 0;
  std::uint64_t ranked = 0;
  std::uint32_t mode = 0;  // core::PrefixMode value
  std::uint32_t family = 0;
};

/// Decoded kStats response body. All counters are process-wide and
/// monotonic except the last_* pair, which describe the most recent
/// completed generation swap.
struct StatsReply {
  std::uint64_t requests = 0;            // frames answered
  std::uint64_t batched_addresses = 0;   // addresses resolved via batches
  std::uint64_t swaps = 0;               // completed generation swaps
  std::uint64_t last_swap_install_us = 0;  // load+install of last swap
  std::uint64_t last_swap_drain_us = 0;    // retire wait of last swap
  std::uint64_t generations_retired = 0;
};

/// Decoded kTally response body.
struct TallyReply {
  std::uint64_t attributed = 0;
  std::uint64_t unattributed = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> cells;  // nonzero
};

// ---- primitive little-endian append/read helpers ----------------------
// Shared by the server, the client and the tests so there is exactly one
// byte-order implementation. The readers throw tass::FormatError on a
// truncated buffer.

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t value);
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t value);
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t value);
void put_f64(std::vector<std::uint8_t>& out, double value);

/// A bounds-checked cursor over one received payload.
class Cursor {
 public:
  explicit Cursor(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::span<const std::uint8_t> bytes(std::size_t n);
  std::size_t remaining() const noexcept { return data_.size() - pos_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// ---- header codecs ----------------------------------------------------

/// Appends a request/response header to `out` (the frame length word is
/// written by the frame layer, not here).
void encode_request_header(std::vector<std::uint8_t>& out,
                           const RequestHeader& header);
void encode_response_header(std::vector<std::uint8_t>& out,
                            const ResponseHeader& header);

/// Decodes a header off the front of `payload`; throws tass::FormatError
/// on truncation, a non-zero reserved field, or an unknown op/status/
/// family value.
RequestHeader decode_request_header(Cursor& cursor);
ResponseHeader decode_response_header(Cursor& cursor);

// ---- body codecs ------------------------------------------------------
// Addresses and prefixes serialise in the family's width:
//   v4 address: u32             v4 prefix: u32 network, u32 length
//   v6 address: u64 hi, u64 lo  v6 prefix: u64 hi, u64 lo, u32 len, u32 0
// A RankRow appends u64 hosts + f64 density to the prefix row.

void put_address(std::vector<std::uint8_t>& out, std::uint32_t address);
void put_address(std::vector<std::uint8_t>& out, net::Ipv6Address address);
void put_prefix(std::vector<std::uint8_t>& out, net::Prefix prefix);
void put_prefix(std::vector<std::uint8_t>& out, net::Ipv6Prefix prefix);

net::GenericPrefix read_prefix(Cursor& cursor, net::AddressFamily family);

void encode_plan_params(std::vector<std::uint8_t>& out,
                        const PlanParams& params);
PlanParams decode_plan_params(Cursor& cursor);

void encode_sample_params(std::vector<std::uint8_t>& out,
                          const SampleParams& params);
SampleParams decode_sample_params(Cursor& cursor);

void encode_reduce_params(std::vector<std::uint8_t>& out,
                          const ReduceParams& params);
ReduceParams decode_reduce_params(Cursor& cursor);

/// Frames `payload` (prepends the length word). Throws tass::Error if
/// the payload exceeds kMaxFrameBytes.
std::vector<std::uint8_t> frame(std::span<const std::uint8_t> payload);

/// Attempts to slice one complete frame payload out of `buffer`
/// starting at `offset`. Returns the payload span and advances
/// `offset` past the frame, or nullopt if the buffer does not yet hold
/// a complete frame. Throws tass::FormatError if the announced length
/// exceeds kMaxFrameBytes.
std::optional<std::span<const std::uint8_t>> next_frame(
    std::span<const std::uint8_t> buffer, std::size_t& offset);

}  // namespace tass::serve
