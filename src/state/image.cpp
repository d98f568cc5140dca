#include "state/image.hpp"

#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <type_traits>

#include "util/endian.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace tass::state {

namespace {

using trie::LpmIndex;
using trie::LpmIndex6;

// Family-specific facts of the container format: the magic pair and the
// header's family field. Everything else (geometry, section ids, the
// validation sweep) is the shared template below.
template <class Family>
struct FamilyFormat;

template <>
struct FamilyFormat<net::Ipv4Family> {
  static constexpr std::uint32_t kMagic = kImageMagic4;
  static constexpr std::uint32_t kOtherMagic = kImageMagic6;
  // Historical v4 images carry no family bits in the mode word.
  static constexpr std::uint32_t kFamilyWord = 0;
  static constexpr const char* kCrossFamilyHint =
      "this is an IPv6 (TSI6) state image; load it through the IPv6 "
      "path (state::StateImage6)";
};

template <>
struct FamilyFormat<net::Ipv6Family> {
  static constexpr std::uint32_t kMagic = kImageMagic6;
  static constexpr std::uint32_t kOtherMagic = kImageMagic4;
  static constexpr std::uint32_t kFamilyWord =
      static_cast<std::uint32_t>(net::AddressFamily::kIpv6);
  static constexpr const char* kCrossFamilyHint =
      "this is an IPv4 (TSIM) state image; load it through the IPv4 "
      "path (state::StateImage)";
};

// Checksum field location: the wide FNV covers every byte from
// kChecksummedFrom to the end of the file, which includes the topology
// fingerprint, the scalars, the section table and all payload — so any
// flipped byte past the magic/version/checksum triple is a checksum
// mismatch.
static_assert(kChecksumOffset + 8 == kChecksummedFrom);
static_assert(kFingerprintOffset >= kChecksummedFrom);

enum SectionId : std::uint32_t {
  kLpmRoot = 1,
  kLpmNodes,
  kLpmLeaves,
  kPartPrefixes,
  kPartSorted,
  kPartLive,
  kPartFree,
  kRankEntries,
};

struct SectionSpec {
  std::uint32_t id = 0;
  std::uint32_t elem_size = 0;
};

// Per-family section table: the ids are shared, the element widths are
// the family's (an IPv6 prefix serialises as hi/lo/len = 24 bytes).
template <class Family>
constexpr std::array<SectionSpec, kSectionCount> section_specs() {
  return {{
      {kLpmRoot, sizeof(std::uint32_t)},
      {kLpmNodes, sizeof(typename trie::BasicLpmIndex<Family>::Node)},
      {kLpmLeaves, sizeof(std::uint32_t)},
      {kPartPrefixes, sizeof(typename Family::Prefix)},
      {kPartSorted, sizeof(bgp::SortedCellT<Family>)},
      {kPartLive, sizeof(std::uint8_t)},
      {kPartFree, sizeof(std::uint32_t)},
      {kRankEntries, sizeof(core::RankedPrefixT<Family>)},
  }};
}

// The sorted section doubles as the LpmIndex entry table: same byte
// layout, same content (live cells ascending by prefix; encode_image
// checks the content identity before writing).
static_assert(sizeof(bgp::SortedCell) == sizeof(LpmIndex::Entry));
static_assert(sizeof(bgp::SortedCell6) == sizeof(LpmIndex6::Entry));

// The payload sections ARE the in-memory arrays, so the wire layout is
// the host layout. Everything the format fixes is asserted here; a port
// to an exotic ABI fails the build (or the runtime probe below) instead
// of producing silently incompatible images.
static_assert(std::endian::native == std::endian::little,
              "TSIM payload sections are little-endian host arrays; a "
              "big-endian port needs a byte-swapping decode path");
static_assert(std::is_trivially_copyable_v<LpmIndex::Node> &&
              std::is_standard_layout_v<LpmIndex::Node>);
static_assert(sizeof(LpmIndex::Node) == 24 &&
              offsetof(LpmIndex::Node, leaf_bits) == 8 &&
              offsetof(LpmIndex::Node, child_base) == 16 &&
              offsetof(LpmIndex::Node, leaf_base) == 20);
// The node shape is family-independent (one template).
static_assert(sizeof(LpmIndex6::Node) == sizeof(LpmIndex::Node));
static_assert(std::is_trivially_copyable_v<net::Prefix> &&
              sizeof(net::Prefix) == 8 && alignof(net::Prefix) <= 8);
static_assert(std::is_trivially_copyable_v<net::Ipv6Prefix> &&
              sizeof(net::Ipv6Prefix) == 24 &&
              alignof(net::Ipv6Prefix) <= 8);
static_assert(std::is_trivially_copyable_v<LpmIndex::Entry> &&
              std::is_standard_layout_v<LpmIndex::Entry> &&
              sizeof(LpmIndex::Entry) == 12 &&
              offsetof(LpmIndex::Entry, value) == 8);
static_assert(std::is_trivially_copyable_v<LpmIndex6::Entry> &&
              std::is_standard_layout_v<LpmIndex6::Entry> &&
              sizeof(LpmIndex6::Entry) == 32 &&
              offsetof(LpmIndex6::Entry, value) == 24);
static_assert(std::is_trivially_copyable_v<bgp::SortedCell> &&
              std::is_standard_layout_v<bgp::SortedCell> &&
              sizeof(bgp::SortedCell) == 12 &&
              offsetof(bgp::SortedCell, slot) == 8);
static_assert(std::is_trivially_copyable_v<bgp::SortedCell6> &&
              std::is_standard_layout_v<bgp::SortedCell6> &&
              sizeof(bgp::SortedCell6) == 32 &&
              offsetof(bgp::SortedCell6, slot) == 24);
static_assert(std::is_trivially_copyable_v<core::RankedPrefix> &&
              std::is_standard_layout_v<core::RankedPrefix> &&
              sizeof(core::RankedPrefix) == 48 &&
              offsetof(core::RankedPrefix, prefix) == 4 &&
              offsetof(core::RankedPrefix, size) == 16 &&
              offsetof(core::RankedPrefix, hosts) == 24 &&
              offsetof(core::RankedPrefix, density) == 32 &&
              offsetof(core::RankedPrefix, host_share) == 40);
static_assert(std::is_trivially_copyable_v<core::RankedPrefix6> &&
              std::is_standard_layout_v<core::RankedPrefix6> &&
              sizeof(core::RankedPrefix6) == 64 &&
              offsetof(core::RankedPrefix6, prefix) == 8 &&
              offsetof(core::RankedPrefix6, size) == 32 &&
              offsetof(core::RankedPrefix6, hosts) == 40 &&
              offsetof(core::RankedPrefix6, density) == 48 &&
              offsetof(core::RankedPrefix6, host_share) == 56);
static_assert(std::numeric_limits<double>::is_iec559 &&
              sizeof(double) == 8);

std::uint32_t get32(std::span<const std::byte> data,
                    std::size_t offset) noexcept {
  return util::load_le32(
      std::span<const std::byte, 4>(data.data() + offset, 4));
}

std::uint64_t get64(std::span<const std::byte> data,
                    std::size_t offset) noexcept {
  return util::load_le64(
      std::span<const std::byte, 8>(data.data() + offset, 8));
}

void put32(std::span<std::byte> data, std::size_t offset,
           std::uint32_t value) noexcept {
  util::store_le32(value, std::span<std::byte, 4>(data.data() + offset, 4));
}

void put64(std::span<std::byte> data, std::size_t offset,
           std::uint64_t value) noexcept {
  util::store_le64(value, std::span<std::byte, 8>(data.data() + offset, 8));
}

void put_prefix(std::span<std::byte> data, std::size_t offset,
                net::Prefix prefix) noexcept {
  put32(data, offset, prefix.network().value());
  data[offset + 4] = static_cast<std::byte>(prefix.length());
  // bytes offset+5..offset+7 stay zero (the buffer is value-initialised)
}

void put_prefix(std::span<std::byte> data, std::size_t offset,
                net::Ipv6Prefix prefix) noexcept {
  put64(data, offset, prefix.network().hi());
  put64(data, offset + 8, prefix.network().lo());
  data[offset + 16] = static_cast<std::byte>(prefix.length());
  // bytes offset+17..offset+23 stay zero
}

bool canonical(net::Prefix prefix) noexcept {
  return prefix.length() <= 32 &&
         (prefix.network().value() & ~net::Prefix::mask(prefix.length())) ==
             0;
}

bool canonical(net::Ipv6Prefix prefix) noexcept {
  return prefix.length() <= 128 &&
         net::Ipv6Prefix(prefix.network(), prefix.length()).network() ==
             prefix.network();
}

std::uint64_t align8(std::uint64_t offset) noexcept {
  return (offset + 7) & ~std::uint64_t{7};
}

[[noreturn]] void bad(const std::string& what) {
  throw FormatError("state image: " + what);
}

// net::Prefix / net::Ipv6Prefix keep their members private, so their
// byte layout is probed at runtime instead of offsetof'ed. Called once
// per encode/attach; the cost is nil.
template <class Family>
void check_prefix_layout() {
  if constexpr (std::same_as<Family, net::Ipv4Family>) {
    const net::Prefix probe(net::Ipv4Address(0x0a0b0c00u), 24);
    std::byte raw[sizeof(net::Prefix)];
    std::memcpy(raw, &probe, sizeof(probe));
    if (util::load_le32(std::span<const std::byte, 4>(raw, 4)) !=
            0x0a0b0c00u ||
        std::to_integer<std::uint8_t>(raw[4]) != 24) {
      throw Error(
          "unsupported ABI: net::Prefix layout differs from the TSIM "
          "wire layout");
    }
  } else {
    const net::Ipv6Prefix probe(
        net::Ipv6Address(0x20010db800000000ULL, 0x00000000000a0b00ULL), 120);
    std::byte raw[sizeof(net::Ipv6Prefix)];
    std::memcpy(raw, &probe, sizeof(probe));
    if (util::load_le64(std::span<const std::byte, 8>(raw, 8)) !=
            0x20010db800000000ULL ||
        util::load_le64(std::span<const std::byte, 8>(raw + 8, 8)) !=
            0x00000000000a0b00ULL ||
        std::to_integer<std::uint8_t>(raw[16]) != 120) {
      throw Error(
          "unsupported ABI: net::Ipv6Prefix layout differs from the TSIM "
          "wire layout");
    }
  }
}

// Hashes one payload section while running `flag` over its elements in
// L1-sized chunks: each chunk's bytes stream through the hasher and are
// immediately re-read cache-hot by the bounds check, so validation rides
// on the checksum's memory bandwidth instead of paying its own sweep.
// `flag` returns nonzero for a violating element and must be branch-free
// (violations are OR-accumulated and raised once per section, which is
// what lets the compiler vectorise the check loop).
template <typename T, typename Flag>
void hash_section(util::WideFnv1a64& hasher,
                  std::span<const std::byte> data, std::uint64_t offset,
                  std::span<const T> elems, Flag&& flag, const char* what) {
  constexpr std::size_t kChunk =
      std::max<std::size_t>(std::size_t{1}, 16384 / sizeof(T));
  std::uint64_t violated = 0;
  std::size_t i = 0;
  while (i < elems.size()) {
    const std::size_t n = std::min(kChunk, elems.size() - i);
    hasher.update(data.subspan(
        static_cast<std::size_t>(offset) + i * sizeof(T), n * sizeof(T)));
    for (std::size_t j = i; j < i + n; ++j) violated |= flag(elems[j]);
    i += n;
  }
  if (violated != 0) bad(what);
}

// Everything validate() hands back; attach() assembles it.
template <class Family>
struct Decoded {
  bgp::BasicPrefixPartition<Family> partition;
  core::DensityRankingViewT<Family> ranking;
  ImageInfo info;
};

template <class Family>
Decoded<Family> validate(std::span<const std::byte> data,
                         std::uint64_t expected_fingerprint) {
  using Format = FamilyFormat<Family>;
  using Index = trie::BasicLpmIndex<Family>;
  using Node = typename Index::Node;
  using Entry = typename Index::Entry;
  using Prefix = typename Family::Prefix;
  using Cell = bgp::SortedCellT<Family>;
  using Ranked = core::RankedPrefixT<Family>;
  constexpr auto kSpecs = section_specs<Family>();

  check_prefix_layout<Family>();
  if (reinterpret_cast<std::uintptr_t>(data.data()) % 8 != 0) {
    bad("attach buffer is not 8-byte aligned");
  }
  if (data.size() < kHeaderSize) bad("too short to hold a header");
  const std::uint32_t magic = data.size() >= 4 ? get32(data, 0) : 0;
  if (magic == Format::kOtherMagic) {
    // The one mistake worth a precise message: a structurally fine image
    // of the other family must fail typed, never crash or misread.
    bad(Format::kCrossFamilyHint);
  }
  if (magic != Format::kMagic) {
    bad("not a TASS state image (bad magic)");
  }
  const std::uint32_t version = get32(data, 4);
  if (version != kImageVersion) {
    bad("unsupported version " + std::to_string(version));
  }
  const std::uint64_t checksum = get64(data, kChecksumOffset);
  const std::uint64_t fingerprint = get64(data, kFingerprintOffset);
  if (expected_fingerprint != 0 && fingerprint != expected_fingerprint) {
    bad("produced for a different topology (fingerprint mismatch)");
  }
  const std::uint32_t mode_word = get32(data, 24);
  if ((mode_word & ~0xffu) != (Format::kFamilyWord << 8)) {
    bad("family field does not match the image magic");
  }
  const std::uint32_t mode_raw = mode_word & 0xffu;
  if (mode_raw > 1) bad("unknown prefix mode " + std::to_string(mode_raw));
  if (get32(data, 28) != kSectionCount) bad("unexpected section count");
  const std::uint64_t total_hosts = get64(data, 32);
  const std::uint64_t advertised = get64(data, 40);
  const std::uint64_t address_count = get64(data, 48);
  const std::uint64_t live_count = get64(data, 56);

  // Section table: ids and element sizes are fixed, offsets must follow
  // the canonical packed-with-8-byte-alignment geometry exactly.
  std::uint64_t counts[kSectionCount];
  std::uint64_t offsets[kSectionCount];
  std::uint64_t expected = kHeaderSize;
  for (std::size_t i = 0; i < kSectionCount; ++i) {
    const std::size_t row = kSectionTableOffset + i * 24;
    if (get32(data, row) != kSpecs[i].id) bad("section table out of order");
    if (get32(data, row + 4) != kSpecs[i].elem_size) {
      bad("unexpected section element size");
    }
    counts[i] = get64(data, row + 8);
    offsets[i] = get64(data, row + 16);
    expected = align8(expected);
    if (offsets[i] != expected) {
      bad("misaligned or out-of-order section offset");
    }
    if (expected > data.size() ||
        counts[i] > (data.size() - expected) / kSpecs[i].elem_size) {
      bad("section exceeds file size");
    }
    expected += counts[i] * kSpecs[i].elem_size;
  }
  if (expected != data.size()) bad("trailing bytes after last section");

  const std::size_t cell_count = static_cast<std::size_t>(counts[3]);
  if (cell_count >= Index::kNoMatch) bad("partition too large");
  if (live_count > cell_count) bad("more live cells than slots");
  if (counts[0] != 0 && counts[0] != 65536) {
    bad("LPM root must hold 0 or 65536 words");
  }
  if (counts[0] == 0 &&
      (counts[1] != 0 || counts[2] != 0 || live_count != 0)) {
    bad("empty LPM root with non-empty structures");
  }
  if (counts[4] != live_count) bad("sorted view count != live cell count");
  if (counts[5] != 0 && counts[5] != cell_count) {
    bad("live bitmap must be empty or one byte per slot");
  }
  if (counts[5] == 0 && live_count != cell_count) {
    bad("live bitmap missing while slots are dead");
  }
  if (counts[6] != cell_count - live_count) {
    bad("free slot count != dead slot count");
  }
  if (counts[7] > live_count) bad("more ranked entries than live cells");

  // The sections, in place. The base is 8-byte aligned and every offset
  // is too, so each cast lands on correctly aligned storage; the bytes
  // are only ever read through these typed views. The sorted section is
  // viewed twice — as the partition's sorted cells and as the LpmIndex
  // entry table — which is exactly the content identity encode_image
  // enforced before sealing the image.
  const std::byte* base = data.data();
  const std::span<const std::uint32_t> root{
      reinterpret_cast<const std::uint32_t*>(base + offsets[0]),
      static_cast<std::size_t>(counts[0])};
  const std::span<const Node> nodes{
      reinterpret_cast<const Node*>(base + offsets[1]),
      static_cast<std::size_t>(counts[1])};
  const std::span<const std::uint32_t> leaves{
      reinterpret_cast<const std::uint32_t*>(base + offsets[2]),
      static_cast<std::size_t>(counts[2])};
  const std::span<const Prefix> prefixes{
      reinterpret_cast<const Prefix*>(base + offsets[3]), cell_count};
  const std::span<const Cell> sorted{
      reinterpret_cast<const Cell*>(base + offsets[4]),
      static_cast<std::size_t>(counts[4])};
  const std::span<const Entry> entries{
      reinterpret_cast<const Entry*>(base + offsets[4]),
      static_cast<std::size_t>(counts[4])};
  const std::span<const std::uint8_t> live{
      reinterpret_cast<const std::uint8_t*>(base + offsets[5]),
      static_cast<std::size_t>(counts[5])};
  const std::span<const std::uint32_t> free_slots{
      reinterpret_cast<const std::uint32_t*>(base + offsets[6]),
      static_cast<std::size_t>(counts[6])};
  const std::span<const Ranked> ranked{
      reinterpret_cast<const Ranked*>(base + offsets[7]),
      static_cast<std::size_t>(counts[7])};

  // The attach-time tier: one fused sweep in which every byte of
  // [kChecksummedFrom, end) streams through the wide FNV exactly once,
  // in file order, with each section's *memory-safety* bounds checked
  // right after its bytes pass through the hasher (cache-hot, so the
  // checks ride on the hash's bandwidth instead of paying a second
  // memory sweep). The bounds checks are written to hold on arbitrary
  // bytes: after them, no lookup/locate/tally/selection walk can index
  // out of bounds or shift out of range even on an image whose checksum
  // was deliberately forged. Semantic invariants (orders, bindings,
  // totals) are established by encode_image, integrity-protected by the
  // checksum, and re-derivable on demand via verify().
  // Error precedence is unspecified: a corrupt image may be reported by
  // a bounds validator before the checksum verdict.
  util::WideFnv1a64 hasher;
  const auto hash_through = [&](std::uint64_t from, std::uint64_t to) {
    hasher.update(data.subspan(static_cast<std::size_t>(from),
                               static_cast<std::size_t>(to - from)));
  };
  std::uint64_t ends[kSectionCount];
  for (std::size_t i = 0; i < kSectionCount; ++i) {
    ends[i] = offsets[i] + counts[i] * kSpecs[i].elem_size;
  }
  hash_through(kChecksummedFrom, offsets[0]);

  // LPM read structures: every index a lookup can chase stays in
  // bounds, and every non-child slot is covered by a leaf run at or
  // below it (which makes the rank_inclusive() - 1 addressing safe).
  const std::uint32_t node_count32 = static_cast<std::uint32_t>(counts[1]);
  const std::uint32_t cell_count32 = static_cast<std::uint32_t>(cell_count);
  hash_section(
      hasher, data, offsets[0], root,
      [&](std::uint32_t word) -> std::uint64_t {
        const std::uint64_t is_node = word >> 31;
        const std::uint32_t payload = word & ~Index::kNodeFlag;
        return (is_node & (payload >= node_count32)) |
               (~is_node & 1u & (word != Index::kNoMatch) &
                (word >= cell_count32));
      },
      "LPM root word out of range");
  hash_through(ends[0], offsets[1]);
  hash_section(
      hasher, data, offsets[1], nodes,
      [&](const Node& node) -> std::uint64_t {
        const auto kids =
            static_cast<std::size_t>(std::popcount(node.child_bits));
        const auto runs =
            static_cast<std::size_t>(std::popcount(node.leaf_bits));
        const std::uint64_t oob =
            (node.child_base + kids > nodes.size()) |
            (node.leaf_base + runs > leaves.size());
        const std::uint64_t non_child = ~node.child_bits;
        // First slot that must be a leaf. The clamp keeps the shift in
        // range for the all-children case (countr_zero(0) == 64), whose
        // result the (non_child != 0) factor discards anyway.
        const int first = std::min(std::countr_zero(non_child), 63);
        const std::uint64_t uncovered =
            (non_child != 0) &
            ((node.leaf_bits & ((std::uint64_t{2} << first) - 1)) == 0);
        return oob | uncovered;
      },
      "LPM node references out-of-bounds or uncovered slots");
  hash_through(ends[1], offsets[2]);
  hash_section(
      hasher, data, offsets[2], leaves,
      [&](std::uint32_t value) -> std::uint64_t {
        return (value != Index::kNoMatch) & (value >= cell_count32);
      },
      "LPM leaf value out of range");
  hash_through(ends[2], offsets[3]);
  // Prefix lengths must stay <= the family width everywhere: masking a
  // wild length is a shift out of range on the v4 type, so this bound is
  // a safety property, not just hygiene.
  constexpr std::uint32_t kMaxLength =
      static_cast<std::uint32_t>(Family::kBits);
  hash_section(
      hasher, data, offsets[3], prefixes,
      [&](Prefix prefix) -> std::uint64_t {
        return static_cast<std::uint32_t>(prefix.length()) > kMaxLength;
      },
      "partition prefix length out of range");
  hash_through(ends[3], offsets[4]);
  // One pass covers both views of this section: SortedCell::slot is
  // Entry::value, so the slot bound below is also the entry value bound
  // the lookup structures rely on.
  hash_section(
      hasher, data, offsets[4], sorted,
      [&](const Cell& cell) -> std::uint64_t {
        return (cell.slot >= cell_count32) |
               (static_cast<std::uint32_t>(cell.prefix.length()) >
                kMaxLength);
      },
      "sorted view slot or prefix length out of range");
  hash_through(ends[4], offsets[6]);  // live bytes: any value is safe
  hash_section(
      hasher, data, offsets[6], free_slots,
      [&](std::uint32_t slot) -> std::uint64_t {
        return slot >= cell_count32;
      },
      "free list slot out of range");
  hash_through(ends[6], offsets[7]);
  hash_section(
      hasher, data, offsets[7], ranked,
      [&](const Ranked& entry) -> std::uint64_t {
        return (entry.index >= cell_count32) |
               (static_cast<std::uint32_t>(entry.prefix.length()) >
                kMaxLength);
      },
      "ranked entry index or prefix length out of range");
  hash_through(ends[7], data.size());

  // Depth-aware leaf coverage. The per-node rule above (first non-child
  // slot covered) is what the intermediate levels rely on, but the
  // deepest level is different: lookup() never consults child_bits there
  // ("the last level is always a leaf"), so a node reachable at the
  // final stride level must cover slot 0 with a leaf run outright —
  // otherwise a forged image could park a child-bits-only node at the
  // last level and make rank_inclusive() - 1 wrap below leaf_base. Walk
  // reachability per depth (deduplicated, so adversarial fan-in cannot
  // blow up the walk) and enforce the stronger rule on every final-level
  // node. IPv4 has 3 node levels, IPv6 19 — the walk is the same.
  constexpr int kLevels = Index::kNodeLevels;
  if (!nodes.empty()) {
    std::vector<std::uint8_t> at_depth(nodes.size(), 0);
    std::vector<std::uint32_t> frontier;
    for (const std::uint32_t word : root) {
      if ((word & Index::kNodeFlag) == 0) continue;
      const std::uint32_t index = word & ~Index::kNodeFlag;
      if (at_depth[index] == 0) {
        at_depth[index] = 1;
        frontier.push_back(index);
      }
    }
    std::vector<std::uint32_t> next;
    for (std::uint8_t depth = 2; depth <= kLevels; ++depth) {
      next.clear();
      for (const std::uint32_t index : frontier) {
        const Node& node = nodes[index];
        const auto kids =
            static_cast<std::uint32_t>(std::popcount(node.child_bits));
        for (std::uint32_t k = 0; k < kids; ++k) {
          const std::uint32_t child = node.child_base + k;
          if (at_depth[child] < depth) {
            at_depth[child] = depth;
            next.push_back(child);
          }
        }
      }
      std::swap(frontier, next);
      if (depth == kLevels) {
        for (const std::uint32_t index : frontier) {
          if ((nodes[index].leaf_bits & 1) == 0) {
            bad("final-level LPM node does not start with a leaf run");
          }
        }
      }
    }
  }

  if (hasher.digest() != checksum) {
    bad("checksum mismatch (corrupted file)");
  }

  Decoded<Family> decoded;
  decoded.partition = bgp::BasicPrefixPartition<Family>::from_raw(
      {prefixes, sorted, live, free_slots, address_count, live_count},
      Index::from_raw({root, nodes, leaves, entries}));
  decoded.ranking = {static_cast<core::PrefixMode>(mode_raw), ranked,
                     total_hosts, advertised};
  decoded.info.version = version;
  decoded.info.family = Family::kFamily;
  decoded.info.mode = static_cast<core::PrefixMode>(mode_raw);
  decoded.info.fingerprint = fingerprint;
  decoded.info.checksum = checksum;
  decoded.info.total_hosts = total_hosts;
  decoded.info.advertised_addresses = advertised;
  decoded.info.address_count = address_count;
  decoded.info.cell_count = cell_count;
  decoded.info.live_cells = static_cast<std::size_t>(live_count);
  decoded.info.ranked_count = ranked.size();
  decoded.info.lpm_nodes = nodes.size();
  decoded.info.lpm_leaves = leaves.size();
  decoded.info.file_bytes = data.size();
  return decoded;
}

}  // namespace

net::AddressFamily image_family(std::span<const std::byte> data) {
  if (data.size() < 4) {
    throw FormatError("state image: too short to hold a magic");
  }
  const std::uint32_t magic = get32(data, 0);
  if (magic == kImageMagic4) return net::AddressFamily::kIpv4;
  if (magic == kImageMagic6) return net::AddressFamily::kIpv6;
  throw FormatError("state image: not a TASS state image (bad magic)");
}

net::AddressFamily image_family_of_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open state image: " + path);
  std::byte head[4];
  in.read(reinterpret_cast<char*>(head), sizeof(head));
  if (in.gcount() != sizeof(head)) {
    throw FormatError("state image: too short to hold a magic");
  }
  return image_family(std::span<const std::byte>(head, sizeof(head)));
}

template <class Family>
std::vector<std::byte> encode_image(
    const bgp::BasicPrefixPartition<Family>& partition,
    const core::DensityRankingT<Family>& ranking) {
  using Format = FamilyFormat<Family>;
  using Partition = bgp::BasicPrefixPartition<Family>;
  using Index = trie::BasicLpmIndex<Family>;
  using Prefix = typename Family::Prefix;
  using Cell = bgp::SortedCellT<Family>;
  using Ranked = core::RankedPrefixT<Family>;
  constexpr auto kSpecs = section_specs<Family>();

  check_prefix_layout<Family>();
  const typename Partition::Raw praw = partition.raw();
  const typename Index::Raw lraw = partition.index().raw();

  // Cross-validate so every encoded image passes its own loader; these
  // are API-misuse errors (tass::Error), not file corruption.
  if (ranking.advertised_addresses != praw.address_count) {
    throw Error("encode_image: ranking was built over a different space");
  }
  // The sorted view and the LpmIndex entry table must be the same
  // sequence (live cells ascending by prefix, slot as the value): the
  // image stores them as one section and serves both views from it.
  if (lraw.entries.size() != praw.sorted.size() ||
      lraw.entries.size() != praw.live_count) {
    throw Error("encode_image: partition index out of sync");
  }
  for (std::size_t i = 0; i < lraw.entries.size(); ++i) {
    if (lraw.entries[i].prefix != praw.sorted[i].prefix ||
        lraw.entries[i].value != praw.sorted[i].slot) {
      throw Error("encode_image: partition index out of sync");
    }
  }
  std::uint64_t hosts_sum = 0;
  for (std::size_t i = 0; i < ranking.ranked.size(); ++i) {
    const Ranked& entry = ranking.ranked[i];
    if (entry.index >= partition.size() || !partition.live(entry.index) ||
        partition.prefix(entry.index) != entry.prefix ||
        entry.size != Family::prefix_units(entry.prefix) ||
        entry.hosts == 0) {
      throw Error("encode_image: ranking does not match the partition");
    }
    if (i > 0 && !core::ranked_before(ranking.ranked[i - 1], entry)) {
      throw Error("encode_image: ranking out of order");
    }
    hosts_sum += entry.hosts;
  }
  if (hosts_sum != ranking.total_hosts) {
    throw Error("encode_image: ranking host total mismatch");
  }

  const std::uint64_t counts[kSectionCount] = {
      lraw.root.size(),      lraw.nodes.size(),
      lraw.leaves.size(),    praw.prefixes.size(),
      praw.sorted.size(),    praw.live.size(),
      praw.free_slots.size(), ranking.ranked.size()};
  std::uint64_t offsets[kSectionCount];
  std::uint64_t size = kHeaderSize;
  for (std::size_t i = 0; i < kSectionCount; ++i) {
    size = align8(size);
    offsets[i] = size;
    size += counts[i] * kSpecs[i].elem_size;
  }

  // Value-initialised buffer: alignment padding and struct padding stay
  // zero, so identical state always encodes to identical bytes.
  std::vector<std::byte> out(static_cast<std::size_t>(size));
  const std::span<std::byte> buf{out};
  put32(buf, 0, Format::kMagic);
  put32(buf, 4, kImageVersion);
  put64(buf, kFingerprintOffset, bgp::partition_fingerprint(partition));
  put32(buf, 24,
        static_cast<std::uint32_t>(ranking.mode) |
            (Format::kFamilyWord << 8));
  put32(buf, 28, kSectionCount);
  put64(buf, 32, ranking.total_hosts);
  put64(buf, 40, ranking.advertised_addresses);
  put64(buf, 48, praw.address_count);
  put64(buf, 56, praw.live_count);
  for (std::size_t i = 0; i < kSectionCount; ++i) {
    const std::size_t row = kSectionTableOffset + i * 24;
    put32(buf, row, kSpecs[i].id);
    put32(buf, row + 4, kSpecs[i].elem_size);
    put64(buf, row + 8, counts[i]);
    put64(buf, row + 16, offsets[i]);
  }

  // Padding-free element types go out as one memcpy; prefix-bearing
  // types are written field by field so their padding bytes stay zero.
  const auto copy_section = [&](std::size_t index, const void* from,
                                std::size_t bytes) {
    if (bytes > 0) std::memcpy(out.data() + offsets[index], from, bytes);
  };
  copy_section(0, lraw.root.data(), lraw.root.size_bytes());
  copy_section(1, lraw.nodes.data(), lraw.nodes.size_bytes());
  copy_section(2, lraw.leaves.data(), lraw.leaves.size_bytes());
  for (std::size_t i = 0; i < praw.prefixes.size(); ++i) {
    put_prefix(buf, offsets[3] + i * sizeof(Prefix), praw.prefixes[i]);
  }
  for (std::size_t i = 0; i < praw.sorted.size(); ++i) {
    const std::size_t at = offsets[4] + i * sizeof(Cell);
    put_prefix(buf, at, praw.sorted[i].prefix);
    put32(buf, at + offsetof(Cell, slot), praw.sorted[i].slot);
  }
  copy_section(5, praw.live.data(), praw.live.size_bytes());
  copy_section(6, praw.free_slots.data(), praw.free_slots.size_bytes());
  for (std::size_t i = 0; i < ranking.ranked.size(); ++i) {
    const Ranked& entry = ranking.ranked[i];
    const std::size_t at = offsets[7] + i * sizeof(Ranked);
    put32(buf, at, entry.index);
    put_prefix(buf, at + offsetof(Ranked, prefix), entry.prefix);
    put64(buf, at + offsetof(Ranked, size), entry.size);
    put64(buf, at + offsetof(Ranked, hosts), entry.hosts);
    put64(buf, at + offsetof(Ranked, density),
          std::bit_cast<std::uint64_t>(entry.density));
    put64(buf, at + offsetof(Ranked, host_share),
          std::bit_cast<std::uint64_t>(entry.host_share));
  }

  put64(buf, kChecksumOffset,
        util::fnv1a64_wide(buf.subspan(kChecksummedFrom)));
  return out;
}

template <class Family>
void save_image(const std::string& path,
                const bgp::BasicPrefixPartition<Family>& partition,
                const core::DensityRankingT<Family>& ranking) {
  const auto bytes = encode_image(partition, ranking);
  // Write-then-rename, never truncate in place: workers stay attached to
  // the old image via MAP_SHARED, so the old inode must live on until
  // their mappings go away (truncating under a mapping is a SIGBUS and
  // regrown bytes would mutate beneath already-validated views), and the
  // replacement becomes atomic — a concurrent load() sees either the old
  // or the new image, never a torn one.
  const std::string temp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw Error("cannot open state image for writing: " + temp);
    }
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::remove(temp.c_str());
      throw Error("short write to state image: " + temp);
    }
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    const int saved = errno;
    std::remove(temp.c_str());
    throw Error("cannot replace state image " + path + ": " +
                std::strerror(saved));
  }
}

template <class Family>
BasicStateImage<Family> BasicStateImage<Family>::attach(
    std::span<const std::byte> data, std::uint64_t expected_fingerprint) {
  Decoded<Family> decoded = validate<Family>(data, expected_fingerprint);
  BasicStateImage image;
  image.partition_ = std::move(decoded.partition);
  image.ranking_ = decoded.ranking;
  image.info_ = decoded.info;
  return image;
}

template <class Family>
BasicStateImage<Family> BasicStateImage<Family>::load(
    const std::string& path, std::uint64_t expected_fingerprint) {
  util::MmapFile file = util::MmapFile::open(path);
  BasicStateImage image = attach(file.bytes(), expected_fingerprint);
  image.info_.backing = file.backing();
  image.file_ = std::move(file);
  return image;
}

template <class Family>
void BasicStateImage<Family>::verify() const {
  using Prefix = typename Family::Prefix;
  using Cell = bgp::SortedCellT<Family>;
  using Entry = typename Index::Entry;
  using Ranked = core::RankedPrefixT<Family>;

  const typename Partition::Raw praw = partition_.raw();
  const typename Index::Raw lraw = partition_.index().raw();
  const std::span<const Ranked> ranked = ranking_.ranked;
  const auto is_live = [&](std::uint64_t slot) {
    return praw.live.empty() ||
           praw.live[static_cast<std::size_t>(slot)] != 0;
  };

  for (const Prefix prefix : praw.prefixes) {
    if (!canonical(prefix)) bad("non-canonical partition prefix");
  }
  for (std::size_t i = 0; i < lraw.entries.size(); ++i) {
    const Entry& entry = lraw.entries[i];
    if (!canonical(entry.prefix)) bad("non-canonical LPM entry prefix");
    if (!is_live(entry.value) ||
        praw.prefixes[entry.value] != entry.prefix) {
      bad("LPM entry does not map to its live cell");
    }
    if (i > 0 && !(lraw.entries[i - 1].prefix < entry.prefix)) {
      bad("LPM entries out of order");
    }
  }
  net::AddressKey max_last{};
  std::uint64_t address_sum = 0;
  for (std::size_t i = 0; i < praw.sorted.size(); ++i) {
    const Cell& cell = praw.sorted[i];
    if (!is_live(cell.slot) || praw.prefixes[cell.slot] != cell.prefix) {
      bad("sorted view does not match its live cell");
    }
    if (i > 0) {
      if (!(praw.sorted[i - 1].prefix < cell.prefix)) {
        bad("sorted view out of order");
      }
      if (Family::first_key(cell.prefix) <= max_last) {
        bad("live cells overlap");
      }
    }
    max_last = Family::last_key(cell.prefix);
    address_sum = net::saturating_add(address_sum,
                                      Family::prefix_units(cell.prefix));
  }
  if (address_sum != info_.address_count) {
    bad("live unit total mismatch");
  }
  if (info_.advertised_addresses != info_.address_count) {
    bad("ranking advertised space != partition unit count");
  }
  std::uint64_t live_seen = 0;
  for (const std::uint8_t flag : praw.live) {
    if (flag > 1) bad("live bitmap holds a non-boolean");
    live_seen += flag;
  }
  if (!praw.live.empty() && live_seen != info_.live_cells) {
    bad("live bitmap population != live cell count");
  }
  for (std::size_t i = 0; i < praw.free_slots.size(); ++i) {
    if (is_live(praw.free_slots[i])) bad("free list names a live slot");
    if (i > 0 && praw.free_slots[i - 1] >= praw.free_slots[i]) {
      bad("free list out of order");
    }
  }
  std::uint64_t hosts_sum = 0;
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    const Ranked& entry = ranked[i];
    if (!is_live(entry.index) ||
        praw.prefixes[entry.index] != entry.prefix ||
        entry.size != Family::prefix_units(entry.prefix) ||
        entry.hosts == 0) {
      bad("ranked entry does not match its live cell");
    }
    if (i > 0 && !core::ranked_before(ranked[i - 1], entry)) {
      bad("ranking out of order");
    }
    hosts_sum += entry.hosts;
  }
  if (hosts_sum != info_.total_hosts) bad("ranking host total mismatch");
}

template class BasicStateImage<net::Ipv4Family>;
template class BasicStateImage<net::Ipv6Family>;

template std::vector<std::byte> encode_image(
    const bgp::BasicPrefixPartition<net::Ipv4Family>&,
    const core::DensityRankingT<net::Ipv4Family>&);
template std::vector<std::byte> encode_image(
    const bgp::BasicPrefixPartition<net::Ipv6Family>&,
    const core::DensityRankingT<net::Ipv6Family>&);
template void save_image(const std::string&,
                         const bgp::BasicPrefixPartition<net::Ipv4Family>&,
                         const core::DensityRankingT<net::Ipv4Family>&);
template void save_image(const std::string&,
                         const bgp::BasicPrefixPartition<net::Ipv6Family>&,
                         const core::DensityRankingT<net::Ipv6Family>&);

}  // namespace tass::state
