// TSIM — the zero-copy pipeline state image, parameterized over the
// address family.
//
// The paper's pipeline (pfx2as -> partition -> density ranking -> scan
// scope) derives everything a scan cycle needs from raw inputs, and that
// derivation is what makes process start expensive: parsing the routing
// table and rebuilding the LpmIndex costs tens of milliseconds per
// process, every time. TSIM persists the *derived* state
// relocation-free: the payload sections
// of the file are the flat arrays of a built trie::BasicLpmIndex,
// bgp::BasicPrefixPartition and core::DensityRankingT, byte for byte
// (fixed-width little-endian, 8-byte aligned). Loading is therefore
// mmap + validate + pointer fixup — no parse, no rebuild — and because
// the mapping is read-only and shared (util::MmapFile), N worker
// processes attached to one image share a single page-cache copy of the
// topology. IPv6 state seals and reloads through the exact same path;
// only the per-element widths differ.
//
// Container layout (all integers little-endian):
//
//   0   u32  magic — "TSIM" for IPv4 images, "TSI6" for IPv6. The magic
//            is the primary family discriminator: a v4 loader handed a
//            "TSI6" image throws a typed FormatError naming the right
//            path (and vice versa), never a crash or a silent misread
//   4   u32  version (currently 1)
//   8   u64  payload checksum — util::fnv1a64_wide over every byte from
//            offset 16 to the end of the file, so everything except the
//            magic/version/checksum triple itself is tamper-evident
//   16  u64  topology fingerprint — FNV-1a over the live cell prefixes in
//            slot order (bgp::partition_fingerprint), so an image can
//            only be bound to the topology it was sealed from
//   24  u32  prefix mode and family: low byte = ranking prefix mode
//            (0 = less, 1 = more); byte 1 = the family field (0 for
//            historical IPv4 images, 6 for IPv6); upper bytes zero
//   28  u32  section count (8 in version 1)
//   32  u64  total hosts (ranking N)
//   40  u64  advertised space (family scan units: addresses / /64s)
//   48  u64  live unit count of the partition
//   56  u64  live cell count of the partition
//   64       section table: 8 x {u32 id, u32 element size, u64 element
//            count, u64 byte offset}, in id order. Element sizes are the
//            family's: an IPv6 prefix serialises as hi/lo/len (24
//            bytes), so the same section ids carry wider rows
//   256      payload sections, each at an 8-byte-aligned offset with
//            zeroed padding between — the LpmIndex root/node/leaf
//            arrays, the partition prefix/sorted/live/free arrays, and
//            the ranked-prefix array. The LpmIndex entry table is not a
//            section of its own: the family's SortedCell and
//            LpmIndex Entry share one byte layout and, by the
//            partition's invariants, identical content (the live cells
//            ascending by prefix), so the loader serves both views out
//            of the sorted section
//
// Validation is two-tier, both throwing tass::FormatError:
//
//   * attach/load — magic (including the cross-family case), version,
//     section-table geometry, the payload checksum, and every
//     memory-safety bound (node/leaf/root indices, cell indices, prefix
//     lengths), fused with the checksum into one bandwidth-speed sweep.
//     After it, no lookup/locate/tally/selection walk can index out of
//     bounds even on an image whose checksum was deliberately forged —
//     corrupt input parses or throws, never crashes (the sanitizer CI
//     job runs the corrupt-image suite in tests/parser_fuzz_test.cpp,
//     both families, to enforce this).
//   * verify() — the deep semantic audit (sorted orders, disjointness,
//     entry/ranked-to-cell bindings, population and unit totals). These
//     invariants are established by encode_image and
//     integrity-protected by the checksum, so the hot start path does
//     not pay to re-derive them; diagnostic tooling (`tass_cli state
//     info`) and the differential tests do.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bgp/partition.hpp"
#include "core/ranking.hpp"
#include "net/family.hpp"
#include "trie/lpm_index.hpp"
#include "trie/lpm_index6.hpp"
#include "util/mmap_file.hpp"

namespace tass::state {

inline constexpr std::uint32_t kImageVersion = 1;

// Header geometry, shared with the corrupt-image tests (which re-seal
// checksums after targeted corruption to reach the deeper validators).
// Identical for both families; only the magic and element widths differ.
inline constexpr std::size_t kChecksumOffset = 8;
inline constexpr std::size_t kChecksummedFrom = 16;
inline constexpr std::size_t kFingerprintOffset = 16;
inline constexpr std::size_t kSectionTableOffset = 64;
inline constexpr std::size_t kSectionCount = 8;
inline constexpr std::size_t kHeaderSize =
    kSectionTableOffset + kSectionCount * 24;

// The family magics ("TSIM" / "TSI6" as little-endian u32 at offset 0).
inline constexpr std::uint32_t kImageMagic4 = 0x4d495354u;
inline constexpr std::uint32_t kImageMagic6 = 0x36495354u;

// The topology fingerprint an image binds to is
// bgp::partition_fingerprint — the same digest the serve wire echoes in
// every response header.

/// Header fields and section tallies of a validated image.
struct ImageInfo {
  std::uint32_t version = 0;
  net::AddressFamily family = net::AddressFamily::kIpv4;
  core::PrefixMode mode = core::PrefixMode::kLess;
  std::uint64_t fingerprint = 0;
  std::uint64_t checksum = 0;
  std::uint64_t total_hosts = 0;
  std::uint64_t advertised_addresses = 0;  // family scan units
  std::uint64_t address_count = 0;         // family scan units
  std::size_t cell_count = 0;   // partition slots (live + free)
  std::size_t live_cells = 0;
  std::size_t ranked_count = 0;
  std::size_t lpm_nodes = 0;
  std::size_t lpm_leaves = 0;
  std::size_t file_bytes = 0;
  /// What backs the mapping serving this image: kBase for load(),
  /// kNone for attach() (caller-owned buffer).
  util::PageBacking backing = util::PageBacking::kNone;
};

/// Peeks an image's address family from its magic without validating the
/// rest. Throws tass::FormatError if the bytes are not a TASS state
/// image of either family. The file form reads only the header prefix.
net::AddressFamily image_family(std::span<const std::byte> data);
net::AddressFamily image_family_of_file(const std::string& path);

/// Serialises a built partition + ranking into one TSIM byte buffer.
/// The ranking must have been built over `partition` (cell indices,
/// prefixes and totals are cross-checked; throws tass::Error on any
/// inconsistency, so every encoded image is loadable). The overload set
/// covers both families; the family is deduced from the argument types.
template <class Family>
std::vector<std::byte> encode_image(
    const bgp::BasicPrefixPartition<Family>& partition,
    const core::DensityRankingT<Family>& ranking);

/// encode_image + atomic-enough file write (write + rename);
/// throws tass::Error on I/O failure.
template <class Family>
void save_image(const std::string& path,
                const bgp::BasicPrefixPartition<Family>& partition,
                const core::DensityRankingT<Family>& ranking);

/// A validated, attached state image: the partition, its LpmIndex and
/// the density ranking served zero-copy out of the underlying bytes.
///
/// Lifetime: partition(), index() and ranking() borrow the image's
/// storage — they are valid exactly as long as this image (and, for
/// attach(), the caller's buffer) stays alive. The borrowed structures
/// answer every const query through their unchanged APIs but reject
/// mutation (update()/apply_delta() throw); processes that need to churn
/// the topology rebuild owned structures from the borrowed views.
template <class Family>
class BasicStateImage {
 public:
  using Partition = bgp::BasicPrefixPartition<Family>;
  using Index = trie::BasicLpmIndex<Family>;
  using RankingView = core::DensityRankingViewT<Family>;

  /// Maps and validates an image file. Throws tass::Error on I/O
  /// failure, tass::FormatError on any corruption or format violation —
  /// including the cross-family case: loading an image of the other
  /// family fails with a typed FormatError naming the right loader.
  /// If `expected_fingerprint` is non-zero the image must additionally
  /// be bound to that topology fingerprint.
  static BasicStateImage load(const std::string& path,
                              std::uint64_t expected_fingerprint = 0);

  /// Validates and attaches to an image already in memory (zero-copy;
  /// `data` must outlive the image and be 8-byte aligned).
  static BasicStateImage attach(std::span<const std::byte> data,
                                std::uint64_t expected_fingerprint = 0);

  BasicStateImage(BasicStateImage&&) noexcept = default;
  BasicStateImage& operator=(BasicStateImage&&) noexcept = default;
  BasicStateImage(const BasicStateImage&) = delete;
  BasicStateImage& operator=(const BasicStateImage&) = delete;
  ~BasicStateImage() = default;

  const Partition& partition() const noexcept { return partition_; }
  const Index& index() const noexcept { return partition_.index(); }
  RankingView ranking() const noexcept { return ranking_; }
  const ImageInfo& info() const noexcept { return info_; }

  /// Deep semantic audit beyond the attach-time integrity and bounds
  /// checks: sorted-view and ranking order, live-cell disjointness,
  /// entry/ranked-to-cell bindings, free-list and live-bitmap
  /// consistency, unit and host totals. Throws tass::FormatError on
  /// the first violated invariant. Safe to call on any attached image
  /// (it assumes only what attach() has already established).
  void verify() const;

 private:
  BasicStateImage() = default;

  util::MmapFile file_;  // empty when attached to a caller-owned buffer
  Partition partition_;
  RankingView ranking_;
  ImageInfo info_;
};

/// The family instantiations. StateImage keeps its historical (IPv4)
/// meaning; StateImage6 is the IPv6 twin on the same machinery.
using StateImage = BasicStateImage<net::Ipv4Family>;
using StateImage6 = BasicStateImage<net::Ipv6Family>;

extern template class BasicStateImage<net::Ipv4Family>;
extern template class BasicStateImage<net::Ipv6Family>;

}  // namespace tass::state
