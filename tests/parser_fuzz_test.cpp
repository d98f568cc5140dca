// Seeded corrupt-input tests for the two external-format parsers the
// prefix pipeline depends on: the CAIDA pfx2as text reader and the MRT
// TABLE_DUMP_V2 binary decoder.
//
// The contract under test is narrow but vital for anything that eats
// collector output from the open Internet: for arbitrary corruption the
// parsers either succeed or throw a tass::Error subclass — they never
// crash, hang, or read out of bounds (the CI sanitizer job runs this
// suite under ASan+UBSan to enforce the latter). All corruption is
// generated from fixed seeds so failures reproduce exactly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bgp/mrt.hpp"
#include "bgp/pfx2as.hpp"
#include "bgp/rib.hpp"
#include "bgp/rib_delta.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace tass::bgp {
namespace {

// --- pfx2as ----------------------------------------------------------

std::string valid_pfx2as_document() {
  return
      "# CAIDA-style header comment\n"
      "1.0.0.0\t24\t13335\n"
      "8.0.0.0\t9\t3356\n"
      "8.8.8.0\t24\t15169\n"
      "9.9.9.0\t24\t19281,42\n"
      "11.0.0.0\t8\t4_5_6\n";
}

TEST(Pfx2AsCorruption, BadMaskRejectedCleanly) {
  for (const char* line : {"10.0.0.0\t33\t1", "10.0.0.0\t300\t1",
                           "10.0.0.0\t-1\t1", "10.0.0.0\t4294967296\t1"}) {
    EXPECT_THROW(parse_pfx2as_line(line), ParseError) << line;
  }
}

TEST(Pfx2AsCorruption, StructuralGarbageRejectedCleanly) {
  for (const char* line :
       {"", "10.0.0.0", "10.0.0.0\t24", "10.0.0.0\t24\t1\textra",
        "999.0.0.0\t8\t1", "10.0.0.0\t8\t", "10.0.0.0\t8\tAS13335",
        "10.0.0.0\t8\t1,,2", "10.0.0.0\t8\t1__2_"}) {
    EXPECT_THROW(parse_pfx2as_line(line), ParseError)
        << "'" << line << "'";
  }
}

TEST(Pfx2AsCorruption, OverlappingDuplicatesAreDataNotErrors) {
  // Duplicate and overlapping announcements are routine in real tables;
  // the parser must accept them and RoutingTable must merge origins.
  const auto records = parse_pfx2as(
      "10.0.0.0\t8\t1\n"
      "10.0.0.0\t8\t2\n"
      "10.128.0.0\t9\t3\n");
  ASSERT_EQ(records.size(), 3u);
  const RoutingTable table = RoutingTable::from_pfx2as(records);
  ASSERT_EQ(table.size(), 2u);  // duplicates merged
  EXPECT_EQ(table.routes()[0].origins, (std::vector<std::uint32_t>{1, 2}));
  EXPECT_TRUE(table.routes()[1].more_specific);
}

TEST(Pfx2AsCorruption, SeededTruncationsNeverCrash) {
  const std::string document = valid_pfx2as_document();
  for (std::size_t cut = 0; cut <= document.size(); ++cut) {
    const std::string_view truncated(document.data(), cut);
    try {
      parse_pfx2as(truncated);  // strict: may throw ParseError
    } catch (const Error&) {
    }
    // Lenient mode must swallow every line-level problem.
    std::size_t skipped = 0;
    EXPECT_NO_THROW(parse_pfx2as(truncated, /*strict=*/false, &skipped));
  }
}

TEST(Pfx2AsCorruption, SeededByteFlipsNeverCrash) {
  const std::string document = valid_pfx2as_document();
  for (const std::uint64_t seed : {11ull, 22ull, 33ull, 44ull, 55ull}) {
    util::Rng rng(seed);
    for (int round = 0; round < 200; ++round) {
      std::string mutated = document;
      const std::size_t flips = 1 + rng.bounded(8);
      for (std::size_t i = 0; i < flips; ++i) {
        const auto pos = static_cast<std::size_t>(
            rng.bounded(mutated.size()));
        mutated[pos] = static_cast<char>(rng.bounded(256));
      }
      try {
        const auto records = parse_pfx2as(mutated);
        // Whatever survived must be structurally sane.
        for (const auto& record : records) {
          EXPECT_LE(record.prefix.length(), 32);
          EXPECT_FALSE(record.origins.empty());
        }
      } catch (const Error&) {
        // Clean rejection is the other acceptable outcome.
      }
    }
  }
}

// --- MRT -------------------------------------------------------------

MrtRibDump valid_dump() {
  MrtRibDump dump;
  dump.timestamp = 1441584000;  // 2015-09-07, the paper's snapshot
  dump.collector_id = net::Ipv4Address::from_octets(198, 51, 100, 1);
  dump.view_name = "tass-test";
  dump.peers.push_back({net::Ipv4Address::from_octets(192, 0, 2, 1),
                        net::Ipv4Address::from_octets(192, 0, 2, 2), 64500});
  dump.peers.push_back({net::Ipv4Address::from_octets(192, 0, 2, 3),
                        net::Ipv4Address::from_octets(192, 0, 2, 4), 64501});
  for (std::uint32_t i = 0; i < 8; ++i) {
    MrtRibRecord record;
    record.sequence = i;
    record.prefix = net::Prefix(net::Ipv4Address(0x0a000000u + (i << 16)),
                                i % 2 == 0 ? 16 : 24);
    MrtRibEntry entry;
    entry.peer_index = static_cast<std::uint16_t>(i % 2);
    entry.originated_time = dump.timestamp - i;
    entry.origin = BgpOrigin::kIgp;
    entry.as_path.push_back(
        {AsPathSegment::Kind::kAsSequence, {64500, 3356, 13335 + i}});
    entry.next_hop = net::Ipv4Address::from_octets(192, 0, 2, 2);
    record.entries.push_back(std::move(entry));
    dump.records.push_back(std::move(record));
  }
  return dump;
}

TEST(MrtCorruption, RoundTripSurvives) {
  const MrtRibDump dump = valid_dump();
  const auto bytes = encode_mrt(dump);
  const MrtRibDump decoded = decode_mrt(bytes);
  ASSERT_EQ(decoded.records.size(), dump.records.size());
  EXPECT_EQ(decoded.peers, dump.peers);
  EXPECT_EQ(decoded.records, dump.records);
}

TEST(MrtCorruption, EveryTruncationPointRejectedCleanly) {
  const auto bytes = encode_mrt(valid_dump());
  // A truncated dump must either decode a clean prefix of the records or
  // throw FormatError — at every possible cut point.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    try {
      const MrtRibDump decoded =
          decode_mrt(std::span(bytes.data(), cut));
      EXPECT_LE(decoded.records.size(), 8u);
    } catch (const Error&) {
    }
  }
}

TEST(MrtCorruption, BadPrefixLengthRejected) {
  // Corrupt the prefix-length byte of the first RIB record to every
  // invalid value; the decoder must throw FormatError, never build a
  // Prefix with length > 32 (which would corrupt downstream masks).
  const MrtRibDump dump = valid_dump();
  const auto bytes = encode_mrt(dump);
  // Locate the first RIB record's length byte: scan for the encoded
  // sequence number 0 followed by the known prefix length 16.
  std::size_t length_offset = 0;
  for (std::size_t i = 0; i + 4 < bytes.size(); ++i) {
    if (std::to_integer<std::uint8_t>(bytes[i]) == 0 &&
        std::to_integer<std::uint8_t>(bytes[i + 1]) == 0 &&
        std::to_integer<std::uint8_t>(bytes[i + 2]) == 0 &&
        std::to_integer<std::uint8_t>(bytes[i + 3]) == 0 &&
        std::to_integer<std::uint8_t>(bytes[i + 4]) == 16) {
      length_offset = i + 4;
      break;
    }
  }
  ASSERT_NE(length_offset, 0u) << "could not locate RIB record";
  for (int bad = 33; bad < 256; bad += 37) {
    auto mutated = bytes;
    mutated[length_offset] = static_cast<std::byte>(bad);
    EXPECT_THROW(decode_mrt(mutated), FormatError) << "length=" << bad;
  }
}

TEST(MrtCorruption, SeededByteFlipsNeverCrash) {
  const auto bytes = encode_mrt(valid_dump());
  for (const std::uint64_t seed : {7ull, 77ull, 777ull, 7777ull, 77777ull}) {
    util::Rng rng(seed);
    for (int round = 0; round < 400; ++round) {
      auto mutated = bytes;
      const std::size_t flips = 1 + rng.bounded(6);
      for (std::size_t i = 0; i < flips; ++i) {
        const auto pos = static_cast<std::size_t>(
            rng.bounded(mutated.size()));
        mutated[pos] = static_cast<std::byte>(rng.bounded(256));
      }
      try {
        const MrtRibDump decoded = decode_mrt(mutated);
        for (const MrtRibRecord& record : decoded.records) {
          EXPECT_LE(record.prefix.length(), 32);
        }
      } catch (const Error&) {
        // Structural corruption must surface as FormatError (a subclass
        // of Error), nothing else.
      }
    }
  }
}

TEST(MrtCorruption, SeededTruncatedTailsNeverCrash) {
  const auto bytes = encode_mrt(valid_dump());
  for (const std::uint64_t seed : {3ull, 5ull, 9ull, 13ull, 21ull}) {
    util::Rng rng(seed);
    for (int round = 0; round < 100; ++round) {
      // Random cut plus random flip near the cut — the classic shape of
      // an interrupted transfer.
      const auto cut = static_cast<std::size_t>(rng.bounded(bytes.size()));
      std::vector<std::byte> mutated(bytes.begin(),
                                     bytes.begin() + static_cast<long>(cut));
      if (!mutated.empty()) {
        const auto pos =
            static_cast<std::size_t>(rng.bounded(mutated.size()));
        mutated[pos] = static_cast<std::byte>(rng.bounded(256));
      }
      try {
        decode_mrt(mutated);
      } catch (const Error&) {
      }
    }
  }
}

// --- MRT BGP4MP update streams (bgp::rib_delta) ----------------------

RibDelta valid_update_delta() {
  RibDelta delta;
  delta.announce = {
      {net::Prefix::parse_or_throw("198.18.0.0/15"), {600, 601}},
      {net::Prefix::parse_or_throw("198.51.100.0/24"), {500}},
  };
  delta.withdraw = {net::Prefix::parse_or_throw("172.16.0.0/12"),
                    net::Prefix::parse_or_throw("192.0.2.0/24")};
  delta.reorigin = {{net::Prefix::parse_or_throw("10.64.0.0/10"), {250}}};
  return delta;
}

TEST(MrtUpdateCorruption, EveryTruncationParsesOrThrows) {
  const auto bytes = encode_mrt_updates(valid_update_delta(), 1441584000);
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    const std::span<const std::byte> truncated(bytes.data(), cut);
    try {
      decode_mrt_updates(truncated);
    } catch (const Error&) {
      // Clean rejection is the other acceptable outcome.
    }
  }
}

TEST(MrtUpdateCorruption, SeededByteFlipsNeverCrash) {
  const auto bytes = encode_mrt_updates(valid_update_delta(), 1441584000);
  for (const std::uint64_t seed : {19ull, 29ull, 39ull, 49ull, 59ull}) {
    util::Rng rng(seed);
    for (int round = 0; round < 400; ++round) {
      auto mutated = bytes;
      const std::size_t flips = 1 + rng.bounded(6);
      for (std::size_t i = 0; i < flips; ++i) {
        const auto pos =
            static_cast<std::size_t>(rng.bounded(mutated.size()));
        mutated[pos] = static_cast<std::byte>(rng.bounded(256));
      }
      try {
        const RibDelta decoded = decode_mrt_updates(mutated);
        // Whatever survived must be structurally sane.
        for (const auto& record : decoded.announce) {
          EXPECT_LE(record.prefix.length(), 32);
          EXPECT_FALSE(record.origins.empty());
        }
        EXPECT_NO_THROW(decoded.validate());
      } catch (const Error&) {
      }
    }
  }
}

TEST(MrtUpdateCorruption, ForeignRecordsAreSkippedNotFatal) {
  // A TABLE_DUMP_V2 dump fed to the update reader is well-formed MRT of
  // the wrong type: every record must be counted as skipped, not die.
  const auto bytes = encode_mrt(valid_dump());
  std::size_t skipped = 0;
  const RibDelta decoded = decode_mrt_updates(bytes, &skipped);
  EXPECT_TRUE(decoded.empty());
  EXPECT_GT(skipped, 0u);
  // And the reverse: an update stream fed to the RIB reader.
  const auto updates = encode_mrt_updates(valid_update_delta(), 0);
  const MrtRibDump dump = decode_mrt(updates);
  EXPECT_TRUE(dump.records.empty());
  EXPECT_GT(dump.skipped_records, 0u);
}

TEST(MrtUpdateCorruption, DuplicateAndConflictingDeltasAreRejected) {
  const auto table = valid_update_delta().apply(std::vector<Pfx2AsRecord>{
      {net::Prefix::parse_or_throw("172.16.0.0/12"), {1}},
      {net::Prefix::parse_or_throw("192.0.2.0/24"), {2}},
      {net::Prefix::parse_or_throw("10.64.0.0/10"), {3}},
  });
  // The delta layer throws on duplicated work instead of corrupting
  // downstream state: double withdraw, double announce, cross-section
  // duplicates — every one is an Error, never a crash or a half-apply.
  RibDelta twice;
  twice.withdraw = {net::Prefix::parse_or_throw("198.51.100.0/24"),
                    net::Prefix::parse_or_throw("198.51.100.0/24")};
  EXPECT_THROW(twice.validate(), Error);
  EXPECT_THROW(twice.apply(table), Error);

  RibDelta conflicted;
  conflicted.announce = {{net::Prefix::parse_or_throw("7.0.0.0/8"), {9}}};
  conflicted.withdraw = {net::Prefix::parse_or_throw("7.0.0.0/8")};
  EXPECT_THROW(conflicted.validate(), Error);
  EXPECT_THROW(conflicted.apply(table), Error);

  RibDelta replay = valid_update_delta();  // applying twice must fail loud
  EXPECT_THROW(replay.apply(replay.apply(table)), Error);
}

}  // namespace
}  // namespace tass::bgp

// --- TSIM state image ------------------------------------------------
//
// The zero-copy state image is mmap'ed and indexed in place, so the
// loader's validation is the only thing between a corrupted file and an
// out-of-bounds read. Contract: for arbitrary corruption, attach()
// either succeeds or throws tass::FormatError — never crashes (the
// sanitizer job runs this suite under ASan+UBSan). Where a corruption
// would be caught by the checksum alone, the tests also re-seal the
// checksum so the deeper structural validators are the ones on trial.

#include <cstring>

#include "state/image.hpp"
#include "util/endian.hpp"
#include "util/hash.hpp"

namespace tass::state {
namespace {

std::vector<std::byte> valid_image() {
  std::vector<net::Prefix> prefixes;
  for (std::uint32_t i = 0; i < 48; ++i) {
    prefixes.push_back(net::Prefix(net::Ipv4Address((i + 1) << 24), 12));
  }
  // One deep cell so the LPM index has a full three-level node chain
  // (root block -> stride-6 -> stride-6 -> stride-4), which the
  // depth-aware validator tests below need to reach.
  prefixes.push_back(
      net::Prefix(net::Ipv4Address(0xF0000000u), 30));
  bgp::PrefixPartition partition(std::move(prefixes));
  // One delta so the image carries a live bitmap and a free list.
  bgp::PartitionDelta delta;
  delta.remove.push_back(partition.prefix(3));
  delta.remove.push_back(partition.prefix(7));
  delta.add.push_back(partition.prefix(7).lower_half());
  partition.apply_delta(delta);
  std::vector<std::uint32_t> counts(partition.size(), 0);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (partition.live(i)) {
      counts[i] = static_cast<std::uint32_t>(1 + 37 * i % 211);
    }
  }
  const auto ranking =
      core::rank_by_density(counts, partition, core::PrefixMode::kMore);
  return encode_image(partition, ranking);
}

// Recomputes the payload checksum after a deliberate corruption, so the
// tampering survives the checksum gate and reaches the validators.
void reseal(std::vector<std::byte>& image) {
  const std::uint64_t digest = util::fnv1a64_wide(
      std::span<const std::byte>(image).subspan(kChecksummedFrom));
  util::store_le64(
      digest, std::span<std::byte, 8>(image.data() + kChecksumOffset, 8));
}

TEST(StateImageCorruption, ValidImageAttaches) {
  const auto image = valid_image();
  EXPECT_NO_THROW(StateImage::attach(image));
}

TEST(StateImageCorruption, EveryHeaderTruncationRejected) {
  const auto image = valid_image();
  // Every cut inside the header and section table, then seeded cuts
  // through the payload (a full sweep would attach ~300k times).
  std::vector<std::size_t> cuts;
  for (std::size_t cut = 0; cut < kHeaderSize + 64; ++cut) {
    cuts.push_back(cut);
  }
  util::Rng rng(2016);
  for (int i = 0; i < 400; ++i) {
    cuts.push_back(static_cast<std::size_t>(rng.bounded(image.size())));
  }
  for (const std::size_t cut : cuts) {
    std::vector<std::byte> truncated(image.begin(),
                                     image.begin() + static_cast<long>(cut));
    EXPECT_THROW(StateImage::attach(truncated), FormatError)
        << "cut at " << cut;
  }
}

TEST(StateImageCorruption, FlippedMagicAndVersionRejected) {
  for (std::size_t at = 0; at < 8; ++at) {
    auto image = valid_image();
    image[at] ^= std::byte{0x20};
    EXPECT_THROW(StateImage::attach(image), FormatError) << "byte " << at;
  }
}

TEST(StateImageCorruption, WrongTopologyFingerprintRejected) {
  // Binding to the wrong topology: caller-supplied expectation mismatch.
  const auto image = valid_image();
  const StateImage attached = StateImage::attach(image);
  const std::uint64_t fingerprint = attached.info().fingerprint;
  EXPECT_NO_THROW(StateImage::attach(image, fingerprint));
  EXPECT_THROW(StateImage::attach(image, fingerprint ^ 0x10), FormatError);

  // A flipped fingerprint *field* is caught even without an expectation:
  // the field sits inside the checksummed region.
  auto tampered = valid_image();
  tampered[kFingerprintOffset] ^= std::byte{1};
  EXPECT_THROW(StateImage::attach(tampered), FormatError);
  // ...and resealing the checksum cannot forge a binding either.
  reseal(tampered);
  EXPECT_THROW(StateImage::attach(tampered, fingerprint), FormatError);
}

TEST(StateImageCorruption, MisalignedSectionOffsetsRejected) {
  // Nudge each section's offset field off the canonical 8-byte-aligned
  // layout; reseal so the checksum gate passes and the section-table
  // validator is what rejects it.
  for (std::size_t section = 0; section < kSectionCount; ++section) {
    for (const std::uint64_t nudge :
         {std::uint64_t{4}, std::uint64_t{8}, ~std::uint64_t{0} - 6}) {
      auto image = valid_image();
      const std::size_t field = kSectionTableOffset + section * 24 + 16;
      const std::span<std::byte, 8> bytes{image.data() + field, 8};
      util::store_le64(
          util::load_le64(std::span<const std::byte, 8>(bytes)) + nudge,
          bytes);
      reseal(image);
      EXPECT_THROW(StateImage::attach(image), FormatError)
          << "section " << section << " nudge " << nudge;
    }
  }
}

TEST(StateImageCorruption, ForgedThirdLevelNodeRejected) {
  // lookup() never consults child_bits at the third node level, so a
  // node reachable as a grandchild must start slot 0 with a leaf run;
  // forge one that satisfies every per-node bound (so only the
  // depth-aware reachability rule can reject it) and reseal. Without
  // that rule, locate(240.0.0.0) would read leaves[leaf_base - 1].
  auto image = valid_image();
  const auto u64_at = [&](std::size_t offset) {
    return util::load_le64(
        std::span<const std::byte, 8>(image.data() + offset, 8));
  };
  const std::size_t root_off =
      static_cast<std::size_t>(u64_at(kSectionTableOffset + 16));
  const std::size_t nodes_off =
      static_cast<std::size_t>(u64_at(kSectionTableOffset + 24 + 16));
  const auto node_at = [&](std::uint32_t index) {
    trie::LpmIndex::Node node;
    std::memcpy(&node, image.data() + nodes_off + index * sizeof(node),
                sizeof(node));
    return node;
  };
  // Walk the 240.0.0.0/30 chain: root block 0xF000, then slot 0 twice
  // (all address bits below /16 are zero).
  const std::uint32_t word = static_cast<std::uint32_t>(
      util::load_le32(std::span<const std::byte, 4>(
          image.data() + root_off + 4 * 0xF000, 4)));
  ASSERT_NE(word & trie::LpmIndex::kNodeFlag, 0u);
  const trie::LpmIndex::Node level1 =
      node_at(word & ~trie::LpmIndex::kNodeFlag);
  ASSERT_NE(level1.child_bits & 1, 0u);
  const trie::LpmIndex::Node level2 = node_at(level1.child_base);
  ASSERT_NE(level2.child_bits & 1, 0u);
  const std::uint32_t grandchild = level2.child_base;

  trie::LpmIndex::Node forged = node_at(grandchild);
  forged.child_bits = 0x7;  // 3 children at base 0: within node bounds
  forged.leaf_bits = 0x8;   // first non-child slot (3) is covered, but
  forged.child_base = 0;    // slot 0 has no leaf run at or below it
  forged.leaf_base = 0;
  std::memcpy(image.data() + nodes_off + grandchild * sizeof(forged),
              &forged, sizeof(forged));
  reseal(image);
  EXPECT_THROW(StateImage::attach(image), FormatError);
}

TEST(StateImageCorruption, ChecksumMismatchRejected) {
  const auto pristine = valid_image();
  util::Rng rng(7);
  for (int round = 0; round < 200; ++round) {
    auto image = pristine;
    const std::size_t at =
        kChecksummedFrom +
        static_cast<std::size_t>(
            rng.bounded(image.size() - kChecksummedFrom));
    const auto flip =
        static_cast<std::byte>(1 + rng.bounded(255));
    image[at] ^= flip;
    EXPECT_THROW(StateImage::attach(image), FormatError)
        << "flip at " << at;
  }
}

TEST(StateImageCorruption, ResealedByteFlipsNeverCrash) {
  // The adversarial tier: corrupt, then forge a valid checksum. The
  // structural validators must still keep every attach memory-safe —
  // either the image loads (value corruption the structure tolerates)
  // or it throws FormatError; under ASan neither path may fault.
  const auto pristine = valid_image();
  for (const std::uint64_t seed : {101ull, 202ull, 303ull}) {
    util::Rng rng(seed);
    for (int round = 0; round < 300; ++round) {
      auto image = pristine;
      const std::size_t flips = 1 + rng.bounded(6);
      for (std::size_t i = 0; i < flips; ++i) {
        const std::size_t at =
            kChecksummedFrom +
            static_cast<std::size_t>(
                rng.bounded(image.size() - kChecksummedFrom));
        image[at] ^= static_cast<std::byte>(1 + rng.bounded(255));
      }
      reseal(image);
      try {
        const StateImage attached = StateImage::attach(image);
        // Survivors must stay safe to query across the whole space, and
        // the deep audit must itself parse-or-throw, never crash.
        for (int probe = 0; probe < 512; ++probe) {
          const net::Ipv4Address addr(
              static_cast<std::uint32_t>(rng.bounded(1ull << 32)));
          (void)attached.partition().locate(addr);
        }
        try {
          attached.verify();
        } catch (const FormatError&) {
        }
      } catch (const FormatError&) {
      }
    }
  }
}

// --- IPv6 TSIM images -------------------------------------------------
//
// The v6 image rides the same container on wider rows ("TSI6" magic,
// 24-byte prefixes, 19 node levels). The corruption contract is
// identical — parse or FormatError, never a crash — plus the
// cross-family rule: a v6 image fed to the v4 loader (and vice versa)
// fails with a typed FormatError, never a misread.

std::vector<std::byte> valid_image6() {
  std::vector<net::Ipv6Prefix> prefixes;
  for (std::uint64_t i = 0; i < 40; ++i) {
    prefixes.emplace_back(
        net::Ipv6Address(0x2001000000000000ULL | ((i + 1) << 32), 0), 36);
  }
  // Deep cells so the LPM walk has long node chains, including one past
  // the 64-bit half edge.
  prefixes.emplace_back(net::Ipv6Address(0x20ff000000000000ULL, 0), 64);
  prefixes.emplace_back(
      net::Ipv6Address(0x20fe000000000000ULL, 0xff00000000000000ULL), 72);
  bgp::PrefixPartition6 partition(std::move(prefixes));
  // One delta so the image carries a live bitmap and a free list.
  bgp::PartitionDelta6 delta;
  delta.remove.push_back(partition.prefix(3));
  delta.remove.push_back(partition.prefix(7));
  delta.add.push_back(partition.prefix(7).lower_half());
  partition.apply_delta(delta);
  std::vector<std::uint32_t> counts(partition.size(), 0);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (partition.live(i)) {
      counts[i] = static_cast<std::uint32_t>(1 + 37 * i % 211);
    }
  }
  const auto ranking =
      core::rank_by_density(counts, partition, core::PrefixMode::kMore);
  return encode_image(partition, ranking);
}

TEST(StateImage6Corruption, ValidImageAttaches) {
  const auto image = valid_image6();
  EXPECT_NO_THROW(StateImage6::attach(image));
  EXPECT_EQ(image_family(image), net::AddressFamily::kIpv6);
}

TEST(StateImage6Corruption, CrossFamilyLoadsAreTypedErrors) {
  const auto v6 = valid_image6();
  const auto v4 = valid_image();
  // Family misroutes throw FormatError with a message naming the right
  // loader — never a crash, never a silent misread.
  try {
    StateImage::attach(v6);
    FAIL() << "v4 loader accepted a v6 image";
  } catch (const FormatError& error) {
    EXPECT_NE(std::string(error.what()).find("IPv6"), std::string::npos);
  }
  try {
    StateImage6::attach(v4);
    FAIL() << "v6 loader accepted a v4 image";
  } catch (const FormatError& error) {
    EXPECT_NE(std::string(error.what()).find("IPv4"), std::string::npos);
  }
}

TEST(StateImage6Corruption, EveryHeaderTruncationRejected) {
  const auto image = valid_image6();
  std::vector<std::size_t> cuts;
  for (std::size_t cut = 0; cut < kHeaderSize + 64; ++cut) {
    cuts.push_back(cut);
  }
  util::Rng rng(2016);
  for (int i = 0; i < 400; ++i) {
    cuts.push_back(static_cast<std::size_t>(rng.bounded(image.size())));
  }
  for (const std::size_t cut : cuts) {
    std::vector<std::byte> truncated(image.begin(),
                                     image.begin() + static_cast<long>(cut));
    EXPECT_THROW(StateImage6::attach(truncated), FormatError)
        << "cut at " << cut;
  }
}

TEST(StateImage6Corruption, FlippedMagicAndVersionRejected) {
  for (std::size_t at = 0; at < 8; ++at) {
    auto image = valid_image6();
    image[at] ^= std::byte{0x20};
    EXPECT_THROW(StateImage6::attach(image), FormatError) << "byte " << at;
  }
  // A forged family field (mode word byte 1) must not survive either,
  // even with a resealed checksum: the magic and the field must agree.
  auto forged = valid_image6();
  forged[25] = std::byte{4};
  reseal(forged);
  EXPECT_THROW(StateImage6::attach(forged), FormatError);
}

TEST(StateImage6Corruption, ResealedByteFlipsNeverCrash) {
  const auto pristine = valid_image6();
  for (const std::uint64_t seed : {404ull, 505ull, 606ull}) {
    util::Rng rng(seed);
    for (int round = 0; round < 300; ++round) {
      auto image = pristine;
      const std::size_t flips = 1 + rng.bounded(6);
      for (std::size_t i = 0; i < flips; ++i) {
        const std::size_t at =
            kChecksummedFrom +
            static_cast<std::size_t>(
                rng.bounded(image.size() - kChecksummedFrom));
        image[at] ^= static_cast<std::byte>(1 + rng.bounded(255));
      }
      reseal(image);
      try {
        const StateImage6 attached = StateImage6::attach(image);
        // Survivors must stay safe to query across the whole space, and
        // the deep audit must itself parse-or-throw, never crash.
        for (int probe = 0; probe < 512; ++probe) {
          const net::Ipv6Address addr(rng(), rng());
          (void)attached.partition().locate(addr);
        }
        try {
          attached.verify();
        } catch (const FormatError&) {
        }
      } catch (const FormatError&) {
      }
    }
  }
}

}  // namespace
}  // namespace tass::state

// --- Streaming MRT framer --------------------------------------------
//
// The framer sits in front of decode_mrt_updates on the live feed path,
// so it inherits the parser corruption contract and adds its own: for
// arbitrary feed bytes, arbitrarily fragmented, it never throws and
// never crashes (the sanitizer job enforces memory safety), every byte
// is accounted (decoded, discarded, or truncated tail), and whatever
// records survive decode are structurally sane.

#include "stream/framer.hpp"

namespace tass::stream {
namespace {

std::vector<std::byte> valid_update_stream() {
  bgp::RibDelta first;
  first.announce = {
      {net::Prefix::parse_or_throw("198.18.0.0/15"), {600, 601}},
      {net::Prefix::parse_or_throw("198.51.100.0/24"), {500}},
  };
  first.withdraw = {net::Prefix::parse_or_throw("172.16.0.0/12"),
                    net::Prefix::parse_or_throw("192.0.2.0/24")};
  auto bytes = bgp::encode_mrt_updates(first, 1441584000);
  bgp::RibDelta second;
  second.withdraw = {net::Prefix::parse_or_throw("10.64.0.0/10")};
  const auto more = bgp::encode_mrt_updates(second, 1441584001);
  bytes.insert(bytes.end(), more.begin(), more.end());
  return bytes;
}

/// Pushes `wire` through a framer in seeded random fragments, draining
/// after every push; returns the number of surfaced records after
/// verifying each one is structurally sane.
std::size_t replay_fragmented(MrtFramer& framer,
                              std::span<const std::byte> wire,
                              util::Rng& rng) {
  std::size_t surfaced = 0;
  std::size_t offset = 0;
  while (offset < wire.size()) {
    const std::size_t take = std::min<std::size_t>(
        wire.size() - offset, 1 + rng.bounded(53));
    framer.push(wire.subspan(offset, take));
    while (auto delta = framer.next()) {
      for (const auto& record : delta->announce) {
        EXPECT_LE(record.prefix.length(), 32);
        EXPECT_FALSE(record.origins.empty());
      }
      ++surfaced;
    }
    offset += take;
  }
  return surfaced;
}

TEST(StreamFramerCorruption, PureRandomBytesNeverCrash) {
  for (const std::uint64_t seed : {61ull, 62ull, 63ull}) {
    util::Rng rng(seed);
    for (int round = 0; round < 50; ++round) {
      std::vector<std::byte> garbage(64 + rng.bounded(4096));
      for (std::byte& b : garbage) {
        b = static_cast<std::byte>(rng.bounded(256));
      }
      MrtFramer framer;
      replay_fragmented(framer, garbage, rng);
      framer.finish();
      // Every byte is accounted for, none is read out of bounds.
      EXPECT_EQ(framer.stats().bytes_in, garbage.size());
    }
  }
}

TEST(StreamFramerCorruption, SeededCutsAndFlipsNeverCrash) {
  const auto pristine = valid_update_stream();
  for (const std::uint64_t seed : {71ull, 72ull, 73ull, 74ull}) {
    util::Rng rng(seed);
    for (int round = 0; round < 150; ++round) {
      // Random cut plus flips near the cut — an interrupted transfer
      // with line noise, fed through fragmented reads.
      const auto cut =
          static_cast<std::size_t>(rng.bounded(pristine.size() + 1));
      std::vector<std::byte> wire(pristine.begin(),
                                  pristine.begin() +
                                      static_cast<std::ptrdiff_t>(cut));
      if (!wire.empty()) {
        const std::size_t flips = 1 + rng.bounded(4);
        for (std::size_t i = 0; i < flips; ++i) {
          const auto pos =
              static_cast<std::size_t>(rng.bounded(wire.size()));
          wire[pos] = static_cast<std::byte>(rng.bounded(256));
        }
      }
      MrtFramer framer;
      const std::size_t surfaced = replay_fragmented(framer, wire, rng);
      framer.finish();
      EXPECT_EQ(framer.stats().records, surfaced);
      EXPECT_EQ(framer.stats().bytes_in, wire.size());
    }
  }
}

TEST(StreamFramerCorruption, EveryTruncationOfValidStreamIsClean) {
  const auto wire = valid_update_stream();
  for (std::size_t cut = 0; cut <= wire.size(); ++cut) {
    MrtFramer framer;
    framer.push(std::span(wire.data(), cut));
    while (framer.next()) {
    }
    framer.finish();
    // A clean truncation is a truncated tail, never a decode error.
    EXPECT_EQ(framer.stats().decode_errors, 0u) << "cut " << cut;
    EXPECT_EQ(framer.stats().resyncs, 0u) << "cut " << cut;
  }
}

}  // namespace
}  // namespace tass::stream

// --- IPv6 text ---------------------------------------------------------
//
// Ipv6Address::parse is a single table-driven pass. Its reference here
// is the split-based grammar it replaced, kept test-local: split the
// text at its one "::", split each side on ':', parse 1-4 hex digits
// per group and a dotted quad only as the very last token. The two must
// agree on accept/reject and on the value for every mutated input. The
// hitlist and pfx2as6 documents built on it must parse or throw
// ParseError under truncation and byte flips.

#include <array>
#include <cstdio>
#include <optional>
#include <string_view>

#include "census/hitlist6.hpp"
#include "net/ipv4.hpp"
#include "net/ipv6.hpp"

namespace tass::net {
namespace {

std::vector<std::string_view> reference_split(std::string_view text,
                                              char delimiter) {
  std::vector<std::string_view> fields;
  std::size_t begin = 0;
  while (true) {
    const std::size_t end = text.find(delimiter, begin);
    if (end == std::string_view::npos) {
      fields.push_back(text.substr(begin));
      return fields;
    }
    fields.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
}

std::optional<std::uint16_t> reference_group(std::string_view text) {
  if (text.empty() || text.size() > 4) return std::nullopt;
  std::uint32_t value = 0;
  for (const char c : text) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<std::uint32_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      value |= static_cast<std::uint32_t>(c - 'A' + 10);
    } else {
      return std::nullopt;
    }
  }
  return static_cast<std::uint16_t>(value);
}

bool reference_group_run(std::string_view text,
                         std::vector<std::uint16_t>& groups) {
  if (text.empty()) return true;
  const auto tokens = reference_split(text, ':');
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].find('.') != std::string_view::npos) {
      if (i + 1 != tokens.size()) return false;
      const auto v4 = Ipv4Address::parse(tokens[i]);
      if (!v4) return false;
      groups.push_back(static_cast<std::uint16_t>(v4->value() >> 16));
      groups.push_back(static_cast<std::uint16_t>(v4->value() & 0xffff));
      continue;
    }
    const auto group = reference_group(tokens[i]);
    if (!group) return false;
    groups.push_back(*group);
  }
  return true;
}

std::optional<Ipv6Address> reference_parse(std::string_view text) {
  const std::size_t gap = text.find("::");
  std::vector<std::uint16_t> head;
  std::vector<std::uint16_t> tail;
  if (gap == std::string_view::npos) {
    if (!reference_group_run(text, head) || head.size() != 8) {
      return std::nullopt;
    }
  } else {
    if (text.find("::", gap + 1) != std::string_view::npos) {
      return std::nullopt;
    }
    if (text.substr(0, gap).find('.') != std::string_view::npos) {
      return std::nullopt;
    }
    if (!reference_group_run(text.substr(0, gap), head) ||
        !reference_group_run(text.substr(gap + 2), tail) ||
        head.size() + tail.size() > 7) {
      return std::nullopt;
    }
  }
  std::array<std::uint16_t, 8> groups{};
  for (std::size_t i = 0; i < head.size(); ++i) groups[i] = head[i];
  for (std::size_t i = 0; i < tail.size(); ++i) {
    groups[8 - tail.size() + i] = tail[i];
  }
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    hi = (hi << 16) | groups[i];
    lo = (lo << 16) | groups[i + 4];
  }
  return Ipv6Address(hi, lo);
}

constexpr std::string_view kMutationAlphabet = "0123456789abcdefABCDEF:. g/";

// A random address in one of the text forms the parser must accept:
// RFC 5952 canonical, full-length zero-padded upper case, or with a
// trailing dotted quad.
std::string random_address_text(util::Rng& rng) {
  std::array<std::uint16_t, 8> groups{};
  for (std::uint16_t& group : groups) {
    // Zero groups are common so "::" runs of every length appear.
    group = rng.bounded(3) == 0
                ? 0
                : static_cast<std::uint16_t>(rng.bounded(0x10000));
  }
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    hi = (hi << 16) | groups[i];
    lo = (lo << 16) | groups[i + 4];
  }
  char buffer[64];
  switch (rng.bounded(3)) {
    case 0:
      return Ipv6Address(hi, lo).to_string();
    case 1:
      std::snprintf(buffer, sizeof(buffer),
                    "%04X:%04X:%04X:%04X:%04X:%04X:%04X:%04X", groups[0],
                    groups[1], groups[2], groups[3], groups[4], groups[5],
                    groups[6], groups[7]);
      return buffer;
    default:
      std::snprintf(buffer, sizeof(buffer), "%x:%x:%x:%x:%x:%x:%u.%u.%u.%u",
                    groups[0], groups[1], groups[2], groups[3], groups[4],
                    groups[5], groups[6] >> 8, groups[6] & 0xff,
                    groups[7] >> 8, groups[7] & 0xff);
      return buffer;
  }
}

// One to four insertions, deletions or substitutions drawn from the
// characters the grammar cares about plus a few it must reject.
void mutate(std::string& text, util::Rng& rng) {
  const std::size_t edits = 1 + rng.bounded(4);
  for (std::size_t e = 0; e < edits; ++e) {
    const char c = kMutationAlphabet[rng.bounded(kMutationAlphabet.size())];
    const auto kind = rng.bounded(3);
    if (kind == 0 || text.empty()) {
      text.insert(text.begin() + static_cast<std::ptrdiff_t>(
                                     rng.bounded(text.size() + 1)),
                  c);
    } else if (kind == 1) {
      text.erase(rng.bounded(text.size()), 1);
    } else {
      text[rng.bounded(text.size())] = c;
    }
  }
}

TEST(Ipv6TextCorruption, AgreesWithSplitGrammarOnSeededMutations) {
  const std::vector<std::string> edge_forms = {
      "::",
      "::1",
      "1::",
      "1:2:3:4:5:6:7::",
      "::ffff:1.2.3.4",
      "1:2:3:4:5:6:1.2.3.4",
      "fe80::1:2.3.4.5",
      "12345::1",                // 5-digit group
      "1:2:3:4:5:6:7:fffff",     // 5-digit group at the end
      "1.2.3.4::1",              // '.' before "::"
      "1:2.3.4.5::",             // '.' before a trailing "::"
      "1:2:3:4:5:6:7:8",
      "::1:2:3:4:5:6:7",
  };
  constexpr std::size_t kMutations = std::size_t{1} << 20;
  util::Rng rng(0x1b6);
  std::size_t accepted = 0;
  std::size_t disagreements = 0;
  for (std::size_t round = 0; round < kMutations; ++round) {
    std::string text = rng.bounded(2) == 0
                           ? edge_forms[rng.bounded(edge_forms.size())]
                           : random_address_text(rng);
    mutate(text, rng);
    const auto expected = reference_parse(text);
    const auto got = Ipv6Address::parse(text);
    if (got != expected) {
      if (++disagreements <= 10) {
        ADD_FAILURE() << "'" << text << "': parse "
                      << (got ? got->to_string() : "rejects")
                      << ", reference "
                      << (expected ? expected->to_string() : "rejects");
      }
    }
    if (expected) ++accepted;
  }
  EXPECT_EQ(disagreements, 0u);
  // The mutations must exercise both outcomes, not only one of them.
  EXPECT_GT(accepted, kMutations / 20);
  EXPECT_LT(accepted, kMutations - kMutations / 20);
}

TEST(Ipv6TextCorruption, UnmutatedFormsAgreeWithSplitGrammar) {
  util::Rng rng(0x6a7);
  for (int round = 0; round < 10000; ++round) {
    const std::string text = random_address_text(rng);
    const auto expected = reference_parse(text);
    ASSERT_TRUE(expected.has_value()) << text;
    EXPECT_EQ(Ipv6Address::parse(text), expected) << text;
  }
}

std::string valid_hitlist6_document() {
  return
      "# seed hitlist\n"
      "2001:db8::1\n"
      "\n"
      "2001:DB8:0:0:0:0:0:2\r\n"
      "  fe80::1:2.3.4.5  \n"
      "::ffff:192.0.2.1\n"
      "2a00:1450:4001:80b::200e";
}

std::string valid_pfx2as6_document() {
  return
      "# v6 table\n"
      "2001:db8::\t32\t64500\n"
      "2001:db8:8000::\t33\t64501,64502\n"
      "2a00:1450::\t29\t15169_64503\r\n"
      "::ffff:0.0.0.0\t96\t1\n";
}

// Strict parsing may only fail with ParseError; lenient parsing never
// fails, and whatever either accepts is structurally sane.
template <typename Parse>
void expect_parses_or_rejects(std::string_view text, Parse&& parse) {
  try {
    parse(text, /*strict=*/true, nullptr);
  } catch (const ParseError&) {
  }
  std::size_t skipped = 0;
  EXPECT_NO_THROW(parse(text, /*strict=*/false, &skipped));
}

template <typename Parse>
void truncate_and_flip(const std::string& document, Parse&& parse) {
  for (std::size_t cut = 0; cut <= document.size(); ++cut) {
    expect_parses_or_rejects(std::string_view(document.data(), cut), parse);
  }
  for (const std::uint64_t seed : {3ull, 5ull, 7ull, 9ull, 13ull}) {
    util::Rng rng(seed);
    for (int round = 0; round < 400; ++round) {
      std::string mutated = document;
      const std::size_t flips = 1 + rng.bounded(8);
      for (std::size_t i = 0; i < flips; ++i) {
        mutated[rng.bounded(mutated.size())] =
            static_cast<char>(rng.bounded(256));
      }
      expect_parses_or_rejects(mutated, parse);
    }
  }
}

TEST(Ipv6TextCorruption, HitlistTruncationsAndByteFlipsParseOrThrow) {
  const std::string document = valid_hitlist6_document();
  ASSERT_EQ(census::parse_hitlist6(document).size(), 5u);
  truncate_and_flip(document, [](std::string_view text, bool strict,
                                 std::size_t* skipped) {
    return census::parse_hitlist6(text, strict, skipped);
  });
}

TEST(Ipv6TextCorruption, Pfx2As6TruncationsAndByteFlipsParseOrThrow) {
  const std::string document = valid_pfx2as6_document();
  ASSERT_EQ(bgp::parse_pfx2as6(document).size(), 4u);
  truncate_and_flip(document, [](std::string_view text, bool strict,
                                 std::size_t* skipped) {
    const auto records = bgp::parse_pfx2as6(text, strict, skipped);
    for (const auto& record : records) {
      EXPECT_LE(record.prefix.length(), 128);
      EXPECT_FALSE(record.origins.empty());
    }
    return records;
  });
}

}  // namespace
}  // namespace tass::net

// ---- tass_serve wire requests -----------------------------------------
//
// The daemon's input boundary is one request frame. For every Op the
// suite feeds an in-process daemon each truncation of a well-formed
// request, count overclaims, out-of-range floating-point parameters,
// unknown ops and families, and seeded byte flips. Malformed requests
// must be answered with a well-formed error frame; flipped requests may
// also happen to stay well-formed, so those only have to get a
// well-formed response. Either way the same connection must keep
// serving the next well-formed request — the daemon never aborts and
// never drops the peer on client input.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <thread>

#include "serve/server.hpp"
#include "serve/wire.hpp"

namespace tass::serve {
namespace {

std::string write_temp(const std::string& stem,
                       const std::vector<std::byte>& bytes) {
  const std::string path = ::testing::TempDir() + stem + "." +
                           std::to_string(static_cast<long>(::getpid()));
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return path;
}

// One blocking loopback connection exchanging raw frames, with a receive
// timeout so a daemon that stopped answering fails the test instead of
// hanging it.
class RawConnection {
 public:
  explicit RawConnection(std::uint16_t port)
      : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) throw Error("socket failed");
    timeval timeout{10, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd_);
      throw Error("connect failed");
    }
  }
  ~RawConnection() { ::close(fd_); }
  RawConnection(const RawConnection&) = delete;
  RawConnection& operator=(const RawConnection&) = delete;

  // Sends one framed payload and returns the header of the one response
  // frame it gets back; throws if the peer closes or the frame is
  // malformed.
  ResponseHeader roundtrip(std::span<const std::uint8_t> payload) {
    const auto framed = frame(payload);
    for (std::size_t sent = 0; sent < framed.size();) {
      const ssize_t n = ::send(fd_, framed.data() + sent,
                               framed.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) throw Error("send failed");
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      std::size_t offset = 0;
      if (const auto response =
              next_frame(std::span<const std::uint8_t>(in_), offset)) {
        Cursor cursor(*response);
        const ResponseHeader header = decode_response_header(cursor);
        in_.erase(in_.begin(),
                  in_.begin() + static_cast<std::ptrdiff_t>(offset));
        return header;
      }
      std::uint8_t buf[16384];
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n <= 0) throw Error("daemon closed the connection or timed out");
      in_.insert(in_.end(), buf, buf + n);
    }
  }

 private:
  int fd_;
  std::vector<std::uint8_t> in_;
};

std::vector<std::uint8_t> request(Op op, net::AddressFamily family,
                                  std::uint32_t count) {
  RequestHeader header;
  header.op = op;
  header.family = family;
  header.request_id = 77;
  header.count = count;
  std::vector<std::uint8_t> out;
  encode_request_header(out, header);
  return out;
}

std::vector<std::uint8_t> plan_request(net::AddressFamily family,
                                       const PlanParams& params) {
  auto out = request(Op::kPlan, family, 0);
  encode_plan_params(out, params);
  return out;
}

std::vector<std::uint8_t> sample_request(net::AddressFamily family,
                                         const SampleParams& params) {
  auto out = request(Op::kSample, family, 0);
  encode_sample_params(out, params);
  return out;
}

std::vector<std::uint8_t> reduce_request(net::AddressFamily family,
                                         const ReduceParams& params) {
  auto out = request(Op::kReduce, family, 0);
  encode_reduce_params(out, params);
  return out;
}

// A batch request (kLocate/kTally) of `n` addresses in the family's
// width, announcing `count` of them.
std::vector<std::uint8_t> batch_request(Op op, net::AddressFamily family,
                                        std::uint32_t n,
                                        std::uint32_t count) {
  auto out = request(op, family, count);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (family == net::AddressFamily::kIpv4) {
      put_address(out, ((i + 1) << 24) | (i * 7919u));
    } else {
      put_address(out, net::Ipv6Address(
                           0x2001000000000000ULL | ((i + 1ULL) << 32), i));
    }
  }
  return out;
}

class ServeWireCorruption : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    v4_path_ = new std::string(
        write_temp("serve_wire_fuzz.tsim", state::valid_image()));
    v6_path_ = new std::string(
        write_temp("serve_wire_fuzz.tsi6", state::valid_image6()));
    ServerOptions options;
    options.v4_image_path = *v4_path_;
    options.v6_image_path = *v6_path_;
    options.threads = 2;
    server_ = new Server(std::move(options));
    thread_ = new std::thread([] { server_->run(); });
  }
  static void TearDownTestSuite() {
    server_->stop();
    thread_->join();
    delete thread_;
    delete server_;
    std::remove(v4_path_->c_str());
    std::remove(v6_path_->c_str());
    delete v4_path_;
    delete v6_path_;
  }

  void SetUp() override {
    connection_ = std::make_unique<RawConnection>(server_->port());
  }

  // One well-formed request per Op and family, kShutdown last (its
  // well-formed form stops the daemon, so only its corruptions are fed).
  static std::vector<std::vector<std::uint8_t>> templates() {
    std::vector<std::vector<std::uint8_t>> out;
    out.push_back(request(Op::kPing, net::AddressFamily::kIpv4, 0));
    out.push_back(request(Op::kStats, net::AddressFamily::kIpv4, 0));
    for (const auto family :
         {net::AddressFamily::kIpv4, net::AddressFamily::kIpv6}) {
      out.push_back(request(Op::kInfo, family, 0));
      out.push_back(request(Op::kRank, family, 5));
      PlanParams plan;
      plan.phi = 0.8;
      plan.max_addresses = 1u << 30;
      out.push_back(plan_request(family, plan));
      out.push_back(batch_request(Op::kLocate, family, 6, 6));
      out.push_back(batch_request(Op::kTally, family, 6, 6));
      SampleParams sample;
      sample.budget = 500;
      sample.floor = 4;
      sample.phi = 0.9;
      out.push_back(sample_request(family, sample));
      ReduceParams reduce;
      reduce.phi = 0.9;
      reduce.max_overshoot = 0.1;
      out.push_back(reduce_request(family, reduce));
    }
    // Reload of the image being served (the path is the body).
    auto reload = request(Op::kReload, net::AddressFamily::kIpv4,
                          static_cast<std::uint32_t>(v4_path_->size()));
    reload.insert(reload.end(), v4_path_->begin(), v4_path_->end());
    out.push_back(std::move(reload));
    out.push_back(request(Op::kShutdown, net::AddressFamily::kIpv4, 0));
    return out;
  }

  // The daemon still answers a well-formed request on this connection.
  void expect_still_serving() {
    const auto ping = request(Op::kPing, net::AddressFamily::kIpv4, 0);
    const ResponseHeader header = connection_->roundtrip(ping);
    EXPECT_EQ(header.status, Status::kOk);
    EXPECT_EQ(header.request_id, 77u);
  }

  void expect_error_frame(std::span<const std::uint8_t> payload,
                          const std::string& what) {
    EXPECT_EQ(connection_->roundtrip(payload).status, Status::kError)
        << what;
    expect_still_serving();
  }

  static std::string* v4_path_;
  static std::string* v6_path_;
  static Server* server_;
  static std::thread* thread_;
  std::unique_ptr<RawConnection> connection_;
};

std::string* ServeWireCorruption::v4_path_ = nullptr;
std::string* ServeWireCorruption::v6_path_ = nullptr;
Server* ServeWireCorruption::server_ = nullptr;
std::thread* ServeWireCorruption::thread_ = nullptr;

TEST_F(ServeWireCorruption, WellFormedTemplatesAreServed) {
  auto requests = templates();
  requests.pop_back();  // kShutdown
  for (const auto& payload : requests) {
    EXPECT_NE(connection_->roundtrip(payload).status, Status::kError)
        << "op " << static_cast<int>(payload[0]);
  }
}

TEST_F(ServeWireCorruption, EveryTruncationIsAnErrorFrame) {
  for (const auto& payload : templates()) {
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      expect_error_frame(std::span(payload).first(cut),
                         "op " + std::to_string(payload[0]) + " cut at " +
                             std::to_string(cut));
    }
  }
}

TEST_F(ServeWireCorruption, CountOverclaimsAreErrorFrames) {
  for (const auto family :
       {net::AddressFamily::kIpv4, net::AddressFamily::kIpv6}) {
    for (const Op op : {Op::kLocate, Op::kTally}) {
      for (const std::uint32_t count : {7u, 1000u, 0xFFFFFFFFu}) {
        expect_error_frame(batch_request(op, family, 6, count),
                           "batch count " + std::to_string(count));
      }
    }
  }
  auto reload = request(Op::kReload, net::AddressFamily::kIpv4, 64);
  reload.push_back('x');
  expect_error_frame(reload, "reload path overclaim");
}

TEST_F(ServeWireCorruption, NonFiniteAndOutOfRangeParametersAreErrorFrames) {
  const double inf = std::numeric_limits<double>::infinity();
  const double bad_phis[] = {std::nan(""), inf, -inf, -0.5, 0.0, 1.5};
  for (const auto family :
       {net::AddressFamily::kIpv4, net::AddressFamily::kIpv6}) {
    for (const double phi : bad_phis) {
      const std::string what = "phi " + std::to_string(phi);
      PlanParams plan;
      plan.phi = phi;
      expect_error_frame(plan_request(family, plan), "plan " + what);
      SampleParams sample;
      sample.phi = phi;
      expect_error_frame(sample_request(family, sample), "sample " + what);
      ReduceParams reduce;
      reduce.phi = phi;
      expect_error_frame(reduce_request(family, reduce), "reduce " + what);
    }
    for (const double overshoot : {std::nan(""), inf, -inf, -0.1}) {
      ReduceParams reduce;
      reduce.max_overshoot = overshoot;
      expect_error_frame(reduce_request(family, reduce),
                         "max_overshoot " + std::to_string(overshoot));
    }
  }
}

TEST_F(ServeWireCorruption, UnknownOpsFamiliesAndReservedBitsAreErrorFrames) {
  for (const auto& payload : templates()) {
    for (const std::uint8_t op : {0, 12, 100, 255}) {
      auto mutated = payload;
      mutated[0] = op;
      expect_error_frame(mutated, "op byte " + std::to_string(op));
    }
    for (const std::uint8_t family : {1, 5, 7, 255}) {
      auto mutated = payload;
      mutated[1] = family;
      expect_error_frame(mutated, "family byte " + std::to_string(family));
    }
    auto reserved = payload;
    reserved[3] = 1;
    expect_error_frame(reserved, "reserved field");
  }
}

TEST_F(ServeWireCorruption, SeededByteFlipsGetWellFormedResponses) {
  auto requests = templates();
  requests.pop_back();  // a flip must never be able to stop the daemon
  util::Rng rng(2024);
  for (const auto& payload : requests) {
    for (int round = 0; round < 150; ++round) {
      auto mutated = payload;
      const std::size_t flips = 1 + rng.bounded(3);
      for (std::size_t i = 0; i < flips; ++i) {
        mutated[rng.bounded(mutated.size())] ^=
            static_cast<std::uint8_t>(1 + rng.bounded(255));
      }
      if (mutated[0] == static_cast<std::uint8_t>(Op::kShutdown) ||
          mutated[0] == static_cast<std::uint8_t>(Op::kReload)) {
        continue;  // control ops: stopping or reloading is not on trial
      }
      ResponseHeader header;
      ASSERT_NO_THROW(header = connection_->roundtrip(mutated))
          << "op " << static_cast<int>(payload[0]) << " round " << round;
      expect_still_serving();
    }
  }
}

}  // namespace
}  // namespace tass::serve
