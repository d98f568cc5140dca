// Randomized differential test for the LPM substrate.
//
// Three implementations answer the same longest-prefix-match question:
//   * trie::LpmIndex           — the flat production engine under test;
//   * bench::NaiveLpmOracle    — exact-match hash maps per announced
//                                length, probed longest first;
//   * a naive linear scan      — the obviously-correct oracle.
// Seeded generators build adversarial prefix tables (adjacent /32 runs,
// nested /8 -> /30 chains, RIB-shaped samples) and the three are compared
// on the space's edges (0.0.0.0, 255.255.255.255), every prefix boundary
// +/- 1, and a large stream of random addresses. Across the seeds the
// suite resolves well over a million lookups (the linear scan is skipped
// on the RIB-scale tables where it would dominate the runtime; the
// per-length oracle's equivalence to it is established on the smaller
// tables first).
#include "trie/lpm_index.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "../bench/lpm_oracle.hpp"
#include "trie/lpm_index6.hpp"
#include "trie/lpm_kernels.hpp"
#include "util/cpu.hpp"
#include "util/rng.hpp"

namespace tass::trie {
namespace {

using Entry = LpmIndex::Entry;

// Longest match by exhaustive scan; later entries win ties so duplicate
// prefixes follow the same last-wins rule as the index.
template <class Family>
std::uint32_t naive_lookup(
    const std::vector<typename BasicLpmIndex<Family>::Entry>& table,
    typename Family::Address addr) {
  int best_length = -1;
  std::uint32_t best = BasicLpmIndex<Family>::kNoMatch;
  for (const auto& entry : table) {
    if (entry.prefix.contains(addr) && entry.prefix.length() >= best_length) {
      best_length = entry.prefix.length();
      best = entry.value;
    }
  }
  return best;
}

// `key` moved one address of a `bits`-wide family up or down, carrying
// across the 64-bit halves. Callers never step past the space's edges.
net::AddressKey step(net::AddressKey key, int bits, bool up) {
  if (bits <= 64) {
    const std::uint64_t unit = 1ULL << (64 - bits);
    key.hi = up ? key.hi + unit : key.hi - unit;
  } else if (up) {
    key.hi += ++key.lo == 0 ? 1 : 0;
  } else {
    key.hi -= key.lo-- == 0 ? 1 : 0;
  }
  return key;
}

template <class Family>
typename Family::AddressWord word_of(net::AddressKey key) {
  const auto address = Family::make_prefix(key, Family::kBits).network();
  if constexpr (Family::kBits == 32) {
    return address.value();
  } else {
    return address;
  }
}

// Cross-checks the index, the per-length oracle and (optionally) the
// linear scan on the space's edges, every prefix boundary +/- 1, and
// `random_lookups` random addresses: half are host addresses under a
// random table prefix, so deep levels resolve, half are uniform. Returns
// how many lookups were verified.
template <class Family>
std::size_t verify_table(
    const std::vector<typename BasicLpmIndex<Family>::Entry>& table,
    std::uint64_t seed, std::size_t random_lookups, bool check_naive) {
  const BasicLpmIndex<Family> index(table);
  const bench::NaiveLpmOracle<Family> oracle(table);

  const net::AddressKey top = Family::last_key(typename Family::Prefix());
  std::vector<typename Family::AddressWord> addresses = {
      word_of<Family>({}), word_of<Family>(top)};
  for (const auto& entry : table) {
    const net::AddressKey first = Family::first_key(entry.prefix);
    const net::AddressKey last = Family::last_key(entry.prefix);
    addresses.push_back(word_of<Family>(first));
    addresses.push_back(word_of<Family>(last));
    if (first != net::AddressKey{}) {
      addresses.push_back(word_of<Family>(step(first, Family::kBits, false)));
    }
    if (last != top) {
      addresses.push_back(word_of<Family>(step(last, Family::kBits, true)));
    }
  }
  util::Rng rng(util::mix64(seed, 0xADD2E55ULL));
  for (std::size_t i = 0; i < random_lookups; ++i) {
    net::AddressKey key{rng(), rng()};
    if ((i & 1) == 0 && !table.empty()) {
      const auto prefix = table[rng.bounded(table.size())].prefix;
      const net::AddressKey first = Family::first_key(prefix);
      const net::AddressKey last = Family::last_key(prefix);
      key = {first.hi | (key.hi & (first.hi ^ last.hi)),
             first.lo | (key.lo & (first.lo ^ last.lo))};
    }
    addresses.push_back(word_of<Family>(key));
  }

  // Batched and scalar paths must agree with each other as well.
  const std::vector<std::uint32_t> batched = index.lookup_many(addresses);

  // Every registered kernel tier must be bit-identical to the default
  // batch. Where a tier cannot run (v4 without AVX2) its slot holds the
  // scalar fallback, so the sweep degenerates gracefully.
  std::vector<std::uint32_t> tier(addresses.size());
  for (const auto level :
       {util::cpu::SimdLevel::kScalar, util::cpu::SimdLevel::kAvx2}) {
    index.lookup_many(addresses, tier, level);
    for (std::size_t i = 0; i < addresses.size(); ++i) {
      if (tier[i] == batched[i]) continue;
      ADD_FAILURE() << lpm_kernel_table<Family>(level).name
                    << " kernel diverges at "
                    << Family::word_address(addresses[i]).to_string()
                    << " seed=" << seed;
      return addresses.size();
    }
  }

  for (std::size_t i = 0; i < addresses.size(); ++i) {
    const auto addr = Family::word_address(addresses[i]);
    const std::uint32_t got = index.lookup(addr);
    EXPECT_EQ(got, batched[i]) << "batched/scalar split at "
                               << addr.to_string() << " seed=" << seed;
    EXPECT_EQ(got, oracle.lookup(addr))
        << "index vs per-length oracle at " << addr.to_string()
        << " seed=" << seed;
    if (check_naive) {
      EXPECT_EQ(got, naive_lookup<Family>(table, addr))
          << "index vs linear scan at " << addr.to_string()
          << " seed=" << seed;
    }
    // One detailed mismatch is enough; don't flood the log.
    if (::testing::Test::HasFailure()) return addresses.size();
  }
  return addresses.size();
}

// --- seeded table generators -----------------------------------------

// Runs of adjacent /32s (the worst case for stride compression), with a
// few covering prefixes so matches fall through between the runs.
std::vector<Entry> adjacent_slash32_table(std::uint64_t seed) {
  util::Rng rng(util::mix64(seed, 1));
  std::vector<Entry> table;
  std::uint32_t value = 0;
  for (int run = 0; run < 24; ++run) {
    const auto base = static_cast<std::uint32_t>(rng.bounded(1ULL << 32));
    const auto length = 1 + rng.bounded(64);  // runs cross /26 slot edges
    for (std::uint64_t i = 0; i < length; ++i) {
      const std::uint64_t addr = base + i;
      if (addr > 0xffffffffULL) break;
      table.push_back({net::Prefix(net::Ipv4Address(
                           static_cast<std::uint32_t>(addr)), 32),
                       value++});
    }
    // Cover roughly half the runs with a shorter prefix underneath.
    if (rng.chance(0.5)) {
      const int cover_len = 8 + static_cast<int>(rng.bounded(17));
      table.push_back(
          {net::Prefix(net::Ipv4Address(base), cover_len), value++});
    }
  }
  return table;
}

// Nested chains: /8, /9, ..., /30 all stacked on the same branch, the
// deepest-possible LPM decision at every level.
std::vector<Entry> nested_chain_table(std::uint64_t seed) {
  util::Rng rng(util::mix64(seed, 2));
  std::vector<Entry> table;
  std::uint32_t value = 0;
  for (int chain = 0; chain < 8; ++chain) {
    const auto base = static_cast<std::uint32_t>(rng.bounded(1ULL << 32));
    for (int length = 8; length <= 30; ++length) {
      // Walk a random branch: keep the prefix bits, randomise the rest.
      const std::uint32_t jitter =
          static_cast<std::uint32_t>(rng.bounded(1ULL << 32)) &
          ~net::Prefix::mask(length);
      table.push_back(
          {net::Prefix(net::Ipv4Address(base | jitter), length), value++});
    }
  }
  return table;
}

// RIB-shaped: lengths concentrated on /16../24 like a real BGP table, a
// sprinkling of short covers and long more-specifics, plus duplicates.
std::vector<Entry> rib_sample_table(std::uint64_t seed, std::size_t count) {
  util::Rng rng(util::mix64(seed, 3));
  std::vector<Entry> table;
  table.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double roll = rng.uniform();
    int length;
    if (roll < 0.04) {
      length = 8 + static_cast<int>(rng.bounded(7));  // /8../14 covers
    } else if (roll < 0.50) {
      length = 15 + static_cast<int>(rng.bounded(7));  // /15../21
    } else if (roll < 0.97) {
      length = 22 + static_cast<int>(rng.bounded(3));  // /22../24 bulk
    } else {
      length = 25 + static_cast<int>(rng.bounded(8));  // rare long tails
    }
    const auto network = static_cast<std::uint32_t>(rng.bounded(1ULL << 32));
    table.push_back({net::Prefix(net::Ipv4Address(network), length),
                     static_cast<std::uint32_t>(i)});
  }
  // Re-announce a handful of prefixes with new values: last must win.
  for (int i = 0; i < 32 && !table.empty(); ++i) {
    const auto pick = static_cast<std::size_t>(rng.bounded(table.size()));
    table.push_back({table[pick].prefix,
                     static_cast<std::uint32_t>(count + static_cast<std::size_t>(i))});
  }
  return table;
}

constexpr std::uint64_t kSeeds[] = {1, 2, 2016, 0xDEADBEEF, 0x5EED5EED,
                                    424242};

TEST(LpmDifferential, AdjacentSlash32RunsAgainstOracles) {
  std::size_t verified = 0;
  for (const std::uint64_t seed : kSeeds) {
    verified += verify_table<net::Ipv4Family>(adjacent_slash32_table(seed),
                                              seed, 20'000, true);
  }
  EXPECT_GE(verified, 120'000u);
}

TEST(LpmDifferential, NestedChainsAgainstOracles) {
  std::size_t verified = 0;
  for (const std::uint64_t seed : kSeeds) {
    verified += verify_table<net::Ipv4Family>(nested_chain_table(seed), seed,
                                              20'000, true);
  }
  EXPECT_GE(verified, 120'000u);
}

TEST(LpmDifferential, SmallRibSamplesAgainstOracles) {
  std::size_t verified = 0;
  for (const std::uint64_t seed : kSeeds) {
    verified += verify_table<net::Ipv4Family>(rib_sample_table(seed, 1'000),
                                              seed, 10'000, true);
  }
  EXPECT_GE(verified, 60'000u);
}

TEST(LpmDifferential, FullRibScaleSamplesAgainstPerLengthOracle) {
  // 50k-prefix tables, per-length oracle only (its equivalence to the
  // linear scan is established by the smaller tables above); 150k random
  // lookups per seed puts the whole suite past the million-lookup mark.
  std::size_t verified = 0;
  for (const std::uint64_t seed : kSeeds) {
    verified += verify_table<net::Ipv4Family>(rib_sample_table(seed, 50'000),
                                              seed, 150'000, false);
  }
  EXPECT_GE(verified, 1'000'000u);
}

// --- IPv6 differential suite -----------------------------------------
//
// The same engine instantiated at 128 bits (trie::LpmIndex6) against the
// same oracles. Tables stress what is new in the v6 instantiation: the
// extra stride levels, the 64-bit hi/lo half edge (strides land exactly
// on bit 64, so boundary +/- 1 probes cross it), and nested /32 -> /64
// chains.

using Entry6 = LpmIndex6::Entry;

// Nested /32 -> /64 chains stacked on one branch: every stride level of
// the 128-bit walk carries a longer match.
std::vector<Entry6> nested_chain_table6(std::uint64_t seed) {
  util::Rng rng(util::mix64(seed, 61));
  std::vector<Entry6> table;
  std::uint32_t value = 0;
  for (int chain = 0; chain < 6; ++chain) {
    const net::Ipv6Address base(0x2000000000000000ULL | (rng() >> 3),
                                rng());
    for (int length = 32; length <= 64; ++length) {
      // Walk a random branch: keep the prefix bits, randomise the rest.
      const net::Ipv6Address jitter(rng(), rng());
      const net::Ipv6Prefix kept(base, length);
      const net::Ipv6Address mixed(
          kept.network().hi() |
              (length >= 64 ? 0 : jitter.hi() >> length),
          jitter.lo());
      table.push_back({net::Ipv6Prefix(mixed, length), value++});
    }
    // A couple of long hitlist-style more-specifics below the chain.
    table.push_back({net::Ipv6Prefix(base, 96), value++});
    table.push_back({net::Ipv6Prefix(base, 128), value++});
  }
  return table;
}

// v6-RIB-shaped: the /32-/48 allocation ladder plus long tails, and
// prefixes that end exactly on the 64-bit half edge.
std::vector<Entry6> rib_sample_table6(std::uint64_t seed,
                                      std::size_t count) {
  util::Rng rng(util::mix64(seed, 62));
  std::vector<Entry6> table;
  table.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double roll = rng.uniform();
    int length;
    if (roll < 0.05) {
      length = 20 + static_cast<int>(rng.bounded(10));
    } else if (roll < 0.25) {
      length = 32;
    } else if (roll < 0.50) {
      length = 36 + static_cast<int>(rng.bounded(9));
    } else if (roll < 0.90) {
      length = 48;
    } else if (roll < 0.97) {
      length = 64;  // exactly the hi/lo half edge
    } else {
      length = 65 + static_cast<int>(rng.bounded(64));
    }
    const net::Ipv6Address network(0x2000000000000000ULL | (rng() >> 3),
                                   rng());
    table.push_back({net::Ipv6Prefix(network, length),
                     static_cast<std::uint32_t>(i)});
  }
  // Re-announce a handful of prefixes with new values: last must win.
  for (int i = 0; i < 16 && !table.empty(); ++i) {
    const auto pick = static_cast<std::size_t>(rng.bounded(table.size()));
    table.push_back({table[pick].prefix,
                     static_cast<std::uint32_t>(count +
                                                static_cast<std::size_t>(i))});
  }
  return table;
}

TEST(LpmDifferential, Ipv6NestedChainsAgainstOracle) {
  std::size_t verified = 0;
  for (const std::uint64_t seed : kSeeds) {
    verified += verify_table<net::Ipv6Family>(nested_chain_table6(seed), seed,
                                              4000, true);
  }
  EXPECT_GT(verified, 20000u);
}

TEST(LpmDifferential, Ipv6RibSamplesAgainstOracle) {
  std::size_t verified = 0;
  for (const std::uint64_t seed : kSeeds) {
    verified += verify_table<net::Ipv6Family>(rib_sample_table6(seed, 600),
                                              seed, 3000, true);
  }
  EXPECT_GT(verified, 20000u);
}

TEST(LpmDifferential, Ipv6HalfEdgePrefixesAgainstOracle) {
  // Prefixes straddling the stride schedule's landing on bit 64: /63,
  // /64 and /65 siblings around one base, so boundary +/- 1 probes and
  // host-bit lookups exercise the carry across hi/lo.
  for (const std::uint64_t seed : {std::uint64_t{7}, std::uint64_t{77},
                                   std::uint64_t{777}}) {
    util::Rng rng(util::mix64(seed, 63));
    std::vector<Entry6> table;
    std::uint32_t value = 0;
    for (int i = 0; i < 32; ++i) {
      const net::Ipv6Address base(rng(), rng());
      for (const int length : {63, 64, 65}) {
        table.push_back({net::Ipv6Prefix(base, length), value++});
      }
    }
    verify_table<net::Ipv6Family>(table, seed, 2000, true);
  }
}

TEST(LpmDifferential, Ipv6EmptyAndSingleEntry) {
  const LpmIndex6 empty;
  EXPECT_EQ(empty.lookup(net::Ipv6Address(1, 2)), LpmIndex6::kNoMatch);

  std::vector<Entry6> one = {
      {net::Ipv6Prefix::parse_or_throw("2001:db8::/32"), 7}};
  verify_table<net::Ipv6Family>(one, 99, 500, true);
}

// --- kernel dispatch ---------------------------------------------------

TEST(LpmDispatch, KernelTablesArePopulated) {
  // Every (family, level) slot holds a callable kernel with a stable
  // name; kAvx2 falls back to the scalar kernel when the AVX2 TU was
  // not compiled in, so dispatch never dereferences a null entry.
  for (const auto level :
       {util::cpu::SimdLevel::kScalar, util::cpu::SimdLevel::kAvx2}) {
    const auto& table4 = lpm_kernel_table<net::Ipv4Family>(level);
    ASSERT_NE(table4.lookup_many, nullptr);
    EXPECT_FALSE(std::string_view(table4.name).empty());
    const auto& table6 = lpm_kernel_table<net::Ipv6Family>(level);
    ASSERT_NE(table6.lookup_many, nullptr);
    EXPECT_FALSE(std::string_view(table6.name).empty());
  }
  EXPECT_STREQ(
      lpm_kernel_table<net::Ipv4Family>(util::cpu::SimdLevel::kScalar).name,
      "scalar");
  EXPECT_STREQ(
      lpm_kernel_table<net::Ipv6Family>(util::cpu::SimdLevel::kAvx2).name,
      "pipelined");
}

TEST(LpmDispatch, ForceScalarEnvRoundTrip) {
  // TASS_FORCE_SCALAR wins over any hardware capability, "0"/"" do not
  // count as set, and clearing it restores the probed level. The
  // original environment is restored afterwards so this test composes
  // with sanitizer jobs that export the override suite-wide.
  const char* saved = std::getenv("TASS_FORCE_SCALAR");
  const std::string saved_value = saved ? saved : "";

  ::setenv("TASS_FORCE_SCALAR", "1", 1);
  EXPECT_TRUE(util::cpu::probe().forced_scalar);
  EXPECT_EQ(util::cpu::refresh_active_level_for_testing(),
            util::cpu::SimdLevel::kScalar);

  ::setenv("TASS_FORCE_SCALAR", "0", 1);
  EXPECT_FALSE(util::cpu::probe().forced_scalar);

  ::unsetenv("TASS_FORCE_SCALAR");
  const util::cpu::Features features = util::cpu::probe();
  EXPECT_FALSE(features.forced_scalar);
  EXPECT_EQ(util::cpu::refresh_active_level_for_testing(),
            features.avx2 ? util::cpu::SimdLevel::kAvx2
                          : util::cpu::SimdLevel::kScalar);

  if (saved) {
    ::setenv("TASS_FORCE_SCALAR", saved_value.c_str(), 1);
  }
  util::cpu::refresh_active_level_for_testing();
}

TEST(LpmDifferential, RandomSurvivorsAgainstPerLengthOracle) {
  // A table thinned by random withdrawals (duplicates included, so a
  // surviving re-announcement may shadow a withdrawn one): an index built
  // over the survivors must agree with the oracle over the same rows.
  for (const std::uint64_t seed : kSeeds) {
    const std::vector<Entry> table = rib_sample_table(seed, 2'000);
    util::Rng rng(util::mix64(seed, 4));
    std::vector<Entry> survivors;
    for (const Entry& entry : table) {
      if (!rng.chance(0.3)) survivors.push_back(entry);
    }
    verify_table<net::Ipv4Family>(survivors, seed, 5'000, true);
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace tass::trie
