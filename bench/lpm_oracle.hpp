// NaiveLpmOracle: an independent longest-prefix-match referee for
// trie::BasicLpmIndex, shared by the LPM benches and the differential
// tests.
//
// Not a second trie: one exact-match hash map per announced length,
// probed from the longest length downwards; the first hit is the longest
// match. Duplicate prefixes follow the index's last-wins rule. Works for
// either address family.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/family.hpp"
#include "trie/lpm_index.hpp"
#include "util/rng.hpp"

namespace tass::bench {

template <class Family>
class NaiveLpmOracle {
 public:
  using Address = typename Family::Address;
  using Prefix = typename Family::Prefix;
  using Entry = typename trie::BasicLpmIndex<Family>::Entry;

  explicit NaiveLpmOracle(std::span<const Entry> table)
      : maps_(Family::kBits + 1) {
    for (const Entry& entry : table) {
      const auto length = static_cast<std::size_t>(entry.prefix.length());
      maps_[length][Family::first_key(entry.prefix)] = entry.value;
    }
    for (int length = Family::kBits; length >= 0; --length) {
      if (!maps_[static_cast<std::size_t>(length)].empty()) {
        lengths_.push_back(length);
      }
    }
  }

  /// Value of the longest table prefix covering `addr`, or kNoMatch.
  std::uint32_t lookup(Address addr) const {
    for (const int length : lengths_) {
      const auto& map = maps_[static_cast<std::size_t>(length)];
      const auto it = map.find(Family::first_key(Prefix(addr, length)));
      if (it != map.end()) return it->second;
    }
    return trie::BasicLpmIndex<Family>::kNoMatch;
  }

 private:
  struct KeyHash {
    std::size_t operator()(net::AddressKey key) const noexcept {
      return static_cast<std::size_t>(util::mix64(key.hi, key.lo));
    }
  };

  // maps_[length]: masked network key -> value.
  std::vector<std::unordered_map<net::AddressKey, std::uint32_t, KeyHash>>
      maps_;
  std::vector<int> lengths_;  // announced lengths, longest first
};

}  // namespace tass::bench
