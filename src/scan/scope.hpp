// ScanScope: the set of addresses a scan cycle will probe — a whitelist of
// prefixes (e.g. a TASS selection, or the whole announced space) minus a
// blocklist. Membership queries resolve through the trie::LpmIndex
// substrate; the IntervalSet stays the enumeration/accounting view the
// engine walks.
#pragma once

#include <span>

#include "bgp/reduce.hpp"
#include "net/interval.hpp"
#include "scan/blocklist.hpp"
#include "trie/lpm_index.hpp"

namespace tass::scan {

class ScanScope {
 public:
  ScanScope() = default;

  /// Scope = union(prefixes) - blocklist.
  ScanScope(std::span<const net::Prefix> prefixes, const Blocklist& blocklist);

  /// Scope from a reduced (overshoot-bounded) selection: the prefix list
  /// is first collapsed by bgp::reduce, then scoped as usual. Fewer
  /// prefixes mean fewer target intervals and a smaller LPM build, at
  /// the price of up to params.max_overshoot extra addresses in scope —
  /// every original address stays in scope (the blocklist is still
  /// subtracted afterwards, so overshoot never resurrects blocked
  /// space). `reduced_out`, when non-null, receives the reduction stats.
  static ScanScope of_reduced(std::span<const net::Prefix> prefixes,
                              const Blocklist& blocklist,
                              const bgp::ReduceParams& params = {},
                              bgp::ReduceResult* reduced_out = nullptr);

  /// Scope over raw intervals (already exclusion-applied).
  explicit ScanScope(net::IntervalSet targets) : targets_(std::move(targets)) {
    index_ = trie::LpmIndex::from_prefixes(targets_.to_prefixes());
  }

  bool contains(net::Ipv4Address addr) const noexcept {
    return index_.covers(addr);
  }
  std::uint64_t address_count() const noexcept {
    return targets_.address_count();
  }
  const net::IntervalSet& targets() const noexcept { return targets_; }
  bool empty() const noexcept { return targets_.empty(); }

 private:
  net::IntervalSet targets_;
  trie::LpmIndex index_;
};

}  // namespace tass::scan
