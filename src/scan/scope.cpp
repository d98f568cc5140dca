#include "scan/scope.hpp"

namespace tass::scan {

ScanScope::ScanScope(std::span<const net::Prefix> prefixes,
                     const Blocklist& blocklist)
    : ScanScope(net::IntervalSet::of_prefixes(prefixes)
                    .subtract(blocklist.blocked())) {}

ScanScope ScanScope::of_reduced(std::span<const net::Prefix> prefixes,
                                const Blocklist& blocklist,
                                const bgp::ReduceParams& params,
                                bgp::ReduceResult* reduced_out) {
  auto reduced = bgp::reduce(prefixes, params);
  ScanScope scope(reduced.prefixes, blocklist);
  if (reduced_out != nullptr) *reduced_out = std::move(reduced);
  return scope;
}

}  // namespace tass::scan
