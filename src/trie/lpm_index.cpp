#include "trie/lpm_index.hpp"

#include <numeric>

#include "trie/lpm_index6.hpp"
#include "trie/lpm_kernels.hpp"

namespace tass::trie {

template <class Family>
void BasicLpmIndex<Family>::sync_views() noexcept {
  if (borrowed_) return;
  root_view_ = root_;
  nodes_view_ = nodes_;
  leaves_view_ = leaves_;
  entries_view_ = entries_;
}

template <class Family>
BasicLpmIndex<Family> BasicLpmIndex<Family>::from_raw(const Raw& raw) {
  BasicLpmIndex index;
  index.borrowed_ = true;
  index.root_view_ = raw.root;
  index.nodes_view_ = raw.nodes;
  index.leaves_view_ = raw.leaves;
  index.entries_view_ = raw.entries;
  index.prefix_count_ = raw.entries.size();
  return index;
}

template <class Family>
BasicLpmIndex<Family>::BasicLpmIndex(const BasicLpmIndex& other)
    : entries_(other.entries_),
      root_(other.root_),
      nodes_(other.nodes_),
      leaves_(other.leaves_),
      borrowed_(other.borrowed_),
      prefix_count_(other.prefix_count_),
      node_limit_(other.node_limit_),
      leaf_limit_(other.leaf_limit_) {
  if (borrowed_) {
    // Borrowed views share the caller's storage; the copy does too.
    root_view_ = other.root_view_;
    nodes_view_ = other.nodes_view_;
    leaves_view_ = other.leaves_view_;
    entries_view_ = other.entries_view_;
  } else {
    sync_views();
  }
}

template <class Family>
BasicLpmIndex<Family>& BasicLpmIndex<Family>::operator=(
    const BasicLpmIndex& other) {
  if (this != &other) *this = BasicLpmIndex(other);
  return *this;
}

template <class Family>
BasicLpmIndex<Family>::BasicLpmIndex(BasicLpmIndex&& other) noexcept
    : entries_(std::move(other.entries_)),
      root_(std::move(other.root_)),
      nodes_(std::move(other.nodes_)),
      leaves_(std::move(other.leaves_)),
      // Owned vector buffers survive the move at the same addresses, so
      // the source's views stay valid for the new owner; borrowed views
      // point at caller storage and transfer as-is.
      root_view_(other.root_view_),
      nodes_view_(other.nodes_view_),
      leaves_view_(other.leaves_view_),
      entries_view_(other.entries_view_),
      borrowed_(other.borrowed_),
      prefix_count_(other.prefix_count_),
      node_limit_(other.node_limit_),
      leaf_limit_(other.leaf_limit_) {
  other.root_view_ = {};
  other.nodes_view_ = {};
  other.leaves_view_ = {};
  other.entries_view_ = {};
  other.prefix_count_ = 0;
  other.borrowed_ = false;
}

template <class Family>
BasicLpmIndex<Family>& BasicLpmIndex<Family>::operator=(
    BasicLpmIndex&& other) noexcept {
  if (this != &other) {
    entries_ = std::move(other.entries_);
    root_ = std::move(other.root_);
    nodes_ = std::move(other.nodes_);
    leaves_ = std::move(other.leaves_);
    root_view_ = other.root_view_;
    nodes_view_ = other.nodes_view_;
    leaves_view_ = other.leaves_view_;
    entries_view_ = other.entries_view_;
    borrowed_ = other.borrowed_;
    prefix_count_ = other.prefix_count_;
    node_limit_ = other.node_limit_;
    leaf_limit_ = other.leaf_limit_;
    other.root_view_ = {};
    other.nodes_view_ = {};
    other.leaves_view_ = {};
    other.entries_view_ = {};
    other.prefix_count_ = 0;
    other.borrowed_ = false;
  }
  return *this;
}

template <class Family>
BasicLpmIndex<Family>::BasicLpmIndex(std::span<const Entry> table) {
  for (const Entry& entry : table) {
    if (entry.value >= kNoMatch) {
      throw Error("LpmIndex value out of range (>= kNoMatch)");
    }
  }
  // Canonical entry table: ascending by prefix, duplicates resolved with
  // the historical last-entry-wins semantics (the sort is stable, keeping
  // input order within a duplicate run; we keep the run's last element).
  // Most tables arrive ascending already and are copied as they are.
  if (std::is_sorted(table.begin(), table.end(), entry_less)) {
    entries_.assign(table.begin(), table.end());
  } else {
    // A stable counting scatter on the top address bits (about one bucket
    // per entry, at most one per root block), then a stable sort inside
    // each bucket: the buckets are short and cache-resident, where a
    // single sort over a large table is not.
    const int bits =
        std::min(kRootBits, static_cast<int>(std::bit_width(table.size())));
    const auto bucket_of = [bits](const Entry& entry) {
      return static_cast<std::size_t>(Family::first_key(entry.prefix).hi >>
                                      (64 - bits));
    };
    std::vector<std::size_t> next(std::size_t{1} << bits, 0);
    for (const Entry& entry : table) ++next[bucket_of(entry)];
    std::exclusive_scan(next.begin(), next.end(), next.begin(),
                        std::size_t{0});
    entries_.resize(table.size());
    for (const Entry& entry : table) entries_[next[bucket_of(entry)]++] = entry;
    auto begin = entries_.begin();
    for (const std::size_t end : next) {  // next[b] is now bucket b's end
      std::stable_sort(begin, entries_.begin() + end, entry_less);
      begin = entries_.begin() + end;
    }
  }
  std::size_t out = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i + 1 < entries_.size() &&
        entries_[i].prefix == entries_[i + 1].prefix) {
      continue;  // a later duplicate overrides this one
    }
    entries_[out++] = entries_[i];
  }
  entries_.resize(out);
  prefix_count_ = entries_.size();
  rebuild_all();
}

// One pass over the sorted entry table. In (network, length) order an
// ancestor sorts before every prefix it contains, so entries of /16 and
// shorter paint the root in order and a later paint is always the longer
// match. The longer entries of one /16 block form a contiguous run that
// sorts after every paint covering the block, so the block's root word
// already holds their inherited value when the run is reached.
template <class Family>
void BasicLpmIndex<Family>::rebuild_all() {
  nodes_.clear();
  leaves_.clear();
  root_.assign(std::size_t{1} << kRootBits, kNoMatch);
  const std::span<const Entry> table = entries_;
  for (std::size_t i = 0; i < table.size();) {
    const int length = table[i].prefix.length();
    const std::uint32_t block = Family::first_key(table[i].prefix).top16();
    if (length <= kRootBits) {
      std::fill_n(root_.begin() + block,
                  std::size_t{1} << (kRootBits - length), table[i].value);
      ++i;
      continue;
    }
    std::size_t end = i + 1;
    while (end < table.size() &&
           Family::first_key(table[end].prefix).top16() == block) {
      ++end;
    }
    place_block(block, table.subspan(i, end - i), root_[block]);
    i = end;
  }
  node_limit_ = nodes_.size() * 2 + 1024;
  leaf_limit_ = leaves_.size() * 2 + 4096;
  sync_views();
}

template <class Family>
BasicLpmIndex<Family> BasicLpmIndex<Family>::from_prefixes(
    std::span<const Prefix> prefixes, std::uint32_t value) {
  std::vector<Entry> table;
  table.reserve(prefixes.size());
  for (const Prefix prefix : prefixes) table.push_back({prefix, value});
  return BasicLpmIndex(table);
}

// Points root word `block` at the structure for `run` (the block's entries
// longer than /16, ascending), or at `inherited` (the best match of /16 or
// shorter) when the run is empty. A patch abandons the block's old subtree
// in place; the next full rebuild reclaims it.
template <class Family>
void BasicLpmIndex<Family>::place_block(std::uint32_t block,
                                        std::span<const Entry> run,
                                        std::uint32_t inherited) {
  if (run.empty()) {
    root_[block] = inherited;
    return;
  }
  const auto index = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back();
  build_node(index, run, kRootBits, inherited);
  root_[block] = kNodeFlag | index;
}

// Fills nodes_[index], the node at stride-aligned `depth` (>= 16), from
// `run`: the entries longer than `depth` inside the node's range,
// ascending. `inherited` is the best match covering the whole range. The
// entries ending within the stride paint their slots in sorted order, so
// every slot ends up leaf-pushed with its longest match; an entry reaching
// below the stride marks its slot as a child instead, and each child's
// entries form a contiguous sub-run. Children are allocated as one
// contiguous block so popcount ranking addresses them.
template <class Family>
void BasicLpmIndex<Family>::build_node(std::uint32_t index,
                                       std::span<const Entry> run, int depth,
                                       std::uint32_t inherited) {
  const int stride = stride_at(depth);
  const int next_depth = depth + stride;
  const std::uint32_t slots = 1u << stride;

  std::array<std::uint32_t, 64> value;
  value.fill(inherited);
  // The sub-run of the k-th child, in slot order; only the first
  // popcount(child_bits) rows are ever written or read.
  std::array<std::uint32_t, 64> child_begin{};
  std::array<std::uint32_t, 64> child_end{};
  std::uint32_t children = 0;
  Node result;
  for (std::size_t i = 0; i < run.size(); ++i) {
    const int length = run[i].prefix.length();
    const std::uint32_t slot =
        Family::first_key(run[i].prefix).slot(depth, stride);
    if (length <= next_depth) {
      std::fill_n(value.begin() + slot,
                  std::size_t{1} << (next_depth - length), run[i].value);
      continue;
    }
    if (((result.child_bits >> slot) & 1u) == 0) {
      result.child_bits |= 1ull << slot;
      child_begin[children++] = static_cast<std::uint32_t>(i);
    }
    child_end[children - 1] = static_cast<std::uint32_t>(i + 1);
  }

  // A leaf run starts at every non-child slot that opens the node, follows
  // a child, or differs from its left neighbour.
  std::uint64_t starts = 1;
  for (std::uint32_t slot = 1; slot < slots; ++slot) {
    starts |= std::uint64_t{value[slot] != value[slot - 1]} << slot;
  }
  result.leaf_bits = (starts | (result.child_bits << 1)) &
                     ~result.child_bits & (~0ull >> (64 - slots));
  result.leaf_base = static_cast<std::uint32_t>(leaves_.size());
  for (std::uint64_t bits = result.leaf_bits; bits != 0; bits &= bits - 1) {
    leaves_.push_back(value[static_cast<std::size_t>(std::countr_zero(bits))]);
  }

  // Reserve the child block first, then recurse (grandchildren land
  // after it).
  result.child_base = static_cast<std::uint32_t>(nodes_.size());
  nodes_.resize(nodes_.size() + children);
  nodes_[index] = result;
  std::uint64_t bits = result.child_bits;
  for (std::uint32_t k = 0; k < children; ++k, bits &= bits - 1) {
    const auto slot = static_cast<std::size_t>(std::countr_zero(bits));
    build_node(result.child_base + k,
               run.subspan(child_begin[k], child_end[k] - child_begin[k]),
               next_depth, value[slot]);
  }
}

template <class Family>
auto BasicLpmIndex<Family>::update(std::span<const Entry> upserts,
                                   std::span<const Prefix> erases)
    -> UpdateStats {
  if (borrowed_) {
    throw Error(
        "LpmIndex::update on a borrowed view (from_raw): read-only "
        "storage cannot absorb deltas; rebuild an owned index instead");
  }
  for (const Entry& entry : upserts) {
    if (entry.value >= kNoMatch) {
      throw Error("LpmIndex value out of range (>= kNoMatch)");
    }
  }
  // Normalise the batch: sorted upserts with last-wins duplicates, sorted
  // unique erases. All validation happens before any mutation so input
  // errors leave the index untouched.
  std::vector<Entry> ups(upserts.begin(), upserts.end());
  std::stable_sort(ups.begin(), ups.end(), entry_less);
  {
    std::size_t out = 0;
    for (std::size_t i = 0; i < ups.size(); ++i) {
      if (i + 1 < ups.size() && ups[i].prefix == ups[i + 1].prefix) continue;
      ups[out++] = ups[i];
    }
    ups.resize(out);
  }
  std::vector<Prefix> ers(erases.begin(), erases.end());
  std::sort(ers.begin(), ers.end());
  ers.erase(std::unique(ers.begin(), ers.end()), ers.end());
  {
    auto u = ups.begin();
    for (const Prefix p : ers) {
      while (u != ups.end() && u->prefix < p) ++u;
      if (u != ups.end() && u->prefix == p) {
        throw Error("LpmIndex update: prefix " + p.to_string() +
                    " both upserted and erased");
      }
    }
    auto e = entries_.cbegin();
    for (const Prefix p : ers) {
      e = std::lower_bound(e, entries_.cend(), Entry{p, 0}, entry_less);
      if (e == entries_.cend() || e->prefix != p) {
        throw Error("LpmIndex update: erased prefix " + p.to_string() +
                    " not present");
      }
    }
  }

  UpdateStats stats;
  // Merge the batch into a fresh entry table, recording which prefixes
  // actually change the mapping (value-identical upserts are no-ops).
  std::vector<Entry> merged;
  merged.reserve(entries_.size() + ups.size());
  std::vector<Prefix> dirty;
  // Which prefix lengths < 16 exist at all — gathering block coverers
  // below then only probes lengths that can match (real tables hold a
  // handful of short lengths, not all sixteen).
  std::uint32_t short_lengths = 0;
  {
    std::size_t i = 0;
    auto u = ups.cbegin();
    auto e = ers.cbegin();
    while (i < entries_.size() || u != ups.cend()) {
      const bool take_upsert =
          u != ups.cend() &&
          (i == entries_.size() || !(entries_[i].prefix < u->prefix));
      if (take_upsert) {
        if (i < entries_.size() && entries_[i].prefix == u->prefix) {
          if (entries_[i].value != u->value) {
            dirty.push_back(u->prefix);
            ++stats.upserts;
          }
          ++i;
        } else {
          dirty.push_back(u->prefix);
          ++stats.upserts;
        }
        if (u->prefix.length() < kRootBits) {
          short_lengths |= 1u << u->prefix.length();
        }
        merged.push_back(*u);
        ++u;
        continue;
      }
      while (e != ers.cend() && *e < entries_[i].prefix) ++e;
      if (e != ers.cend() && *e == entries_[i].prefix) {
        dirty.push_back(entries_[i].prefix);
        ++stats.erases;
        ++i;
        continue;
      }
      if (entries_[i].prefix.length() < kRootBits) {
        short_lengths |= 1u << entries_[i].prefix.length();
      }
      merged.push_back(entries_[i]);
      ++i;
    }
  }
  entries_ = std::move(merged);
  prefix_count_ = entries_.size();
  sync_views();  // entries_ moved; the read arrays re-sync again below
  if (dirty.empty()) return stats;  // value-identical no-op batch

  // Dirty /16 root blocks, as merged runs. `dirty` came out of an ordered
  // merge, so the runs are already sorted by first block.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> runs;
  runs.reserve(dirty.size());
  for (const Prefix p : dirty) {
    const std::uint32_t lo = Family::first_key(p).top16();
    const std::uint32_t hi = Family::last_key(p).top16();
    if (!runs.empty() && lo <= runs.back().second) {
      runs.back().second = std::max(runs.back().second, hi);
    } else {
      runs.emplace_back(lo, hi);
    }
  }
  // Orders entries by the root block their network lands in (ties keep
  // prefix order, which the callers below never rely on).
  const auto block_lower = [](const Entry& e, std::uint32_t block) {
    return Family::first_key(e.prefix).top16() < block;
  };
  for (const auto& [lo, hi] : runs) {
    stats.dirty_blocks += hi - lo + 1;
    const auto begin = std::lower_bound(entries_.cbegin(), entries_.cend(),
                                        lo, block_lower);
    // hi + 1 == 0x10000 never compares below a real block, so the last
    // block's run naturally extends to the end of the table.
    const auto end =
        std::lower_bound(begin, entries_.cend(), hi + 1, block_lower);
    stats.touched_entries += static_cast<std::size_t>(end - begin);
  }

  // Cost model: patch cost scales with the entries living in dirty blocks
  // plus the dirty block count; rebuild cost with the whole table plus
  // the whole root. Past ~1/4 of either the patch does enough of a
  // rebuild's work (with worse locality and per-block overhead) that
  // rebuilding wins — measured on RIB-shaped tables by bench/micro_delta.
  if (root_.empty() || stats.dirty_blocks * 4 >= root_.size() ||
      stats.touched_entries * 4 >= entries_.size() + 4) {
    rebuild_all();
    stats.rebuilt = true;
    return stats;
  }

  // Per-block rebuild through the full build's block builder.
  for (const auto& [lo, hi] : runs) {
    for (std::uint32_t block = lo; block <= hi; ++block) {
      // The best match of /16 or shorter: the shorter prefixes covering
      // the block (probing only lengths the table has), then its own /16.
      std::uint32_t inherited = kNoMatch;
      for (std::uint32_t mask = short_lengths; mask != 0;
           mask &= mask - 1) {
        const int length = std::countr_zero(mask);
        const Prefix cover =
            Family::make_prefix(net::AddressKey::of_block(block), length);
        const auto it = std::lower_bound(entries_.cbegin(), entries_.cend(),
                                         Entry{cover, 0}, entry_less);
        if (it != entries_.cend() && it->prefix == cover) {
          inherited = it->value;
        }
      }
      // Entries whose network lies inside the block: those of /16 and
      // shorter start at its first address and sort before the rest.
      auto begin = std::lower_bound(entries_.cbegin(), entries_.cend(),
                                    block, block_lower);
      for (; begin != entries_.cend() &&
             Family::first_key(begin->prefix).top16() == block &&
             begin->prefix.length() <= kRootBits;
           ++begin) {
        if (begin->prefix.length() == kRootBits) inherited = begin->value;
      }
      auto end = begin;
      while (end != entries_.cend() &&
             Family::first_key(end->prefix).top16() == block) {
        ++end;
      }
      place_block(block, std::span<const Entry>(begin, end), inherited);
    }
  }

  // Patches abandon replaced subtrees; compact via a full rebuild once
  // the arrays carry more garbage than live structure.
  if (nodes_.size() > node_limit_ || leaves_.size() > leaf_limit_) {
    rebuild_all();
    stats.compacted = true;
  }
  sync_views();
  return stats;
}

namespace {

// The scalar reference kernel: the historical lookup_many loop. Pulls
// the root words of upcoming addresses into cache while resolving the
// current one; on big shards most time is the root-array miss.
template <class Family>
void scalar_lookup_many(
    const BasicLpmIndex<Family>& index,
    std::span<const typename Family::AddressWord> addresses,
    std::span<std::uint32_t> out) {
  const std::span<const std::uint32_t> root = index.raw().root;
  const std::size_t n = addresses.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kLookupPrefetchDistance < n) {
      __builtin_prefetch(
          &root[Family::word_key(addresses[i + kLookupPrefetchDistance])
                    .top16()]);
    }
    out[i] = index.lookup(Family::word_address(addresses[i]));
  }
}

// The software-pipelined kernel the kAvx2 table registers for IPv6:
// eight lookups walk the stride schedule in lockstep, and every
// descent issues __builtin_prefetch on the child it just ranked. By
// the time the walk returns to a lane — after the other seven lanes
// took their level-k step — the level-k+1 line (and usually the k+2
// line the hardware prefetcher chains behind it) is in flight, so the
// deep 19-level v6 walk overlaps up to eight node misses instead of
// serialising them. Portable scalar code: the win is memory-level
// parallelism, not vector ALUs, which is what the long-latency walk is
// actually bound by.
template <class Family>
void pipelined_lookup_many(
    const BasicLpmIndex<Family>& index,
    std::span<const typename Family::AddressWord> addresses,
    std::span<std::uint32_t> out) {
  using Index = BasicLpmIndex<Family>;
  using Node = typename Index::Node;
  const typename Index::Raw raw = index.raw();
  const std::uint32_t* const root = raw.root.data();
  const Node* const nodes = raw.nodes.data();
  const std::uint32_t* const leaves = raw.leaves.data();
  constexpr std::uint32_t kWidth = 8;  // streams walked in lockstep
  const std::size_t n = addresses.size();
  std::size_t i = 0;
  for (; i + kWidth <= n; i += kWidth) {
    net::AddressKey key[kWidth];
    const Node* node[kWidth];
    int depth[kWidth];
    std::uint32_t walking = 0;
    for (std::uint32_t lane = 0; lane < kWidth; ++lane) {
      if (i + kLookupPrefetchDistance + lane < n) {
        __builtin_prefetch(
            &root[Family::word_key(
                      addresses[i + kLookupPrefetchDistance + lane])
                      .top16()]);
      }
      key[lane] = Family::word_key(addresses[i + lane]);
      const std::uint32_t word = root[key[lane].top16()];
      if ((word & Index::kNodeFlag) == 0) {
        out[i + lane] = word;  // leaf (possibly kNoMatch)
      } else {
        node[lane] = nodes + (word & ~Index::kNodeFlag);
        __builtin_prefetch(node[lane]);
        depth[lane] = Index::kRootBits;
        walking |= 1u << lane;
      }
    }
    while (walking != 0) {
      std::uint32_t continuing = 0;
      for (std::uint32_t pending = walking; pending != 0;
           pending &= pending - 1) {
        const auto lane =
            static_cast<std::uint32_t>(std::countr_zero(pending));
        const Node* const cur = node[lane];
        const int stride = Index::stride_at(depth[lane]);
        const std::uint32_t slot = key[lane].slot(depth[lane], stride);
        if (depth[lane] + stride < Family::kBits &&
            ((cur->child_bits >> slot) & 1u)) {
          const Node* const child =
              nodes + cur->child_base + Index::rank(cur->child_bits, slot);
          __builtin_prefetch(child);
          node[lane] = child;
          depth[lane] += stride;
          continuing |= 1u << lane;
        } else {
          out[i + lane] =
              leaves[cur->leaf_base +
                     Index::rank_inclusive(cur->leaf_bits, slot) - 1];
        }
      }
      walking = continuing;
    }
  }
  for (; i < n; ++i) {
    out[i] = index.lookup(Family::word_address(addresses[i]));
  }
}

}  // namespace

template <>
const LpmKernelTable<net::Ipv4Family>& lpm_kernel_table<net::Ipv4Family>(
    util::cpu::SimdLevel level) noexcept {
  static const LpmKernelTable<net::Ipv4Family> kScalarTable{
      &scalar_lookup_many<net::Ipv4Family>, "scalar"};
  static const LpmKernelTable<net::Ipv4Family> kSimdTable{
      detail::kAvx2LookupMany4 != nullptr
          ? detail::kAvx2LookupMany4
          : &scalar_lookup_many<net::Ipv4Family>,
      detail::kAvx2LookupMany4 != nullptr ? "avx2" : "scalar"};
  return level == util::cpu::SimdLevel::kAvx2 ? kSimdTable : kScalarTable;
}

template <>
const LpmKernelTable<net::Ipv6Family>& lpm_kernel_table<net::Ipv6Family>(
    util::cpu::SimdLevel level) noexcept {
  static const LpmKernelTable<net::Ipv6Family> kScalarTable{
      &scalar_lookup_many<net::Ipv6Family>, "scalar"};
  // The v6 walk is latency-bound, not ALU-bound; the pipelined walk is
  // its "SIMD" tier and runs on any hardware.
  static const LpmKernelTable<net::Ipv6Family> kSimdTable{
      &pipelined_lookup_many<net::Ipv6Family>, "pipelined"};
  return level == util::cpu::SimdLevel::kAvx2 ? kSimdTable : kScalarTable;
}

template <class Family>
void BasicLpmIndex<Family>::lookup_many(
    std::span<const AddressWord> addresses, std::span<std::uint32_t> out,
    util::cpu::SimdLevel level) const noexcept {
  TASS_EXPECTS(out.size() >= addresses.size());
  if (root_view_.empty()) {
    std::fill_n(out.begin(), addresses.size(), kNoMatch);
    return;
  }
  lpm_kernel_table<Family>(level).lookup_many(*this, addresses, out);
}

template <class Family>
void BasicLpmIndex<Family>::lookup_many(
    std::span<const AddressWord> addresses,
    std::span<std::uint32_t> out) const noexcept {
  lookup_many(addresses, out, util::cpu::active_level());
}

template <class Family>
std::vector<std::uint32_t> BasicLpmIndex<Family>::lookup_many(
    std::span<const AddressWord> addresses) const {
  std::vector<std::uint32_t> out(addresses.size());
  lookup_many(addresses, out);
  return out;
}

template class BasicLpmIndex<net::Ipv4Family>;
template class BasicLpmIndex<net::Ipv6Family>;

}  // namespace tass::trie
