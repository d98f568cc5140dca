// BasicLpmIndex: a flat, cache-friendly longest-prefix-match engine,
// parameterized over the address family (net::Ipv4Family /
// net::Ipv6Family).
//
// This is the match substrate behind prefix/AS attribution
// (bgp::PrefixPartition) and special-use classification
// (net::special_use); blocklist checks and scope membership are binary
// searches over net::BasicIntervalSet ranges instead. It is built once from a
// prefix -> value table and patched in place by update(); the
// differential tests referee it against a naive per-length exact-match
// oracle (bench/lpm_oracle.hpp).
//
// Layout (Poptrie-flavoured, generic over the key width):
//   * a direct-indexed root array over the top 16 address bits — one load
//     resolves any address whose longest match is /16 or shorter;
//   * below the root, path-compressed nodes of stride 6 (with a final
//     shorter stride absorbing the remainder: 6/6/4 for IPv4's 16
//     post-root bits, eighteen 6s and a 4 for IPv6's 112). Starting from
//     depth 16 in steps of 6 lands exactly on bit 64, so no IPv6 slot
//     extraction ever straddles the hi/lo halves of the 128-bit
//     net::AddressKey. Each node holds two 64-bit bitmaps: `child_bits`
//     marks slots that continue into a deeper node, `leaf_bits` marks the
//     starts of runs of equal leaf values. Children and leaf runs are
//     stored in contiguous arrays addressed by popcount rank, so a lookup
//     is a handful of dependent loads and never backtracks.
//   * values are leaf-pushed during construction: every slot already knows
//     the best (longest) match covering it, which is what makes the
//     no-backtracking lookup correct. Construction is one recursive pass
//     over the sorted entry table: in (network, length) order an ancestor
//     precedes everything it contains, so painting each node's slots in
//     table order leaves every slot with its longest match, and the
//     entries below one slot form a contiguous sub-run for its child.
//
// The batched lookup_many() is the API the sharded scan pipeline uses: a
// shard hands over its whole address block (Family::AddressWord elements:
// raw uint32 for v4, Ipv6Address for v6) so the index amortises across
// the batch instead of being re-entered through per-address virtual calls.
//
// Incremental updates: update() patches the read structures in place by
// rebuilding only the root blocks (/16 sub-spaces) a change touches. The
// index retains its entry table for this, and a cost model falls back to
// a full rebuild when the churn is large enough that patching would not
// pay (see update() below). Lookups observe either the old or the new
// state per address; update() itself must be externally synchronised —
// see the thread-safety contract on update().
//
// Storage: the read structures are flat arrays addressed through spans,
// so an index can either own them (the build/update paths above) or
// borrow them from caller-owned memory — the zero-copy path the TSIM
// state image (state/image.hpp) uses to serve a mmap'ed file without
// parsing or rebuilding. A borrowed index answers lookups through the
// unchanged API but cannot be update()d.
//
// All existing IPv4 call sites keep compiling unchanged: trie::LpmIndex
// is an alias of the IPv4 instantiation and its nested types (Entry,
// Node, Raw, UpdateStats) resolve through it; trie::LpmIndex6 (see
// lpm_index6.hpp) is the IPv6 twin on the same code.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "net/family.hpp"
#include "net/prefix.hpp"
#include "util/cpu.hpp"
#include "util/error.hpp"

namespace tass::trie {

template <class Family>
class BasicLpmIndex {
 public:
  using Address = typename Family::Address;
  using Prefix = typename Family::Prefix;
  using AddressWord = typename Family::AddressWord;

  /// Returned by lookup() when no stored prefix covers the address. Stored
  /// values must be < kNoMatch.
  static constexpr std::uint32_t kNoMatch = 0x7fffffffu;

  /// One row of the prefix -> value table the index is built from.
  struct Entry {
    Prefix prefix;
    std::uint32_t value = 0;
  };

  /// One read-structure node below the root. Public only so the state
  /// image can serialise the arrays verbatim; the layout is an
  /// implementation detail of this class, not a stable API. The node
  /// shape is family-independent (strides never exceed 64 slots).
  struct Node {
    std::uint64_t child_bits = 0;  // slot continues into nodes[child_base+r]
    std::uint64_t leaf_bits = 0;   // slot starts a new run of equal leaves
    std::uint32_t child_base = 0;
    std::uint32_t leaf_base = 0;
  };

  /// The flat read arrays (plus the entry table), as spans. raw() exposes
  /// them for serialisation; from_raw() builds a borrowed index over them.
  struct Raw {
    std::span<const std::uint32_t> root;  // 65536 words, or empty
    std::span<const Node> nodes;
    std::span<const std::uint32_t> leaves;
    std::span<const Entry> entries;  // ascending by prefix, deduplicated
  };

  /// An empty index: lookup() returns kNoMatch for every address.
  BasicLpmIndex() = default;

  /// Builds from a prefix -> value table. Nested and duplicate prefixes are
  /// fine; lookups return the value of the longest covering prefix, and for
  /// duplicate prefixes the last entry wins (overwrite semantics). Throws
  /// tass::Error if a value is >= kNoMatch.
  explicit BasicLpmIndex(std::span<const Entry> table);

  /// Membership-only index: every prefix maps to `value`.
  static BasicLpmIndex from_prefixes(std::span<const Prefix> prefixes,
                                     std::uint32_t value = 0);

  /// Borrowed-storage index: lookups read the caller's arrays in place (no
  /// copy, no rebuild). The storage must stay valid and unmodified for the
  /// index's lifetime, and the arrays must satisfy the structural
  /// invariants of a built index — from_raw trusts its input; the state
  /// image loader validates before calling. A borrowed index rejects
  /// update() (it cannot own mutations); everything else behaves
  /// identically to an owned index over the same arrays.
  static BasicLpmIndex from_raw(const Raw& raw);

  /// The read arrays of this index (borrowed or owned). Spans are
  /// invalidated by update() and by destruction/assignment.
  Raw raw() const noexcept {
    return {root_view_, nodes_view_, leaves_view_, entries_view_};
  }

  /// True if this index borrows caller-owned storage (built by from_raw).
  bool borrowed() const noexcept { return borrowed_; }

  // Spans into own storage must be re-anchored on copy (and cleared on
  // move-from), so the special members are user-defined.
  BasicLpmIndex(const BasicLpmIndex& other);
  BasicLpmIndex& operator=(const BasicLpmIndex& other);
  BasicLpmIndex(BasicLpmIndex&& other) noexcept;
  BasicLpmIndex& operator=(BasicLpmIndex&& other) noexcept;
  ~BasicLpmIndex() = default;

  /// Bookkeeping returned by update() (benchmarks and tests use it to see
  /// which path ran; callers needing only correctness can ignore it).
  struct UpdateStats {
    std::size_t upserts = 0;          // net entry inserts + value changes
    std::size_t erases = 0;           // net entry removals
    std::size_t dirty_blocks = 0;     // /16 root blocks invalidated
    std::size_t touched_entries = 0;  // entries living in dirty blocks
    bool rebuilt = false;             // cost model chose a full rebuild
    bool compacted = false;           // patched, then compacted garbage
  };

  /// Incrementally applies a change batch: `upserts` insert new prefixes or
  /// overwrite the value of existing ones, `erases` remove prefixes.
  ///
  /// Equivalence contract: after update() returns, lookup()/lookup_many()
  /// are bit-identical to a fresh index built from the post-change entry
  /// table (entries()) — the differential suite enforces this. Only the
  /// root blocks covered by a changed prefix are rebuilt; past a churn
  /// threshold (~1/4 of the root blocks or ~1/4 of the entries touched)
  /// patching would not beat rebuilding, so the whole index is rebuilt
  /// instead. Patching appends replacement subtrees and abandons the old
  /// ones; the accumulated garbage is compacted by an automatic full
  /// rebuild once the arrays exceed twice their last-rebuilt size.
  ///
  /// Input validation happens before any mutation (strong guarantee):
  /// throws tass::Error if a value is >= kNoMatch, if a prefix is
  /// both upserted and erased, if an erased prefix is not in the index, or
  /// if this index is a borrowed view (from_raw) and so cannot mutate.
  /// Duplicate upserts of one prefix keep the last value; duplicate erases
  /// of one prefix are idempotent.
  ///
  /// Thread safety: lookups are const-thread-safe with each other, but
  /// update() mutates the read structures — it must not run concurrently
  /// with lookups or with another update(). The sharded scan pipeline
  /// applies deltas between cycles, never inside one.
  UpdateStats update(std::span<const Entry> upserts,
                     std::span<const Prefix> erases);

  /// The current entry table, ascending by prefix, duplicates resolved
  /// (this is what a fresh rebuild would be built from).
  std::span<const Entry> entries() const noexcept { return entries_view_; }

  /// Value of the longest stored prefix covering `addr`, or kNoMatch.
  std::uint32_t lookup(Address addr) const noexcept {
    if (root_view_.empty()) return kNoMatch;
    if constexpr (Family::kBits == 32) {
      // IPv4 fast path: the historical fully-unrolled 6/6/4 walk on the
      // raw uint32 (identical codegen to the pre-generic engine).
      const std::uint32_t a = addr.value();
      const std::uint32_t word = root_view_[a >> 16];
      if ((word & kNodeFlag) == 0) return word;  // leaf (possibly kNoMatch)
      const Node* node = &nodes_view_[word & ~kNodeFlag];
      std::uint32_t slot = (a >> 10) & 63u;  // bits 15..10
      if ((node->child_bits >> slot) & 1u) {
        node = &nodes_view_[node->child_base + rank(node->child_bits, slot)];
        slot = (a >> 4) & 63u;  // bits 9..4
        if ((node->child_bits >> slot) & 1u) {
          node =
              &nodes_view_[node->child_base + rank(node->child_bits, slot)];
          slot = a & 15u;  // bits 3..0; the last level is always a leaf
        }
      }
      return leaves_view_[node->leaf_base +
                          rank_inclusive(node->leaf_bits, slot) - 1];
    } else {
      return lookup_key(Family::key(addr));
    }
  }

  /// As lookup(), over the family's left-aligned AddressKey. The generic
  /// stride walk; at the deepest level (depth + stride == kBits) the
  /// child bitmap is never consulted — the last level is always a leaf,
  /// exactly as in the IPv4 fast path.
  std::uint32_t lookup_key(net::AddressKey key) const noexcept {
    if (root_view_.empty()) return kNoMatch;
    const std::uint32_t word = root_view_[key.top16()];
    if ((word & kNodeFlag) == 0) return word;  // leaf (possibly kNoMatch)
    const Node* node = &nodes_view_[word & ~kNodeFlag];
    int depth = kRootBits;
    for (;;) {
      const int stride = stride_at(depth);
      const std::uint32_t slot = key.slot(depth, stride);
      if (depth + stride < Family::kBits &&
          ((node->child_bits >> slot) & 1u)) {
        node = &nodes_view_[node->child_base + rank(node->child_bits, slot)];
        depth += stride;
        continue;
      }
      return leaves_view_[node->leaf_base +
                          rank_inclusive(node->leaf_bits, slot) - 1];
    }
  }

  /// True if some stored prefix covers the address.
  bool covers(Address addr) const noexcept { return lookup(addr) != kNoMatch; }

  /// Batched lookup: out[i] = lookup(addresses[i]). The span forms are what
  /// sharded attribution calls once per shard. The kernel that runs is
  /// selected once per process by util::cpu (AVX2 gather kernel /
  /// pipelined walk / scalar reference — see lpm_kernels.hpp); all
  /// kernels are bit-identical.
  /// Precondition: out.size() >= addresses.size().
  void lookup_many(std::span<const AddressWord> addresses,
                   std::span<std::uint32_t> out) const noexcept;
  std::vector<std::uint32_t> lookup_many(
      std::span<const AddressWord> addresses) const;

  /// As above with an explicit kernel level — the differential tests and
  /// micro-benches pin both tables regardless of what the host supports
  /// (kAvx2 on a non-AVX2 machine degrades to the scalar kernel).
  void lookup_many(std::span<const AddressWord> addresses,
                   std::span<std::uint32_t> out,
                   util::cpu::SimdLevel level) const noexcept;

  /// Number of distinct prefixes the index was built from.
  std::size_t prefix_count() const noexcept { return prefix_count_; }
  bool empty() const noexcept { return prefix_count_ == 0; }

  /// Introspection for benchmarks and memory accounting. memory_bytes()
  /// covers the read structures only; the retained entry table that makes
  /// update() possible is reported separately by table_memory_bytes().
  std::size_t node_count() const noexcept { return nodes_view_.size(); }
  std::size_t leaf_count() const noexcept { return leaves_view_.size(); }
  std::size_t memory_bytes() const noexcept {
    return root_view_.size() * sizeof(std::uint32_t) +
           nodes_view_.size() * sizeof(Node) +
           leaves_view_.size() * sizeof(std::uint32_t);
  }
  std::size_t table_memory_bytes() const noexcept {
    return entries_view_.size() * sizeof(Entry);
  }

  // Root words: high bit set -> index into nodes; clear -> leaf value.
  // Public alongside Node/Raw for the state-image validator.
  static constexpr std::uint32_t kNodeFlag = 0x80000000u;

  // Root stride width and the per-depth node stride schedule (6-wide,
  // with the remainder absorbed by the final level). Public for the
  // state-image validator's reachability walk.
  static constexpr int kRootBits = 16;
  static constexpr int stride_at(int depth) noexcept {
    return Family::kBits - depth < 6 ? Family::kBits - depth : 6;
  }
  /// Number of node levels below the root (3 for IPv4, 19 for IPv6).
  static constexpr int kNodeLevels =
      (Family::kBits - kRootBits + 5) / 6;

  // The popcount ranks the walks are built on. Public alongside
  // Node/Raw so the out-of-line lookup kernels (lpm_kernels.hpp)
  // compute exactly the same ranks as the member walks.
  // Children (or leaf runs) strictly below `slot`.
  static std::uint32_t rank(std::uint64_t bits, std::uint32_t slot) noexcept {
    return static_cast<std::uint32_t>(
        std::popcount(bits & ((1ull << slot) - 1)));
  }
  // Leaf runs at or below `slot`; (2 << 63) wraps to 0 so slot 63 counts all.
  static std::uint32_t rank_inclusive(std::uint64_t bits,
                                      std::uint32_t slot) noexcept {
    return static_cast<std::uint32_t>(
        std::popcount(bits & ((2ull << slot) - 1)));
  }

 private:
  // Ordering by prefix only (the Entry value rides along).
  static bool entry_less(const Entry& a, const Entry& b) noexcept {
    return a.prefix < b.prefix;
  }

  void rebuild_all();
  void place_block(std::uint32_t block, std::span<const Entry> run,
                   std::uint32_t inherited);
  void build_node(std::uint32_t index, std::span<const Entry> run, int depth,
                  std::uint32_t inherited);
  // Re-anchors the read-side spans on the owned vectors (no-op for a
  // borrowed index, whose spans point at caller storage).
  void sync_views() noexcept;

  std::vector<Entry> entries_;       // ascending by prefix, deduplicated
  std::vector<std::uint32_t> root_;  // 65536 words once built
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> leaves_;
  // What lookup() actually reads: the owned vectors above (synced after
  // every mutation) or borrowed caller storage (from_raw).
  std::span<const std::uint32_t> root_view_;
  std::span<const Node> nodes_view_;
  std::span<const std::uint32_t> leaves_view_;
  std::span<const Entry> entries_view_;
  bool borrowed_ = false;
  std::size_t prefix_count_ = 0;
  // Garbage-compaction thresholds, re-armed by every full rebuild: a patch
  // abandons its replaced subtrees, so the arrays only grow until a
  // rebuild reclaims them.
  std::size_t node_limit_ = 0;
  std::size_t leaf_limit_ = 0;
};

/// The IPv4 instantiation — the unified substrate every existing v4 call
/// site (partition, blocklist, special-use, scope, state image) rides on.
using LpmIndex = BasicLpmIndex<net::Ipv4Family>;

extern template class BasicLpmIndex<net::Ipv4Family>;

}  // namespace tass::trie
