// Tests for scan/blocklist, scan/scope and scan/engine: exclusion parsing,
// scope algebra and the simulated scan walk.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "census/population.hpp"
#include "core/attribution.hpp"
#include "scan/blocklist.hpp"
#include "scan/engine.hpp"
#include "scan/scope.hpp"
#include "util/error.hpp"

namespace tass::scan {
namespace {

using net::Ipv4Address;
using net::Prefix;

TEST(Blocklist, ParsesAllLineForms) {
  const Blocklist blocklist = Blocklist::parse(
      "# header comment\n"
      "192.0.2.0/24\n"
      "198.51.100.7       # single address\n"
      "10.0.0.0-10.0.0.255\n"
      "\n");
  EXPECT_TRUE(blocklist.blocks(Ipv4Address::parse_or_throw("192.0.2.99")));
  EXPECT_TRUE(blocklist.blocks(Ipv4Address::parse_or_throw("198.51.100.7")));
  EXPECT_FALSE(blocklist.blocks(Ipv4Address::parse_or_throw("198.51.100.8")));
  EXPECT_TRUE(blocklist.blocks(Ipv4Address::parse_or_throw("10.0.0.128")));
  EXPECT_FALSE(blocklist.blocks(Ipv4Address::parse_or_throw("10.0.1.0")));
  EXPECT_EQ(blocklist.blocked_addresses(), 256u + 1 + 256);
}

TEST(Blocklist, RejectsMalformedLines) {
  EXPECT_THROW(Blocklist::parse("not-an-entry"), ParseError);
  EXPECT_THROW(Blocklist::parse("10.0.0.9-10.0.0.1"), ParseError);
  EXPECT_THROW(Blocklist::parse("10.0.0.0/33"), ParseError);
}

TEST(Blocklist, DefaultBlocksSpecialUse) {
  const Blocklist blocklist = Blocklist::default_blocklist();
  EXPECT_TRUE(blocklist.blocks(Ipv4Address::parse_or_throw("10.1.2.3")));
  EXPECT_TRUE(blocklist.blocks(Ipv4Address::parse_or_throw("127.0.0.1")));
  EXPECT_TRUE(blocklist.blocks(Ipv4Address::parse_or_throw("224.0.0.1")));
  EXPECT_FALSE(blocklist.blocks(Ipv4Address::parse_or_throw("8.8.8.8")));
}

TEST(Blocklist, LoadsFromFile) {
  const auto path =
      std::filesystem::temp_directory_path() / "tass_blocklist_test.txt";
  {
    std::ofstream out(path);
    out << "# test\n172.16.0.0/12\n";
  }
  const Blocklist blocklist = Blocklist::load(path.string());
  EXPECT_TRUE(blocklist.blocks(Ipv4Address::parse_or_throw("172.20.0.1")));
  std::filesystem::remove(path);
  EXPECT_THROW(Blocklist::load(path.string()), Error);
}

TEST(ScanScope, SubtractsBlocklistFromWhitelist) {
  Blocklist blocklist;
  blocklist.add(Prefix::parse_or_throw("10.0.0.0/10"));
  const std::vector<Prefix> whitelist = {
      Prefix::parse_or_throw("10.0.0.0/8")};
  const ScanScope scope(whitelist, blocklist);
  EXPECT_EQ(scope.address_count(), (1ULL << 24) - (1ULL << 22));
  EXPECT_FALSE(scope.contains(Ipv4Address::parse_or_throw("10.10.0.1")));
  EXPECT_TRUE(scope.contains(Ipv4Address::parse_or_throw("10.64.0.1")));
  EXPECT_FALSE(scope.contains(Ipv4Address::parse_or_throw("11.0.0.1")));
}

// Probe oracle over a sorted address vector.
class VectorOracle final : public ProbeOracle {
 public:
  explicit VectorOracle(std::vector<std::uint32_t> responsive)
      : responsive_(std::move(responsive)) {}
  std::uint64_t count_responsive(net::Interval interval) const override {
    return static_cast<std::uint64_t>(
        std::upper_bound(responsive_.begin(), responsive_.end(),
                         interval.last.value()) -
        std::lower_bound(responsive_.begin(), responsive_.end(),
                         interval.first.value()));
  }

 private:
  std::vector<std::uint32_t> responsive_;
};

TEST(ScanEngine, Hitrate) {
  const std::vector<Prefix> whitelist = {
      Prefix::parse_or_throw("100.64.0.0/24")};
  const ScanScope scope(whitelist, Blocklist{});
  std::vector<std::uint32_t> responsive = {
      Prefix::parse_or_throw("100.64.0.0/24").network().value() + 3};
  const VectorOracle oracle(responsive);

  const ScanResult result = ScanEngine().run(scope, oracle);
  EXPECT_EQ(result.stats.probes_sent, 256u);
  EXPECT_EQ(result.stats.responses, 1u);
  EXPECT_DOUBLE_EQ(result.stats.hitrate(), 1.0 / 256.0);
}

TEST(ScanEngine, SnapshotOracleFindsExactlyTheGroundTruth) {
  census::TopologyParams topo_params;
  topo_params.seed = 3;
  topo_params.l_prefix_count = 60;
  const auto topology = census::generate_topology(topo_params);
  census::PopulationParams pop_params;
  pop_params.host_scale = 0.0005;
  const census::Snapshot snapshot = census::generate_population(
      topology, census::protocol_profile(census::Protocol::kHttp),
      pop_params);

  // Scan one occupied cell; the engine must find exactly its hosts.
  const auto counts = snapshot.counts_per_cell();
  std::uint32_t cell = 0;
  while (cell < counts.size() && counts[cell] == 0) ++cell;
  ASSERT_LT(cell, counts.size());
  const net::Prefix target = topology->m_partition.prefix(cell);

  const ScanScope scope(std::vector<net::Prefix>{target}, Blocklist{});
  const SnapshotOracle oracle(snapshot);
  const ScanResult result = ScanEngine().run(scope, oracle);
  EXPECT_EQ(result.stats.responses, counts[cell]);
}

TEST(ScanEngine, RunCountsMatchPerAddressReference) {
  census::TopologyParams topo_params;
  topo_params.seed = 77;
  topo_params.l_prefix_count = 90;
  const auto topology = census::generate_topology(topo_params);
  census::PopulationParams pop_params;
  pop_params.host_scale = 0.001;
  pop_params.seed = 5;
  const census::Snapshot snapshot = census::generate_population(
      topology, census::protocol_profile(census::Protocol::kSsh),
      pop_params);

  // A multi-interval scope: every third m-cell.
  std::vector<net::Prefix> cells;
  for (std::uint32_t cell = 0; cell < topology->m_partition.size();
       cell += 3) {
    cells.push_back(topology->m_partition.prefix(cell));
  }
  const ScanScope scope(cells, Blocklist{});
  const SnapshotOracle oracle(snapshot);

  // Reference: one membership probe per in-scope address.
  ScanStats reference;
  for (const net::Interval& interval : scope.targets().intervals()) {
    const std::uint64_t last = interval.last.value();
    for (std::uint64_t value = interval.first.value(); value <= last;
         ++value) {
      ++reference.probes_sent;
      if (snapshot.contains(Ipv4Address(static_cast<std::uint32_t>(value)))) {
        ++reference.responses;
      }
    }
  }

  const ScanResult result = ScanEngine().run(scope, oracle);
  EXPECT_EQ(result.stats.probes_sent, reference.probes_sent);
  EXPECT_EQ(result.stats.responses, reference.responses);
}

// run() and run_attributed() count without collecting, so their stats,
// cell counts and attribution split must equal a sequential
// core::attribute pass over the ground-truth hosts (ascending) that lie
// in the scope.
void expect_run_attributed_matches(const ScanScope& scope,
                                   const ProbeOracle& oracle,
                                   const std::vector<std::uint32_t>& hosts,
                                   const bgp::PrefixPartition& partition) {
  std::vector<std::uint32_t> in_scope;
  for (const std::uint32_t host : hosts) {
    if (scope.contains(Ipv4Address(host))) in_scope.push_back(host);
  }
  const core::Attribution reference =
      core::attribute(in_scope, partition, {1});

  const ScanResult plain = ScanEngine().run(scope, oracle);
  EXPECT_EQ(plain.stats.probes_sent, scope.address_count());
  EXPECT_EQ(plain.stats.responses, in_scope.size());

  const AttributedScanResult attributed =
      ScanEngine().run_attributed(scope, oracle, partition);
  EXPECT_EQ(attributed.result.stats.probes_sent, scope.address_count());
  EXPECT_EQ(attributed.result.stats.responses, in_scope.size());
  EXPECT_EQ(attributed.attributed, reference.attributed);
  EXPECT_EQ(attributed.unattributed, reference.unattributed);
  EXPECT_EQ(attributed.cell_counts, reference.counts);
}

TEST(ScanEngine, RunAttributedMatchesAttributedGroundTruth) {
  census::TopologyParams topo_params;
  topo_params.seed = 83;
  topo_params.l_prefix_count = 80;
  const auto topology = census::generate_topology(topo_params);
  census::PopulationParams pop_params;
  pop_params.host_scale = 0.001;
  pop_params.seed = 11;
  const census::Snapshot snapshot = census::generate_population(
      topology, census::protocol_profile(census::Protocol::kHttp),
      pop_params);
  const SnapshotOracle oracle(snapshot);
  const std::vector<std::uint32_t> hosts = snapshot.addresses();
  const bgp::PrefixPartition& partition = topology->m_partition;

  std::vector<net::Prefix> cells;
  for (std::uint32_t cell = 0; cell < partition.size(); cell += 2) {
    cells.push_back(partition.prefix(cell));
  }
  {
    SCOPED_TRACE("every other m-cell");
    expect_run_attributed_matches(ScanScope(cells, Blocklist{}), oracle,
                                  hosts, partition);
  }
  {
    // The l-prefixes minus a blocklist of small holes inside occupied
    // cells: each hole splits its cell into several pieces.
    Blocklist blocklist;
    const auto counts = snapshot.counts_per_cell();
    std::size_t holed = 0;
    for (std::uint32_t cell = 0; cell < partition.size() && holed < 20;
         ++cell) {
      const net::Prefix prefix = partition.prefix(cell);
      if (counts[cell] < 4 || prefix.length() > 24) continue;
      const std::uint32_t base = prefix.network().value();
      const std::uint64_t span = prefix.last().value() - base + 1;
      blocklist.add(net::Interval{Ipv4Address(base + span / 4),
                                  Ipv4Address(base + span / 4 + 9)});
      blocklist.add(net::Interval{Ipv4Address(base + span / 2),
                                  Ipv4Address(base + span / 2 + 99)});
      ++holed;
    }
    ASSERT_GT(holed, 0u);
    SCOPED_TRACE("l-prefixes with blocklist holes");
    expect_run_attributed_matches(
        ScanScope(topology->l_partition.prefixes(), blocklist), oracle,
        hosts, partition);
  }
  {
    // The whole space: most of it lies outside the partition, so hits
    // there must land in `unattributed`.
    SCOPED_TRACE("full space");
    expect_run_attributed_matches(ScanScope(net::IntervalSet::full_space()),
                                  oracle, hosts, partition);
  }
}

TEST(ScanEngine, RunAttributedCountsEdgeCells) {
  // A hand-built partition with a cell ending at 255.255.255.255, a
  // scope reaching unrouted space, blocklist holes splitting one cell
  // into pieces, and — after apply_delta — dead slots.
  const auto prefixes = [](std::initializer_list<const char*> texts) {
    std::vector<Prefix> out;
    for (const char* text : texts) out.push_back(Prefix::parse_or_throw(text));
    return out;
  };
  bgp::PrefixPartition partition(
      prefixes({"10.0.0.0/16", "10.1.0.0/24", "10.1.1.0/24", "10.2.0.0/15",
                "192.168.0.0/20", "192.168.32.0/19", "255.255.255.0/24"}));

  std::vector<std::uint32_t> hosts;
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (const char* text : {"10.0.0.0/13", "192.168.0.0/16",
                           "255.255.0.0/16"}) {
    const Prefix prefix = Prefix::parse_or_throw(text);
    const std::uint64_t span =
        prefix.last().value() - prefix.network().value() + 1;
    for (int i = 0; i < 4000; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      hosts.push_back(prefix.network().value() +
                      static_cast<std::uint32_t>((state >> 33) % span));
    }
  }
  for (const std::uint32_t edge : {0x0A000000u, 0x0A00FFFFu, 0xFFFFFF00u,
                                   0xFFFFFFFFu}) {
    hosts.push_back(edge);
  }
  std::sort(hosts.begin(), hosts.end());
  hosts.erase(std::unique(hosts.begin(), hosts.end()), hosts.end());
  const VectorOracle oracle(hosts);

  Blocklist blocklist;
  for (const char* hole : {"10.0.1.0/24", "10.0.5.16/28", "10.0.200.0/22",
                           "10.2.128.0/17", "255.255.255.128/27"}) {
    blocklist.add(Prefix::parse_or_throw(hole));
  }
  const ScanScope scope(prefixes({"10.0.0.0/13", "192.168.0.0/16",
                                  "255.255.0.0/16"}),
                        blocklist);
  {
    SCOPED_TRACE("fresh partition");
    expect_run_attributed_matches(scope, oracle, hosts, partition);
    const AttributedScanResult attributed =
        ScanEngine().run_attributed(scope, oracle, partition);
    EXPECT_GT(attributed.unattributed, 0u);
    EXPECT_GT(attributed.cell_counts[6], 0u);  // 255.255.255.0/24
  }

  bgp::PrefixPartition::Delta delta;
  delta.remove = prefixes({"10.1.0.0/24", "10.1.1.0/24", "192.168.0.0/20"});
  delta.add = prefixes({"10.1.0.0/23"});
  partition.apply_delta(delta);
  ASSERT_LT(partition.live_cells(), partition.size());
  {
    SCOPED_TRACE("partition with dead slots");
    expect_run_attributed_matches(scope, oracle, hosts, partition);
  }
}

TEST(ScanEngine, SnapshotOracleCountsTheGroundTruth) {
  census::TopologyParams topo_params;
  topo_params.seed = 29;
  topo_params.l_prefix_count = 60;
  const auto topology = census::generate_topology(topo_params);
  census::PopulationParams pop_params;
  pop_params.host_scale = 0.001;
  const census::Snapshot snapshot = census::generate_population(
      topology, census::protocol_profile(census::Protocol::kSsh),
      pop_params);
  const SnapshotOracle oracle(snapshot);
  const std::vector<std::uint32_t> hosts = snapshot.addresses();
  ASSERT_FALSE(hosts.empty());

  // Random intervals, half of them anchored on a host so they hit.
  std::uint64_t state = 17;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>(state >> 32);
  };
  for (int i = 0; i < 2000; ++i) {
    const std::uint32_t a =
        i % 2 == 0 ? hosts[next() % hosts.size()] : next();
    const std::uint32_t width = next() >> (next() % 32);
    const std::uint32_t b = a > ~0u - width ? ~0u : a + width;
    const net::Interval interval{Ipv4Address(a), Ipv4Address(b)};
    const auto brute = std::count_if(
        hosts.begin(), hosts.end(),
        [&](std::uint32_t host) { return host >= a && host <= b; });
    EXPECT_EQ(oracle.count_responsive(interval),
              static_cast<std::uint64_t>(brute))
        << net::Ipv4Address(a).to_string() << "-"
        << net::Ipv4Address(b).to_string();
  }
}

TEST(ScanScope, HandlesTopOfAddressSpace) {
  // Regression for inclusive-upper-bound handling: a scope ending at
  // 255.255.255.255 must be containable, countable, and enumerable
  // without the probe loop or the LpmIndex wrapping around.
  net::IntervalSet targets;
  targets.insert(net::Interval{Ipv4Address(0xffffff00u),
                               Ipv4Address(0xffffffffu)});
  const ScanScope scope(targets);
  EXPECT_EQ(scope.address_count(), 256u);
  EXPECT_TRUE(scope.contains(Ipv4Address(0xffffffffu)));
  EXPECT_TRUE(scope.contains(Ipv4Address(0xffffff00u)));
  EXPECT_FALSE(scope.contains(Ipv4Address(0xfffffeffu)));

  const VectorOracle oracle({0xffffff05u, 0xffffffffu});
  const ScanResult result = ScanEngine().run(scope, oracle);
  EXPECT_EQ(result.stats.probes_sent, 256u);
  EXPECT_EQ(result.stats.responses, 2u);
}

TEST(CostModel, PerProtocolHandshakes) {
  const CostModel ftp = CostModel::for_protocol(census::Protocol::kFtp);
  const CostModel https = CostModel::for_protocol(census::Protocol::kHttps);
  EXPECT_GT(https.handshake_packets_per_hit,
            ftp.handshake_packets_per_hit);  // TLS costs more
  EXPECT_DOUBLE_EQ(ftp.packets(100, 0), 100.0);
}

}  // namespace
}  // namespace tass::scan
