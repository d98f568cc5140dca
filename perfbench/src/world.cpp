#include "world.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "bench_common.hpp"
#include "bgp/table6.hpp"
#include "scan/scope6.hpp"
#include "util/rng.hpp"

namespace perfbench {

Sizes sizes_for(bool tiny) {
  Sizes sizes;
  sizes.l_prefixes = tiny ? 400 : 3000;
  sizes.host_scale = 0.02;
  sizes.v6_l_prefixes = tiny ? 150 : 1200;
  sizes.churn_updates_per_step = tiny ? 20 : 600;
  sizes.pace_seconds = 0.025;
  sizes.serve_batch = tiny ? 64 : 256;
  sizes.serve_depth = tiny ? 4 : 32;
  sizes.serve_ring = tiny ? 16 : 1024;
  sizes.open_rate = tiny ? 500.0 : 4000.0;
  sizes.phi = 0.95;
  sizes.max_overshoot = 0.05;
  return sizes;
}

WorldV4 make_world_v4(std::uint64_t seed, const Sizes& sizes) {
  bench::BenchConfig config;
  config.seed = seed;
  config.l_prefix_count = sizes.l_prefixes;
  config.host_scale = sizes.host_scale;
  config.months = 2;

  WorldV4 world;
  world.topology = bench::make_topology(config);
  world.series = std::make_unique<census::CensusSeries>(
      bench::make_series(world.topology, census::Protocol::kHttp, config));
  world.pfx2as_text = bgp::format_pfx2as(world.topology->table.to_pfx2as());
  world.seed_oracle =
      std::make_unique<scan::SnapshotOracle>(world.series->month(0));
  world.next_oracle =
      std::make_unique<scan::SnapshotOracle>(world.series->month(1));
  world.seed_hosts = world.series->month(0).addresses();
  world.next_hosts = world.series->month(1).total_hosts();

  // The RFC special-use registry plus a few small holes inside
  // host-bearing cells, so the scope subtraction path does real work.
  world.blocklist = scan::Blocklist::default_blocklist();
  util::Rng rng(util::mix64(seed, 0xb10c));
  const bgp::PrefixPartition& cells = world.topology->m_partition;
  for (int hole = 0; hole < 6 && !world.seed_hosts.empty(); ++hole) {
    const std::uint32_t address =
        world.seed_hosts[rng.bounded(world.seed_hosts.size())];
    const auto cell = cells.locate(net::Ipv4Address(address));
    if (!cell) continue;
    const net::Prefix prefix = cells.prefix(*cell);
    const int length = std::min(prefix.length() + 4, 28);
    world.blocklist.add(net::Prefix(net::Ipv4Address(address), length));
  }
  return world;
}

namespace {

// A random /64 inside a prefix of length <= 64, as its high word.
std::uint64_t random_subnet(const net::Ipv6Prefix& prefix, util::Rng& rng) {
  const int free_bits = 64 - prefix.length();
  const std::uint64_t mask =
      free_bits <= 0 ? 0 : (free_bits >= 64 ? ~0ULL : ((1ULL << free_bits) - 1));
  return prefix.network().hi() | (rng() & mask);
}

}  // namespace

WorldV6 make_world_v6(std::uint64_t seed, const Sizes& sizes) {
  util::Rng rng(util::mix64(seed, 0x6));
  // l-prefixes of /32, /36 or /40, one per /32 slot under 2a00::/16 (so
  // they are disjoint); about half announce more-specifics inside.
  std::vector<bgp::Pfx2As6Record> records;
  for (std::size_t i = 0; i < sizes.v6_l_prefixes; ++i) {
    const int length = 32 + 4 * static_cast<int>(rng.bounded(3));
    const net::Ipv6Prefix l(
        net::Ipv6Address((0x2a00ULL << 48) | (static_cast<std::uint64_t>(i) << 32), 0),
        length);
    const auto origin = static_cast<std::uint32_t>(1 + rng.bounded(64000));
    records.push_back({l, {origin}});
    if (!rng.chance(0.55)) continue;
    int specifics = 1;
    while (specifics < 5 && rng.chance(0.5)) ++specifics;
    for (int s = 0; s < specifics; ++s) {
      const int sub = std::min(length + 4 + static_cast<int>(rng.bounded(13)), 56);
      const net::Ipv6Prefix m(net::Ipv6Address(random_subnet(l, rng), 0), sub);
      records.push_back({m, {origin + 1 + static_cast<std::uint32_t>(rng.bounded(50))}});
    }
  }

  WorldV6 world;
  world.pfx2as6_text = bgp::format_pfx2as6(records);
  const bgp::RoutingTable6 table = bgp::RoutingTable6::from_pfx2as(records);
  const bgp::PrefixPartition6 cells = table.m_partition();

  // Heavy-tailed host density per cell, hosts clustered in a few /64s.
  // Month 1 keeps ~90% of the hosts and adds ~10% new ones in the same
  // subnets; its target list adds low-IID guesses spread over every
  // cell (the conjectured part a real v6 target list carries).
  std::vector<net::Ipv6Address> seed_hosts;
  std::vector<net::Ipv6Address> next_hosts;
  std::vector<net::Ipv6Address> guesses;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const net::Ipv6Prefix cell = cells.prefix(c);
    const int guess_count = 4 + (64 - cell.length()) / 2;
    for (int g = 0; g < guess_count; ++g) {
      guesses.emplace_back(random_subnet(cell, rng), 1);
    }
    if (rng.chance(0.6)) continue;
    const double draw = std::exp(1.6 * (rng.uniform() + rng.uniform() +
                                        rng.uniform() - 1.5) * 1.7);
    const auto hosts = static_cast<std::size_t>(std::min(3000.0, 4.0 * draw)) + 1;
    const std::size_t subnets = 1 + hosts / 24;
    std::vector<std::uint64_t> nets;
    for (std::size_t s = 0; s < subnets; ++s) nets.push_back(random_subnet(cell, rng));
    for (std::size_t h = 0; h < hosts; ++h) {
      const net::Ipv6Address host(nets[rng.bounded(nets.size())], rng() | 0x100);
      seed_hosts.push_back(host);
      if (rng.chance(0.9)) next_hosts.push_back(host);
      if (rng.chance(0.1)) {
        next_hosts.emplace_back(nets[rng.bounded(nets.size())], rng() | 0x100);
      }
    }
  }
  std::sort(next_hosts.begin(), next_hosts.end());
  next_hosts.erase(std::unique(next_hosts.begin(), next_hosts.end()),
                   next_hosts.end());

  for (const net::Ipv6Address& host : seed_hosts) {
    world.seed_hitlist_text += host.to_string();
    world.seed_hitlist_text += '\n';
  }
  world.next_candidates = next_hosts;
  world.next_candidates.insert(world.next_candidates.end(), guesses.begin(),
                               guesses.end());
  // A target list is probed in its own (shuffled) order.
  rng.shuffle(std::span(world.next_candidates));
  world.seed_hosts = std::move(seed_hosts);
  world.next_hosts = std::move(next_hosts);

  for (int hole = 0; hole < 4 && !world.seed_hosts.empty(); ++hole) {
    const net::Ipv6Address host =
        world.seed_hosts[rng.bounded(world.seed_hosts.size())];
    world.blocklist.add(net::Ipv6Prefix(host, 60));
  }
  scan::ScanScope6 full(table.l_prefixes(), world.blocklist);
  world.full_scope_candidates = full.add_candidates(world.next_candidates);
  return world;
}

ChurnTrace make_churn_trace(const WorldV4& world, std::uint64_t seed,
                            std::size_t steps, std::size_t updates_per_step) {
  const census::Topology& topology = *world.topology;
  const bgp::PrefixPartition& cells = topology.m_partition;
  const std::vector<std::uint32_t> seed_counts =
      world.series->month(0).counts_per_cell();

  // The plan table: one route per m-cell, its l-prefix's origin.
  std::vector<std::uint32_t> order(cells.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return cells.prefix(a) < cells.prefix(b);
  });
  ChurnTrace trace;
  std::map<net::Prefix, std::vector<std::uint32_t>> live;
  for (const std::uint32_t cell : order) {
    const std::vector<std::uint32_t> origins{
        topology.l_origin_as[topology.cell_to_l[cell]]};
    trace.table.push_back({cells.prefix(cell), origins});
    trace.counts.push_back(seed_counts[cell]);
    live.emplace(cells.prefix(cell), origins);
  }

  std::vector<net::Prefix> pool;  // live prefixes, random access
  std::map<net::Prefix, std::size_t> pool_index;
  for (const auto& [prefix, origins] : live) {
    pool_index[prefix] = pool.size();
    pool.push_back(prefix);
  }
  const auto pool_remove = [&](net::Prefix prefix) {
    const std::size_t at = pool_index.at(prefix);
    pool_index[pool.back()] = at;
    pool[at] = pool.back();
    pool.pop_back();
    pool_index.erase(prefix);
  };
  const auto pool_add = [&](net::Prefix prefix) {
    pool_index[prefix] = pool.size();
    pool.push_back(prefix);
  };

  util::Rng rng(util::mix64(seed, 0xc4u));
  std::map<net::Prefix, std::size_t> touched;  // prefix -> last step
  for (std::size_t step = 0; step < steps; ++step) {
    bgp::RibDelta delta;
    std::uint64_t updates = 0;
    std::size_t tries = 0;
    while (updates < updates_per_step && tries < 50 * updates_per_step) {
      ++tries;
      const net::Prefix victim = pool[rng.bounded(pool.size())];
      const auto last = touched.find(victim);
      if (last != touched.end() &&
          last->second + ChurnTrace::kCoolingSteps > step) {
        continue;
      }
      std::vector<std::uint32_t>& origins = live.at(victim);
      // Every step opens with a split, so every step changes the
      // partition and therefore publishes a plan.
      // As in micro_stream, 45% of the updates that can split do, and
      // only cells shorter than /24 split; cells shorter than /16 do not
      // either, so one step's rescan cannot dwarf the rest.
      const bool split = victim.length() >= 16 && victim.length() < 24 &&
                         (updates == 0 || rng.chance(0.45));
      if (updates == 0 && !split) continue;
      if (split) {
        const std::vector<std::uint32_t> keep = origins;
        delta.withdraw.push_back(victim);
        live.erase(victim);
        pool_remove(victim);
        touched.erase(victim);
        for (const net::Prefix half : {victim.lower_half(), victim.upper_half()}) {
          delta.announce.push_back({half, keep});
          live.emplace(half, keep);
          pool_add(half);
          touched[half] = step;
        }
        updates += 3;
      } else {
        origins = {origins.front() + 1 + static_cast<std::uint32_t>(rng.bounded(100))};
        delta.reorigin.push_back({victim, origins});
        touched[victim] = step;
        updates += 1;
      }
    }
    const auto by_prefix = [](const bgp::Pfx2AsRecord& a,
                              const bgp::Pfx2AsRecord& b) {
      return a.prefix < b.prefix;
    };
    std::sort(delta.announce.begin(), delta.announce.end(), by_prefix);
    std::sort(delta.withdraw.begin(), delta.withdraw.end());
    std::sort(delta.reorigin.begin(), delta.reorigin.end(), by_prefix);
    delta.validate();
    trace.wires.push_back(bgp::encode_mrt_updates(
        delta, static_cast<std::uint32_t>(1441584000 + step)));
    trace.step_updates.push_back(updates);
    trace.updates_total += updates;
    trace.deltas.push_back(std::move(delta));
  }
  for (const auto& [prefix, origins] : live) {
    trace.final_table.push_back({prefix, origins});
  }
  return trace;
}

}  // namespace perfbench
