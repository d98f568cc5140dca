// serve/: wire codec contract and the daemon end to end — every query
// answered over loopback must agree exactly with a direct library call
// on the same image, reloads must swap generations without a gap in
// service, and malformed or unservable requests must come back as
// well-formed error frames.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bgp/partition.hpp"
#include "bgp/reduce.hpp"
#include "core/ranking.hpp"
#include "core/selection.hpp"
#include "net/family.hpp"
#include "scan/sampled_scope.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "state/image.hpp"
#include "util/endian.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace tass::serve {
namespace {

std::string temp_path(const std::string& stem) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir ? dir : "/tmp") + "/" + stem + "." +
         std::to_string(static_cast<long>(::getpid()));
}

// A tiny v4 topology: `n` disjoint cells of length `length` packed from
// 10.0.0.0 up (10.x.0.0/16 by default) with seeded per-cell host
// counts. Different (n, seed) pairs produce different topology
// fingerprints.
std::string make_v4_image(const std::string& stem, std::size_t n,
                          std::uint64_t seed, std::uint8_t length = 16) {
  std::vector<net::Prefix> prefixes;
  for (std::size_t i = 0; i < n; ++i) {
    prefixes.emplace_back(
        net::Ipv4Address((10u << 24) |
                         (static_cast<std::uint32_t>(i) << (32 - length))),
        length);
  }
  bgp::PrefixPartition partition(std::move(prefixes));
  std::vector<std::uint32_t> counts(partition.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = static_cast<std::uint32_t>((i * 37 + seed) % 450);
  }
  const std::string path = temp_path(stem) + ".tsim";
  state::save_image(
      path, partition,
      core::rank_by_density(counts, partition, core::PrefixMode::kMore));
  return path;
}

// A tiny v6 topology: `n` disjoint /48 cells under 2001::/16.
std::string make_v6_image(const std::string& stem, std::size_t n,
                          std::uint64_t seed) {
  std::vector<net::Ipv6Prefix> prefixes;
  for (std::size_t i = 0; i < n; ++i) {
    prefixes.emplace_back(
        net::Ipv6Address(0x2001000000000000ULL |
                             (static_cast<std::uint64_t>(i) << 16),
                         0),
        48);
  }
  bgp::PrefixPartition6 partition(std::move(prefixes));
  std::vector<std::uint32_t> counts(partition.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = static_cast<std::uint32_t>((i * 53 + seed) % 300);
  }
  const std::string path = temp_path(stem) + ".tsi6";
  state::save_image(
      path, partition,
      core::rank_by_density(counts, partition, core::PrefixMode::kMore));
  return path;
}

struct RunningServer {
  explicit RunningServer(ServerOptions options)
      : server(std::move(options)),
        thread([this] { server.run(); }) {}
  ~RunningServer() {
    server.stop();
    thread.join();
  }
  Server server;
  std::thread thread;
};

TEST(ServeWire, HeaderRoundTrip) {
  RequestHeader request;
  request.op = Op::kTally;
  request.family = net::AddressFamily::kIpv6;
  request.request_id = 0xdeadbeef;
  request.count = 4096;
  std::vector<std::uint8_t> bytes;
  encode_request_header(bytes, request);
  ASSERT_EQ(bytes.size(), kRequestHeaderBytes);
  Cursor cursor{std::span<const std::uint8_t>(bytes)};
  const RequestHeader decoded = decode_request_header(cursor);
  EXPECT_EQ(decoded.op, request.op);
  EXPECT_EQ(decoded.family, request.family);
  EXPECT_EQ(decoded.request_id, request.request_id);
  EXPECT_EQ(decoded.count, request.count);

  ResponseHeader response;
  response.op = Op::kRank;
  response.status = Status::kOk;
  response.request_id = 7;
  response.generation = 42;
  response.fingerprint = 0x0123456789abcdefULL;
  response.count = 12;
  bytes.clear();
  encode_response_header(bytes, response);
  ASSERT_EQ(bytes.size(), kResponseHeaderBytes);
  Cursor response_cursor{std::span<const std::uint8_t>(bytes)};
  const ResponseHeader round = decode_response_header(response_cursor);
  EXPECT_EQ(round.op, response.op);
  EXPECT_EQ(round.status, response.status);
  EXPECT_EQ(round.generation, response.generation);
  EXPECT_EQ(round.fingerprint, response.fingerprint);
  EXPECT_EQ(round.count, response.count);
}

TEST(ServeWire, RejectsMalformedHeaders) {
  // Truncated.
  std::vector<std::uint8_t> bytes(4, 0);
  Cursor truncated{std::span<const std::uint8_t>(bytes)};
  EXPECT_THROW(decode_request_header(truncated), FormatError);

  // Unknown op.
  bytes.assign(kRequestHeaderBytes, 0);
  bytes[0] = 200;
  Cursor bad_op{std::span<const std::uint8_t>(bytes)};
  EXPECT_THROW(decode_request_header(bad_op), FormatError);

  // Unknown family.
  bytes.assign(kRequestHeaderBytes, 0);
  bytes[0] = static_cast<std::uint8_t>(Op::kLocate);
  bytes[1] = 5;
  Cursor bad_family{std::span<const std::uint8_t>(bytes)};
  EXPECT_THROW(decode_request_header(bad_family), FormatError);

  // Non-zero reserved bits.
  bytes.assign(kRequestHeaderBytes, 0);
  bytes[0] = static_cast<std::uint8_t>(Op::kPing);
  bytes[2] = 1;
  Cursor reserved{std::span<const std::uint8_t>(bytes)};
  EXPECT_THROW(decode_request_header(reserved), FormatError);
}

TEST(ServeWire, FrameLayerBoundsAndReassembly) {
  const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
  const auto framed = frame(payload);
  ASSERT_EQ(framed.size(), 4 + payload.size());

  // A partial frame yields nothing and does not advance the offset.
  std::size_t offset = 0;
  const std::span<const std::uint8_t> partial(framed.data(),
                                              framed.size() - 1);
  EXPECT_FALSE(next_frame(partial, offset).has_value());
  EXPECT_EQ(offset, 0u);

  // Two back-to-back frames slice cleanly.
  std::vector<std::uint8_t> two = framed;
  two.insert(two.end(), framed.begin(), framed.end());
  offset = 0;
  const auto first = next_frame(two, offset);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->size(), payload.size());
  const auto second = next_frame(two, offset);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(offset, two.size());

  // An oversized announcement is a protocol error.
  std::vector<std::uint8_t> oversized;
  put_u32(oversized, kMaxFrameBytes + 1);
  offset = 0;
  EXPECT_THROW(next_frame(oversized, offset), FormatError);
}

TEST(ServeWire, PrefixRowsRoundTripBothFamilies) {
  std::vector<std::uint8_t> bytes;
  const auto v4 = net::Prefix::parse_or_throw("10.7.0.0/16");
  const auto v6 = net::Ipv6Prefix::parse_or_throw("2001:db8::/32");
  put_prefix(bytes, v4);
  put_prefix(bytes, v6);
  Cursor cursor{std::span<const std::uint8_t>(bytes)};
  EXPECT_EQ(read_prefix(cursor, net::AddressFamily::kIpv4).v4(), v4);
  EXPECT_EQ(read_prefix(cursor, net::AddressFamily::kIpv6).v6(), v6);
  EXPECT_EQ(cursor.remaining(), 0u);
}

TEST(ServeDaemon, AnswersMatchDirectLibraryCalls) {
  const std::string v4_path = make_v4_image("serve_test_v4", 32, 3);
  const std::string v6_path = make_v6_image("serve_test_v6", 24, 5);
  const state::StateImage direct4 = state::StateImage::load(v4_path);
  const state::StateImage6 direct6 = state::StateImage6::load(v6_path);

  ServerOptions options;
  options.v4_image_path = v4_path;
  options.v6_image_path = v6_path;
  options.threads = 2;
  RunningServer running(std::move(options));
  Client client("127.0.0.1", running.server.port());

  // ping + info
  EXPECT_EQ(client.ping().status, Status::kOk);
  const auto [info_header, info] = client.info(net::AddressFamily::kIpv4);
  EXPECT_EQ(info_header.fingerprint, direct4.info().fingerprint);
  EXPECT_EQ(info.total_hosts, direct4.info().total_hosts);
  EXPECT_EQ(info.cells, direct4.info().cell_count);
  EXPECT_EQ(info.family, 4u);
  const auto [info6_header, info6] = client.info(net::AddressFamily::kIpv6);
  EXPECT_EQ(info6_header.fingerprint, direct6.info().fingerprint);
  EXPECT_EQ(info6.family, 6u);

  // rank: served rows are the head of the direct ranking, bit for bit.
  const auto [rank_header, rows] = client.rank(net::AddressFamily::kIpv4, 8);
  const auto view = direct4.ranking();
  ASSERT_EQ(rows.size(), std::min<std::size_t>(8, view.ranked.size()));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].prefix.v4(), view.ranked[i].prefix);
    EXPECT_EQ(rows[i].hosts, view.ranked[i].hosts);
    EXPECT_EQ(rows[i].density, view.ranked[i].density);
  }

  // plan: identical selection as select_by_density on the same view.
  PlanParams params;
  params.phi = 0.8;
  const auto [plan_header, plan] =
      client.plan(net::AddressFamily::kIpv4, params);
  core::SelectionParams direct_params;
  direct_params.phi = 0.8;
  const auto direct_plan = core::select_by_density(view, direct_params);
  EXPECT_EQ(plan.selected_addresses, direct_plan.selected_addresses);
  EXPECT_EQ(plan.covered_hosts, direct_plan.covered_hosts);
  EXPECT_EQ(plan.total_hosts, direct_plan.total_hosts);
  ASSERT_EQ(plan.prefixes.size(), direct_plan.prefixes.size());
  for (std::size_t i = 0; i < plan.prefixes.size(); ++i) {
    EXPECT_EQ(plan.prefixes[i].v4(), direct_plan.prefixes[i]);
  }
  // A phi outside (0, 1] or NaN is a well-formed error frame, not a
  // daemon abort, and the connection keeps serving.
  for (const double bad_phi : {1.5, std::nan(""), 0.0, -0.25,
                               std::numeric_limits<double>::infinity()}) {
    PlanParams bad = params;
    bad.phi = bad_phi;
    EXPECT_THROW(client.plan(net::AddressFamily::kIpv4, bad), Error)
        << "phi " << bad_phi;
  }
  EXPECT_EQ(client.ping().status, Status::kOk);

  // locate: in-partition, boundary and unrouted addresses.
  std::vector<std::uint32_t> addresses4;
  for (std::uint32_t i = 0; i < 400; ++i) {
    addresses4.push_back((10u << 24) | ((i % 40) << 16) | (i * 977u % 65536));
  }
  addresses4.push_back(0xE0000001);  // 224.0.0.1, unrouted
  const auto [locate_header, cells] = client.locate(addresses4);
  EXPECT_EQ(locate_header.fingerprint, direct4.info().fingerprint);
  std::vector<std::uint32_t> direct_cells(addresses4.size());
  direct4.partition().locate_many(addresses4, direct_cells);
  EXPECT_EQ(cells, direct_cells);

  // tally: the nonzero histogram equals a direct tally_cells pass.
  const auto [tally_header, tally] = client.tally(addresses4);
  std::vector<std::uint32_t> direct_counts(direct4.partition().size());
  std::uint64_t attributed = 0;
  std::uint64_t unattributed = 0;
  direct4.partition().tally_cells(std::span(addresses4), direct_counts,
                                 attributed, unattributed);
  EXPECT_EQ(tally.attributed, attributed);
  EXPECT_EQ(tally.unattributed, unattributed);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> direct_pairs;
  for (std::uint32_t i = 0; i < direct_counts.size(); ++i) {
    if (direct_counts[i] != 0) direct_pairs.emplace_back(i, direct_counts[i]);
  }
  EXPECT_EQ(tally.cells, direct_pairs);

  // v6 locate via the same connection.
  std::vector<net::Ipv6Address> addresses6;
  for (std::uint64_t i = 0; i < 200; ++i) {
    addresses6.emplace_back(
        0x2001000000000000ULL | ((i % 30) << 16), i * 7919);
  }
  const auto [locate6_header, cells6] = client.locate(addresses6);
  EXPECT_EQ(locate6_header.fingerprint, direct6.info().fingerprint);
  std::vector<std::uint32_t> direct_cells6(addresses6.size());
  direct6.partition().locate_many(addresses6, direct_cells6);
  EXPECT_EQ(cells6, direct_cells6);

  // A second concurrent connection is served while the first stays open.
  Client second("127.0.0.1", running.server.port());
  EXPECT_EQ(second.ping().status, Status::kOk);

  const auto [stats_header, stats] = client.stats();
  EXPECT_GE(stats.requests, 9u);
  EXPECT_GE(stats.batched_addresses, addresses4.size() + addresses6.size());

  std::remove(v4_path.c_str());
  std::remove(v6_path.c_str());
}

TEST(ServeDaemon, OversizedResponseIsAnErrorFrame) {
  // 50k /24 cells: a 45000-row rank reply (24-byte v4 rows) is past the
  // 1 MiB frame cap. The daemon must answer with an error frame naming
  // the byte count instead of a frame its own client rejects, and the
  // same connection must keep serving.
  const std::string v4_path =
      make_v4_image("serve_test_frame_cap", 50'000, 9, 24);
  ServerOptions options;
  options.v4_image_path = v4_path;
  options.threads = 2;
  RunningServer running(std::move(options));
  Client client("127.0.0.1", running.server.port());

  try {
    client.rank(net::AddressFamily::kIpv4, 45'000);
    ADD_FAILURE() << "an over-cap rank reply must be an error frame";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("remote error"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("frame cap"), std::string::npos)
        << e.what();
  }
  const auto [header, rows] = client.rank(net::AddressFamily::kIpv4, 1'000);
  EXPECT_EQ(header.status, Status::kOk);
  EXPECT_EQ(rows.size(), 1'000u);
  EXPECT_EQ(client.ping().status, Status::kOk);
  std::remove(v4_path.c_str());
}

TEST(ServeDaemon, SampleDesignMatchesDirectPlanSample) {
  const std::string v4_path = make_v4_image("serve_test_sample4", 32, 3);
  const std::string v6_path = make_v6_image("serve_test_sample6", 24, 5);
  const state::StateImage direct4 = state::StateImage::load(v4_path);
  const state::StateImage6 direct6 = state::StateImage6::load(v6_path);

  ServerOptions options;
  options.v4_image_path = v4_path;
  options.v6_image_path = v6_path;
  options.threads = 2;
  RunningServer running(std::move(options));
  Client client("127.0.0.1", running.server.port());

  SampleParams wire_params;
  wire_params.budget = 500;
  wire_params.floor = 4;
  wire_params.seed = 7;
  scan::SampleParams direct_params;
  direct_params.budget = 500;
  direct_params.floor = 4;
  direct_params.seed = 7;

  const auto [header, reply] =
      client.sample(net::AddressFamily::kIpv4, wire_params);
  EXPECT_EQ(header.status, Status::kOk);
  EXPECT_EQ(header.fingerprint, direct4.info().fingerprint);
  const auto direct_design =
      scan::plan_sample(direct4.ranking(), direct_params);
  EXPECT_EQ(reply.total_draws, direct_design.total_draws);
  EXPECT_EQ(reply.frame_units, direct_design.frame_units);
  EXPECT_EQ(reply.seed, direct_design.seed);
  ASSERT_EQ(reply.rows.size(), direct_design.cells.size());
  for (std::size_t i = 0; i < reply.rows.size(); ++i) {
    EXPECT_EQ(reply.rows[i].cell, direct_design.cells[i].cell);
    EXPECT_EQ(reply.rows[i].prefix.v4(), direct_design.cells[i].prefix);
    EXPECT_EQ(reply.rows[i].universe, direct_design.cells[i].universe);
    EXPECT_EQ(reply.rows[i].draws, direct_design.cells[i].draws);
    EXPECT_EQ(reply.rows[i].seed_hosts, direct_design.cells[i].seed_hosts);
  }
  // The reply is everything a client needs to reconstruct the exact
  // target list locally.
  scan::SampleDesign rebuilt;
  rebuilt.total_draws = reply.total_draws;
  rebuilt.frame_units = reply.frame_units;
  rebuilt.seed = reply.seed;
  for (const auto& row : reply.rows) {
    scan::SampleCell cell;
    cell.cell = row.cell;
    cell.prefix = row.prefix.v4().value();
    cell.universe = row.universe;
    cell.draws = row.draws;
    cell.seed_hosts = row.seed_hosts;
    rebuilt.cells.push_back(cell);
  }
  const scan::SampledScope from_reply(rebuilt);
  const scan::SampledScope from_direct(direct_design);
  ASSERT_EQ(from_reply.target_count(), from_direct.target_count());
  for (std::size_t i = 0; i < from_reply.target_count(); ++i) {
    ASSERT_EQ(from_reply.target(i), from_direct.target(i));
  }

  // v6 design through the same connection.
  const auto [header6, reply6] =
      client.sample(net::AddressFamily::kIpv6, wire_params);
  EXPECT_EQ(header6.fingerprint, direct6.info().fingerprint);
  const auto direct_design6 =
      scan::plan_sample(direct6.ranking(), direct_params);
  EXPECT_EQ(reply6.total_draws, direct_design6.total_draws);
  ASSERT_EQ(reply6.rows.size(), direct_design6.cells.size());
  for (std::size_t i = 0; i < reply6.rows.size(); ++i) {
    EXPECT_EQ(reply6.rows[i].prefix.v6(), direct_design6.cells[i].prefix);
    EXPECT_EQ(reply6.rows[i].draws, direct_design6.cells[i].draws);
  }

  // A malformed phi is a well-formed error frame, not a daemon abort,
  // and the connection keeps serving.
  SampleParams bad = wire_params;
  bad.phi = 0.0;
  EXPECT_THROW(client.sample(net::AddressFamily::kIpv4, bad), Error);
  EXPECT_EQ(client.ping().status, Status::kOk);

  std::remove(v4_path.c_str());
  std::remove(v6_path.c_str());
}

TEST(ServeDaemon, ReduceMatchesDirectLibraryCalls) {
  const std::string v4_path = make_v4_image("serve_test_reduce4", 32, 3);
  const std::string v6_path = make_v6_image("serve_test_reduce6", 24, 5);
  const state::StateImage direct4 = state::StateImage::load(v4_path);
  const state::StateImage6 direct6 = state::StateImage6::load(v6_path);

  ServerOptions options;
  options.v4_image_path = v4_path;
  options.v6_image_path = v6_path;
  options.threads = 2;
  RunningServer running(std::move(options));
  Client client("127.0.0.1", running.server.port());

  ReduceParams wire_params;
  wire_params.phi = 0.9;
  wire_params.max_overshoot = 0.10;
  const auto [header, reply] =
      client.reduce(net::AddressFamily::kIpv4, wire_params);
  EXPECT_EQ(header.status, Status::kOk);
  EXPECT_EQ(header.fingerprint, direct4.info().fingerprint);

  core::SelectionParams selection_params;
  selection_params.phi = 0.9;
  const auto selection =
      core::select_by_density(direct4.ranking(), selection_params);
  bgp::ReduceParams reduce_params;
  reduce_params.max_overshoot = 0.10;
  const auto direct = bgp::reduce(
      std::span<const net::Prefix>(selection.prefixes), reduce_params);
  EXPECT_EQ(reply.selected_prefixes, selection.prefixes.size());
  EXPECT_EQ(reply.selected_addresses, selection.selected_addresses);
  EXPECT_EQ(reply.overshoot_addresses, direct.overshoot_addresses);
  EXPECT_EQ(reply.merges, direct.merges);
  ASSERT_EQ(reply.prefixes.size(), direct.prefixes.size());
  for (std::size_t i = 0; i < reply.prefixes.size(); ++i) {
    EXPECT_EQ(reply.prefixes[i].v4(), direct.prefixes[i]);
  }

  // v6 through the same connection.
  const auto [header6, reply6] =
      client.reduce(net::AddressFamily::kIpv6, wire_params);
  EXPECT_EQ(header6.fingerprint, direct6.info().fingerprint);
  const auto selection6 =
      core::select_by_density(direct6.ranking(), selection_params);
  const auto direct6_reduced = bgp::reduce(
      std::span<const net::Ipv6Prefix>(selection6.prefixes), reduce_params);
  EXPECT_EQ(reply6.selected_prefixes, selection6.prefixes.size());
  EXPECT_EQ(reply6.overshoot_addresses, direct6_reduced.overshoot_addresses);
  ASSERT_EQ(reply6.prefixes.size(), direct6_reduced.prefixes.size());
  for (std::size_t i = 0; i < reply6.prefixes.size(); ++i) {
    EXPECT_EQ(reply6.prefixes[i].v6(), direct6_reduced.prefixes[i]);
  }

  // Malformed parameters are well-formed error frames, not daemon
  // aborts, and the connection keeps serving.
  ReduceParams bad = wire_params;
  bad.phi = 0.0;
  EXPECT_THROW(client.reduce(net::AddressFamily::kIpv4, bad), Error);
  bad = wire_params;
  bad.max_overshoot = -0.5;
  EXPECT_THROW(client.reduce(net::AddressFamily::kIpv4, bad), Error);
  EXPECT_EQ(client.ping().status, Status::kOk);

  std::remove(v4_path.c_str());
  std::remove(v6_path.c_str());
}

TEST(ServeDaemon, UnservedFamilyIsAWellFormedError) {
  const std::string v4_path = make_v4_image("serve_test_only4", 8, 11);
  ServerOptions options;
  options.v4_image_path = v4_path;
  options.threads = 2;
  RunningServer running(std::move(options));
  Client client("127.0.0.1", running.server.port());

  EXPECT_THROW(client.info(net::AddressFamily::kIpv6), Error);
  // The connection survives the error frame and keeps serving.
  EXPECT_EQ(client.ping().status, Status::kOk);
  std::remove(v4_path.c_str());
}

TEST(ServeDaemon, ReloadSwapsTheServedGeneration) {
  const std::string path_a = make_v4_image("serve_test_gen_a", 16, 21);
  const std::string path_b = make_v4_image("serve_test_gen_b", 24, 22);
  const std::uint64_t fp_a = state::StateImage::load(path_a).info().fingerprint;
  const std::uint64_t fp_b = state::StateImage::load(path_b).info().fingerprint;
  ASSERT_NE(fp_a, fp_b);

  ServerOptions options;
  options.v4_image_path = path_a;
  options.threads = 2;
  RunningServer running(std::move(options));
  Client client("127.0.0.1", running.server.port());

  const auto [before, info_before] = client.info(net::AddressFamily::kIpv4);
  EXPECT_EQ(before.fingerprint, fp_a);

  const auto [reload_header, ticket] =
      client.reload(net::AddressFamily::kIpv4, path_b);
  EXPECT_EQ(reload_header.status, Status::kAccepted);
  EXPECT_GE(ticket, 1u);

  // The swap is asynchronous: poll until the fingerprint flips. Service
  // must never pause — every poll is itself a served query.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    const auto [header, info] = client.info(net::AddressFamily::kIpv4);
    EXPECT_TRUE(header.fingerprint == fp_a || header.fingerprint == fp_b);
    if (header.fingerprint == fp_b) {
      EXPECT_GT(header.generation, before.generation);
      break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "reload did not land";
  }
  // The swap is counted at install, before the reply that carried fp_b;
  // the old generation retires once its readers drain, so poll for it.
  EXPECT_GE(client.stats().second.swaps, 1u);
  while (client.stats().second.generations_retired == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "old generation never retired";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // A failed reload keeps the current generation and counts a failure.
  client.reload(net::AddressFamily::kIpv4, "/nonexistent/image.tsim");
  const auto fail_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (running.server.reload_failures() == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), fail_deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(client.info(net::AddressFamily::kIpv4).first.fingerprint, fp_b);

  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

// A structurally valid image whose ranking is out of order: two ranked
// rows swapped and the checksum resealed, so load() (header, checksum,
// bounds) accepts it and only the deep audit rejects it.
std::string make_misranked_v4_image(const std::string& stem) {
  const std::string path = make_v4_image(stem, 24, 23);
  std::vector<std::byte> bytes = [&] {
    const auto image = state::StateImage::load(path);
    return state::encode_image(image.partition(),
                               image.ranking().materialize());
  }();
  const auto u64_at = [&](std::size_t offset) {
    return static_cast<std::size_t>(util::load_le64(
        std::span<const std::byte, 8>(bytes.data() + offset, 8)));
  };
  const std::size_t ranked_row = state::kSectionTableOffset + 7 * 24;
  const std::size_t row_bytes = sizeof(core::RankedPrefix);
  EXPECT_GE(u64_at(ranked_row + 8), 2u);  // at least two ranked rows
  std::byte* first = bytes.data() + u64_at(ranked_row + 16);
  std::swap_ranges(first, first + row_bytes, first + row_bytes);
  util::store_le64(
      util::fnv1a64_wide(
          std::span<const std::byte>(bytes).subspan(state::kChecksummedFrom)),
      std::span<std::byte, 8>(bytes.data() + state::kChecksumOffset, 8));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return path;
}

TEST(ServeDaemon, ReloadRefusesAnImageThatFailsTheDeepAudit) {
  const std::string good = make_v4_image("serve_test_audit_good", 16, 21);
  const std::string bad = make_misranked_v4_image("serve_test_audit_bad");
  const std::uint64_t fp_good =
      state::StateImage::load(good).info().fingerprint;
  // The tampered image passes every load-time check; verify() throws.
  const auto tampered = state::StateImage::load(bad);
  EXPECT_THROW(tampered.verify(), FormatError);

  ServerOptions options;
  options.v4_image_path = good;
  options.threads = 2;
  RunningServer running(std::move(options));
  Client client("127.0.0.1", running.server.port());
  const auto [before, info_before] = client.info(net::AddressFamily::kIpv4);
  EXPECT_EQ(before.fingerprint, fp_good);

  client.reload(net::AddressFamily::kIpv4, bad);
  // Poll until the reloader has handled the job: it either counts a
  // failure or swaps.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (running.server.reload_failures() == 0 &&
         client.stats().second.swaps == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "reload never completed";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(running.server.reload_failures(), 1u);
  EXPECT_EQ(client.stats().second.swaps, 0u);
  const auto [after, info_after] = client.info(net::AddressFamily::kIpv4);
  EXPECT_EQ(after.fingerprint, fp_good);
  EXPECT_EQ(after.generation, before.generation);

  std::remove(good.c_str());
  std::remove(bad.c_str());
}

// Raw-socket helper: sends one framed request payload and reads back
// one complete response frame, bypassing Client's well-formedness.
std::vector<std::uint8_t> raw_roundtrip(int fd,
                                        std::span<const std::uint8_t> payload) {
  const auto framed = frame(payload);
  std::size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n =
        ::send(fd, framed.data() + sent, framed.size() - sent, 0);
    if (n <= 0) throw Error("raw_roundtrip: send failed");
    sent += static_cast<std::size_t>(n);
  }
  std::vector<std::uint8_t> in;
  std::size_t offset = 0;
  for (;;) {
    if (const auto response =
            next_frame(std::span<const std::uint8_t>(in), offset)) {
      return {response->begin(), response->end()};
    }
    std::uint8_t buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) throw Error("raw_roundtrip: peer closed");
    in.insert(in.end(), buf, buf + n);
  }
}

TEST(ServeDaemon, OverclaimedBatchCountIsAWellFormedError) {
  // A 12-byte frame announcing a 2^32-1 address batch must not make the
  // server reserve gigabytes (or die on bad_alloc): the count is
  // validated against the bytes actually present and answered with an
  // error frame, and the connection keeps serving.
  const std::string v4_path = make_v4_image("serve_test_overclaim", 8, 41);
  const std::string v6_path = make_v6_image("serve_test_overclaim6", 8, 42);
  ServerOptions options;
  options.v4_image_path = v4_path;
  options.v6_image_path = v6_path;
  options.threads = 2;
  RunningServer running(std::move(options));

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(running.server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);

  for (const auto family :
       {net::AddressFamily::kIpv4, net::AddressFamily::kIpv6}) {
    RequestHeader request;
    request.op = Op::kLocate;
    request.family = family;
    request.request_id = 99;
    request.count = 0xFFFFFFFFu;
    std::vector<std::uint8_t> payload;
    encode_request_header(payload, request);

    const auto response = raw_roundtrip(fd, payload);
    Cursor cursor{std::span<const std::uint8_t>(response)};
    const ResponseHeader header = decode_response_header(cursor);
    EXPECT_EQ(header.status, Status::kError);
    EXPECT_EQ(header.request_id, 99u);
  }

  // The connection survived both malicious frames.
  RequestHeader ping;
  ping.op = Op::kPing;
  ping.family = net::AddressFamily::kIpv4;
  ping.request_id = 100;
  std::vector<std::uint8_t> payload;
  encode_request_header(payload, ping);
  const auto response = raw_roundtrip(fd, payload);
  Cursor cursor{std::span<const std::uint8_t>(response)};
  EXPECT_EQ(decode_response_header(cursor).status, Status::kOk);

  ::close(fd);
  std::remove(v4_path.c_str());
  std::remove(v6_path.c_str());
}

TEST(ServeDaemon, PipelinedBurstIsServedCompletelyUnderBackpressure) {
  // A client that pipelines a multi-megabyte train of queries before
  // reading a single response crosses the server's output high-water
  // mark mid-burst: the shard defers the remaining frames, flushes,
  // and resumes them from the buffered input. Every response must
  // still arrive, in order, with the full payload.
  const std::string v4_path = make_v4_image("serve_test_burst", 8, 51);
  ServerOptions options;
  options.v4_image_path = v4_path;
  options.threads = 2;
  RunningServer running(std::move(options));

  constexpr std::uint32_t kRequests = 30;
  constexpr std::uint32_t kBatch = 50000;  // 200 KB response each
  std::vector<std::uint8_t> train;
  for (std::uint32_t request_id = 1; request_id <= kRequests; ++request_id) {
    RequestHeader request;
    request.op = Op::kLocate;
    request.family = net::AddressFamily::kIpv4;
    request.request_id = request_id;
    request.count = kBatch;
    std::vector<std::uint8_t> payload;
    encode_request_header(payload, request);
    for (std::uint32_t i = 0; i < kBatch; ++i) {
      put_u32(payload, (10u << 24) | ((i % 8) << 16) | (i & 0xFFFF));
    }
    const auto framed = frame(payload);
    train.insert(train.end(), framed.begin(), framed.end());
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(running.server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ASSERT_EQ(errno, EINPROGRESS);
  }

  // Push the whole train, reading nothing until the send is fully
  // blocked (the server has stopped polling this connection's input
  // and every buffer in between is full — i.e. backpressure engaged)
  // or fully sent; only then start draining. Nonblocking on both sides
  // so the server's throttling cannot deadlock the test.
  std::vector<std::uint8_t> in;
  std::size_t sent = 0;
  std::size_t offset = 0;
  std::uint32_t next_expected = 1;
  bool send_blocked = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (next_expected <= kRequests) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "burst stalled at response " << next_expected;
    const bool sending = sent < train.size();
    const bool draining = !sending || send_blocked;
    short events = 0;
    if (sending) events |= POLLOUT;
    if (draining) events |= POLLIN;
    pollfd pfd{fd, events, 0};
    ::poll(&pfd, 1, 100);
    if (sending && (pfd.revents & POLLOUT)) {
      const ssize_t n =
          ::send(fd, train.data() + sent, train.size() - sent, MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
        send_blocked = false;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        send_blocked = true;
      }
    } else if (sending) {
      // POLLOUT did not fire within the poll window: the socket is
      // backed up, so start draining responses to unblock it.
      send_blocked = true;
    }
    if (draining && (pfd.revents & POLLIN)) {
      std::uint8_t buf[65536];
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      ASSERT_NE(n, 0) << "server closed the connection mid-burst";
      if (n > 0) in.insert(in.end(), buf, buf + n);
    }
    while (const auto response =
               next_frame(std::span<const std::uint8_t>(in), offset)) {
      Cursor cursor{*response};
      const ResponseHeader header = decode_response_header(cursor);
      EXPECT_EQ(header.status, Status::kOk);
      EXPECT_EQ(header.request_id, next_expected);
      EXPECT_EQ(header.count, kBatch);
      EXPECT_EQ(cursor.remaining(), kBatch * 4u);
      ++next_expected;
    }
  }
  EXPECT_EQ(sent, train.size());

  ::close(fd);
  std::remove(v4_path.c_str());
}

TEST(ServeDaemon, ShutdownOpStopsTheServer) {
  const std::string v4_path = make_v4_image("serve_test_shutdown", 8, 31);
  ServerOptions options;
  options.v4_image_path = v4_path;
  options.threads = 2;
  Server server(std::move(options));
  std::thread thread([&server] { server.run(); });
  {
    Client client("127.0.0.1", server.port());
    EXPECT_EQ(client.shutdown().status, Status::kOk);
  }
  thread.join();  // run() must return on its own after kShutdown
  std::remove(v4_path.c_str());
}

}  // namespace
}  // namespace tass::serve
