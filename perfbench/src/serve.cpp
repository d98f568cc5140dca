#include "serve.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <functional>
#include <string_view>
#include <thread>

#include "bgp/reduce.hpp"
#include "core/selection.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "state/image.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

enum class Op { kLocate, kTally, kLocate6, kRank };

constexpr const char* op_span(Op op) {
  switch (op) {
    case Op::kLocate: return "serve.locate";
    case Op::kTally: return "serve.tally";
    case Op::kLocate6: return "serve.locate6";
    case Op::kRank: return "serve.rank";
  }
  return "serve.request";
}

/// The request mix of bench/micro_serve.cpp, by position in a
/// connection's stream: per 16 requests, 8 batched v4 locate, 6 batched
/// v4 tally, one v6 locate and one rank. Plan and reduce requests go on
/// the control connection (see run_control).
Op op_at(std::uint64_t index) {
  const auto k = index % 16;
  if (k == 15) return Op::kRank;
  if (k == 7) return Op::kLocate6;
  return k % 2 == 1 ? Op::kTally : Op::kLocate;
}

/// A served v4 image plus the plan and reduce replies it must produce
/// (computed once: both are pure functions of the image).
struct V4Oracle {
  V4Oracle(const std::string& path, const Sizes& sizes)
      : image(state::StateImage::load(path)) {
    core::SelectionParams params;
    params.phi = sizes.phi;
    plan = core::select_by_density(image.ranking(), params);
    bgp::ReduceParams reduce_params;
    reduce_params.max_overshoot = sizes.max_overshoot;
    reduced = bgp::reduce(std::span<const net::Prefix>(plan.prefixes), reduce_params);
  }

  state::StateImage image;
  core::Selection plan;
  bgp::ReduceResult reduced;
};

/// The direct-library oracles, keyed by the fingerprint a reply names.
struct Oracles {
  V4Oracle a;
  V4Oracle b;
  state::StateImage6 v6;

  const V4Oracle* v4(std::uint64_t fingerprint) const {
    if (fingerprint == a.image.info().fingerprint) return &a;
    if (fingerprint == b.image.info().fingerprint) return &b;
    return nullptr;
  }
};

/// The requests of one load connection, drawn from its seed and framed
/// before the load starts: `ring` v4 batches, each framed as a locate and
/// as a tally, `ring` v6 locate batches and one rank request. Like
/// micro_serve, v4 addresses are uniform over the whole space and v6
/// addresses uniform over the /32 slots the v6 RIB's l-prefixes sit in.
class RequestRing {
 public:
  RequestRing(std::uint64_t seed, const Sizes& sizes) {
    util::Rng rng(seed);
    const std::uint64_t v6_slots = std::max<std::size_t>(1, sizes.v6_l_prefixes);
    v4_.resize(sizes.serve_ring, std::vector<std::uint32_t>(sizes.serve_batch));
    v6_.resize(sizes.serve_ring, std::vector<net::Ipv6Address>(sizes.serve_batch / 2 + 1));
    for (std::size_t slot = 0; slot < sizes.serve_ring; ++slot) {
      for (std::uint32_t& address : v4_[slot]) address = static_cast<std::uint32_t>(rng());
      for (net::Ipv6Address& address : v6_[slot]) {
        const std::uint64_t hi = (0x2a00ULL << 48) | (rng.bounded(v6_slots) << 32) |
                                 (rng() & 0xffffffffULL);
        address = net::Ipv6Address(hi, rng());
      }
      frames_[static_cast<int>(Op::kLocate)].push_back(
          framed(serve::Op::kLocate, net::AddressFamily::kIpv4, v4_[slot]));
      frames_[static_cast<int>(Op::kTally)].push_back(
          framed(serve::Op::kTally, net::AddressFamily::kIpv4, v4_[slot]));
      frames_[static_cast<int>(Op::kLocate6)].push_back(
          framed(serve::Op::kLocate, net::AddressFamily::kIpv6, v6_[slot]));
    }
    frames_[static_cast<int>(Op::kRank)].push_back(
        framed(serve::Op::kRank, net::AddressFamily::kIpv4, std::vector<std::uint32_t>()));
  }

  /// How many distinct requests of kind `op` there are.
  std::size_t slots(Op op) const { return frames_[static_cast<int>(op)].size(); }

  /// The framed request `slot` of kind `op`, request id 0.
  std::vector<std::uint8_t>& frame(Op op, std::size_t slot) {
    return frames_[static_cast<int>(op)][slot];
  }

  const std::vector<std::uint32_t>& v4(std::size_t slot) const { return v4_[slot]; }
  const std::vector<net::Ipv6Address>& v6(std::size_t slot) const { return v6_[slot]; }

  static constexpr std::uint32_t kRankRows = 16;
  /// Where a frame holds its request id: after the length word, the op,
  /// the family and a reserved u16 (serve/wire.hpp).
  static constexpr std::size_t kRequestIdOffset = 8;

 private:
  /// A request frame: the addresses' count and the addresses, or for a
  /// rank request the number of rows.
  template <class Word>
  static std::vector<std::uint8_t> framed(serve::Op op, net::AddressFamily family,
                                          const std::vector<Word>& addresses) {
    serve::RequestHeader request;
    request.op = op;
    request.family = family;
    request.count =
        op == serve::Op::kRank ? kRankRows : static_cast<std::uint32_t>(addresses.size());
    std::vector<std::uint8_t> payload;
    serve::encode_request_header(payload, request);
    for (const Word& address : addresses) serve::put_address(payload, address);
    return serve::frame(payload);
  }

  std::vector<std::vector<std::uint32_t>> v4_;
  std::vector<std::vector<net::Ipv6Address>> v6_;
  std::vector<std::vector<std::uint8_t>> frames_[4];
};

/// A digest of a reply body as sent on the wire, with its row count.
std::uint64_t body_digest(std::uint32_t count, std::span<const std::uint8_t> body) {
  return util::mix64(count, std::hash<std::string_view>{}(std::string_view(
                                reinterpret_cast<const char*>(body.data()), body.size())));
}

/// One reply as received: what the check after the phase needs to
/// compare it with the encoding of a direct library call's result.
struct Received {
  Op op = Op::kLocate;
  bool error = false;
  std::uint32_t slot = 0;  // which of the ring's requests of kind op
  std::uint64_t fingerprint = 0;
  std::uint64_t digest = 0;  // body_digest of the reply
};

/// A blocking TCP connection to the server on loopback, with Nagle off
/// (as serve::Client sets it).
int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw Error(std::string("load connection: socket: ") + std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string what = std::strerror(errno);
    ::close(fd);
    throw Error("load connection: connect: " + what);
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// One load connection. It speaks the serve wire protocol on its own
/// socket, so it can keep several requests in flight (serve::Client
/// waits for each reply before the next request); the server answers a
/// connection's requests in order. Requests of one kind cycle through
/// the ring's framed requests. Each reply is logged as a digest and
/// nothing is checked while the load runs, so the timed loop holds only
/// the socket and the digest; check_replies() compares every reply with
/// a direct library call after the load has stopped.
class LoadClient {
 public:
  LoadClient(const Sizes& sizes, std::uint16_t port, std::uint64_t seed)
      : ring_(seed, sizes), fd_(connect_loopback(port)), in_(1u << 16) {
    log_.reserve(1u << 20);
  }
  ~LoadClient() { ::close(fd_); }
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  /// Sends the connection's next request of kind `op`.
  void send(Op op) {
    const auto kind = static_cast<int>(op);
    const auto slot = static_cast<std::uint32_t>(sent_[kind]++ % ring_.slots(op));
    std::vector<std::uint8_t>& frame = ring_.frame(op, slot);
    const auto id = static_cast<std::uint32_t>(log_.size());
    for (std::size_t i = 0; i < 4; ++i) {
      frame[RequestRing::kRequestIdOffset + i] = static_cast<std::uint8_t>(id >> (8 * i));
    }
    for (std::size_t sent = 0; sent < frame.size();) {
      const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
      } else if (errno != EINTR) {
        throw Error(std::string("load connection: send: ") + std::strerror(errno));
      }
    }
    Received& logged = log_.emplace_back();
    logged.op = op;
    logged.slot = slot;
  }

  /// Reads the reply to the oldest request in flight and logs it.
  void receive() {
    const std::span<const std::uint8_t> payload = next_payload();
    replied_ = Clock::now();
    serve::Cursor cursor(payload);
    const serve::ResponseHeader header = serve::decode_response_header(cursor);
    if (header.request_id != static_cast<std::uint32_t>(answered_)) {
      throw FormatError("load connection: reply out of order");
    }
    Received& got = log_[answered_++];
    if (header.status == serve::Status::kError) {
      const auto message = cursor.bytes(header.count);
      got.error = true;
      error_.assign(reinterpret_cast<const char*>(message.data()), message.size());
      return;
    }
    got.fingerprint = header.fingerprint;
    got.digest = body_digest(header.count, cursor.bytes(cursor.remaining()));
  }

  /// Replies received so far.
  std::size_t answered() const { return answered_; }

  /// Requests sent and not yet answered.
  std::size_t in_flight() const { return log_.size() - answered_; }

  /// Records why the connection stopped; its unanswered requests fail
  /// the check.
  void fail(const char* what) { error_ = what; }

  /// When the last reply arrived.
  Clock::time_point replied() const { return replied_; }

  /// Checks every logged reply against the encoding of a direct library
  /// call on the image whose fingerprint it names (computed once per
  /// request and image); returns the replies checked. Appends up to
  /// `keep` of the ring's v4 batches for the kernel timings.
  std::uint64_t check_replies(const Oracles& oracles, bool plant, Referee& referee,
                              std::size_t keep,
                              std::vector<std::vector<std::uint32_t>>& batches) const {
    // want[image][kind][slot]: the digest the reply must have, 0 until
    // computed (images: A, B, v6).
    std::vector<std::uint64_t> want[3][4];
    for (auto& image : want) {
      for (int kind = 0; kind < 4; ++kind) image[kind].assign(ring_.slots(Op(kind)), 0);
    }
    for (std::size_t i = 0; i < log_.size(); ++i) {
      const Received& got = log_[i];
      if (got.error || i >= answered_) {
        referee.check(false, "serve: request failed: %s", error_.c_str());
        continue;
      }
      int image = -1;
      if (got.op == Op::kLocate6) {
        if (got.fingerprint == oracles.v6.info().fingerprint) image = 2;
      } else if (got.fingerprint == oracles.a.image.info().fingerprint) {
        image = 0;
      } else if (got.fingerprint == oracles.b.image.info().fingerprint) {
        image = 1;
      }
      if (!referee.check(image >= 0, "serve: unknown fingerprint in a %s reply",
                         op_span(got.op))) {
        continue;
      }
      std::uint64_t& expected = want[image][static_cast<int>(got.op)][got.slot];
      if (expected == 0) expected = expected_digest(oracles, image, got.op, got.slot);
      std::uint64_t planted = 0;
      if (plant && got.op == Op::kLocate) {
        plant = false;
        planted = 1;
      }
      referee.check(got.digest == (expected ^ planted), "serve: %s reply differs",
                    op_span(got.op));
    }
    for (std::size_t slot = 0; slot < ring_.slots(Op::kLocate) && batches.size() < keep;
         ++slot) {
      batches.push_back(ring_.v4(slot));
    }
    return log_.size();
  }

 private:
  /// The digest of the reply body the server must send for request
  /// `slot` of kind `op` on `image` (0: A, 1: B, 2: v6).
  std::uint64_t expected_digest(const Oracles& oracles, int image, Op op,
                                std::uint32_t slot) const {
    std::vector<std::uint8_t> body;
    std::vector<std::uint32_t> cells;
    const auto located = [&] {
      for (const std::uint32_t cell : cells) serve::put_u32(body, cell);
      return body_digest(static_cast<std::uint32_t>(cells.size()), body);
    };
    if (op == Op::kLocate6) {
      cells.assign(ring_.v6(slot).size(), 0);
      oracles.v6.partition().locate_many(ring_.v6(slot), cells);
      return located();
    }
    const state::StateImage& v4_image = image == 0 ? oracles.a.image : oracles.b.image;
    const bgp::PrefixPartition& partition = v4_image.partition();
    switch (op) {
      case Op::kLocate:
        cells.assign(ring_.v4(slot).size(), 0);
        partition.locate_many(ring_.v4(slot), cells);
        return located();
      case Op::kTally: {
        std::vector<std::uint32_t> counts(partition.size(), 0);
        std::uint64_t attributed = 0;
        std::uint64_t unattributed = 0;
        partition.tally_cells(std::span<const std::uint32_t>(ring_.v4(slot)), counts,
                              attributed, unattributed);
        serve::put_u64(body, attributed);
        serve::put_u64(body, unattributed);
        std::uint32_t nonzero = 0;
        for (std::uint32_t cell = 0; cell < counts.size(); ++cell) {
          if (counts[cell] == 0) continue;
          serve::put_u32(body, cell);
          serve::put_u32(body, counts[cell]);
          ++nonzero;
        }
        return body_digest(nonzero, body);
      }
      case Op::kRank: {
        const auto view = v4_image.ranking();
        const std::size_t n =
            std::min<std::size_t>(RequestRing::kRankRows, view.ranked.size());
        for (std::size_t r = 0; r < n; ++r) {
          serve::put_prefix(body, view.ranked[r].prefix);
          serve::put_u64(body, view.ranked[r].hosts);
          serve::put_f64(body, view.ranked[r].density);
        }
        return body_digest(static_cast<std::uint32_t>(n), body);
      }
      case Op::kLocate6: break;
    }
    return 0;
  }

  /// The payload of the next reply frame, read from the socket as
  /// needed; valid until the next call.
  std::span<const std::uint8_t> next_payload() {
    for (;;) {
      std::size_t offset = in_begin_;
      if (const auto payload = serve::next_frame(
              std::span<const std::uint8_t>(in_.data(), in_end_), offset)) {
        in_begin_ = offset;
        return *payload;
      }
      if (in_begin_ > 0) {
        std::memmove(in_.data(), in_.data() + in_begin_, in_end_ - in_begin_);
        in_end_ -= in_begin_;
        in_begin_ = 0;
      }
      if (in_end_ == in_.size()) in_.resize(in_.size() * 2);
      const ssize_t n = ::recv(fd_, in_.data() + in_end_, in_.size() - in_end_, 0);
      if (n > 0) {
        in_end_ += static_cast<std::size_t>(n);
      } else if (n == 0) {
        throw Error("load connection: closed by the server");
      } else if (errno != EINTR) {
        throw Error(std::string("load connection: recv: ") + std::strerror(errno));
      }
    }
  }

  RequestRing ring_;
  int fd_;
  std::uint64_t sent_[4] = {};
  std::vector<Received> log_;
  std::size_t answered_ = 0;
  std::string error_ = "no reply";
  Clock::time_point replied_;
  std::vector<std::uint8_t> in_;
  std::size_t in_begin_ = 0;
  std::size_t in_end_ = 0;
};

/// Plan and reduce requests on the control connection, checked against
/// the oracle of the image they name.
void plan_and_reduce(serve::Client& control, const Sizes& sizes, const Oracles& oracles,
                     ServePhaseResult& out, Referee& referee) {
  serve::PlanParams plan_params;
  plan_params.phi = sizes.phi;
  auto sent = Clock::now();
  const auto [plan_header, plan] = control.plan(net::AddressFamily::kIpv4, plan_params);
  out.plan_us.push_back(
      std::chrono::duration<double, std::micro>(Clock::now() - sent).count());
  serve::ReduceParams reduce_params;
  reduce_params.phi = sizes.phi;
  reduce_params.max_overshoot = sizes.max_overshoot;
  sent = Clock::now();
  const auto [reduce_header, reduced] =
      control.reduce(net::AddressFamily::kIpv4, reduce_params);
  out.reduce_us.push_back(
      std::chrono::duration<double, std::micro>(Clock::now() - sent).count());

  if (const V4Oracle* oracle = oracles.v4(plan_header.fingerprint)) {
    const core::Selection& want = oracle->plan;
    bool ok = plan.selected_addresses == want.selected_addresses &&
              plan.covered_hosts == want.covered_hosts &&
              plan.total_hosts == want.total_hosts &&
              plan.prefixes.size() == want.prefixes.size();
    for (std::size_t i = 0; ok && i < want.prefixes.size(); ++i) {
      ok = plan.prefixes[i] == net::GenericPrefix::from(want.prefixes[i]);
    }
    referee.check(ok, "serve: plan reply differs");
  } else {
    referee.check(false, "serve: unknown v4 fingerprint in a plan reply");
  }
  if (const V4Oracle* oracle = oracles.v4(reduce_header.fingerprint)) {
    const bgp::ReduceResult& want = oracle->reduced;
    bool ok = reduced.selected_prefixes == oracle->plan.prefixes.size() &&
              reduced.selected_addresses == oracle->plan.selected_addresses &&
              reduced.overshoot_addresses == want.overshoot_addresses &&
              reduced.merges == want.merges &&
              reduced.prefixes.size() == want.prefixes.size();
    for (std::size_t i = 0; ok && i < want.prefixes.size(); ++i) {
      ok = reduced.prefixes[i] == net::GenericPrefix::from(want.prefixes[i]);
    }
    referee.check(ok, "serve: reduce reply differs");
  } else {
    referee.check(false, "serve: unknown v4 fingerprint in a reduce reply");
  }
}

/// The CPUs the process may use, read before any serve thread pins
/// itself (a pinned thread's own mask, which new threads inherit, names
/// only its CPU). Restores the calling thread's affinity when the phase
/// ends.
class CpuSlots {
 public:
  CpuSlots() : valid_(sched_getaffinity(0, sizeof saved_, &saved_) == 0) {}
  ~CpuSlots() {
    if (valid_) pthread_setaffinity_np(pthread_self(), sizeof saved_, &saved_);
  }
  CpuSlots(const CpuSlots&) = delete;
  CpuSlots& operator=(const CpuSlots&) = delete;

  /// Pins `thread` to the `slot`-th CPU the process may use (no-op if
  /// there are not that many), so the scheduler cannot move the shard or
  /// a client onto another thread's CPU for part of a run.
  void pin(unsigned slot, pthread_t thread = pthread_self()) const {
    if (!valid_) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &saved_) || slot-- != 0) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pthread_setaffinity_np(thread, sizeof one, &one);
      return;
    }
  }

 private:
  cpu_set_t saved_{};
  bool valid_;
};

/// CPU time the process has used, all threads together.
double process_cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) / 1e9;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// The control connection until `stop`, every 100 ms: an A/B
/// generation swap (reload, then poll until the v4 fingerprint changes:
/// the client-observed swap), then one plan and one reduce request.
void run_control(serve::Client& control, const ServeImages& images, const Sizes& sizes,
                 const Oracles& oracles, const std::atomic<bool>& stop, bool& to_b,
                 ServePhaseResult& out, Referee& referee) {
  constexpr auto kCadence = std::chrono::milliseconds(100);
  auto next = Clock::now() + kCadence / 2;
  try {
    while (!stop.load(std::memory_order_acquire)) {
      std::this_thread::sleep_until(
          std::min(next, Clock::now() + std::chrono::milliseconds(5)));
      if (Clock::now() < next) continue;
      next += kCadence;
      const std::uint64_t want =
          to_b ? oracles.b.image.info().fingerprint : oracles.a.image.info().fingerprint;
      const auto start = Clock::now();
      control.reload(net::AddressFamily::kIpv4, to_b ? images.path_b : images.path_a);
      bool landed = false;
      while (seconds_since(start) < 10.0) {
        if (control.info(net::AddressFamily::kIpv4).first.fingerprint == want) {
          landed = true;
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      out.swap_us.push_back(us_between(start, Clock::now()));
      referee.check(landed, "serve: generation swap did not land in 10 s");
      const auto stats = control.stats().second;
      out.install_us.push_back(static_cast<double>(stats.last_swap_install_us));
      out.drain_us.push_back(static_cast<double>(stats.last_swap_drain_us));
      to_b = !to_b;
      plan_and_reduce(control, sizes, oracles, out, referee);
    }
  } catch (const std::exception& e) {
    referee.check(false, "serve: control connection failed: %s", e.what());
  }
}

/// Stops the server when the phase's scope ends, on every path, before
/// the serving thread is joined.
struct StopOnExit {
  explicit StopOnExit(serve::Server& s) : server(s) {}
  ~StopOnExit() { server.stop(); }
  serve::Server& server;
  StopOnExit(const StopOnExit&) = delete;
  StopOnExit& operator=(const StopOnExit&) = delete;
};

}  // namespace

ServePhaseResult run_serve_phase(const ServeImages& images,
                                 const Sizes& sizes, const Budget& budget,
                                 std::uint64_t seed, double seconds,
                                 Tracer* tracer, Referee& referee) {
  ServePhaseResult out;
  const Oracles oracles{V4Oracle(images.path_a, sizes), V4Oracle(images.path_b, sizes),
                        state::StateImage6::load(images.path_6)};
  out.page_backing =
      std::string(util::page_backing_name(oracles.a.image.info().backing));

  // Closed loop: slot 0 runs the server shard, slots 1.. the load
  // connections, and the next slot this thread (control connection) and
  // the server's reloader, which the constructor below spawns and which
  // inherits this affinity. The open loop moves the shard and the load
  // connections onto the control slot (see there).
  const CpuSlots cpus;
  cpus.pin(budget.server_shards + budget.load_connections);

  serve::ServerOptions options;
  options.v4_image_path = images.path_a;
  options.v6_image_path = images.path_6;
  options.threads = budget.server_shards;
  serve::Server server(std::move(options));

  // Connections queue in the listen backlog until run() accepts them.
  const std::size_t connections = budget.load_connections;
  std::vector<std::unique_ptr<LoadClient>> load_clients;
  for (std::size_t c = 0; c < connections; ++c) {
    load_clients.push_back(
        std::make_unique<LoadClient>(sizes, server.port(), util::mix64(seed, 0x5e00 + c)));
  }
  serve::Client control("127.0.0.1", server.port());
  bool to_b = true;

  std::jthread serving([&server, &cpus] {
    cpus.pin(0);
    server.run();
  });
  const StopOnExit stop_server(server);

  // --- closed loop: each connection keeps sizes.serve_depth requests
  // in flight and sends the next as soon as a reply is in, so the shard
  // always has work queued. The gated throughput is replies per CPU
  // second of the whole process (shard, load connections, control and
  // reloader): the loop's cost per request. Wall-clock rates on this
  // loop also carry each cross-CPU wakeup's latency, which on a shared
  // virtual machine moves by half from run to run.
  const double closed_seconds = seconds * 0.75;
  // Wall-clock rate per 100 ms window (the report's serve_qps): replies
  // counted per connection and window.
  constexpr double kWindow = 0.1;
  const auto windows = static_cast<std::size_t>(closed_seconds / kWindow);
  std::vector<std::vector<std::uint32_t>> per_window(connections,
                                                     std::vector<std::uint32_t>(windows, 0));
  {
    std::atomic<bool> stop{false};
    std::vector<std::size_t> answered(connections, 0);
    const double cpu_start = process_cpu_seconds();
    const auto start = Clock::now();
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        cpus.pin(static_cast<unsigned>(budget.server_shards + c));
        LoadClient& load_client = *load_clients[c];
        const std::size_t before = load_client.answered();
        try {
          std::uint64_t i = 0;
          while (i < sizes.serve_depth) load_client.send(op_at(i++));
          while (!stop.load(std::memory_order_acquire)) {
            Span span(tracer, "serve.pipelined_reply");
            load_client.receive();
            span.end();
            const auto w = static_cast<std::size_t>(
                std::chrono::duration<double>(load_client.replied() - start).count() /
                kWindow);
            if (w < windows) ++per_window[c][w];
            load_client.send(op_at(i++));
          }
          while (load_client.in_flight() > 0) load_client.receive();
        } catch (const std::exception& e) {
          load_client.fail(e.what());
        }
        answered[c] = load_client.answered() - before;
      });
    }
    std::jthread stopper([&] {
      std::this_thread::sleep_for(std::chrono::duration<double>(closed_seconds));
      stop.store(true, std::memory_order_release);
    });
    run_control(control, images, sizes, oracles, stop, to_b, out, referee);
    stopper.join();
    for (std::jthread& thread : threads) thread.join();
    out.closed_cpu_s = process_cpu_seconds() - cpu_start;
    for (const std::size_t n : answered) out.closed_replies += n;
  }
  for (std::size_t w = 0; w < windows; ++w) {
    double replies = 0.0;
    for (const auto& counts : per_window) replies += counts[w];
    out.window_qps.push_back(replies / kWindow);
  }

  // --- open loop: request k is due at start + k / rate whatever the
  // replies do; connection c sends the k with k % connections == c.
  const double open_seconds = seconds - closed_seconds;
  const auto total = static_cast<std::uint64_t>(open_seconds * sizes.open_rate);
  out.open_latency_us.assign(total, 0.0);
  out.generator_lag_us.assign(total, 0.0);
  std::vector<std::vector<double>> out_locate(connections), out_tally(connections);
  // The open loop runs the shard, the load connections and the control
  // connection on one CPU: a request then costs two context switches,
  // where across CPUs its latency would be the virtual machine's wakeup
  // latency, which spread 0.2-0.5 over five seeds.
  const unsigned open_slot = budget.server_shards + budget.load_connections;
  cpus.pin(open_slot, serving.native_handle());
  {
    std::atomic<bool> stop{false};
    const auto start = Clock::now() + std::chrono::milliseconds(2);
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        cpus.pin(open_slot);
        LoadClient& load_client = *load_clients[c];
        double free_us = 0.0;  // when this connection's queue drains
        try {
          for (std::uint64_t k = c; k < total; k += connections) {
            const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(
                                             static_cast<double>(k) / sizes.open_rate));
            std::this_thread::sleep_until(due);
            const auto sent = Clock::now();
            const Op op = op_at(k);
            Span span(tracer, op_span(op));
            load_client.send(op);
            load_client.receive();
            span.end();
            const double round_trip_us = us_between(sent, load_client.replied());
            if (op == Op::kLocate) out_locate[c].push_back(round_trip_us);
            if (op == Op::kTally) out_tally[c].push_back(round_trip_us);
            // Latency from the due time, as a FIFO per connection: the
            // request waits until the connection's earlier requests are
            // answered, then takes its measured round trip. Time the
            // generator itself lost (oversleeping its timer) is reported
            // as generator lag, not charged here.
            const double due_us = us_between(start, due);
            const double begin_us = std::max(due_us, free_us);
            free_us = begin_us + round_trip_us;
            out.open_latency_us[k] = free_us - due_us;
            out.generator_lag_us[k] = us_between(due, sent);
          }
        } catch (const std::exception& e) {
          load_client.fail(e.what());
        }
      });
    }
    std::jthread waiter([&] {
      for (std::jthread& thread : threads) thread.join();
      stop.store(true, std::memory_order_release);
    });
    run_control(control, images, sizes, oracles, stop, to_b, out, referee);
    waiter.join();
  }
  for (std::size_t c = 0; c < connections; ++c) {
    out.locate_us.insert(out.locate_us.end(), out_locate[c].begin(), out_locate[c].end());
    out.tally_us.insert(out.tally_us.end(), out_tally[c].begin(), out_tally[c].end());
  }
  try {
    out.server_requests = control.stats().second.requests;
  } catch (const std::exception& e) {
    referee.check(false, "serve: stats request failed: %s", e.what());
  }

  // Every reply of both loops, checked now that the load has stopped.
  for (std::size_t c = 0; c < connections; ++c) {
    referee.attempt(load_clients[c]->check_replies(
        oracles, c == 0 && referee.plant("serve"), referee, 512, out.v4_batches));
  }
  referee.attempt(out.swap_us.size() + out.plan_us.size() + out.reduce_us.size());
  return out;
}

}  // namespace perfbench
