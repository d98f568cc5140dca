#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "bgp/reduce.hpp"
#include "core/selection.hpp"
#include "scan/sampled_scope.hpp"
#include "util/error.hpp"

namespace tass::serve {

namespace {

using Clock = std::chrono::steady_clock;

// Per-connection output backpressure: once a connection has this much
// unflushed response data queued, the shard stops decoding its frames
// (and stops reading its socket), letting TCP flow control push back on
// a pipelining client that is not draining responses. Decoding resumes
// once flushes bring the backlog under the low-water mark. A single
// response may overshoot the high-water mark — the check runs between
// frames — so the true bound is the mark plus one maximal response.
constexpr std::size_t kOutHighWater = 4u << 20;
constexpr std::size_t kOutLowWater = 1u << 20;

std::uint64_t elapsed_us(Clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            since)
          .count());
}

// Maps an image and runs the deep audit: a generation serves only after
// StateImage::verify() passes. Either failure throws.
template <class Image>
Image load_audited(const std::string& path) {
  Image image = Image::load(path);
  image.verify();
  return image;
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw Error("serve: " + what + ": " + std::strerror(errno));
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

void append_error(std::vector<std::uint8_t>& out, Op op,
                  std::uint32_t request_id, std::string_view message);

// Appends one complete response frame (length word + header + body) to
// the connection's output buffer. A response over kMaxFrameBytes would
// be rejected by every client's frame layer (and desynchronise the
// stream), so it is answered with an error frame instead.
void append_response(std::vector<std::uint8_t>& out, ResponseHeader header,
                     std::span<const std::uint8_t> body) {
  const std::size_t payload = kResponseHeaderBytes + body.size();
  if (payload > kMaxFrameBytes) {
    append_error(out, header.op, header.request_id,
                 "serve: op " +
                     std::to_string(static_cast<unsigned>(header.op)) +
                     " response of " + std::to_string(payload) +
                     " bytes exceeds the " + std::to_string(kMaxFrameBytes) +
                     "-byte frame cap; narrow the request");
    return;
  }
  put_u32(out, static_cast<std::uint32_t>(payload));
  encode_response_header(out, header);
  out.insert(out.end(), body.begin(), body.end());
}

void append_error(std::vector<std::uint8_t>& out, Op op,
                  std::uint32_t request_id, std::string_view message) {
  ResponseHeader header;
  header.op = op;
  header.status = Status::kError;
  header.request_id = request_id;
  header.count = static_cast<std::uint32_t>(message.size());
  append_response(out, header,
                  {reinterpret_cast<const std::uint8_t*>(message.data()),
                   message.size()});
}

// Client-supplied phi must be validated here: the library treats phi
// outside (0, 1] (NaN included) as a precondition violation and aborts.
void check_phi(double phi, const char* op) {
  if (!(phi > 0.0 && phi <= 1.0)) {
    throw Error(std::string("serve: ") + op + " phi must be in (0, 1]");
  }
}

// The density selection a kPlan or kReduce request asks for.
template <class Params>
core::SelectionParams selection_params(const Params& params, const char* op) {
  check_phi(params.phi, op);
  core::SelectionParams selection;
  selection.phi = params.phi;
  selection.min_density = params.min_density;
  if (params.max_addresses != 0) selection.max_addresses = params.max_addresses;
  return selection;
}

// Reads one batch of raw addresses off the request cursor in the
// family's wire width. The count is client-supplied: bound it by the
// bytes actually present in the (already size-capped) payload before
// sizing anything, so a malicious 16-byte frame announcing 2^32-1
// addresses cannot trigger a multi-GiB reserve.
template <class Family>
std::vector<typename Family::AddressWord> read_addresses(Cursor& cursor,
                                                         std::uint32_t n) {
  constexpr std::size_t kWordBytes =
      std::is_same_v<typename Family::AddressWord, std::uint32_t> ? 4 : 16;
  if (n > cursor.remaining() / kWordBytes) {
    throw FormatError("serve: address batch count " + std::to_string(n) +
                      " exceeds the bytes present in the frame");
  }
  std::vector<typename Family::AddressWord> addresses;
  addresses.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    if constexpr (std::is_same_v<typename Family::AddressWord,
                                 std::uint32_t>) {
      addresses.push_back(cursor.u32());
    } else {
      const std::uint64_t hi = cursor.u64();
      const std::uint64_t lo = cursor.u64();
      addresses.push_back(net::Ipv6Address(hi, lo));
    }
  }
  return addresses;
}

}  // namespace

template <>
GenerationStore<state::StateImage>& Server::store<net::Ipv4Family>()
    noexcept {
  return store4_;
}
template <>
GenerationStore<state::StateImage6>& Server::store<net::Ipv6Family>()
    noexcept {
  return store6_;
}
template <>
const GenerationStore<state::StateImage>& Server::store<net::Ipv4Family>()
    const noexcept {
  return store4_;
}
template <>
const GenerationStore<state::StateImage6>& Server::store<net::Ipv6Family>()
    const noexcept {
  return store6_;
}

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      pool_(options_.threads),
      shard_count_(pool_.thread_count()),
      store4_(shard_count_),
      store6_(shard_count_) {
  if (options_.v4_image_path.empty() && options_.v6_image_path.empty()) {
    throw Error("serve: at least one of v4/v6 image paths is required");
  }

  // Load and audit the initial generation(s) synchronously so the
  // server never answers from an empty store for a configured family.
  if (!options_.v4_image_path.empty()) {
    store4_.retire(store4_.install(
        load_audited<state::StateImage>(options_.v4_image_path)));
    v4_path_ = options_.v4_image_path;
  }
  if (!options_.v6_image_path.empty()) {
    store6_.retire(store6_.install(
        load_audited<state::StateImage6>(options_.v6_image_path)));
    v6_path_ = options_.v6_image_path;
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) throw_errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("serve: bad bind address " + options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = err;
    throw_errno("bind/listen on " + options_.bind_address + ":" +
                std::to_string(options_.port));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                &bound_len);
  port_ = ntohs(bound.sin_port);

  shards_.reserve(shard_count_);
  for (std::size_t i = 0; i < shard_count_; ++i) {
    auto shard = std::make_unique<Shard>();
    int pipe_fds[2];
    if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw_errno("pipe2");
    }
    shard->wake_read = pipe_fds[0];
    shard->wake_write = pipe_fds[1];
    shards_.push_back(std::move(shard));
  }
  scratch_.resize(shard_count_);

  reloader_ = std::thread([this] { reloader_loop(); });
}

Server::~Server() {
  stop();
  {
    std::lock_guard lock(reload_mutex_);
    reloader_stop_ = true;
  }
  reload_cv_.notify_all();
  if (reloader_.joinable()) reloader_.join();
  for (auto& shard : shards_) {
    if (shard->wake_read >= 0) ::close(shard->wake_read);
    if (shard->wake_write >= 0) ::close(shard->wake_write);
    for (int fd : shard->intake) ::close(fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void Server::run() {
  pool_.for_each_shard(shard_count_,
                       [this](std::size_t shard) { shard_loop(shard); });
}

void Server::stop() {
  stop_.store(true, std::memory_order_release);
  wake_all();
}

std::uint64_t Server::request_reload(net::AddressFamily family,
                                     std::optional<std::string> path) {
  const std::uint64_t ticket =
      reload_tickets_.fetch_add(1, std::memory_order_relaxed) + 1;
  {
    std::lock_guard lock(reload_mutex_);
    reload_queue_.push_back(ReloadJob{family, std::move(path)});
  }
  reload_cv_.notify_one();
  return ticket;
}

StatsReply Server::stats() const noexcept {
  StatsReply reply;
  reply.requests = requests_.load(std::memory_order_relaxed);
  reply.batched_addresses =
      batched_addresses_.load(std::memory_order_relaxed);
  reply.swaps = swaps_.load(std::memory_order_relaxed);
  reply.last_swap_install_us =
      last_install_us_.load(std::memory_order_relaxed);
  reply.last_swap_drain_us = last_drain_us_.load(std::memory_order_relaxed);
  reply.generations_retired = retired_.load(std::memory_order_relaxed);
  return reply;
}

void Server::wake(Shard& shard) {
  const char byte = 1;
  [[maybe_unused]] ssize_t n = ::write(shard.wake_write, &byte, 1);
}

void Server::wake_all() {
  for (auto& shard : shards_) wake(*shard);
}

void Server::accept_ready(std::size_t shard) {
  (void)shard;
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      return;  // transient accept failure; keep serving
    }
    set_nodelay(fd);
    const std::size_t target =
        next_assign_.fetch_add(1, std::memory_order_relaxed) % shard_count_;
    {
      std::lock_guard lock(shards_[target]->intake_mutex);
      shards_[target]->intake.push_back(fd);
    }
    wake(*shards_[target]);
  }
}

void Server::adopt_intake(Shard& shard,
                          std::vector<Connection>& connections) {
  std::vector<int> fds;
  {
    std::lock_guard lock(shard.intake_mutex);
    fds.swap(shard.intake);
  }
  for (int fd : fds) {
    Connection connection;
    connection.fd = fd;
    connections.push_back(std::move(connection));
  }
}

void Server::shard_loop(std::size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  std::vector<Connection> connections;
  std::vector<pollfd> fds;

  while (!stop_.load(std::memory_order_acquire)) {
    fds.clear();
    fds.push_back(pollfd{shard.wake_read, POLLIN, 0});
    if (shard_index == 0) {
      fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    }
    for (const Connection& connection : connections) {
      // Backpressure: a connection sitting on too much unflushed output
      // is not polled for input — its queries wait in the kernel buffer
      // (and eventually in the client) until the backlog drains.
      short events = 0;
      if (connection.unflushed() < kOutHighWater) events |= POLLIN;
      if (connection.unflushed() > 0) events |= POLLOUT;
      fds.push_back(pollfd{connection.fd, events, 0});
    }

    const int ready = ::poll(fds.data(), fds.size(), 200);
    if (ready < 0 && errno != EINTR) break;
    if (stop_.load(std::memory_order_acquire)) break;

    std::size_t at = 0;
    if (fds[at++].revents & POLLIN) {
      char buf[64];
      while (::read(shard.wake_read, buf, sizeof buf) > 0) {
      }
    }
    if (shard_index == 0 && (fds[at++].revents & POLLIN)) {
      accept_ready(shard_index);
    }
    adopt_intake(shard, connections);

    // fds[at..] parallel the connections snapshot taken before poll;
    // adopt_intake only appends, so indices still line up and adopted
    // connections (no pollfd yet) wait for the next round.
    std::size_t alive = 0;
    for (std::size_t i = 0; at + i < fds.size() && i < connections.size();
         ++i) {
      Connection& connection = connections[i];
      const short revents = fds[at + i].revents;
      bool keep = true;
      if (revents & (POLLERR | POLLNVAL)) keep = false;
      if (keep && (revents & (POLLIN | POLLHUP))) {
        keep = service_input(shard_index, connection);
      }
      if (keep && connection.unflushed() > 0) {
        keep = flush_output(connection);
      }
      // Frames deferred by backpressure: once the flush drained the
      // backlog under the low-water mark, serve them now rather than
      // waiting for more input that may never come.
      if (keep && !connection.closing && !connection.in.empty() &&
          connection.unflushed() < kOutLowWater) {
        keep = process_frames(shard_index, connection);
      }
      if (keep && connection.closing && connection.unflushed() == 0) {
        keep = false;
      }
      if (!keep) {
        ::close(connection.fd);
        connection.fd = -1;
      }
    }
    // Compact closed connections (and any adopted this round stay).
    for (std::size_t i = 0; i < connections.size(); ++i) {
      if (connections[i].fd >= 0) {
        if (alive != i) connections[alive] = std::move(connections[i]);
        ++alive;
      }
    }
    connections.resize(alive);
  }

  // Best-effort final flush so a shutdown response reaches the client.
  for (Connection& connection : connections) {
    flush_output(connection);
    ::close(connection.fd);
  }
}

bool Server::service_input(std::size_t shard, Connection& connection) {
  for (;;) {
    const std::size_t old_size = connection.in.size();
    connection.in.resize(old_size + 16384);
    const ssize_t n =
        ::recv(connection.fd, connection.in.data() + old_size, 16384, 0);
    if (n > 0) {
      connection.in.resize(old_size + static_cast<std::size_t>(n));
      continue;
    }
    connection.in.resize(old_size);
    if (n == 0) return false;  // peer closed
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }

  return process_frames(shard, connection);
}

bool Server::process_frames(std::size_t shard, Connection& connection) {
  try {
    for (;;) {
      // Backpressure: leave further frames buffered once too much
      // output is queued; shard_loop re-runs us after a flush drains
      // the backlog.
      if (connection.unflushed() >= kOutHighWater) break;
      const auto payload =
          next_frame(std::span<const std::uint8_t>(connection.in),
                     connection.in_consumed);
      if (!payload) break;
      handle_frame(shard, *payload, connection);
      if (connection.closing) break;
    }
  } catch (const std::exception&) {
    // Frame-layer violation (oversized announcement) or resource
    // exhaustion (bad_alloc on a huge-but-well-formed batch): drop the
    // peer rather than let the exception unwind the shard loop.
    return false;
  }

  if (connection.in_consumed > 0) {
    connection.in.erase(connection.in.begin(),
                        connection.in.begin() +
                            static_cast<std::ptrdiff_t>(
                                connection.in_consumed));
    connection.in_consumed = 0;
  }
  return true;
}

bool Server::flush_output(Connection& connection) {
  while (connection.out_sent < connection.out.size()) {
    const ssize_t n = ::send(
        connection.fd, connection.out.data() + connection.out_sent,
        connection.out.size() - connection.out_sent, MSG_NOSIGNAL);
    if (n > 0) {
      connection.out_sent += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;
  }
  connection.out.clear();
  connection.out_sent = 0;
  return true;
}

void Server::handle_frame(std::size_t shard,
                          std::span<const std::uint8_t> payload,
                          Connection& connection) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  Cursor cursor(payload);
  RequestHeader request;
  try {
    request = decode_request_header(cursor);
  } catch (const Error& e) {
    append_error(connection.out, Op::kPing, 0, e.what());
    return;
  }

  try {
    switch (request.op) {
      case Op::kPing: {
        ResponseHeader header;
        header.op = Op::kPing;
        header.request_id = request.request_id;
        append_response(connection.out, header, {});
        return;
      }
      case Op::kStats: {
        const StatsReply reply = stats();
        std::vector<std::uint8_t> body;
        put_u64(body, reply.requests);
        put_u64(body, reply.batched_addresses);
        put_u64(body, reply.swaps);
        put_u64(body, reply.last_swap_install_us);
        put_u64(body, reply.last_swap_drain_us);
        put_u64(body, reply.generations_retired);
        ResponseHeader header;
        header.op = Op::kStats;
        header.request_id = request.request_id;
        append_response(connection.out, header, body);
        return;
      }
      case Op::kReload:
        handle_reload(request, cursor, connection);
        return;
      case Op::kShutdown: {
        ResponseHeader header;
        header.op = Op::kShutdown;
        header.request_id = request.request_id;
        append_response(connection.out, header, {});
        connection.closing = true;
        stop();
        return;
      }
      default:
        break;
    }
    if (request.family == net::AddressFamily::kIpv6) {
      handle_query<net::Ipv6Family>(shard, request, cursor, connection);
    } else {
      handle_query<net::Ipv4Family>(shard, request, cursor, connection);
    }
  } catch (const Error& e) {
    append_error(connection.out, request.op, request.request_id, e.what());
  }
}

template <class Family>
void Server::handle_query(std::size_t shard, const RequestHeader& request,
                          Cursor& cursor, Connection& connection) {
  // Pin one generation for the whole batch: every byte of this response
  // comes from exactly this image, and the header says which one.
  const auto ref = store<Family>().acquire(shard);
  if (!ref) {
    append_error(connection.out, request.op, request.request_id,
                 Family::kFamily == net::AddressFamily::kIpv6
                     ? "serve: no IPv6 image is being served"
                     : "serve: no IPv4 image is being served");
    return;
  }
  const auto& image = ref.image();

  ResponseHeader header;
  header.op = request.op;
  header.request_id = request.request_id;
  header.generation = ref.seq();
  header.fingerprint = image.info().fingerprint;

  std::vector<std::uint8_t> body;
  switch (request.op) {
    case Op::kInfo: {
      const auto& info = image.info();
      put_u64(body, info.total_hosts);
      put_u64(body, info.advertised_addresses);
      put_u64(body, static_cast<std::uint64_t>(info.cell_count));
      put_u64(body, static_cast<std::uint64_t>(info.live_cells));
      put_u64(body, static_cast<std::uint64_t>(info.ranked_count));
      put_u32(body, static_cast<std::uint32_t>(info.mode));
      put_u32(body, static_cast<std::uint32_t>(info.family));
      break;
    }
    case Op::kRank: {
      const auto view = image.ranking();
      const std::size_t n =
          std::min<std::size_t>(request.count, view.ranked.size());
      for (std::size_t i = 0; i < n; ++i) {
        const auto& row = view.ranked[i];
        put_prefix(body, row.prefix);
        put_u64(body, row.hosts);
        put_f64(body, row.density);
      }
      header.count = static_cast<std::uint32_t>(n);
      break;
    }
    case Op::kPlan: {
      const auto selection = core::select_by_density(
          image.ranking(),
          selection_params(decode_plan_params(cursor), "plan"));
      put_u64(body, selection.selected_addresses);
      put_u64(body, selection.covered_hosts);
      put_u64(body, selection.total_hosts);
      for (const auto& prefix : selection.prefixes) {
        put_prefix(body, prefix);
      }
      header.count = static_cast<std::uint32_t>(selection.prefixes.size());
      break;
    }
    case Op::kLocate: {
      const auto addresses = read_addresses<Family>(cursor, request.count);
      std::vector<std::uint32_t> cells(addresses.size());
      image.partition().locate_many(addresses, cells);
      for (std::uint32_t cell : cells) put_u32(body, cell);
      header.count = static_cast<std::uint32_t>(cells.size());
      batched_addresses_.fetch_add(addresses.size(),
                                   std::memory_order_relaxed);
      break;
    }
    case Op::kTally: {
      const auto addresses = read_addresses<Family>(cursor, request.count);
      auto& counts =
          Family::kFamily == net::AddressFamily::kIpv6
              ? scratch_[shard].counts6
              : scratch_[shard].counts4;
      // The scratch vector is all-zero between requests; resizing keeps
      // that invariant (shrink drops zeros, grow appends zeros), so it is
      // never cleared. The reply loop below scans every slot to find the
      // touched ones and re-zero them: O(slots) per tally.
      if (counts.size() != image.partition().size()) {
        counts.resize(image.partition().size(), 0);
      }
      std::uint64_t attributed = 0;
      std::uint64_t unattributed = 0;
      image.partition().tally_cells(std::span(addresses), counts,
                                    attributed, unattributed);
      put_u64(body, attributed);
      put_u64(body, unattributed);
      std::uint32_t nonzero = 0;
      for (std::size_t cell = 0; cell < counts.size(); ++cell) {
        if (counts[cell] != 0) {
          put_u32(body, static_cast<std::uint32_t>(cell));
          put_u32(body, counts[cell]);
          counts[cell] = 0;
          ++nonzero;
        }
      }
      header.count = nonzero;
      batched_addresses_.fetch_add(addresses.size(),
                                   std::memory_order_relaxed);
      break;
    }
    case Op::kSample: {
      const SampleParams params = decode_sample_params(cursor);
      check_phi(params.phi, "sample");
      scan::SampleParams plan_params;
      plan_params.budget = params.budget;
      plan_params.floor = params.floor;
      plan_params.seed = params.seed;
      plan_params.phi = params.phi;
      plan_params.min_density = params.min_density;
      const auto design = scan::plan_sample(image.ranking(), plan_params);
      put_u64(body, design.total_draws);
      put_u64(body, design.frame_units);
      put_u64(body, design.seed);
      for (const auto& row : design.cells) {
        put_u32(body, row.cell);
        put_u32(body, 0);  // reserved
        put_prefix(body, row.prefix);
        put_u64(body, row.universe);
        put_u64(body, row.draws);
        put_u64(body, row.seed_hosts);
      }
      header.count = static_cast<std::uint32_t>(design.cells.size());
      break;
    }
    case Op::kReduce: {
      const ReduceParams params = decode_reduce_params(cursor);
      const core::SelectionParams selection_request =
          selection_params(params, "reduce");
      if (!(std::isfinite(params.max_overshoot) &&
            params.max_overshoot >= 0.0)) {
        throw Error("serve: reduce max_overshoot must be finite and >= 0");
      }
      const auto selection =
          core::select_by_density(image.ranking(), selection_request);
      bgp::ReduceParams reduce_params;
      reduce_params.max_overshoot = params.max_overshoot;
      reduce_params.min_prefixes = params.min_prefixes;
      const auto reduced = bgp::reduce<Family>(
          std::span<const typename Family::Prefix>(selection.prefixes),
          reduce_params);
      put_u64(body, static_cast<std::uint64_t>(selection.prefixes.size()));
      put_u64(body, selection.selected_addresses);
      put_u64(body, reduced.overshoot_addresses);
      put_u64(body, reduced.merges);
      for (const auto& prefix : reduced.prefixes) {
        put_prefix(body, prefix);
      }
      header.count = static_cast<std::uint32_t>(reduced.prefixes.size());
      break;
    }
    default:
      append_error(connection.out, request.op, request.request_id,
                   "serve: op carries no query semantics");
      return;
  }
  append_response(connection.out, header, body);
}

void Server::handle_reload(const RequestHeader& request, Cursor& cursor,
                           Connection& connection) {
  const auto path_bytes = cursor.bytes(request.count);
  std::optional<std::string> path;
  if (!path_bytes.empty()) {
    path.emplace(reinterpret_cast<const char*>(path_bytes.data()),
                 path_bytes.size());
  }
  const std::uint64_t ticket = request_reload(request.family, std::move(path));
  std::vector<std::uint8_t> body;
  put_u64(body, ticket);
  ResponseHeader header;
  header.op = Op::kReload;
  header.status = Status::kAccepted;
  header.request_id = request.request_id;
  append_response(connection.out, header, body);
}

template <class Family>
void Server::perform_reload(const ReloadJob& job) {
  using Image = state::BasicStateImage<Family>;
  const bool v6 = Family::kFamily == net::AddressFamily::kIpv6;
  std::string path;
  if (job.path) {
    path = *job.path;
  } else {
    std::lock_guard lock(path_mutex_);
    path = v6 ? v6_path_ : v4_path_;
  }
  if (path.empty()) {
    reload_failures_.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr,
                 "tass_serve: reload ignored: no %s image configured\n",
                 v6 ? "IPv6" : "IPv4");
    return;
  }

  const auto t0 = Clock::now();
  typename GenerationStore<Image>::Generation const* old = nullptr;
  try {
    old = store<Family>().install(load_audited<Image>(path));
  } catch (const std::exception& e) {
    reload_failures_.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr, "tass_serve: reload of %s failed: %s\n",
                 path.c_str(), e.what());
    return;
  }
  last_install_us_.store(elapsed_us(t0), std::memory_order_relaxed);
  // Replies carry the new fingerprint from here on, so the swap counts
  // now; the old generation is retired (and counted) once it drains.
  swaps_.fetch_add(1, std::memory_order_relaxed);

  const auto t1 = Clock::now();
  store<Family>().retire(old);
  last_drain_us_.store(elapsed_us(t1), std::memory_order_relaxed);
  if (old != nullptr) retired_.fetch_add(1, std::memory_order_relaxed);

  {
    std::lock_guard lock(path_mutex_);
    (v6 ? v6_path_ : v4_path_) = path;
  }
}

void Server::reloader_loop() {
  for (;;) {
    ReloadJob job;
    {
      std::unique_lock lock(reload_mutex_);
      reload_cv_.wait(lock, [this] {
        return reloader_stop_ || !reload_queue_.empty();
      });
      if (reload_queue_.empty()) return;  // stop requested, queue drained
      job = std::move(reload_queue_.front());
      reload_queue_.pop_front();
    }
    if (job.family == net::AddressFamily::kIpv6) {
      perform_reload<net::Ipv6Family>(job);
    } else {
      perform_reload<net::Ipv4Family>(job);
    }
  }
}

}  // namespace tass::serve
