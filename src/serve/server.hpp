// tass_serve — the resident scan-planning daemon.
//
// The paper's footprint-reduction loop pays off operationally when many
// scanner processes share one topology-aware plan instead of each
// rebuilding it. Server mmaps sealed TSIM/TSI6 images (state/image.hpp)
// and answers rank / plan / scope (locate) / attribute (tally) queries
// for many concurrent clients over the length-prefixed wire protocol in
// serve/wire.hpp.
//
// Architecture:
//
//   * Connections are served by the sharded util::ThreadPool: run()
//     enters one long-lived for_each_shard region whose shard count is
//     the pool's participant count. Shard 0 owns the listening socket
//     and deals accepted connections round-robin across the shards
//     (including itself) through per-shard mailboxes; every shard then
//     polls and serves its own connection set, so a slow client only
//     ever delays its own shard.
//   * The query hot path is lock-free: a request batch acquires the
//     current generation through serve::GenerationStore (three
//     uncontended atomics, no mutex), resolves its whole address batch
//     with the existing batch kernels — LpmIndex::lookup_many /
//     PrefixPartition::tally_cells, which carry the util::cpu SIMD
//     dispatch straight onto the network path — and releases the
//     generation when the response is encoded. Mailboxes and the reload
//     queue use mutexes, but those are control-plane only.
//   * Reloads are RCU generation swaps: request_reload() (wire kReload,
//     or SIGHUP in the tass_serve binary) enqueues to a dedicated
//     reloader thread, which loads + deep-audits (StateImage::verify)
//     the new image off the query path, installs it with one atomic
//     exchange, and retires the displaced generation only after the
//     last in-flight batch that acquired it has drained. Queries never
//     wait; a batch is answered entirely by the one generation it
//     pinned, and every response carries that generation's sequence
//     number and topology fingerprint.
//
// Lifecycle: the constructor binds/listens and loads and audits the
// initial image(s) synchronously, so port() is valid and clients may
// connect (backlogged) before run() starts. run() serves until stop()
// and is typically called on a dedicated thread; join that thread
// before destroying the server.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/family.hpp"
#include "serve/generation.hpp"
#include "serve/wire.hpp"
#include "state/image.hpp"
#include "util/thread_pool.hpp"

namespace tass::serve {

struct ServerOptions {
  /// Image paths; an empty path means that family is not served (at
  /// least one must be set — the constructor throws otherwise).
  std::string v4_image_path;
  std::string v6_image_path;

  /// Listening endpoint. The daemon is a loopback/LAN planning service,
  /// not an Internet-facing one; the default binds loopback only.
  /// port 0 picks an ephemeral port (read it back via port()).
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;

  /// Serving shards, in the ThreadPool convention: the pool has
  /// `threads` participants including the thread that calls run();
  /// 0 means one per hardware thread.
  unsigned threads = 4;
};

class Server {
 public:
  /// Binds + listens and loads and audits the configured images (throws
  /// tass::Error / tass::FormatError on socket or image failure).
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound TCP port (resolves port 0 to the ephemeral choice).
  std::uint16_t port() const noexcept { return port_; }
  /// Serving shard count (== reader-slot count of the generation
  /// stores).
  std::size_t shard_count() const noexcept { return shard_count_; }

  /// Serves connections until stop(). Blocking; the calling thread
  /// becomes shard 0 (accept + its share of connections).
  void run();

  /// Asks run() to return (thread-safe; idempotent). Open connections
  /// are closed; queued reloads are drained first.
  void stop();

  /// Enqueues a generation swap for `family`, reloading from `path` —
  /// or from the family's current path when nullopt (the SIGHUP
  /// semantics). Returns the reload ticket. The swap is asynchronous;
  /// observe it via stats().swaps (counted at install) or a changed
  /// response fingerprint, and the old generation's drain via
  /// stats().generations_retired. A failed load or audit (missing/corrupt file, wrong
  /// family, an image verify() rejects) keeps the current generation
  /// serving and counts a failure.
  std::uint64_t request_reload(net::AddressFamily family,
                               std::optional<std::string> path = {});

  /// Snapshot of the serving counters (what wire kStats reports).
  StatsReply stats() const noexcept;
  std::uint64_t reload_failures() const noexcept {
    return reload_failures_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection {
    int fd = -1;
    std::vector<std::uint8_t> in;
    std::size_t in_consumed = 0;
    std::vector<std::uint8_t> out;
    std::size_t out_sent = 0;
    bool closing = false;  // flush pending output, then close

    /// Queued-but-unsent response bytes — the backpressure signal.
    std::size_t unflushed() const noexcept { return out.size() - out_sent; }
  };

  struct Shard {
    int wake_read = -1;
    int wake_write = -1;
    std::mutex intake_mutex;
    std::vector<int> intake;  // accepted fds waiting for adoption
  };

  struct ReloadJob {
    net::AddressFamily family = net::AddressFamily::kIpv4;
    std::optional<std::string> path;
  };

  template <class Family>
  GenerationStore<state::BasicStateImage<Family>>& store() noexcept;
  template <class Family>
  const GenerationStore<state::BasicStateImage<Family>>& store()
      const noexcept;

  void shard_loop(std::size_t shard);
  void accept_ready(std::size_t shard);
  void adopt_intake(Shard& shard, std::vector<Connection>& connections);
  void wake(Shard& shard);
  void wake_all();

  // Reads whatever is available, then processes buffered frames up to
  // the output high-water mark and queues responses. Returns false
  // when the connection must close. A connection over the mark is not
  // polled for input at all, so TCP flow control throttles a client
  // that pipelines queries without draining responses; process_frames
  // is re-run after a flush brings the backlog under the low-water
  // mark to serve the frames that were deferred.
  bool service_input(std::size_t shard, Connection& connection);
  bool process_frames(std::size_t shard, Connection& connection);
  bool flush_output(Connection& connection);

  void handle_frame(std::size_t shard,
                    std::span<const std::uint8_t> payload,
                    Connection& connection);
  template <class Family>
  void handle_query(std::size_t shard, const RequestHeader& request,
                    Cursor& cursor, Connection& connection);
  void handle_reload(const RequestHeader& request, Cursor& cursor,
                     Connection& connection);

  void reloader_loop();
  template <class Family>
  void perform_reload(const ReloadJob& job);

  // Per-shard, per-family tally scratch: kept all-zero between
  // requests, so a tally never clears or reallocates it. The reply loop
  // still scans every partition slot for the nonzero counts, so a tally
  // costs O(slots) on top of its lookups (ROADMAP item 14).
  struct TallyScratch {
    std::vector<std::uint32_t> counts4;
    std::vector<std::uint32_t> counts6;
  };

  ServerOptions options_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;

  util::ThreadPool pool_;
  std::size_t shard_count_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<TallyScratch> scratch_;
  std::atomic<std::size_t> next_assign_{0};
  std::atomic<bool> stop_{false};

  GenerationStore<state::StateImage> store4_;
  GenerationStore<state::StateImage6> store6_;

  // Current image paths (control plane; SIGHUP reloads re-read these).
  std::mutex path_mutex_;
  std::string v4_path_;
  std::string v6_path_;

  // Reload queue, drained by the dedicated reloader thread.
  std::mutex reload_mutex_;
  std::condition_variable reload_cv_;
  std::deque<ReloadJob> reload_queue_;
  bool reloader_stop_ = false;
  std::thread reloader_;

  // Serving counters (relaxed; monitoring only).
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> batched_addresses_{0};
  std::atomic<std::uint64_t> swaps_{0};
  std::atomic<std::uint64_t> last_install_us_{0};
  std::atomic<std::uint64_t> last_drain_us_{0};
  std::atomic<std::uint64_t> retired_{0};
  std::atomic<std::uint64_t> reload_tickets_{0};
  std::atomic<std::uint64_t> reload_failures_{0};
};

}  // namespace tass::serve
