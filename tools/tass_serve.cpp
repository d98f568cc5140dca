// tass_serve — resident TASS planning daemon.
//
// Usage:
//   tass_serve [--v4 IMAGE.tsim] [--v6 IMAGE.tsi6] [--bind ADDR]
//              [--port PORT] [--threads N]
//              [--feed SPEC] [--feed-follow] [--feed-table PFX2AS]
//              [--feed-out PATH] [--feed-batch N] [--feed-delay-ms MS]
//              [--feed-as-rate R] [--feed-as-burst B]
//
// At least one image is required. The daemon listens on
// ADDR:PORT (default 127.0.0.1, ephemeral port — the bound port is
// printed on stdout as `listening <addr> <port>` so wrappers can parse
// it), serves rank/plan/locate/tally queries over the serve/wire.hpp
// protocol, and swaps generations without interrupting service:
//
//   SIGHUP          reload every configured image from its current path
//   kReload frame   reload one family, optionally from a new path
//   SIGINT/SIGTERM  graceful stop (also wire kShutdown)
//
// Signals are consumed with sigwait() on the main thread while the
// server runs on a worker thread, so no handler ever runs in
// async-signal context.
//
// --feed attaches the live BGP stream reactor (stream/reactor.hpp) to
// the v4 plan: SPEC is an MRT BGP4MP update source — a file path
// (tailed like `tail -f` with --feed-follow), "fd:N" for an inherited
// pipe, or "tcp:HOST:PORT" for a collector socket. The reactor
// bootstraps from the loaded --v4 image (--feed-table supplies the
// origin sets from a pfx2as dump; without it every prefix is origin 0,
// which only matters for --feed-as-rate pacing), folds churn through
// its coalescing queue, and republishes each re-ranked plan by
// atomically writing --feed-out (default: the --v4 path + ".live") and
// enqueueing a generation swap — queries never wait. Cells invalidated
// by churn score zero until the next full seed scan (the daemon carries
// no prober). --feed-as-rate/--feed-as-burst bound the per-origin-AS
// rescan budget in probes per second (the paper's politeness arm).
#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bgp/pfx2as.hpp"
#include "serve/server.hpp"
#include "state/image.hpp"
#include "stream/reactor.hpp"
#include "stream/source.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--v4 image.tsim] [--v6 image.tsi6] "
               "[--bind addr] [--port port] [--threads n]\n"
               "       [--feed spec] [--feed-follow] "
               "[--feed-table pfx2as] [--feed-out path]\n"
               "       [--feed-batch n] [--feed-delay-ms ms] "
               "[--feed-as-rate r] [--feed-as-burst b]\n",
               argv0);
  return 2;
}

[[noreturn]] void bad_value(const std::string& flag) {
  std::fprintf(stderr, "tass_serve: bad value for %s\n", flag.c_str());
  std::exit(2);
}

/// Rebuilds the reactor bootstrap — the sorted (prefix, origins, count)
/// table — from the sealed image the daemon is serving, plus an
/// optional pfx2as dump for the origin sets.
struct Bootstrap {
  std::vector<tass::bgp::Pfx2AsRecord> table;
  std::vector<std::uint32_t> counts;
  tass::core::PrefixMode mode = tass::core::PrefixMode::kMore;
};

Bootstrap bootstrap_from_image(const std::string& image_path,
                               const std::string& table_path) {
  using namespace tass;
  const state::StateImage image = state::StateImage::load(image_path);

  std::map<net::Prefix, std::vector<std::uint32_t>> origin_of;
  if (!table_path.empty()) {
    for (auto& record : bgp::load_pfx2as(table_path, /*strict=*/false)) {
      origin_of[record.prefix] = std::move(record.origins);
    }
  }
  std::map<net::Prefix, std::uint64_t> hosts_of;
  const auto ranking = image.ranking();
  for (const auto& ranked : ranking.ranked) {
    hosts_of[ranked.prefix] = ranked.hosts;
  }

  Bootstrap bootstrap;
  bootstrap.mode = ranking.mode;
  auto live = image.partition().live_prefixes();
  std::sort(live.begin(), live.end());
  bootstrap.table.reserve(live.size());
  bootstrap.counts.reserve(live.size());
  for (const net::Prefix prefix : live) {
    const auto origins = origin_of.find(prefix);
    bootstrap.table.push_back(
        {prefix, origins != origin_of.end() ? origins->second
                                            : std::vector<std::uint32_t>{0}});
    const auto hosts = hosts_of.find(prefix);
    bootstrap.counts.push_back(
        hosts != hosts_of.end() ? static_cast<std::uint32_t>(hosts->second)
                                : 0);
  }
  return bootstrap;
}

/// write + rename so the serving reload never sees a torn image.
void write_atomically(const std::string& path,
                      std::span<const std::byte> bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    throw tass::Error("cannot write plan image: " + tmp);
  }
  const std::size_t written =
      std::fwrite(bytes.data(), 1, bytes.size(), file);
  const bool flushed = std::fclose(file) == 0;
  if (written != bytes.size() || !flushed ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw tass::Error("cannot publish plan image: " + path);
  }
}

}  // namespace

int main(int argc, char** argv) {
  tass::serve::ServerOptions options;
  std::string feed_spec;
  bool feed_follow = false;
  std::string feed_table;
  std::string feed_out;
  tass::stream::ReactorOptions reactor_options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "tass_serve: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    // Integer flags in [min, max]; real flags finite and >= 0.
    const auto integer = [&](std::uint64_t min, std::uint64_t max) {
      const auto parsed = tass::util::parse_u64(value());
      if (!parsed || *parsed < min || *parsed > max) bad_value(arg);
      return *parsed;
    };
    const auto real = [&]() {
      const auto parsed = tass::util::parse_double(value());
      if (!parsed || !std::isfinite(*parsed) || *parsed < 0.0) {
        bad_value(arg);
      }
      return *parsed;
    };
    if (arg == "--v4") {
      options.v4_image_path = value();
    } else if (arg == "--v6") {
      options.v6_image_path = value();
    } else if (arg == "--bind") {
      options.bind_address = value();
    } else if (arg == "--port") {
      options.port = static_cast<std::uint16_t>(integer(0, 65535));
    } else if (arg == "--threads") {
      options.threads = static_cast<unsigned>(integer(0, 1024));
    } else if (arg == "--feed") {
      feed_spec = value();
    } else if (arg == "--feed-follow") {
      feed_follow = true;
    } else if (arg == "--feed-table") {
      feed_table = value();
    } else if (arg == "--feed-out") {
      feed_out = value();
    } else if (arg == "--feed-batch") {
      reactor_options.max_batch = static_cast<std::size_t>(
          integer(1, std::numeric_limits<std::size_t>::max()));
    } else if (arg == "--feed-delay-ms") {
      reactor_options.max_batch_delay_seconds = real() / 1e3;
    } else if (arg == "--feed-as-rate") {
      reactor_options.as_probes_per_second = real();
    } else if (arg == "--feed-as-burst") {
      // 0 picks the default; a bucket cannot hold less than one probe.
      reactor_options.as_probe_burst = real();
      if (reactor_options.as_probe_burst > 0.0 &&
          reactor_options.as_probe_burst < 1.0) {
        bad_value(arg);
      }
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "tass_serve: unknown argument %s\n",
                   arg.c_str());
      return usage(argv[0]);
    }
  }
  if (options.v4_image_path.empty() && options.v6_image_path.empty()) {
    std::fprintf(stderr, "tass_serve: at least one of --v4/--v6 is "
                         "required\n");
    return usage(argv[0]);
  }
  if (!feed_spec.empty() && options.v4_image_path.empty()) {
    std::fprintf(stderr,
                 "tass_serve: --feed tracks the v4 plan and needs --v4\n");
    return usage(argv[0]);
  }
  if (feed_out.empty()) feed_out = options.v4_image_path + ".live";

  // Block the control signals before any thread exists so every thread
  // inherits the mask and sigwait() below is the only consumer.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGHUP);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);
  std::signal(SIGPIPE, SIG_IGN);

  try {
    const std::string bind_address = options.bind_address;
    const std::string v4_path = options.v4_image_path;
    tass::serve::Server server(std::move(options));
    std::printf("listening %s %u\n", bind_address.c_str(),
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);

    std::thread serving([&server] { server.run(); });

    // The live-churn reactor: every sealed plan is written atomically
    // to feed_out and swapped into the serving generation store via the
    // normal reload path (load + validate off the query path, then one
    // atomic install).
    std::unique_ptr<tass::stream::StreamReactor> reactor;
    if (!feed_spec.empty()) {
      Bootstrap bootstrap = bootstrap_from_image(v4_path, feed_table);
      reactor_options.mode = bootstrap.mode;
      std::fprintf(stderr,
                   "tass_serve: feed %s (%zu prefixes, origins %s)\n",
                   feed_spec.c_str(), bootstrap.table.size(),
                   feed_table.empty() ? "defaulted" : feed_table.c_str());
      reactor = std::make_unique<tass::stream::StreamReactor>(
          std::move(bootstrap.table), std::move(bootstrap.counts),
          reactor_options);
      reactor->set_publisher([&server,
                              feed_out](tass::stream::PublishedPlan plan) {
        try {
          write_atomically(feed_out, plan.image);
          server.request_reload(tass::net::AddressFamily::kIpv4, feed_out);
          std::fprintf(stderr,
                       "tass_serve: plan %llu published (%llu updates, "
                       "%.1f ms update->plan)\n",
                       static_cast<unsigned long long>(plan.seq),
                       static_cast<unsigned long long>(plan.batch_updates),
                       plan.update_to_plan_seconds * 1e3);
        } catch (const std::exception& e) {
          // Keep serving the previous generation; the next batch
          // retries the publication path.
          std::fprintf(stderr, "tass_serve: plan %llu not published: %s\n",
                       static_cast<unsigned long long>(plan.seq), e.what());
        }
      });
      reactor->start(tass::stream::make_update_source(feed_spec,
                                                      feed_follow));
    }

    for (;;) {
      int signo = 0;
      if (sigwait(&signals, &signo) != 0) continue;
      if (signo == SIGHUP) {
        std::fprintf(stderr, "tass_serve: SIGHUP: reloading images\n");
        server.request_reload(tass::net::AddressFamily::kIpv4);
        server.request_reload(tass::net::AddressFamily::kIpv6);
        continue;
      }
      std::fprintf(stderr, "tass_serve: signal %d: shutting down\n",
                   signo);
      break;
    }
    if (reactor) {
      reactor->stop();
      const auto stats = reactor->stats();
      std::fprintf(stderr,
                   "tass_serve: feed consumed %llu records (%llu decode "
                   "errors, %llu resyncs), %llu plans published, %llu "
                   "updates folded\n",
                   static_cast<unsigned long long>(stats.framer.records),
                   static_cast<unsigned long long>(
                       stats.framer.decode_errors),
                   static_cast<unsigned long long>(stats.framer.resyncs),
                   static_cast<unsigned long long>(stats.plans_published),
                   static_cast<unsigned long long>(stats.queue.coalesced));
    }
    server.stop();
    serving.join();
    const auto stats = server.stats();
    std::fprintf(stderr,
                 "tass_serve: served %llu requests, %llu batched "
                 "addresses, %llu swaps\n",
                 static_cast<unsigned long long>(stats.requests),
                 static_cast<unsigned long long>(stats.batched_addresses),
                 static_cast<unsigned long long>(stats.swaps));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tass_serve: %s\n", e.what());
    return 1;
  }
  return 0;
}
