// Generation-swap stress: N client threads hammer batched queries while
// a writer loops load -> swap -> retire between two topologies. The
// invariant under test is the serving contract: every response is
// internally consistent with exactly one generation — its header names
// a known fingerprint, and its payload bit-matches a direct library
// call against the image with that fingerprint. Run under TSan in CI
// (tsan job) to prove the RCU reader/writer edges are race-free.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bgp/partition.hpp"
#include "core/ranking.hpp"
#include "net/family.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "state/image.hpp"

namespace tass::serve {
namespace {

std::string temp_path(const std::string& stem) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir ? dir : "/tmp") + "/" + stem + "." +
         std::to_string(static_cast<long>(::getpid())) + ".tsim";
}

// Two deliberately different topologies (cell count and host counts) so
// the fingerprints differ and locate/tally answers are generation-
// dependent — a response mixing generations cannot pass the bit check.
std::string make_image(const std::string& stem, std::size_t cells,
                       std::uint64_t seed) {
  std::vector<net::Prefix> prefixes;
  for (std::size_t i = 0; i < cells; ++i) {
    prefixes.emplace_back(
        net::Ipv4Address((10u << 24) | (static_cast<std::uint32_t>(i) << 16)),
        16);
  }
  bgp::PrefixPartition partition(std::move(prefixes));
  std::vector<std::uint32_t> counts(partition.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = static_cast<std::uint32_t>((i * 131 + seed * 7) % 997);
  }
  const std::string path = temp_path(stem);
  state::save_image(
      path, partition,
      core::rank_by_density(counts, partition, core::PrefixMode::kMore));
  return path;
}

TEST(ServeSwapStress, EveryResponseBindsToExactlyOneGeneration) {
  const std::string path_a = make_image("serve_swap_a", 24, 1);
  const std::string path_b = make_image("serve_swap_b", 40, 2);
  const state::StateImage image_a = state::StateImage::load(path_a);
  const state::StateImage image_b = state::StateImage::load(path_b);
  const std::uint64_t fp_a = image_a.info().fingerprint;
  const std::uint64_t fp_b = image_b.info().fingerprint;
  ASSERT_NE(fp_a, fp_b);

  ServerOptions options;
  options.v4_image_path = path_a;
  options.threads = 3;
  Server server(std::move(options));
  std::thread serving([&server] { server.run(); });

  constexpr int kReaders = 4;
  constexpr int kSwaps = 8;
  constexpr std::size_t kBatch = 192;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> responses{0};
  std::atomic<std::uint64_t> swapped_mid_run{0};
  std::atomic<int> failures{0};

  const auto expected_for = [&](std::uint64_t fingerprint)
      -> const state::StateImage* {
    if (fingerprint == fp_a) return &image_a;
    if (fingerprint == fp_b) return &image_b;
    return nullptr;
  };

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int reader = 0; reader < kReaders; ++reader) {
    readers.emplace_back([&, reader] {
      Client client("127.0.0.1", server.port());
      std::uint64_t first_fp = 0;
      for (std::uint64_t iteration = 0;
           !done.load(std::memory_order_acquire); ++iteration) {
        // Addresses vary per reader and iteration; about half fall in
        // cells only the larger topology has, so the two generations
        // disagree on them.
        std::vector<std::uint32_t> addresses;
        addresses.reserve(kBatch);
        for (std::size_t i = 0; i < kBatch; ++i) {
          const std::uint32_t mix = static_cast<std::uint32_t>(
              (iteration * kBatch + i) * 2654435761u + reader * 97u);
          addresses.push_back((10u << 24) | ((mix % 44) << 16) |
                              (mix & 0xFFFF));
        }

        const auto [locate_header, cells] = client.locate(addresses);
        const state::StateImage* locate_image =
            expected_for(locate_header.fingerprint);
        if (locate_image == nullptr) {
          ADD_FAILURE() << "locate response carries unknown fingerprint "
                        << locate_header.fingerprint;
          failures.fetch_add(1);
          break;
        }
        std::vector<std::uint32_t> direct(addresses.size());
        locate_image->partition().locate_many(addresses, direct);
        if (cells != direct) {
          ADD_FAILURE() << "locate payload does not match generation "
                        << locate_header.generation;
          failures.fetch_add(1);
          break;
        }

        const auto [tally_header, tally] = client.tally(addresses);
        const state::StateImage* tally_image =
            expected_for(tally_header.fingerprint);
        if (tally_image == nullptr) {
          ADD_FAILURE() << "tally response carries unknown fingerprint "
                        << tally_header.fingerprint;
          failures.fetch_add(1);
          break;
        }
        std::vector<std::uint32_t> counts(tally_image->partition().size());
        std::uint64_t attributed = 0;
        std::uint64_t unattributed = 0;
        tally_image->partition().tally_cells(std::span(addresses), counts,
                                             attributed, unattributed);
        bool tally_ok = tally.attributed == attributed &&
                        tally.unattributed == unattributed;
        if (tally_ok) {
          std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
          for (std::uint32_t c = 0; c < counts.size(); ++c) {
            if (counts[c] != 0) pairs.emplace_back(c, counts[c]);
          }
          tally_ok = tally.cells == pairs;
        }
        if (!tally_ok) {
          ADD_FAILURE() << "tally payload does not match generation "
                        << tally_header.generation;
          failures.fetch_add(1);
          break;
        }

        if (first_fp == 0) first_fp = locate_header.fingerprint;
        if (locate_header.fingerprint != first_fp ||
            tally_header.fingerprint != locate_header.fingerprint) {
          swapped_mid_run.fetch_add(1, std::memory_order_relaxed);
        }
        responses.fetch_add(2, std::memory_order_relaxed);
      }
    });
  }

  // Writer: alternate A <-> B, waiting for each swap to land before
  // requesting the next so the retire/drain path runs every time.
  std::thread writer([&] {
    Client control("127.0.0.1", server.port());
    for (int swap = 0; swap < kSwaps; ++swap) {
      const std::string& next = (swap % 2 == 0) ? path_b : path_a;
      control.reload(net::AddressFamily::kIpv4, next);
      const std::uint64_t want = static_cast<std::uint64_t>(swap) + 1;
      while (control.stats().second.swaps < want) {
        std::this_thread::yield();
      }
      // Pace against reader progress: let a few batches land on the
      // freshly installed generation before the next swap, so readers
      // actually observe both topologies (bounded in case readers bail).
      const std::uint64_t before = responses.load(std::memory_order_relaxed);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (responses.load(std::memory_order_relaxed) <
                 before + 2 * kReaders &&
             failures.load() == 0 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    }
    done.store(true, std::memory_order_release);
  });

  writer.join();
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(responses.load(), 0u);
  // With kSwaps completed swaps mid-stream, at least one reader must
  // have observed both topologies.
  EXPECT_GT(swapped_mid_run.load(), 0u);

  Client control("127.0.0.1", server.port());
  EXPECT_GE(control.stats().second.swaps, static_cast<std::uint64_t>(kSwaps));
  // Swaps count at install; the last old generation retires once it
  // drains, so poll for it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (control.stats().second.generations_retired <
             static_cast<std::uint64_t>(kSwaps) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(control.stats().second.generations_retired,
            static_cast<std::uint64_t>(kSwaps));

  server.stop();
  serving.join();
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

}  // namespace
}  // namespace tass::serve
