// tass_perfbench — the pipeline benchmark.
//
//   tass_perfbench --workload plan_v4|plan_v6|serve_mix|churn_stream
//                  --seed N --seconds S --trace 0|1 --workdir DIR
//                  [--trace-out FILE] [--tiny 1] [--plant 1]
//
// Every workload sets up only the inputs its own phase needs (three to
// seven times; setup_s is the median), then runs that phase alone: plan
// cycles (v4 or v6), the serving daemon, or the stream reactor. Every
// output is refereed; the last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. A traced run
// sets up every phase once, measures its own phase untraced and then
// traced (the ratio is the tracing overhead), and then runs each other
// phase briefly under its own tracer, so every layer has a figure.
// Exit status: 0 when every check passed, 1 on any mismatch, 2 on a
// usage error or a thread budget above nproc.
#include <sched.h>
#include <sys/resource.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"
#include "core/ranking.hpp"
#include "net/interval.hpp"
#include "plan.hpp"
#include "scan/engine.hpp"
#include "serve.hpp"
#include "state/image.hpp"
#include "stream.hpp"
#include "util/cpu.hpp"
#include "util/mmap_file.hpp"
#include "world.hpp"

namespace perfbench {
namespace {

/// p99 is taken per window of this many samples (ten lie beyond it),
/// and the median over the windows is reported.
constexpr std::size_t kTailWindow = 1000;

std::optional<Options> parse_options(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload_name = value;
      have_workload = true;
      if (value == "plan_v4") options.workload = Workload::kPlanV4;
      else if (value == "plan_v6") options.workload = Workload::kPlanV6;
      else if (value == "serve_mix") options.workload = Workload::kServeMix;
      else if (value == "churn_stream") options.workload = Workload::kChurnStream;
      else return std::nullopt;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value != "0";
    } else if (flag == "--tiny") {
      options.tiny = value != "0";
    } else if (flag == "--plant") {
      options.plant = value != "0";
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload || options.workdir.empty() ||
      !(options.seconds > 0.0)) {
    return std::nullopt;
  }
  return options;
}

unsigned online_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The inputs a set-up builds. Sealing a plan is also the warm-up of its
/// family's plan cycle.
struct Needs {
  bool v4 = false, v6 = false, burst = false, paced = false;
  bool seal_v4 = false, seal_v6 = false, images = false;
};

Needs needs_for(Workload workload) {
  switch (workload) {
    case Workload::kPlanV4: return {.v4 = true, .seal_v4 = true};
    case Workload::kPlanV6: return {.v6 = true, .seal_v6 = true};
    case Workload::kServeMix:
      return {.v4 = true, .v6 = true, .burst = true, .seal_v4 = true, .seal_v6 = true,
              .images = true};
    case Workload::kChurnStream: return {.v4 = true, .burst = true, .paced = true};
  }
  return {};
}

constexpr Needs kAllInputs{true, true, true, true, true, true, true};

/// Everything set-up produces.
struct Bench {
  std::unique_ptr<World> world;
  ServeImages images;
  PlanFigures served;  // figures of plan A, the image serve_mix serves
};

void write_file(const std::string& path, const std::vector<std::byte>& bytes) {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr || std::fwrite(bytes.data(), 1, bytes.size(), out) != bytes.size() ||
      std::fclose(out) != 0) {
    throw std::runtime_error("cannot write " + path);
  }
}

Bench set_up(const Options& options, const Sizes& sizes, std::size_t paced_steps,
             const Needs& needs) {
  Bench bench;
  bench.world = std::make_unique<World>();
  World& world = *bench.world;
  if (needs.v4) {
    world.v4 = make_world_v4(options.seed, sizes);
    // Build the blocklist's lazy index now, not inside a timed cycle.
    (void)world.v4.blocklist.blocks(net::Ipv4Address(0));
  }
  if (needs.v6) {
    world.v6 = make_world_v6(options.seed, sizes);
    (void)world.v6.blocklist.blocks(net::Ipv6Address());
  }
  if (needs.burst) {
    world.burst = make_churn_trace(world.v4, options.seed, kBurstSteps,
                                   sizes.churn_updates_per_step);
  }
  if (needs.paced) {
    world.paced = make_churn_trace(world.v4, options.seed, paced_steps,
                                   sizes.churn_updates_per_step);
  }
  SealedPlan plan_a;
  if (needs.seal_v4) plan_a = seal_plan(world, false, sizes);
  SealedPlan plan_6;
  if (needs.seal_v6) plan_6 = seal_plan(world, true, sizes);
  if (!needs.images) return bench;

  bench.served = plan_a.figures;
  bench.images.path_a = options.workdir + "/plan_a.tsim";
  bench.images.path_b = options.workdir + "/plan_b.tsim";
  bench.images.path_6 = options.workdir + "/plan_6.tsi6";
  write_file(bench.images.path_a, plan_a.image);
  write_file(bench.images.path_6, plan_6.image);
  // B is the next generation: the plan of the table after the burst
  // trace, seeded from the same month, so A/B swaps trade images of one
  // shape.
  std::vector<net::Prefix> churned;
  for (const auto& record : world.burst.final_table) churned.push_back(record.prefix);
  const bgp::PrefixPartition partition(std::move(churned));
  scan::EngineConfig config;
  config.threads = 1;
  const scan::AttributedScanResult seeded = scan::ScanEngine(config).run_attributed(
      scan::ScanScope(net::IntervalSet::of_prefixes(partition.live_prefixes())),
      *world.v4.seed_oracle, partition);
  const std::vector<std::uint32_t> counts(seeded.cell_counts.begin(),
                                          seeded.cell_counts.end());
  write_file(bench.images.path_b,
             state::encode_image(partition, core::rank_by_density(
                                                std::span<const std::uint32_t>(counts),
                                                partition, core::PrefixMode::kMore)));
  return bench;
}

/// What one phase run produced; only the phase's own member is filled.
struct PhaseResults {
  PlanPhaseResult plan;
  ServePhaseResult serve;
  StreamPhaseResult stream;
};

/// The batch shadows every streamed replay is checked against.
struct Shadows {
  StreamShadow burst;
  StreamShadow paced;
};

PhaseResults run_phase(Workload phase, const Options& options, const Sizes& sizes,
                       const Budget& budget, const Bench& bench, const Shadows* shadows,
                       double seconds, Tracer* tracer, Referee& referee) {
  const World& world = *bench.world;
  PhaseResults out;
  switch (phase) {
    case Workload::kPlanV4:
    case Workload::kPlanV6:
      out.plan = run_plan_phase(world, phase == Workload::kPlanV6, sizes, seconds, 2,
                                tracer, referee);
      break;
    case Workload::kServeMix:
      out.serve = run_serve_phase(bench.images, sizes, budget, options.seed, seconds,
                                  tracer, referee);
      break;
    case Workload::kChurnStream:
      out.stream = run_stream_phase(world, shadows->burst, shadows->paced, sizes, seconds,
                                    referee);
      if (tracer != nullptr) {
        // The batch path and the synchronous API carry the layer spans
        // the reactor's own threads cannot.
        (void)batch_shadow(world.burst, *world.v4.seed_oracle, tracer);
        traced_sync_replay(world.burst, *world.v4.seed_oracle, tracer);
      }
      break;
  }
  return out;
}

/// Nanoseconds per address of the batch kernels the serve path runs,
/// timed directly on the served plan image with the batches it served.
void kernel_timings(const ServeImages& images, const ServePhaseResult& serve,
                    Metrics& metrics) {
  const state::StateImage image = state::StateImage::load(images.path_a);
  std::uint64_t addresses = 0;
  for (const auto& batch : serve.v4_batches) addresses += batch.size();
  std::vector<double> lookup_ns, tally_ns;
  std::vector<std::uint32_t> out(4096);
  std::vector<std::uint32_t> counts(image.partition().size(), 0);
  for (int rep = 0; rep < 7 && addresses > 0; ++rep) {
    auto start = Clock::now();
    for (const auto& batch : serve.v4_batches) {
      image.index().lookup_many(batch, std::span(out).first(batch.size()));
    }
    lookup_ns.push_back(ms_between(start, Clock::now()) * 1e6 /
                        static_cast<double>(addresses));
    std::uint64_t attributed = 0, unattributed = 0;
    start = Clock::now();
    for (const auto& batch : serve.v4_batches) {
      image.partition().tally_cells(std::span<const std::uint32_t>(batch), counts,
                                    attributed, unattributed);
    }
    tally_ns.push_back(ms_between(start, Clock::now()) * 1e6 /
                       static_cast<double>(addresses));
  }
  metrics.set("trie.lookup_many_ns_per_addr", median(lookup_ns), "ns");
  metrics.set("bgp.tally_cells_ns_per_addr", median(tally_ns), "ns");
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

constexpr Workload kWorkloads[] = {Workload::kPlanV4, Workload::kPlanV6,
                                   Workload::kServeMix, Workload::kChurnStream};

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kPlanV4: return "plan_v4";
    case Workload::kPlanV6: return "plan_v6";
    case Workload::kServeMix: return "serve_mix";
    case Workload::kChurnStream: return "churn_stream";
  }
  return "?";
}

bool is_plan(Workload workload) {
  return workload == Workload::kPlanV4 || workload == Workload::kPlanV6;
}

/// One phase run under its own tracer in the traced run.
struct TracedPhase {
  Workload phase;
  std::unique_ptr<Tracer> tracer;
  PhaseResults results;
};

/// The per-layer metrics. `traced` holds the workload's own phase first,
/// then every other phase; each layer's figure comes from the first
/// phase that ran the layer.
void layer_metrics(const std::vector<TracedPhase>& traced, const ServeImages& images,
                   Metrics& metrics) {
  const auto spans = [&](const char* span) {
    for (const TracedPhase& t : traced) {
      std::vector<double> durations = t.tracer->durations_ms(span);
      if (!durations.empty()) return durations;
    }
    return std::vector<double>{};
  };
  const auto counts = [&](const char* name) {
    for (const TracedPhase& t : traced) {
      std::vector<double> values = t.tracer->counts(name);
      if (!values.empty()) return values;
    }
    return std::vector<double>{};
  };
  const auto results = [&](Workload phase) -> const PhaseResults& {
    for (const TracedPhase& t : traced) {
      if (t.phase == phase) return t.results;
    }
    throw std::logic_error("traced run lacks a phase");
  };
  const auto span_ms = [&](const char* span, const char* metric) {
    metrics.set(metric, median(spans(span)), "ms");
  };
  const auto count_median = [&](const char* name, const char* unit) {
    metrics.set(name, median(counts(name)), unit);
  };
  const auto count_sum = [&](const char* name) {
    metrics.set(name, sum(counts(name)), "count");
  };
  span_ms("bgp.parse", "bgp.parse_ms");
  span_ms("bgp.rib", "bgp.rib_ms");
  span_ms("bgp.partition", "bgp.partition_ms");
  count_median("bgp.routes", "count");
  count_median("bgp.cells", "count");
  span_ms("bgp.reduce", "bgp.reduce_ms");
  count_median("bgp.reduce_ratio", "x");
  span_ms("bgp.apply_delta", "bgp.apply_delta_ms");
  count_sum("trie.update_dirty_blocks");
  count_sum("trie.update_rebuilds");
  const ServePhaseResult& serve = results(Workload::kServeMix).serve;
  kernel_timings(images, serve, metrics);
  span_ms("census.hitlist", "census.hitlist_ms");
  span_ms("scan.seed_scan", "scan.seed_scan_ms");
  count_median("scan.seed_probes", "count");
  count_median("scan.seed_hit_ratio", "ratio");
  span_ms("scan.plan_scope", "scan.plan_scope_ms");
  span_ms("scan.plan_scan", "scan.plan_scan_ms");
  count_median("scan.plan_probes", "count");
  count_median("scan.plan_hit_ratio", "ratio");
  count_sum("scan.rescan_cells");
  count_sum("scan.rescan_addresses");
  span_ms("core.rank", "core.rank_ms");
  span_ms("core.select", "core.select_ms");
  span_ms("core.rerank", "core.rerank_ms");
  span_ms("state.encode", "state.encode_ms");
  count_median("state.image_bytes", "bytes");
  span_ms("state.load", "state.load_ms");
  span_ms("state.verify", "state.verify_ms");

  metrics.set("serve.locate_us", median(serve.locate_us), "us");
  metrics.set("serve.tally_us", median(serve.tally_us), "us");
  metrics.set("serve.plan_us", median(serve.plan_us), "us");
  metrics.set("serve.reduce_us", median(serve.reduce_us), "us");
  metrics.set("serve.swap_us", median(serve.swap_us), "us");
  metrics.set("serve.reload_install_us", median(serve.install_us), "us");
  metrics.set("serve.reload_drain_us", median(serve.drain_us), "us");
  metrics.set("serve.generator_lag_us", quantile(serve.generator_lag_us, 0.99), "us");
  metrics.set("serve.requests", static_cast<double>(serve.server_requests), "count");
  metrics.set("serve.install_us", median(spans("serve.install")) * 1e3, "us");

  const StreamPhaseResult& stream = results(Workload::kChurnStream).stream;
  span_ms("stream.feed", "stream.feed_ms");
  span_ms("stream.flush", "stream.flush_ms");
  metrics.set("stream.coalesce_ratio", median(stream.coalesce_ratio), "ratio");
  metrics.set("stream.batches", median(stream.batches), "count");
  metrics.set("stream.plans_published", median(stream.plans_published), "count");
  metrics.set("stream.decode_errors", static_cast<double>(stream.decode_errors), "count");
  metrics.set("stream.rejected_overlaps", static_cast<double>(stream.rejected_overlaps),
              "count");
}

/// The phase's two timings, in the units every workload shares: its
/// operations per second (plan cycles per second of cycle time,
/// closed-loop queries per CPU second of the serve process, full-speed
/// updates) and its median latency (plan cycle, open-loop query, paced
/// update to published plan).
struct Headline {
  double throughput_per_s = 0.0;
  double latency_p50_ms = 0.0;
};

Headline headline(Workload phase, const PhaseResults& r) {
  switch (phase) {
    case Workload::kPlanV4:
    case Workload::kPlanV6:
      return {static_cast<double>(r.plan.cycle_ms.size()) * 1e3 / sum(r.plan.cycle_ms),
              median(r.plan.cycle_ms)};
    case Workload::kServeMix:
      return {r.serve.closed_cpu_s > 0.0
                  ? static_cast<double>(r.serve.closed_replies) / r.serve.closed_cpu_s
                  : 0.0,
              quantile(r.serve.open_latency_us, 0.5) / 1e3};
    case Workload::kChurnStream:
      return {median(r.stream.updates_per_s), quantile(r.stream.plan_latency_ms, 0.5)};
  }
  return {};
}

/// The phase's end-to-end metrics under their defining names, p99
/// latencies included: the report line. Only the shared-name metrics of
/// the result object carry a bound.
void named_metrics(Workload phase, const PhaseResults& r, const PlanFigures& figures,
                   Metrics& report) {
  switch (phase) {
    case Workload::kPlanV4:
    case Workload::kPlanV6:
      report.set("plan_cycle_ms", median(r.plan.cycle_ms), "ms");
      break;
    case Workload::kServeMix:
      report.set("serve_qps", median(r.serve.window_qps), "1/s");
      report.set("serve_p50_us", quantile(r.serve.open_latency_us, 0.5), "us");
      report.set("serve_p99_us",
                 windowed_quantile(r.serve.open_latency_us, kTailWindow, 0.99), "us");
      break;
    case Workload::kChurnStream:
      report.set("stream_updates_per_s", median(r.stream.updates_per_s), "1/s");
      report.set("stream_plan_p50_ms", quantile(r.stream.plan_latency_ms, 0.5), "ms");
      report.set("stream_plan_p99_ms",
                 windowed_quantile(r.stream.plan_latency_ms, kTailWindow, 0.99), "ms");
      break;
  }
  report.set("probe_reduction", figures.probe_reduction, "x");
  report.set("host_coverage", figures.host_coverage, "ratio");
}

/// Sample counts and the highest supported tail percentile per timing.
std::string tails_json(Workload phase, const PhaseResults& r) {
  const auto entry = [](const char* name, const std::vector<double>& values) {
    const double q = supports(values.size(), 0.999) ? 0.999
                     : supports(values.size(), 0.99) ? 0.99
                     : supports(values.size(), 0.9)  ? 0.9
                                                      : 0.5;
    char buffer[256];
    std::snprintf(buffer, sizeof buffer,
                  "\"%s\": {\"samples\": %zu, \"median\": %.6g, \"tail_q\": %.3f, "
                  "\"tail\": %.6g}",
                  name, values.size(), median(values), q, quantile(values, q));
    return std::string(buffer);
  };
  switch (phase) {
    case Workload::kPlanV4:
    case Workload::kPlanV6:
      return "{" + entry("plan_cycle_ms", r.plan.cycle_ms) + "}";
    case Workload::kServeMix:
      return "{" + entry("serve_qps_window", r.serve.window_qps) + ", " +
             entry("serve_latency_us", r.serve.open_latency_us) + "}";
    case Workload::kChurnStream:
      return "{" + entry("stream_updates_per_s", r.stream.updates_per_s) + ", " +
             entry("stream_plan_ms", r.stream.plan_latency_ms) + "}";
  }
  return "{}";
}

/// The traced run gives the workload's own phase this share of the time
/// untraced and the same share traced; the other phases split the rest.
constexpr double kOwnTraceShare = 0.4;

int run(const Options& options) {
  const Sizes sizes = sizes_for(options.tiny);
  const Budget budget;
  const unsigned nproc = online_cpus();
  const util::cpu::Features features = util::cpu::probe();
  const std::string tier(util::cpu::level_name(util::cpu::active_level()));
  if (budget.peak() > nproc) {
    std::fprintf(stderr,
                 "perfbench: thread budget %u (shards + connections + bench "
                 "threads) exceeds nproc %u; refusing to run\n",
                 budget.peak(), nproc);
    return 2;
  }
  std::filesystem::create_directories(options.workdir);
  const Workload own = options.workload;
  const double own_s = options.trace ? options.seconds * kOwnTraceShare : options.seconds;
  const double companion_s = options.seconds * (1.0 - 2.0 * kOwnTraceShare) / 3.0;

  // The paced replay feeds one churn step per pace interval for half of
  // the stream phase, so its trace length follows from the phase's time.
  const double stream_s = own == Workload::kChurnStream ? own_s : companion_s;
  const auto paced_steps = std::max<std::size_t>(
      20, static_cast<std::size_t>(stream_s / 2.0 / sizes.pace_seconds));

  // Set up three times, and up to seven while the set-ups took under
  // 1.5 s together, so a short set-up still has a steady median (the
  // traced run sets up once, with every phase's inputs). setup_s is the
  // median; the last world is kept.
  const Needs needs = options.trace ? kAllInputs : needs_for(own);
  std::vector<double> setup_s;
  Bench bench;
  const auto more_setups = [&] {
    if (setup_s.empty()) return true;
    if (options.trace) return false;
    return setup_s.size() < 3 || (setup_s.size() < 7 && sum(setup_s) < 1.5);
  };
  while (more_setups()) {
    bench = Bench{};
    const auto start = Clock::now();
    bench = set_up(options, sizes, paced_steps, needs);
    setup_s.push_back(ms_between(start, Clock::now()) / 1e3);
  }
  const World& world = *bench.world;
  std::optional<Shadows> shadows;
  if (needs.paced) {
    shadows.emplace(Shadows{batch_shadow(world.burst, *world.v4.seed_oracle, nullptr),
                            batch_shadow(world.paced, *world.v4.seed_oracle, nullptr)});
  }
  // The paper's figures of the plan the phase produces: the plan cycle's
  // own; for serve_mix the served plan A; for churn_stream the plan the
  // final streamed ranking yields (equal to the batch shadow's).
  const auto figures_of = [&](const PhaseResults& r) {
    switch (own) {
      case Workload::kServeMix: return bench.served;
      case Workload::kChurnStream: return plan_figures(shadows->burst.ranking, world.v4, sizes);
      default: return PlanFigures{r.plan.probe_reduction, r.plan.host_coverage};
    }
  };

  Referee referee(options.plant);
  Metrics metrics;
  PhaseResults reported;
  // Plan and stream images are attached in memory; only the daemon maps
  // its images from files.
  std::string page_backing(util::page_backing_name(util::PageBacking::kNone));
  const auto run_own = [&](Tracer* tracer) {
    return run_phase(own, options, sizes, budget, bench, shadows ? &*shadows : nullptr,
                     own_s, tracer, referee);
  };
  if (!options.trace) {
    reported = run_own(nullptr);
    if (own == Workload::kServeMix) page_backing = reported.serve.page_backing;
    const Headline h = headline(own, reported);
    const PlanFigures figures = figures_of(reported);
    metrics.set("throughput_per_s", h.throughput_per_s, "1/s");
    metrics.set("latency_p50_ms", h.latency_p50_ms, "ms");
    metrics.set("probe_reduction", figures.probe_reduction, "x");
    metrics.set("host_coverage", figures.host_coverage, "ratio");
    metrics.set("setup_s", median(setup_s), "s");
    metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    const PhaseResults untraced = run_own(nullptr);
    std::vector<TracedPhase> traced;
    traced.push_back({own, std::make_unique<Tracer>(), {}});
    traced.back().results = run_own(traced.back().tracer.get());
    for (const Workload phase : kWorkloads) {
      if (phase == own) continue;
      traced.push_back({phase, std::make_unique<Tracer>(), {}});
      traced.back().results =
          run_phase(phase, options, sizes, budget, bench, &*shadows, companion_s,
                    traced.back().tracer.get(), referee);
    }
    reported = traced.front().results;
    layer_metrics(traced, bench.images, metrics);
    // Tracing overhead: the own phase's throughput untraced over traced.
    const double traced_rate = headline(own, reported).throughput_per_s;
    metrics.set("trace.overhead_ratio",
                traced_rate > 0.0 ? headline(own, untraced).throughput_per_s / traced_rate
                                  : 0.0,
                "x");
    for (const TracedPhase& t : traced) {
      if (t.phase == Workload::kServeMix) page_backing = t.results.serve.page_backing;
      for (const auto& [name, entry] : t.tracer->self_times()) {
        std::fprintf(stderr, "# %s self time %-22s %10.3f ms over %zu spans\n",
                     workload_name(t.phase), name.c_str(), entry.self_ms, entry.spans);
      }
      if (options.trace_out.empty()) continue;
      std::string path = options.trace_out;
      if (t.phase != own) {
        if (path.ends_with(".json")) path.resize(path.size() - 5);
        path += std::string(".") + workload_name(t.phase) + ".json";
      }
      if (!t.tracer->write_json(path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      }
    }
  }

  // The paper's band: a plan that finds 90-99% of next month's hosts
  // with 1.25-10x fewer probes than scanning the advertised space.
  const PlanFigures figures = figures_of(reported);
  if (is_plan(own)) {
    referee.attempt();
    referee.check(figures.host_coverage >= 0.90 && figures.host_coverage <= 0.99 &&
                      figures.probe_reduction >= 1.25 && figures.probe_reduction <= 10.0,
                  "paper band: host_coverage %.4f (want 0.90-0.99), "
                  "probe_reduction %.3f (want 1.25-10)",
                  figures.host_coverage, figures.probe_reduction);
  }

  const double fail_ratio = static_cast<double>(referee.failed()) /
                            static_cast<double>(std::max<std::uint64_t>(1, referee.attempted()));
  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.3f, "
      "\"trace\": %d, \"nproc\": %u, \"budget\": {\"server_shards\": %u, "
      "\"load_connections\": %u, \"control_connections\": %u, \"reactor_threads\": %u, "
      "\"reader_threads\": %u, \"feeder_threads\": %u, \"peak\": %u}, "
      "\"simd_tier\": \"%s\", \"avx2_available\": %s, \"forced_scalar\": %s, "
      "\"page_backing\": \"%s\", \"tiny\": %s}}\n",
      options.workload_name.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0, nproc, budget.server_shards,
      budget.load_connections, budget.control_connections, budget.reactor_threads,
      budget.reader_threads, budget.feeder_threads, budget.peak(), tier.c_str(),
      features.avx2 ? "true" : "false", features.forced_scalar ? "true" : "false",
      page_backing.c_str(), options.tiny ? "true" : "false");
  if (!options.trace) {
    Metrics report;
    named_metrics(own, reported, figures, report);
    report.set("setup_s", median(setup_s), "s");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    report.set("fail_ratio", fail_ratio, "ratio");
    std::printf("{\"report\": %s, \"tails\": %s}\n", report.json().c_str(),
                tails_json(own, reported).c_str());
  }
  std::string by_phase;
  for (const auto& [phase, failed] : referee.failed_by_phase()) {
    by_phase += (by_phase.empty() ? "\"" : ", \"") + phase +
                "\": " + std::to_string(failed);
  }
  std::printf("{\"failed_by_phase\": {%s}}\n", by_phase.c_str());
  const bool correct = referee.failed() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(referee.attempted()),
              static_cast<unsigned long long>(referee.failed()), metrics.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto options = perfbench::parse_options(argc, argv);
  if (!options) {
    std::fprintf(stderr,
                 "usage: tass_perfbench --workload plan_v4|plan_v6|serve_mix|churn_stream "
                 "--seed N --seconds S --trace 0|1 --workdir DIR [--trace-out FILE] "
                 "[--tiny 0|1] [--plant 0|1]\n");
    return 2;
  }
  try {
    return perfbench::run(*options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
