// Umbrella header: the full TASS public API.
//
//   #include "core/tass.hpp"
//
// pulls in the paper's pipeline end to end: routing-table ingestion
// (pfx2as / MRT), deaggregation, census simulation, density ranking,
// prefix selection, scanning strategies and the longitudinal evaluator.
//
// The hot path runs on a parallel substrate: util::ThreadPool shards
// work deterministically (results are bit-identical for any thread
// count), census::SnapshotIndex answers the scan oracle's interval
// counts from a rank directory, the scan walks count on the calling
// thread, and the attribution and evaluation stages fan out through
// util::run_shards. Threading knobs: core::AttributionConfig::threads,
// core::EvaluationConfig::threads (1 = the calling thread only, 0 = the
// process-wide pool sized to the hardware, N = a dedicated pool of N);
// results are identical for every value.
#pragma once

#include "bgp/deaggregate.hpp"
#include "bgp/mrt.hpp"
#include "bgp/partition.hpp"
#include "bgp/pfx2as.hpp"
#include "bgp/reduce.hpp"
#include "bgp/rib.hpp"
#include "census/churn.hpp"
#include "census/import.hpp"
#include "census/population.hpp"
#include "census/protocol.hpp"
#include "census/quality.hpp"
#include "census/series.hpp"
#include "census/snapshot.hpp"
#include "census/snapshot_index.hpp"
#include "census/topology.hpp"
#include "core/attribution.hpp"
#include "core/estimator.hpp"
#include "core/evaluate.hpp"
#include "core/ranking.hpp"
#include "core/reseed.hpp"
#include "core/selection.hpp"
#include "core/strategies.hpp"
#include "net/interval.hpp"
#include "net/ipv4.hpp"
#include "net/ipv6.hpp"
#include "net/prefix.hpp"
#include "net/special_use.hpp"
#include "scan/blocklist.hpp"
#include "scan/engine.hpp"
#include "scan/ratelimit.hpp"
#include "scan/scope.hpp"
#include "util/thread_pool.hpp"
