// Shared pieces of the pipeline benchmark: options, the thread budget,
// the correctness referee, sample statistics and the metric sink.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// The four workloads; each runs only its own phase (see README.md).
enum class Workload { kPlanV4, kPlanV6, kServeMix, kChurnStream };

struct Options {
  Workload workload = Workload::kPlanV4;
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;   // smoke-test sizes
  bool plant = false;  // plant one mismatch in each phase that runs
  std::string workdir;
  std::string trace_out;
};

/// Concurrency the benchmark puts on the machine. The serve phase is the
/// widest: one server shard plus one thread per client connection (two
/// load connections and the main thread's control connection). The
/// stream phase runs the reactor's ingest and pipeline threads, one
/// generation reader and the main thread as feeder.
struct Budget {
  unsigned server_shards = 1;
  unsigned load_connections = 2;
  unsigned control_connections = 1;
  unsigned reactor_threads = 2;
  unsigned reader_threads = 1;
  unsigned feeder_threads = 1;

  unsigned serve_total() const {
    return server_shards + load_connections + control_connections;
  }
  unsigned stream_total() const {
    return reactor_threads + reader_threads + feeder_threads;
  }
  unsigned peak() const { return std::max(serve_total(), stream_total()); }
};

/// Counts operations and mismatches. Every failed check is one failed
/// operation, is reported on stderr with its reason and is counted
/// under its phase: the message's text up to the first ':'.
class Referee {
 public:
  explicit Referee(bool plant) : plant_(plant) {}

  void attempt(std::uint64_t n = 1) { attempted_ += n; }

  /// Records a failed operation unless `ok`; returns `ok`.
  bool check(bool ok, const char* format, ...)
      __attribute__((format(printf, 3, 4))) {
    if (ok) return true;
    ++failed_;
    ++failed_by_phase_[std::string(format, std::strcspn(format, ":"))];
    std::va_list args;
    va_start(args, format);
    std::fprintf(stderr, "MISMATCH: ");
    std::vfprintf(stderr, format, args);
    std::fprintf(stderr, "\n");
    va_end(args);
    return false;
  }

  /// True exactly once per phase name when mismatch planting is on: the
  /// caller then corrupts one expected value so the check must fire.
  bool plant(const char* phase) {
    if (!plant_) return false;
    for (const std::string& done : planted_) {
      if (done == phase) return false;
    }
    planted_.emplace_back(phase);
    return true;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::map<std::string, std::uint64_t>& failed_by_phase() const {
    return failed_by_phase_;
  }

 private:
  bool plant_;
  std::vector<std::string> planted_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, std::uint64_t> failed_by_phase_;
};

/// Nearest-rank quantile of a sample (q in [0, 1]); 0 for no samples.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Quantile q of each consecutive window of `window` samples (in
/// arrival order), then the median over the full windows: a tail that
/// one scheduling stall cannot move. Falls back to the whole sample when
/// it holds less than one window.
inline double windowed_quantile(const std::vector<double>& ordered,
                                std::size_t window, double q) {
  if (ordered.size() < window || window == 0) return quantile(ordered, q);
  std::vector<double> per_window;
  for (std::size_t at = 0; at + window <= ordered.size(); at += window) {
    per_window.push_back(quantile(
        std::vector<double>(ordered.begin() + static_cast<std::ptrdiff_t>(at),
                            ordered.begin() + static_cast<std::ptrdiff_t>(at + window)),
        q));
  }
  return median(std::move(per_window));
}

/// True if the sample supports percentile q: at least ten samples lie
/// beyond it.
inline bool supports(std::size_t samples, double q) {
  return static_cast<double>(samples) * (1.0 - q) >= 10.0 - 1e-9;  // 1 - 0.9 < 0.1
}

/// Named metric values in insertion order.
class Metrics {
 public:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  void set(const std::string& name, double value, const std::string& unit) {
    for (Entry& entry : entries_) {
      if (entry.name == name) {
        entry.value = value;
        entry.unit = unit;
        return;
      }
    }
    entries_.push_back({name, value, unit});
  }

  /// {"name": {"value": v, "unit": "u"}, ...} with full precision.
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      char buffer[256];
      const double v = std::isfinite(entries_[i].value) ? entries_[i].value : 0.0;
      std::snprintf(buffer, sizeof buffer,
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", entries_[i].name.c_str(), v,
                    entries_[i].unit.c_str());
      out += buffer;
    }
    out += "}";
    return out;
  }

 private:
  std::vector<Entry> entries_;
};

}  // namespace perfbench
