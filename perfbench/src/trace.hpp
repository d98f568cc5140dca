// In-memory span tracer for the traced benchmark run.
//
// A span records a name, a start, an end and the span that was open
// when it started (its parent), so a layer's self time is its duration
// minus the part its children cover. Counts are recorded at the same
// boundaries. Everything stays in memory; write_json() dumps the spans
// and the per-name self-time summary once the run has ended.
//
// The untraced run passes a null Tracer*: Span then compiles to two
// pointer tests, so the end-to-end numbers carry no tracing cost.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

class Tracer {
 public:
  struct SpanRecord {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    std::int64_t parent = -1;  // index into spans(), -1 for a root
  };

  Tracer() : origin_(Clock::now()) {}

  /// Opens a span on the calling thread; returns its index.
  std::size_t open(const char* name) {
    std::lock_guard lock(mutex_);
    SpanRecord record;
    record.name = name;
    record.start_ns = now_ns();
    auto& stack = stacks_[std::this_thread::get_id()];
    record.parent = stack.empty() ? -1 : static_cast<std::int64_t>(stack.back());
    spans_.push_back(std::move(record));
    stack.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(std::size_t index) {
    std::lock_guard lock(mutex_);
    spans_[index].end_ns = now_ns();
    auto& stack = stacks_[std::this_thread::get_id()];
    if (!stack.empty() && stack.back() == index) stack.pop_back();
  }

  /// Records a count observed at a layer boundary.
  void count(const char* name, double value) {
    std::lock_guard lock(mutex_);
    counts_[name].push_back(value);
  }

  /// Durations (ms) of every closed span with this name.
  std::vector<double> durations_ms(const std::string& name) const {
    std::lock_guard lock(mutex_);
    std::vector<double> out;
    for (const SpanRecord& span : spans_) {
      if (span.name == name && span.end_ns >= 0) {
        out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
      }
    }
    return out;
  }

  std::vector<double> counts(const std::string& name) const {
    std::lock_guard lock(mutex_);
    const auto it = counts_.find(name);
    return it == counts_.end() ? std::vector<double>{} : it->second;
  }

  /// Total and self time (ms) per span name.
  struct SelfTime {
    double total_ms = 0.0;
    double self_ms = 0.0;
    std::size_t spans = 0;
  };
  std::map<std::string, SelfTime> self_times() const {
    std::lock_guard lock(mutex_);
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const SpanRecord& span : spans_) {
      if (span.parent >= 0 && span.end_ns >= 0) {
        child_ns[static_cast<std::size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    std::map<std::string, SelfTime> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& span = spans_[i];
      if (span.end_ns < 0) continue;
      SelfTime& entry = out[span.name];
      const auto total = span.end_ns - span.start_ns;
      entry.total_ms += static_cast<double>(total) / 1e6;
      entry.self_ms += static_cast<double>(total - child_ns[i]) / 1e6;
      ++entry.spans;
    }
    return out;
  }

  /// Writes every span, every count and the self-time summary as JSON.
  bool write_json(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    const auto summary = self_times();
    std::lock_guard lock(mutex_);
    std::fprintf(out, "{\"self_time_ms\":{");
    bool first = true;
    for (const auto& [name, entry] : summary) {
      std::fprintf(out, "%s\"%s\":{\"self\":%.6f,\"total\":%.6f,\"spans\":%zu}",
                   first ? "" : ",", name.c_str(), entry.self_ms,
                   entry.total_ms, entry.spans);
      first = false;
    }
    std::fprintf(out, "},\"counts\":{");
    first = true;
    for (const auto& [name, values] : counts_) {
      std::fprintf(out, "%s\"%s\":[", first ? "" : ",", name.c_str());
      for (std::size_t i = 0; i < values.size(); ++i) {
        std::fprintf(out, "%s%.6g", i == 0 ? "" : ",", values[i]);
      }
      std::fprintf(out, "]");
      first = false;
    }
    std::fprintf(out, "},\"spans\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& span = spans_[i];
      std::fprintf(out,
                   "%s{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%lld}",
                   i == 0 ? "" : ",", i, span.name.c_str(),
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns),
                   static_cast<long long>(span.parent));
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::map<std::thread::id, std::vector<std::size_t>> stacks_;
  std::map<std::string, std::vector<double>> counts_;
};

/// RAII span; a no-op when the tracer is null (untraced run).
class Span {
 public:
  Span(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer ? tracer->open(name) : 0) {}
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span early (idempotent).
  void end() {
    if (tracer_ != nullptr) {
      tracer_->close(index_);
      tracer_ = nullptr;
    }
  }

 private:
  Tracer* tracer_;
  std::size_t index_;
};

inline void trace_count(Tracer* tracer, const char* name, double value) {
  if (tracer != nullptr) tracer->count(name, value);
}

}  // namespace perfbench
