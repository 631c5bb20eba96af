// Observability layer for the SafeFlow pipeline: a MetricsRegistry of
// named monotonic counters, gauges, and duration histograms, plus a
// TraceCollector that records hierarchical spans and serializes them as
// Chrome trace-event JSON (loadable in chrome://tracing / Perfetto).
//
// Passes do not take a registry parameter; instead the driver installs a
// PipelineObserver into thread-local storage (ScopedObserver) for the
// duration of a run, and instrumentation sites use the SAFEFLOW_COUNT /
// SAFEFLOW_GAUGE macros and the ScopedSpan / ScopedTimer RAII helpers.
// When no observer is installed every helper is a single thread-local
// load and branch, so uninstrumented callers (unit tests, benches that
// construct passes directly) pay nothing.
//
// Naming convention (see DESIGN.md): `phase.<stage>` for pipeline wall
// time, `<subsystem>.<metric>` for everything else, e.g.
// `taint.body_analyses`, `shm_propagation.worklist_pushes`.
//
// The registry is thread-safe: counters and gauges are atomics behind a
// name-interning mutex, so future parallel passes can share one registry.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace safeflow::support {

class MetricsRegistry {
 public:
  class Counter {
   public:
    void add(std::uint64_t delta = 1) {
      value_.fetch_add(delta, std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t value() const {
      return value_.load(std::memory_order_relaxed);
    }

   private:
    std::atomic<std::uint64_t> value_{0};
  };

  class Gauge {
   public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }
    [[nodiscard]] double value() const {
      return value_.load(std::memory_order_relaxed);
    }

   private:
    std::atomic<double> value_{0.0};
  };

  /// Duration histogram: count/total/min/max plus power-of-two
  /// microsecond buckets (bucket i holds durations in [2^i, 2^(i+1)) us).
  class DurationStat {
   public:
    static constexpr std::size_t kBuckets = 28;

    void record(double seconds);

    [[nodiscard]] std::uint64_t count() const;
    [[nodiscard]] double totalSeconds() const;
    [[nodiscard]] double minSeconds() const;
    [[nodiscard]] double maxSeconds() const;
    [[nodiscard]] std::array<std::uint64_t, kBuckets> buckets() const;
    /// Estimated q-quantile (q in [0,1]) from the power-of-two buckets:
    /// the upper edge of the bucket holding the q*count-th sample,
    /// clamped to [min, max] so one-sample stats report exactly. 0 when
    /// empty.
    [[nodiscard]] double percentileSeconds(double q) const;

   private:
    mutable std::mutex mu_;
    std::uint64_t count_ = 0;
    double total_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    std::array<std::uint64_t, kBuckets> buckets_{};
  };

  /// Interns `name` on first use. Returned references are stable for the
  /// registry's lifetime (until clear()).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  DurationStat& duration(std::string_view name);

  /// Read accessors that do not create the metric; zero when absent.
  [[nodiscard]] std::uint64_t counterValue(std::string_view name) const;
  [[nodiscard]] double gaugeValue(std::string_view name) const;
  [[nodiscard]] double durationTotalSeconds(std::string_view name) const;
  [[nodiscard]] std::uint64_t durationCount(std::string_view name) const;

  struct DurationSnapshot {
    std::string name;
    std::uint64_t count = 0;
    double total_seconds = 0.0;
    double min_seconds = 0.0;
    double max_seconds = 0.0;
    /// Bucket-estimated tail percentiles (see percentileSeconds).
    double p50_seconds = 0.0;
    double p90_seconds = 0.0;
    double p99_seconds = 0.0;
  };
  struct Snapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<DurationSnapshot> durations;
  };
  /// Consistent, name-sorted copy of every metric.
  [[nodiscard]] Snapshot snapshot() const;

  /// Drops every metric. Invalidates references handed out by
  /// counter()/gauge()/duration().
  void clear();

 private:
  mutable std::mutex mu_;
  // std::map nodes are address-stable, so references into the mapped
  // values survive later insertions.
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, DurationStat, std::less<>> durations_;
};

/// Hierarchical span recorder. Spans nest per thread (a begun span is the
/// parent of every span begun on the same thread before it ends).
class TraceCollector {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    std::vector<std::pair<std::string, std::string>> args;
    /// Dense per-thread id (0 = first thread seen).
    std::uint32_t tid = 0;
    /// Microseconds since the collector's epoch.
    double start_us = 0.0;
    /// Negative while the span is still open.
    double dur_us = -1.0;
    /// Index of the enclosing span, or -1 for roots.
    std::ptrdiff_t parent = -1;
    std::uint32_t depth = 0;
  };

  TraceCollector();

  /// Begins a span on the calling thread; returns its id.
  std::size_t beginSpan(std::string_view name);
  /// Attaches a key=value argument to an open or closed span.
  void setArg(std::size_t id, std::string_view key, std::string value);
  /// Ends the span. Any spans begun on the same thread after `id` that
  /// are still open are ended too (tolerates early returns).
  void endSpan(std::size_t id);

  [[nodiscard]] std::size_t spanCount() const;
  [[nodiscard]] std::size_t openSpanCount() const;
  /// Copy of all spans (open spans keep dur_us < 0).
  [[nodiscard]] std::vector<Span> spans() const;

  /// Chrome trace-event JSON ("X" complete events). Open spans are
  /// serialized as if they ended now.
  [[nodiscard]] std::string toChromeTraceJson() const;

  /// The collector's epoch as nanoseconds on the shared monotonic clock
  /// (CLOCK_MONOTONIC on Linux, where steady_clock readings are
  /// comparable across processes on one machine). The supervisor uses
  /// worker epochs to re-base worker span timestamps onto its own
  /// timeline (DESIGN.md §13).
  [[nodiscard]] std::int64_t epochSteadyNs() const;

  /// The spans as a bare JSON array of objects (name, tid, start_us,
  /// dur_us, args) — the worker envelope's "telemetry.spans" payload.
  /// Open spans are serialized as if they ended now.
  [[nodiscard]] std::string spansToJsonArray() const;

  /// Flat per-name summary: count, total wall time, and self time (total
  /// minus enclosed child spans), sorted by self time descending.
  [[nodiscard]] std::string selfTimeTable() const;

 private:
  mutable std::mutex mu_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::map<std::uint64_t, std::vector<std::size_t>> stacks_;  // per thread
  std::map<std::uint64_t, std::uint32_t> tids_;
};

/// Point-in-time resource usage of this process via getrusage(2):
/// cumulative CPU split and the high-water resident set. Workers embed
/// one in their telemetry section; the supervisor samples its own at
/// the end of a run.
struct ResourceSample {
  double user_seconds = 0.0;
  double sys_seconds = 0.0;
  std::uint64_t max_rss_kb = 0;
};
[[nodiscard]] ResourceSample sampleResourceUsage();

/// What the pipeline reports into. Either pointer may be null: a null
/// metrics pointer disables counters, a null trace pointer disables spans.
struct PipelineObserver {
  MetricsRegistry* metrics = nullptr;
  TraceCollector* trace = nullptr;
};

/// The observer installed on the calling thread, or nullptr.
[[nodiscard]] PipelineObserver* currentObserver();

/// Installs `obs` as the calling thread's observer; restores the previous
/// one on destruction. Pass nullptr to suppress observation in a scope.
class ScopedObserver {
 public:
  explicit ScopedObserver(PipelineObserver* obs);
  ~ScopedObserver();
  ScopedObserver(const ScopedObserver&) = delete;
  ScopedObserver& operator=(const ScopedObserver&) = delete;

 private:
  PipelineObserver* prev_;
};

/// RAII trace span against the current observer (no-op without one).
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name) {
    if (PipelineObserver* obs = currentObserver();
        obs != nullptr && obs->trace != nullptr) {
      trace_ = obs->trace;
      id_ = trace_->beginSpan(name);
    }
  }
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->endSpan(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void arg(std::string_view key, std::string value) {
    if (trace_ != nullptr) trace_->setArg(id_, key, std::move(value));
  }

 private:
  TraceCollector* trace_ = nullptr;
  std::size_t id_ = 0;
};

/// RAII phase timer: records a duration sample named `name` into the
/// current registry and emits a trace span of the same name. This is what
/// each pipeline stage opens at the top of its run().
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string_view name) : span_(name), name_(name) {
    if (PipelineObserver* obs = currentObserver(); obs != nullptr) {
      metrics_ = obs->metrics;
    }
    if (metrics_ != nullptr) start_ = TraceCollector::Clock::now();
  }
  ~ScopedTimer() {
    if (metrics_ != nullptr) {
      metrics_->duration(name_).record(
          std::chrono::duration<double>(TraceCollector::Clock::now() - start_)
              .count());
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  void arg(std::string_view key, std::string value) {
    span_.arg(key, std::move(value));
  }

 private:
  ScopedSpan span_;
  std::string name_;
  MetricsRegistry* metrics_ = nullptr;
  TraceCollector::Clock::time_point start_;
};

/// Counter handle for hot loops: resolve once, increment many times.
/// Returns nullptr when no registry is installed.
[[nodiscard]] inline MetricsRegistry::Counter* counterHandle(
    std::string_view name) {
  PipelineObserver* obs = currentObserver();
  if (obs == nullptr || obs->metrics == nullptr) return nullptr;
  return &obs->metrics->counter(name);
}

}  // namespace safeflow::support

// Cheap fire-and-forget instrumentation. All of these compile to a
// thread-local load and a branch when no observer is installed.
#define SAFEFLOW_COUNT(name) SAFEFLOW_COUNT_N(name, 1)
#define SAFEFLOW_COUNT_N(name, n)                                        \
  do {                                                                   \
    if (::safeflow::support::PipelineObserver* sf_obs_ =                 \
            ::safeflow::support::currentObserver();                      \
        sf_obs_ != nullptr && sf_obs_->metrics != nullptr) {             \
      sf_obs_->metrics->counter(name).add(                               \
          static_cast<std::uint64_t>(n));                                \
    }                                                                    \
  } while (0)
#define SAFEFLOW_GAUGE(name, v)                                          \
  do {                                                                   \
    if (::safeflow::support::PipelineObserver* sf_obs_ =                 \
            ::safeflow::support::currentObserver();                      \
        sf_obs_ != nullptr && sf_obs_->metrics != nullptr) {             \
      sf_obs_->metrics->gauge(name).set(static_cast<double>(v));         \
    }                                                                    \
  } while (0)
