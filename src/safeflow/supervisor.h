// Out-of-process analysis supervisor: runs one whole-program analysis in
// a crash-isolated `safeflow --worker` child process, so that a hard
// crash (SIGSEGV in the frontend, a runaway loop, an OOM kill) on a
// pathological input cannot take down the caller — the CLI's --isolate
// path or a safeflowd request (DESIGN.md §10).
//
// The worker runs the ordinary in-process CLI path over the whole file
// set and prints one envelope: its stdout and stderr bytes, exit code,
// analysis stats and telemetry. The supervisor relays those bytes
// unchanged, so a supervised run prints exactly what an in-process run
// prints. The worker runs under a wall-clock watchdog (SIGKILL on
// deadline) and its exit is classified: a normal exit in {0,1,2,3} with
// a parseable envelope is accepted; a signal death, watchdog kill, or
// torn envelope is retried up to `max_retries` times with exponential
// backoff and a tightened analysis time budget (the retry hypothesis is
// "the input is pathological, degrade instead of dying"). A worker that
// exhausts its retries never looks like a clean run: the output carries
// no findings summary, names the failure, the attempt count and the
// flight-recorder phase on stderr, and exits 2.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "safeflow/cache_manager.h"
#include "safeflow/driver.h"
#include "support/flight_recorder.h"
#include "support/json.h"
#include "support/metrics.h"

namespace safeflow {

struct SupervisorOptions {
  /// Retries after the first attempt for crash/timeout/torn-envelope
  /// failures (attempts = 1 + max_retries).
  int max_retries = 2;
  /// First backoff sleep before a retry; doubles per further retry.
  double backoff_base_seconds = 0.05;
  /// Watchdog deadline per worker attempt; <= 0 disables the watchdog.
  double worker_timeout_seconds = 60.0;
  /// Factor applied to the analysis time budget on each retry (the
  /// retried attempt runs with `--time-budget` tightened so a
  /// pathological input degrades conservatively instead of dying again).
  double retry_budget_factor = 0.5;
  /// The run's original --time-budget in seconds (0 = none); used as the
  /// base the retry budget tightens from. When 0, retries tighten from
  /// half the watchdog deadline instead.
  double base_time_budget_seconds = 0.0;
  /// Path to the safeflow executable to use as the worker.
  std::string worker_exe;
  /// Options forwarded verbatim to the worker (e.g. "-I", "dir",
  /// "--mode=call-strings", "--time-budget", "250ms", "--dot", "g.dot").
  std::vector<std::string> worker_args;
  /// Render mode: forwarded to the worker (renderModeFlags) and used to
  /// render a dead worker's failure output.
  bool json = false;
  bool quiet = false;
  /// Extra environment for the worker (tests use this to aim
  /// SAFEFLOW_INJECT_FAULT without mutating the global environment).
  std::vector<std::pair<std::string, std::string>> extra_env;
  /// Optional span collector for the supervisor's own spans (run,
  /// spawn, backoff). Its epoch is also the reference timeline the
  /// worker's spans are re-based onto in the stitched trace (DESIGN.md
  /// §13). May be null.
  support::TraceCollector* trace = nullptr;
  /// Cap on captured worker stderr per attempt (--worker-stderr-cap);
  /// excess is dropped with a truncation marker so a log-spamming
  /// worker cannot bloat the failure record. 0 disables the cap.
  std::size_t worker_stderr_cap = 64u << 10;
};

/// A worker that exhausted its retries (or failed unretryably).
struct WorkerFailure {
  /// "SIGSEGV", "timeout", "exit 2 (no report)", "unparseable report
  /// (...)", "spawn failed: ...", "interrupted".
  std::string reason;
  int attempts = 0;
  /// Tail of the last attempt's captured stderr.
  std::string stderr_tail;
  /// Flight-recorder events the dying worker dumped to its stderr
  /// (SAFEFLOW-FR lines), newest-first suffix of its event ring. The
  /// last "phase" event names where in the pipeline it died.
  std::vector<support::FlightEvent> flight_events;

  /// The last pipeline phase the worker entered, or "" when its flight
  /// recorder named none.
  [[nodiscard]] std::string lastPhase() const;
};

/// The result of one supervised run.
struct SupervisedRun {
  /// The worker's output, relayed unchanged. When the worker died: no
  /// findings summary — stdout is empty in text mode and, with --json, a
  /// document carrying only "failed_files" and "worker_failures" (with
  /// the flight recorder) — stderr naming the reason, attempt count and
  /// last phase, and exit code 2.
  RunOutput output;
  /// Set when the worker died; `output` then holds no findings.
  std::optional<WorkerFailure> failure;
  /// Attribution of the accepted attempt (wall clock, CPU, peak RSS).
  SafeFlowStats::ShardStat worker;
  /// The worker's telemetry for trace stitching: its pid, the monotonic
  /// epoch its spans are relative to, and the spans (empty unless the
  /// worker ran with --telemetry-spans).
  std::uint64_t worker_pid = 0;
  std::int64_t worker_epoch_steady_ns = 0;
  support::json::Value worker_spans;

  /// True when `output` is the answer for the requested configuration:
  /// the first attempt succeeded. A retry ran with a tightened
  /// --time-budget, whose (possibly degraded) output must not be
  /// replayed for the original configuration.
  [[nodiscard]] bool cacheable() const {
    return !failure.has_value() && worker.attempts == 1;
  }

  /// One Chrome-trace (Perfetto-loadable) document with two lanes: the
  /// supervisor's own spans (pid 1) and the worker's spans (pid 2,
  /// labeled with its real pid), re-based onto the supervisor
  /// collector's monotonic epoch (DESIGN.md §13).
  [[nodiscard]] std::string renderStitchedTrace(
      const support::TraceCollector& supervisor_trace) const;
};

class Supervisor {
 public:
  /// `metrics` receives supervisor.* counters/durations; must outlive
  /// run().
  Supervisor(SupervisorOptions options, support::MetricsRegistry* metrics);

  /// Analyzes `files` as one program in one worker. Blocking; never
  /// throws on worker misbehavior (a dead worker becomes a failure).
  [[nodiscard]] SupervisedRun run(const std::vector<std::string>& files);

 private:
  SupervisorOptions options_;
  support::MetricsRegistry* metrics_;
};

}  // namespace safeflow
