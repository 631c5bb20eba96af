// The `safeflow` command-line tool: run the analysis over a core
// component's C files.
//
//   safeflow [options] file.c [file2.c ...]
//
//   -I <dir>            add an include directory
//   -D NAME[=VALUE]     predefine a macro
//   --mode=summaries    ESP-style parameterized summaries (default)
//   --mode=call-strings the prototype's context-cloning algorithm
//   --no-control-deps   do not track control dependence
//   --ranges            interprocedural value-range analysis (default on)
//   --no-ranges         disable it (pre-0.5.0 pipeline behavior)
//   --kill-critical     treat kill's pid argument as implicitly critical
//   --dot <file>        write the value-flow graph (Graphviz) to <file>
//   --trace <file>      write a Chrome trace-event JSON of the pipeline
//   --stats             print the pipeline statistics table to stderr
//   --stats-json <file> write pipeline statistics as JSON ("-" = stdout)
//   --time-budget <dur> wall-clock budget for the pipeline (e.g. 250ms)
//   --step-budget <n>   per-phase work-unit cap
//   --max-depth <n>     recursion / call-string context-depth cap
//   --isolate           analyze in one crash-isolated worker process
//   --no-isolate        force the single-process path
//   --worker-timeout <dur>  watchdog deadline per worker (default 60s)
//   --retries <n>       crash/timeout retries of the worker (default 2)
//   --worker-stderr-cap <n> cap captured worker stderr at n bytes
//   --log-level <lvl>   error|warn|note|info|debug (default note)
//   --log-json          emit stderr logs as NDJSON events
//   --metrics-out <file> write Prometheus text exposition to <file>
//   --worker            (internal) run in-process and print the worker
//                       envelope (output bytes, exit code, stats)
//   --telemetry-spans   (internal) worker embeds trace spans in its
//                       envelope's telemetry section for trace stitching
//   --connect <sock>    send the analysis to a running safeflowd and
//                       print its byte-identical response; falls back
//                       to a local --isolate run when the daemon is
//                       unreachable
//   --deadline <dur>    give the daemon this long before the request
//                       expires (default 300s)
//   --daemon-status     print the daemon's status document and exit
//   --daemon-shutdown   ask the daemon to drain and exit
//   --cache             enable the result cache at .safeflow-cache/
//   --cache-dir <dir>   enable the result cache at <dir> (parents created)
//   --no-cache          force the cache off
//   --cache-max-mb <n>  cache size cap before LRU eviction (default 256)
//   --cache-stats       print cache hit/miss/write/eviction line to stderr
//   --summaries         enable function-level summary memoization at
//                       <cache-dir>/summaries (DESIGN.md §16)
//   --summaries-dir <dir>  enable it with an explicit store directory
//   --no-summaries      force summary memoization off
//   --summary-stats     print the summaries hit/miss line to stderr
//   --verify-summaries  re-solve everything cold after the memoized
//                       phases and assert state identity (exit 2 on
//                       divergence; implies --summaries)
//   --version           print the analyzer version and exit
//   --quiet             print only the summary line
//
// A file that fails to parse does not abort the run: the remaining files
// are analyzed and the report covers what survived (exit 2 still signals
// the parse failure unless data errors take precedence).
//
// Every entry point gives one answer: the in-process run, the --isolate
// worker, a safeflowd response and a cache hit all print the bytes the
// in-process path renders for the whole file set. A finished run is
// replayed with --cache.
//
// Exit-code ladder (see exitCodeFor in driver.h): 1 error dependencies
// found > 2 usage/front-end errors (including a dead worker) > 3
// clean-but-degraded (an analysis budget tripped; findings are valid but
// absences are unproven) > 0 clean.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "safeflow/cache_manager.h"
#include "safeflow/driver.h"
#include "safeflow/summary_store.h"
#include "safeflow/supervisor.h"
#include "support/fault_inject.h"
#include "support/flight_recorder.h"
#include "support/io_faults.h"
#include "support/json.h"
#include "support/limits.h"
#include "support/log.h"
#include "support/metrics.h"
#include "support/subprocess.h"
#include "support/unix_socket.h"

namespace {

void usage() {
  std::cerr
      << "usage: safeflow [options] file.c [file2.c ...]\n"
         "  -I <dir>            add an include directory\n"
         "  -D NAME[=VALUE]     predefine a macro\n"
         "  --mode=summaries|call-strings   interprocedural engine\n"
         "  --no-control-deps   disable control-dependence tracking\n"
         "  --ranges            interprocedural value-range analysis\n"
         "                      (default: on)\n"
         "  --no-ranges         disable the range analysis (pre-0.5.0\n"
         "                      behavior: no discharges, no edge pruning,\n"
         "                      no shm-bounds-const checks)\n"
         "  --kill-critical     kill's pid argument is critical data\n"
         "  --dot <file>        write the value-flow graph to <file>\n"
         "  --json              print the report as JSON\n"
         "  --trace <file>      write a Chrome trace (chrome://tracing,\n"
         "                      Perfetto) of the analysis pipeline\n"
         "  --stats             print the statistics table to stderr\n"
         "  --stats-json <file> write statistics as JSON ('-' = stdout)\n"
         "  --time-budget <dur> wall-clock budget (e.g. 250ms, 2s)\n"
         "  --step-budget <n>   per-phase work-unit cap\n"
         "  --max-depth <n>     recursion/context-depth cap\n"
         "  --isolate           analyze in one crash-isolated worker\n"
         "                      process (same report, exit 2 if it dies)\n"
         "  --no-isolate        single-process analysis (the default)\n"
         "  --worker-timeout <dur>  worker watchdog (default 60s)\n"
         "  --retries <n>       crash/timeout retries of the worker\n"
         "  --worker-stderr-cap <n>  cap captured worker stderr at n\n"
         "                      bytes (default 65536; 0 = unlimited)\n"
         "  --log-level <lvl>   stderr log threshold: error, warn, note\n"
         "                      (default), info, debug\n"
         "  --log-json          emit stderr logs as NDJSON (one JSON\n"
         "                      object per line: ts, pid, level, shard,\n"
         "                      component, msg, key/values)\n"
         "  --metrics-out <file> write counters/gauges/percentiles as\n"
         "                      Prometheus text exposition to <file>\n"
         "  --cache             enable the incremental result cache at\n"
         "                      .safeflow-cache/ (a finished run is\n"
         "                      replayed from it)\n"
         "  --cache-dir <dir>   enable the cache at <dir> (directories\n"
         "                      are created as needed)\n"
         "  --no-cache          force the cache off\n"
         "  --cache-max-mb <n>  size cap before LRU eviction (default 256,\n"
         "                      0 = unlimited)\n"
         "  --cache-stats       print the cache hit/miss line to stderr\n"
         "  --summaries         function-level summary memoization at\n"
         "                      <cache-dir>/summaries: warm runs re-solve\n"
         "                      only the functions an edit invalidated\n"
         "  --summaries-dir <dir>  summary store at <dir>\n"
         "  --no-summaries      force summary memoization off\n"
         "  --summary-stats     print the summaries hit/miss line to\n"
         "                      stderr\n"
         "  --verify-summaries  cold re-solve + state identity assert\n"
         "                      (exit 2 on divergence; implies\n"
         "                      --summaries)\n"
         "  --version           print the analyzer version and exit\n"
         "  --quiet             print only the summary line\n";
}

/// Export writer for --stats-json/--metrics-out/--trace documents: a
/// hardened write (EINTR/partial-write safe, fsync'd) that on any
/// failure — a real ENOSPC/EIO or an injected one — removes the partial
/// file and prints one diagnostic. The caller exits 2: a failed export
/// is a classified error, never a truncated-but-silent artifact.
bool writeFile(const std::string& path, const std::string& contents,
               const char* site) {
  const safeflow::support::io::IoStatus status =
      safeflow::support::io::writeFile(path, contents, site);
  if (!status.ok) {
    std::cerr << "safeflow: " << status.message << "\n";
    return false;
  }
  return true;
}

/// The ordinary in-process CLI path: analyzes `files` with `driver` and
/// renders exactly what the CLI prints. The supervised path runs this
/// same function inside its worker and relays the result, so every
/// entry point prints the same bytes. `*cacheable` is set when the
/// output is the complete answer for these inputs.
safeflow::RunOutput analyzeInProcess(safeflow::SafeFlowDriver& driver,
                                     const std::vector<std::string>& files,
                                     bool json, bool quiet,
                                     const std::string& dot_path,
                                     bool* cacheable) {
  safeflow::RunOutput out;
  std::size_t files_ok = 0;
  for (const std::string& f : files) {
    // Per-file isolation: a file that fails to parse yields diagnostics
    // and is skipped; the rest of the corpus is still analyzed.
    if (driver.addFile(f)) ++files_ok;
  }
  if (files_ok == 0) {
    // Nothing parsed at all: diagnostics only, no report.
    out.stderr_text = driver.diagnostics().render(driver.sources());
    out.exit_code = 2;
    out.stats = driver.stats();
    return out;
  }
  const auto& report = driver.analyze();
  out.stats = driver.stats();
  if (driver.hasFrontendErrors() || driver.summaryVerifyFailed()) {
    // Diagnostics go to stderr, but partial results are still reported
    // below; the exit code keeps signalling the parse failure.
    out.stderr_text = driver.diagnostics().render(driver.sources());
  }
  if (driver.summaryVerifyFailed()) {
    out.exit_code = 2;
    return out;
  }
  out.exit_code = safeflow::exitCodeFor(
      report.dataErrorCount(), driver.hasFrontendErrors(), driver.degraded());

  if (json) {
    out.stdout_text = report.renderJson(driver.sources(),
                                        driver.stats().renderJson());
    if (!dot_path.empty()) {
      std::ofstream dot(dot_path);
      dot << report.renderValueFlowDot(driver.sources());
    }
    *cacheable = true;
    return out;
  }
  std::ostringstream text;
  if (!quiet) text << report.render(driver.sources());
  text << "safeflow: " << report.warnings.size() << " warning(s), "
       << report.dataErrorCount() << " error dependency(ies), "
       << report.controlErrorCount() << " control-only (review manually), "
       << report.restriction_violations.size()
       << " restriction violation(s)\n";
  if (!dot_path.empty()) {
    std::ofstream dot(dot_path);
    if (!dot) {
      out.stdout_text = text.str();
      out.stderr_text += "cannot write " + dot_path + "\n";
      out.exit_code = 2;
      return out;
    }
    dot << report.renderValueFlowDot(driver.sources());
    text << "value-flow graph written to " << dot_path << "\n";
  }
  out.stdout_text = text.str();
  *cacheable = true;
  return out;
}

/// The worker envelope (`--worker`): the run's output members plus the
/// telemetry the supervisor attributes and stitches — this worker's pid,
/// rusage and, when asked via --telemetry-spans, the trace spans with
/// the monotonic epoch they are relative to.
std::string renderWorkerEnvelope(const safeflow::RunOutput& out,
                                 const safeflow::SafeFlowDriver& driver,
                                 bool spans) {
  const safeflow::support::ResourceSample rusage =
      safeflow::support::sampleResourceUsage();
  char num[64];
  std::ostringstream envelope;
  envelope << "{\n  \"safeflow_worker\": 1,\n  "
           << safeflow::renderRunOutputMembers(out)
           << ",\n  \"telemetry\": {\"pid\": " << ::getpid();
  std::snprintf(num, sizeof num, "%.9g", rusage.user_seconds);
  envelope << ", \"resource\": {\"user_seconds\": " << num;
  std::snprintf(num, sizeof num, "%.9g", rusage.sys_seconds);
  envelope << ", \"sys_seconds\": " << num
           << ", \"max_rss_kb\": " << rusage.max_rss_kb << "}";
  if (spans && driver.trace() != nullptr) {
    envelope << ", \"epoch_steady_ns\": " << driver.trace()->epochSteadyNs()
             << ", \"spans\": " << driver.trace()->spansToJsonArray();
  }
  envelope << "}\n}\n";
  return envelope.str();
}

/// The path workers are spawned from: /proc/self/exe when available (the
/// binary may have been moved since exec), argv[0] otherwise.
std::string selfExePath(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

/// One safeflowd round trip: connect, send one NDJSON request line, read
/// one NDJSON response line. False (with `*error`) on any transport
/// failure — the caller falls back to a local run.
bool daemonRoundTrip(const std::string& socket_path,
                     const std::string& request,
                     double read_timeout_seconds, std::string* response,
                     std::string* error) {
  namespace support = safeflow::support;
  const int fd = support::connectUnixSocket(socket_path, error);
  if (fd < 0) return false;
  if (!support::writeAll(fd, request)) {
    ::close(fd);
    *error = "send failed (daemon gone?)";
    return false;
  }
  const support::LineIo rc = support::readLine(
      fd, response, /*max_bytes=*/64u << 20, read_timeout_seconds);
  ::close(fd);
  switch (rc) {
    case support::LineIo::kOk:
      return true;
    case support::LineIo::kTimeout:
      *error = "daemon response timed out";
      return false;
    case support::LineIo::kOversized:
      *error = "daemon response oversized";
      return false;
    default:
      *error = "daemon closed the connection before responding";
      return false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace safeflow;

  // Real crashes (not fault-injected ones) dump the flight recorder to
  // stderr before re-raising; in a worker the supervisor attaches the
  // events to the run's failure record.
  support::installCrashDumpHandlers();
  // SAFEFLOW_INJECT_IO: deterministic syscall-layer faults (ENOSPC, EIO,
  // torn renames) for the chaos tests. Inert unless the env is set.
  support::io::armIoFaultInjectionFromEnv();

  SafeFlowOptions options;
  std::vector<std::string> files;
  std::string dot_path;
  std::string trace_path;
  std::string stats_json_path;
  std::string metrics_out_path;
  bool quiet = false;
  bool json = false;
  bool stats_table = false;
  bool worker_mode = false;
  bool telemetry_spans = false;
  support::LogLevel log_level = support::LogLevel::kNote;
  bool log_json = false;
  // Observability flags re-forwarded to workers. Kept separate from
  // `passthrough`: that vector doubles as the cache key's analysis-flag
  // identity, and log settings must never change cache keys.
  std::vector<std::string> obs_args;
  bool isolate_forced = false;
  bool isolate_disabled = false;
  std::string connect_path;
  double client_deadline_seconds = 0.0;
  bool daemon_status = false;
  bool daemon_shutdown = false;
  bool cache_enabled = false;
  bool cache_disabled = false;
  bool cache_stats = false;
  std::string cache_dir = ".safeflow-cache";
  std::uint64_t cache_max_mb = 256;
  bool summaries_enabled = false;
  bool summaries_disabled = false;
  bool summary_stats = false;
  std::string summaries_dir;  // default derived from cache_dir below
  SupervisorOptions sup_options;
  // Analysis options forwarded verbatim to workers in supervised mode.
  std::vector<std::string> passthrough;
  auto forward = [&passthrough](std::initializer_list<const char*> args) {
    for (const char* a : args) passthrough.emplace_back(a);
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-I" && i + 1 < argc) {
      options.include_dirs.emplace_back(argv[++i]);
      forward({"-I", argv[i]});
    } else if (arg == "-D" && i + 1 < argc) {
      const std::string def = argv[++i];
      forward({"-D", argv[i]});
      const std::size_t eq = def.find('=');
      if (eq == std::string::npos) {
        options.defines.emplace_back(def, "1");
      } else {
        options.defines.emplace_back(def.substr(0, eq),
                                     def.substr(eq + 1));
      }
    } else if (arg == "--mode=summaries") {
      options.taint.mode = analysis::TaintOptions::Mode::kSummaries;
      forward({"--mode=summaries"});
    } else if (arg == "--mode=call-strings") {
      options.taint.mode = analysis::TaintOptions::Mode::kCallStrings;
      forward({"--mode=call-strings"});
    } else if (arg == "--no-control-deps") {
      options.taint.track_control_deps = false;
      forward({"--no-control-deps"});
    } else if (arg == "--ranges") {
      options.ranges.enabled = true;
      forward({"--ranges"});
    } else if (arg == "--no-ranges") {
      options.ranges.enabled = false;
      forward({"--no-ranges"});
    } else if (arg == "--kill-critical") {
      options.taint.implicit_critical_calls.emplace_back("kill", 0u);
      forward({"--kill-critical"});
    } else if (arg == "--dot" && i + 1 < argc) {
      dot_path = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
      options.collect_trace = true;
    } else if (arg == "--stats") {
      stats_table = true;
    } else if (arg == "--stats-json" && i + 1 < argc) {
      stats_json_path = argv[++i];
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--time-budget" && i + 1 < argc) {
      if (!support::parseDuration(argv[++i],
                                  &options.budget.time_seconds)) {
        std::cerr << "invalid --time-budget '" << argv[i] << "'\n";
        return 2;
      }
      forward({"--time-budget", argv[i]});
    } else if (arg == "--step-budget" && i + 1 < argc) {
      char* end = nullptr;
      const unsigned long long n = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') {
        std::cerr << "invalid --step-budget '" << argv[i] << "'\n";
        return 2;
      }
      options.budget.phase_steps = n;
      forward({"--step-budget", argv[i]});
    } else if (arg == "--max-depth" && i + 1 < argc) {
      char* end = nullptr;
      const unsigned long long n = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || n == 0) {
        std::cerr << "invalid --max-depth '" << argv[i] << "'\n";
        return 2;
      }
      options.budget.max_depth = static_cast<unsigned>(n);
      options.taint.max_context_depth = static_cast<unsigned>(n);
      forward({"--max-depth", argv[i]});
    } else if (arg == "--isolate") {
      isolate_forced = true;
    } else if (arg == "--no-isolate") {
      isolate_disabled = true;
    } else if (arg == "--connect" && i + 1 < argc) {
      connect_path = argv[++i];
    } else if (arg == "--deadline" && i + 1 < argc) {
      if (!support::parseDuration(argv[++i], &client_deadline_seconds)) {
        std::cerr << "invalid --deadline '" << argv[i] << "'\n";
        return 2;
      }
    } else if (arg == "--daemon-status") {
      daemon_status = true;
    } else if (arg == "--daemon-shutdown") {
      daemon_shutdown = true;
    } else if (arg == "--worker-timeout" && i + 1 < argc) {
      if (!support::parseDuration(argv[++i],
                                  &sup_options.worker_timeout_seconds)) {
        std::cerr << "invalid --worker-timeout '" << argv[i] << "'\n";
        return 2;
      }
    } else if (arg == "--retries" && i + 1 < argc) {
      char* end = nullptr;
      const unsigned long long n = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') {
        std::cerr << "invalid --retries '" << argv[i] << "'\n";
        return 2;
      }
      sup_options.max_retries = static_cast<int>(n);
    } else if (arg == "--worker") {
      worker_mode = true;
    } else if (arg == "--telemetry-spans") {
      telemetry_spans = true;
      options.collect_trace = true;
    } else if (arg == "--worker-stderr-cap" && i + 1 < argc) {
      char* end = nullptr;
      const unsigned long long n = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') {
        std::cerr << "invalid --worker-stderr-cap '" << argv[i] << "'\n";
        return 2;
      }
      sup_options.worker_stderr_cap = static_cast<std::size_t>(n);
    } else if (arg == "--log-level" && i + 1 < argc) {
      if (!support::parseLogLevel(argv[++i], &log_level)) {
        std::cerr << "invalid --log-level '" << argv[i]
                  << "' (expected error|warn|note|info|debug)\n";
        return 2;
      }
      obs_args.emplace_back("--log-level");
      obs_args.emplace_back(argv[i]);
    } else if (arg == "--log-json") {
      log_json = true;
      obs_args.emplace_back("--log-json");
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_out_path = argv[++i];
    } else if (arg == "--cache") {
      cache_enabled = true;
    } else if (arg == "--cache-dir" && i + 1 < argc) {
      cache_enabled = true;
      cache_dir = argv[++i];
    } else if (arg == "--no-cache") {
      cache_disabled = true;
    } else if (arg == "--cache-stats") {
      cache_stats = true;
    } else if (arg == "--summaries") {
      summaries_enabled = true;
    } else if (arg == "--summaries-dir" && i + 1 < argc) {
      summaries_enabled = true;
      summaries_dir = argv[++i];
    } else if (arg == "--no-summaries") {
      summaries_disabled = true;
    } else if (arg == "--summary-stats") {
      summary_stats = true;
    } else if (arg == "--verify-summaries") {
      summaries_enabled = true;
      options.summaries.verify = true;
    } else if (arg == "--cache-max-mb" && i + 1 < argc) {
      char* end = nullptr;
      const unsigned long long n = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') {
        std::cerr << "invalid --cache-max-mb '" << argv[i] << "'\n";
        return 2;
      }
      cache_max_mb = n;
    } else if (arg == "--version") {
      std::cout << "safeflow " << kAnalyzerVersion << "\n";
      return 0;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option '" << arg << "'\n";
      usage();
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  // Daemon control ops need a socket, not input files.
  if (daemon_status || daemon_shutdown) {
    if (connect_path.empty()) {
      std::cerr << "--daemon-status/--daemon-shutdown require "
                   "--connect <socket>\n";
      return 2;
    }
    const std::string request =
        daemon_status ? "{\"safeflowd\": 1, \"op\": \"status\"}\n"
                      : "{\"safeflowd\": 1, \"op\": \"shutdown\"}\n";
    std::string response, error;
    if (!daemonRoundTrip(connect_path, request, /*read_timeout_seconds=*/10.0,
                         &response, &error)) {
      std::cerr << "safeflow: " << error << "\n";
      return 2;
    }
    std::cout << response << "\n";
    support::json::Value parsed;
    std::string parse_error;
    const bool ok = support::json::parse(response, &parsed, &parse_error) &&
                    parsed.memberString("status") == "ok";
    return ok ? 0 : 2;
  }
  if (files.empty()) {
    usage();
    return 2;
  }

  if (isolate_forced && isolate_disabled) {
    std::cerr << "--isolate and --no-isolate are mutually exclusive\n";
    return 2;
  }

  // Function-level summary memoization (DESIGN.md §16). The store rides
  // under the cache directory by default. Deliberately NOT folded into
  // `passthrough`: that vector doubles as the result-cache key identity, and
  // summary memoization never changes analysis output, so flipping it
  // must not invalidate result-cache entries.
  const bool use_summaries = summaries_enabled && !summaries_disabled;
  if (use_summaries) {
    if (summaries_dir.empty()) summaries_dir = cache_dir + "/summaries";
    options.summaries.enabled = true;
    options.summaries.dir = summaries_dir;
  } else {
    options.summaries.verify = false;
  }
  std::vector<std::string> summary_args;
  if (use_summaries) {
    summary_args = {"--summaries-dir", summaries_dir};
    if (options.summaries.verify) summary_args.emplace_back("--verify-summaries");
    if (summary_stats) summary_args.emplace_back("--summary-stats");
  }

  // --connect: hand the analysis to a resident safeflowd. The response
  // carries the exact bytes the one-shot CLI would print, so the client
  // only relays. Anything the daemon protocol cannot express (--dot,
  // --trace, stats/metrics documents, local cache control, --no-isolate)
  // runs locally instead — with a note, never silently. Transport
  // failures and busy/draining shedding also degrade to the local path,
  // which forces --isolate so the fallback keeps the daemon's crash
  // isolation.
  if (!connect_path.empty() && !worker_mode) {
    support::Logger::instance().configure(log_level, log_json, "client");
    const bool expressible =
        dot_path.empty() && trace_path.empty() && stats_json_path.empty() &&
        metrics_out_path.empty() && !stats_table && !cache_enabled &&
        !cache_disabled && !cache_stats && !isolate_disabled &&
        !summaries_enabled && !summaries_disabled && !summary_stats;
    if (!expressible) {
      SAFEFLOW_LOG(support::LogLevel::kNote, "client",
                   "--connect cannot express --dot/--trace/--stats/cache/"
                   "summary flags; analyzing locally");
    } else {
      const double deadline_seconds =
          client_deadline_seconds > 0.0 ? client_deadline_seconds : 300.0;
      std::ostringstream request;
      request << "{\"safeflowd\": 1, \"op\": \"analyze\", \"files\": [";
      for (std::size_t i = 0; i < files.size(); ++i) {
        request << (i == 0 ? "" : ", ") << '"'
                << support::json::escape(files[i]) << '"';
      }
      request << "], \"flags\": [";
      for (std::size_t i = 0; i < passthrough.size(); ++i) {
        request << (i == 0 ? "" : ", ") << '"'
                << support::json::escape(passthrough[i]) << '"';
      }
      request << "], \"json\": " << (json ? "true" : "false")
              << ", \"quiet\": " << (quiet ? "true" : "false")
              << ", \"deadline_ms\": "
              << static_cast<std::uint64_t>(deadline_seconds * 1000.0)
              << "}\n";
      std::string fallback_reason;
      for (int attempt = 0; attempt < 3; ++attempt) {
        std::string response;
        if (!daemonRoundTrip(connect_path, request.str(),
                             deadline_seconds + 30.0, &response,
                             &fallback_reason)) {
          break;
        }
        support::json::Value parsed;
        std::string parse_error;
        if (!support::json::parse(response, &parsed, &parse_error) ||
            !parsed.isObject()) {
          fallback_reason = "unparseable daemon response";
          break;
        }
        const std::string status = parsed.memberString("status");
        if (status == "ok") {
          const support::json::Value* err_text = parsed.find("stderr");
          if (err_text != nullptr && !err_text->stringOr("").empty()) {
            std::cerr << err_text->stringOr("");
          }
          const support::json::Value* out_text = parsed.find("stdout");
          if (out_text != nullptr) std::cout << out_text->stringOr("");
          return static_cast<int>(parsed.memberNumber("exit_code", 2.0));
        }
        if (status == "busy") {
          // Shed under load: back off exponentially from the daemon's
          // hint (capped at 5s) with deterministic per-process jitter,
          // so a fleet of synchronized clients spreads out instead of
          // re-stampeding a shedding daemon on the same tick.
          const double hint_ms =
              parsed.memberNumber("retry_after_ms", 250.0);
          const double capped_ms =
              std::min(hint_ms * std::ldexp(1.0, attempt), 5000.0);
          const std::uint64_t seed =
              support::fnv1a(std::to_string(::getpid()) + ":" +
                             std::to_string(attempt));
          const double jitter =
              0.5 + 0.5 * static_cast<double>(seed % 1000) / 1000.0;
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(capped_ms *
                                                        jitter));
          fallback_reason = "daemon busy";
          continue;
        }
        if (status == "draining") {
          fallback_reason = "daemon draining";
          break;
        }
        fallback_reason =
            "daemon error: " + parsed.memberString("message", "unknown");
        break;
      }
      SAFEFLOW_LOG(support::LogLevel::kNote, "client",
                   "falling back to local analysis",
                   {{"reason", fallback_reason}});
    }
    // Keep the daemon's crash isolation in the fallback.
    if (!isolate_disabled) isolate_forced = true;
  }

  const bool supervised = !worker_mode && !isolate_disabled && isolate_forced;

  // One logger per process; the shard label distinguishes supervisor,
  // worker (labeled by its first input), and plain in-process events.
  support::Logger::instance().configure(
      log_level, log_json,
      worker_mode ? files.front() : (supervised ? "supervisor" : ""));

  if (worker_mode) {
    // Worker protocol: run the ordinary in-process path and print its
    // output bytes, exit code and stats as one envelope on stdout for
    // the supervisor to relay. Fault injection arms only here.
    support::armWorkerFaultInjection(files);
    SafeFlowDriver driver(options);
    bool cacheable = false;
    const RunOutput out =
        analyzeInProcess(driver, files, json, quiet, dot_path, &cacheable);
    if (summary_stats && driver.summaryStore() != nullptr) {
      std::cerr << driver.summaryStore()->statsLine() << "\n";
    }
    std::cout << renderWorkerEnvelope(out, driver, telemetry_spans);
    return out.exit_code;
  }

  // One look-up/compute/store sequence for both paths: a hit prints the
  // stored bytes; a miss runs in-process or in one supervised worker.
  // --dot/--trace need a live pipeline (a replayed entry has no graph and
  // no spans), so either disables the cache — with an explicit note and
  // a cache_disabled_reason stat, never silently.
  support::MetricsRegistry registry;
  CacheOptions cache_options;
  cache_options.enabled = cache_enabled && !cache_disabled;
  cache_options.dir = cache_dir;
  cache_options.max_bytes = cache_max_mb << 20;
  cache_options.include_dirs = options.include_dirs;
  cache_options.analysis_flags = passthrough;
  for (std::string& flag : renderModeFlags(json, quiet)) {
    cache_options.analysis_flags.push_back(std::move(flag));
  }
  CacheManager cache(cache_options, &registry);
  if (!dot_path.empty()) {
    cache.disable("dot");
  } else if (!trace_path.empty()) {
    cache.disable("trace");
  }

  // SIGTERM/SIGINT forward to the in-flight worker (SIGKILL after grace)
  // so an interrupted run never leaves an orphaned --worker child.
  if (supervised) support::installTerminationForwarding();
  support::TraceCollector supervisor_trace;
  std::optional<SupervisedRun> supervised_run;
  bool export_failed = false;
  RunOutput out = cache.run(files, [&](bool* cacheable) {
    if (supervised) {
      SupervisorOptions sup = sup_options;
      sup.worker_exe = selfExePath(argv[0]);
      sup.worker_args = passthrough;
      sup.worker_args.insert(sup.worker_args.end(), obs_args.begin(),
                             obs_args.end());
      sup.worker_args.insert(sup.worker_args.end(), summary_args.begin(),
                             summary_args.end());
      if (!dot_path.empty()) {
        sup.worker_args.insert(sup.worker_args.end(), {"--dot", dot_path});
      }
      // --trace: the supervisor records its own spans and asks the
      // worker to report its spans back, then stitches one timeline
      // (DESIGN.md §13).
      if (!trace_path.empty()) {
        sup.trace = &supervisor_trace;
        sup.worker_args.emplace_back("--telemetry-spans");
      }
      sup.json = json;
      sup.quiet = quiet;
      sup.base_time_budget_seconds = options.budget.time_seconds;
      supervised_run = Supervisor(sup, &registry).run(files);
      *cacheable = supervised_run->cacheable();
      return supervised_run->output;
    }
    SafeFlowDriver driver(options);
    RunOutput run =
        analyzeInProcess(driver, files, json, quiet, dot_path, cacheable);
    // A partial trace still shows where the time went before a failure.
    if (!trace_path.empty() && driver.trace() != nullptr &&
        !writeFile(trace_path, driver.trace()->toChromeTraceJson(),
                   "trace.out")) {
      export_failed = true;
      return run;
    }
    if (summary_stats && driver.summaryStore() != nullptr) {
      std::cerr << driver.summaryStore()->statsLine() << "\n";
    }
    return run;
  });
  if (export_failed) return 2;

  // The stats documents: the analysis run's own stats (live or cached)
  // plus this process's supervisor and cache counters, the worker's
  // attribution, and why a requested cache did not run.
  if (supervised_run.has_value() && !supervised_run->failure.has_value()) {
    out.stats.shards.push_back(supervised_run->worker);
  }
  out.stats.fold(registry);
  out.stats.resource = support::sampleResourceUsage();
  out.stats.cache_disabled_reason = cache.disabledReason();
  if (supervised_run.has_value() && !trace_path.empty() &&
      !writeFile(trace_path,
                 supervised_run->renderStitchedTrace(supervisor_trace),
                 "trace.out")) {
    return 2;
  }
  if (cache_stats) std::cerr << cache.statsLine();
  if (!stats_json_path.empty()) {
    const std::string stats_json = out.stats.renderJson() + "\n";
    if (stats_json_path == "-") {
      std::cout << stats_json;
    } else if (!writeFile(stats_json_path, stats_json, "stats.out")) {
      return 2;
    }
  }
  if (!metrics_out_path.empty() &&
      !writeFile(metrics_out_path, out.stats.renderPrometheus(),
                 "metrics.out")) {
    return 2;
  }
  if (stats_table) std::cerr << out.stats.renderTable();
  std::cerr << out.stderr_text;
  // Keep stdout pure JSON when the stats document goes there.
  (json || stats_json_path != "-" ? std::cout : std::cerr) << out.stdout_text;
  // Report an interruption the conventional shell way (128 + signal)
  // after whatever output there is; a drained run must not look like a
  // clean one.
  if (support::terminationRequested()) {
    return 128 + support::terminationSignal();
  }
  return out.exit_code;
}
