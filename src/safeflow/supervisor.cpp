#include "safeflow/supervisor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>

#include "support/log.h"
#include "support/subprocess.h"

namespace safeflow {

namespace {

namespace json = support::json;

std::string tail(const std::string& text, std::size_t max_bytes = 2000) {
  if (text.size() <= max_bytes) return text;
  return "..." + text.substr(text.size() - max_bytes);
}

/// Decodes a worker envelope (see renderWorkerEnvelope in
/// safeflow_main.cpp) into `*result`. False with `*why` on anything but
/// a complete envelope.
bool decodeEnvelope(const std::string& text, SupervisedRun* result,
                    std::string* why) {
  json::Value doc;
  if (!json::parse(text, &doc, why) || !doc.isObject()) {
    if (why->empty()) *why = "not an object";
    return false;
  }
  if (doc.memberUint("safeflow_worker") != 1) {
    *why = "not a worker envelope";
    return false;
  }
  if (!decodeRunOutput(doc, &result->output, why)) return false;
  if (const json::Value* telemetry = doc.find("telemetry");
      telemetry != nullptr && telemetry->isObject()) {
    result->worker_pid = telemetry->memberUint("pid");
    if (const json::Value* res = telemetry->find("resource");
        res != nullptr && res->isObject()) {
      result->worker.user_seconds = res->memberNumber("user_seconds");
      result->worker.sys_seconds = res->memberNumber("sys_seconds");
      result->worker.max_rss_kb = res->memberUint("max_rss_kb");
    }
    result->worker_epoch_steady_ns = static_cast<std::int64_t>(
        telemetry->memberNumber("epoch_steady_ns"));
    if (const json::Value* spans = telemetry->find("spans");
        spans != nullptr && spans->isArray()) {
      result->worker_spans = *spans;
    }
  }
  return true;
}

RunOutput renderWorkerFailure(const std::vector<std::string>& files,
                              const WorkerFailure& failure, bool json) {
  RunOutput out;
  out.exit_code = 2;
  const std::string phase = failure.lastPhase();
  std::ostringstream err;
  err << "--- worker stderr (" << failure.reason << ", " << failure.attempts
      << " attempt(s)) ---\n"
      << failure.stderr_tail;
  if (!failure.stderr_tail.empty() && failure.stderr_tail.back() != '\n') {
    err << '\n';
  }
  err << "safeflow: analysis worker failed: " << failure.reason << " after "
      << failure.attempts << " attempt(s), last phase '"
      << (phase.empty() ? "unknown" : phase) << "'; " << files.size()
      << " file(s) not analyzed, no report\n";
  out.stderr_text = err.str();
  if (!json) return out;

  std::ostringstream doc;
  doc << "{\n  \"schema_version\": 1,\n  \"failed_files\": [";
  for (std::size_t i = 0; i < files.size(); ++i) {
    doc << (i == 0 ? "" : ", ") << "\"" << json::escape(files[i]) << "\"";
  }
  doc << "],\n  \"worker_failures\": [\n    {\"reason\": \""
      << json::escape(failure.reason)
      << "\", \"attempts\": " << failure.attempts
      << ", \"flight_recorder\": [";
  for (std::size_t e = 0; e < failure.flight_events.size(); ++e) {
    const support::FlightEvent& ev = failure.flight_events[e];
    doc << (e == 0 ? "" : ", ") << "{\"seq\": " << ev.seq << ", \"kind\": \""
        << json::escape(ev.kind) << "\", \"detail\": \""
        << json::escape(ev.detail) << "\"}";
  }
  doc << "]}\n  ]\n}\n";
  out.stdout_text = doc.str();
  return out;
}

}  // namespace

std::string WorkerFailure::lastPhase() const {
  std::string phase;
  for (const support::FlightEvent& event : flight_events) {
    if (event.kind == "phase") phase = event.detail;
  }
  return phase;
}

Supervisor::Supervisor(SupervisorOptions options,
                       support::MetricsRegistry* metrics)
    : options_(std::move(options)), metrics_(metrics) {}

SupervisedRun Supervisor::run(const std::vector<std::string>& files) {
  SupervisedRun result;
  const std::string label = files.empty() ? "" : files.front();
  std::size_t run_span = 0;
  if (options_.trace != nullptr) {
    run_span = options_.trace->beginSpan("supervisor.run");
    options_.trace->setArg(run_span, "files", std::to_string(files.size()));
  }

  WorkerFailure failure;
  std::string last_stderr;
  bool last_stderr_truncated = false;
  bool accepted = false;
  const int max_attempts = 1 + std::max(0, options_.max_retries);
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (support::terminationRequested()) {
      // Never retry (or even start an attempt) once the supervisor has
      // been told to die: the forwarded SIGTERM already killed the
      // previous attempt's worker.
      if (failure.reason.empty()) failure.reason = "interrupted";
      break;
    }
    failure.attempts = attempt;
    if (attempt > 1) {
      // Exponential backoff before the retry (first retry waits the
      // base, each further retry doubles it).
      const double wait =
          options_.backoff_base_seconds * std::ldexp(1.0, attempt - 2);
      if (wait > 0.0) {
        metrics_->counter("supervisor.backoff_waits").add();
        std::size_t backoff_span = 0;
        if (options_.trace != nullptr) {
          backoff_span = options_.trace->beginSpan("supervisor.backoff");
        }
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        if (options_.trace != nullptr) {
          options_.trace->endSpan(backoff_span);
        }
      }
      metrics_->counter("supervisor.workers_retried").add();
      SAFEFLOW_LOG(support::LogLevel::kInfo, "supervisor", "retrying worker",
                   {{"attempt", std::to_string(attempt)},
                    {"previous_failure", failure.reason}});
    }

    std::vector<std::string> argv = {options_.worker_exe, "--worker"};
    argv.insert(argv.end(), options_.worker_args.begin(),
                options_.worker_args.end());
    for (std::string& flag : renderModeFlags(options_.json, options_.quiet)) {
      argv.push_back(std::move(flag));
    }
    if (attempt > 1) {
      // Tighten the analysis budget on retries: if the worker died or
      // hung, the productive outcome is a conservative degraded report,
      // not a second identical death. Last --time-budget wins in the
      // worker's CLI parse, so appending overrides the original.
      double base = options_.base_time_budget_seconds;
      if (base <= 0.0 && options_.worker_timeout_seconds > 0.0) {
        base = options_.worker_timeout_seconds * 0.5;
      }
      if (base > 0.0) {
        const double tightened =
            base * std::pow(options_.retry_budget_factor, attempt - 1);
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.6g", tightened);
        argv.emplace_back("--time-budget");
        argv.emplace_back(buf);
      }
    }
    argv.insert(argv.end(), files.begin(), files.end());

    support::SubprocessOptions sub;
    sub.timeout_seconds = options_.worker_timeout_seconds;
    sub.max_stderr_capture_bytes = options_.worker_stderr_cap;
    sub.extra_env = options_.extra_env;
    sub.extra_env.emplace_back("SAFEFLOW_WORKER_ATTEMPT",
                               std::to_string(attempt));

    metrics_->counter("supervisor.workers_spawned").add();
    SAFEFLOW_LOG(support::LogLevel::kDebug, "supervisor", "spawning worker",
                 {{"file", label}, {"attempt", std::to_string(attempt)}});
    std::size_t spawn_span = 0;
    if (options_.trace != nullptr) {
      spawn_span = options_.trace->beginSpan("supervisor.spawn");
      options_.trace->setArg(spawn_span, "attempt", std::to_string(attempt));
    }
    const auto t0 = std::chrono::steady_clock::now();
    const support::SubprocessResult run = support::runSubprocess(argv, sub);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    if (options_.trace != nullptr) options_.trace->endSpan(spawn_span);
    metrics_->duration("supervisor.worker_wall").record(wall);
    last_stderr = run.err_text;
    last_stderr_truncated = run.err_truncated;
    if (run.err_truncated) {
      metrics_->counter("supervisor.worker_stderr_truncated").add();
      last_stderr += "\n[safeflow: worker stderr truncated at " +
                     std::to_string(options_.worker_stderr_cap) +
                     " bytes]\n";
    }

    using Status = support::SubprocessResult::Status;
    bool retry = true;
    switch (run.status) {
      case Status::kExited: {
        if (run.exit_code < 0 || run.exit_code > 3) {
          failure.reason = "exit " + std::to_string(run.exit_code);
          retry = run.exit_code != 127;  // exec failure: deterministic
          break;
        }
        std::string why;
        if (decodeEnvelope(run.out_text, &result, &why)) {
          accepted = true;
          result.worker.file = label;
          result.worker.wall_seconds = wall;
          result.worker.attempts = attempt;
          break;
        }
        if (run.exit_code == 2) {
          // A frontend-style exit without an envelope is deterministic
          // (the injected "exit2" fault and hard usage errors look like
          // this): retrying cannot help.
          failure.reason = "exit 2 (no report)";
          retry = false;
          break;
        }
        failure.reason = "unparseable report (exit " +
                         std::to_string(run.exit_code) + ": " + why + ")";
        break;  // torn stdout: worth a retry
      }
      case Status::kSignaled:
        metrics_->counter("supervisor.worker_crashes").add();
        failure.reason = support::signalName(run.signal_number);
        break;
      case Status::kTimedOut:
        metrics_->counter("supervisor.workers_killed").add();
        failure.reason = "timeout";
        break;
      case Status::kSpawnFailed:
        failure.reason = "spawn failed: " + run.spawn_error;
        retry = false;  // environment problem, not input-dependent
        break;
    }
    if (accepted || !retry) break;
  }

  if (!accepted) {
    failure.stderr_tail = tail(last_stderr);
    // A dying worker dumps its flight recorder to stderr; decode the
    // SAFEFLOW-FR lines so the failure names the phase and the events
    // leading up to the death (DESIGN.md §13). A capped stderr capture
    // may have cut the dump mid-line, so the parser drops a final event
    // it cannot prove complete.
    failure.flight_events = support::parseFlightRecorderLines(
        last_stderr, /*assume_truncated=*/last_stderr_truncated);
    metrics_->counter("supervisor.workers_failed").add();
    SAFEFLOW_LOG(support::LogLevel::kInfo, "supervisor", "worker failed",
                 {{"reason", failure.reason},
                  {"attempts", std::to_string(failure.attempts)},
                  {"phase", failure.lastPhase()}});
    result.output = renderWorkerFailure(files, failure, options_.json);
    result.failure = std::move(failure);
  }
  if (options_.trace != nullptr) options_.trace->endSpan(run_span);
  return result;
}

std::string SupervisedRun::renderStitchedTrace(
    const support::TraceCollector& supervisor_trace) const {
  std::ostringstream out;
  out << "{\"traceEvents\": [\n";
  bool first = true;
  const auto emit = [&](const std::string& event) {
    out << (first ? "  " : ",\n  ") << event;
    first = false;
  };
  const auto num = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f", v);
    return std::string(buf);
  };
  const auto meta = [&](std::uint64_t pid, const std::string& label) {
    emit("{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " +
         std::to_string(pid) + ", \"tid\": 0, \"args\": {\"name\": \"" +
         json::escape(label) + "\"}}");
  };
  const auto span = [&](std::uint64_t pid, const std::string& name,
                        std::uint64_t tid, double ts, double dur,
                        const std::vector<std::pair<std::string,
                                                    std::string>>& args) {
    std::string event = "{\"name\": \"" + json::escape(name) +
                        "\", \"ph\": \"X\", \"pid\": " + std::to_string(pid) +
                        ", \"tid\": " + std::to_string(tid) +
                        ", \"ts\": " + num(ts) +
                        ", \"dur\": " + num(dur < 0.0 ? 0.0 : dur);
    if (!args.empty()) {
      event += ", \"args\": {";
      for (std::size_t i = 0; i < args.size(); ++i) {
        event += (i == 0 ? "\"" : ", \"") + json::escape(args[i].first) +
                 "\": \"" + json::escape(args[i].second) + "\"";
      }
      event += "}";
    }
    emit(event + "}");
  };

  // Lane 1: the supervisor's own spans, already on the reference clock.
  meta(1, "safeflow supervisor");
  for (const support::TraceCollector::Span& s : supervisor_trace.spans()) {
    span(1, s.name, s.tid, s.start_us, s.dur_us, s.args);
  }

  // Lane 2: the worker. Timestamps are re-based: both clocks are
  // CLOCK_MONOTONIC readings on this machine, so the worker's span
  // offsets shift by the epoch difference.
  if (!worker_spans.array.empty()) {
    meta(2, "safeflow worker (pid " + std::to_string(worker_pid) + ")");
    const double base_us =
        static_cast<double>(worker_epoch_steady_ns -
                            supervisor_trace.epochSteadyNs()) /
        1000.0;
    for (const json::Value& s : worker_spans.array) {
      std::vector<std::pair<std::string, std::string>> args;
      if (const json::Value* a = s.find("args");
          a != nullptr && a->isObject()) {
        for (const auto& [key, value] : a->members) {
          args.emplace_back(key, value.stringOr({}));
        }
      }
      span(2, s.memberString("name"), s.memberUint("tid"),
           base_us + s.memberNumber("start_us"), s.memberNumber("dur_us"),
           args);
    }
  }
  out << "\n]}\n";
  return out.str();
}

}  // namespace safeflow
