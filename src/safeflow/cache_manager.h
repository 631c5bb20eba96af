// Content-addressed incremental analysis cache (DESIGN.md §11).
//
// SafeFlow's pipeline is deterministic per input set: the same sources
// (including every resolved header), the same analyzer version, and the
// same analysis-relevant configuration always produce the same report.
// The CacheManager exploits that by keying one on-disk entry per file
// set and render mode (a support::DiskCache under --cache-dir) with a
// 64-bit FNV-1a digest over exactly those inputs, and storing the run's
// rendered output: stdout and stderr bytes, exit code, and the analysis
// stats document. A warm run prints the stored bytes, so cached and live
// runs are byte-identical whichever entry point computed the miss
// (in-process, a supervised worker, or safeflowd).
//
// Key composition (any difference => different key => miss):
//   - cache envelope schema version;
//   - kAnalyzerVersion (driver.h; bumped on analysis-semantics changes);
//   - the analysis-relevant CLI flags, canonically the same passthrough
//     vector the supervisor forwards to its worker (-I/-D/--mode/
//     --no-control-deps/--kill-critical/--time-budget/--step-budget/
//     --max-depth), followed by the render-mode flags (--json/--quiet)
//     because the entry holds rendered bytes. Other observability
//     (--trace/--stats*/--dot) and scheduling (--isolate/
//     --worker-timeout/--retries) flags are deliberately excluded: they
//     cannot change the printed report;
//   - per input file, in input order: its path (reports embed path
//     strings, so equal content at a different path must not hit) and
//     the bytes of the file plus its transitive `#include "..."`
//     closure, resolved exactly like the preprocessor (including-file
//     directory first, then -I dirs in order). The closure scan ignores
//     conditional compilation, i.e. hashes a superset of what the
//     preprocessor may include — that can only cause spurious misses,
//     never a wrong hit. Unresolvable includes hash as a marker so a
//     header appearing later changes the key.
//
// Robustness: entries are written crash-consistently by DiskCache
// (checksummed envelope, fsync, temp + rename); lookup() first checks
// the storage envelope (a torn/truncated entry is counted as
// cache.torn_entries_purged) and then validates the JSON envelope
// (parse, schema, key echo, analyzer version, exit code range). Any
// mismatch is "corrupt": one diagnostic on stderr, a cache.corrupt
// count, the entry purged, and the caller falls back to a cold run.
// Corruption is never a crash and never a wrong report. The whole
// cache is disabled when SAFEFLOW_INJECT_FAULT is armed: injected
// faults make runs non-deterministic, which violates the cache's core
// assumption. SAFEFLOW_INJECT_IO, by contrast, keeps the cache ON —
// surviving injected storage faults is precisely what it exists to
// prove.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "safeflow/driver.h"
#include "support/cache.h"
#include "support/json.h"
#include "support/metrics.h"

namespace safeflow {

struct CacheOptions {
  bool enabled = false;
  /// Created on demand, parents included (--cache-dir).
  std::string dir = ".safeflow-cache";
  /// LRU size cap (--cache-max-mb, default 256 MiB).
  std::uint64_t max_bytes = 256ull << 20;
  /// Include search path, needed to resolve the header closure the way
  /// the preprocessor will.
  std::vector<std::string> include_dirs;
  /// Canonical flag identity, in command-line order: the analysis flags
  /// (the supervisor's worker passthrough vector) followed by
  /// renderModeFlags().
  std::vector<std::string> analysis_flags;
  /// Run a verify-and-purge sweep over every entry at construction
  /// (crash recovery after SIGKILL/power loss). The daemon, which
  /// constructs a manager per request against one shared directory,
  /// turns this off and sweeps once at startup instead.
  bool verify_on_open = true;
};

/// The answer of one whole-program run as every entry point prints it:
/// the exact stdout and stderr bytes, the exit code (the ladder in
/// driver.h), and the analysis statistics behind them. A worker sends
/// one in its envelope, the cache stores one per key, and the CLI and
/// safeflowd relay one unchanged.
struct RunOutput {
  std::string stdout_text;
  std::string stderr_text;
  int exit_code = 0;
  SafeFlowStats stats;
};

/// The flags that select what a run prints ("--json", "--quiet"): part
/// of the cache key and forwarded to the worker.
[[nodiscard]] std::vector<std::string> renderModeFlags(bool json,
                                                       bool quiet);

/// Renders the JSON members the worker envelope and the cache entry
/// share — "exit_code", "stdout", "stderr" and "stats" — as
/// ",\n  "-separated lines for the caller's enclosing object.
[[nodiscard]] std::string renderRunOutputMembers(const RunOutput& out);

/// Decodes those members from a parsed envelope. False with `*why` set
/// when one is missing or out of range.
bool decodeRunOutput(const support::json::Value& doc, RunOutput* out,
                     std::string* why);

class CacheManager {
 public:
  /// `metrics` receives cache.hits/misses/writes/evictions/corrupt and
  /// the cache.size_bytes gauge; may be null (counting disabled). Must
  /// outlive the manager.
  CacheManager(CacheOptions options, support::MetricsRegistry* metrics);

  [[nodiscard]] bool enabled() const { return options_.enabled; }
  [[nodiscard]] const std::string& dir() const { return options_.dir; }

  /// Non-empty when a cache the user asked for (--cache-dir) was
  /// disabled anyway; names why ("fault-injection", "trace", "dot").
  /// Surfaced as a note diagnostic and the cache.disabled_reason stat
  /// so warm-run expectations are never silently wrong.
  [[nodiscard]] const std::string& disabledReason() const {
    return disabled_reason_;
  }

  /// Disables the cache, recording `reason` (first reason wins). No-op
  /// when the cache was never enabled.
  void disable(std::string reason);

  /// Stable content key (16 hex chars) for analyzing `files` as one
  /// whole program.
  [[nodiscard]] std::string keyFor(
      const std::vector<std::string>& files) const;

  /// Hit: decoded entry, LRU-refreshed. Miss (absent, unreadable, or
  /// corrupt): nullopt; corrupt entries are additionally purged and
  /// reported once on stderr.
  [[nodiscard]] std::optional<RunOutput> lookup(const std::string& key);

  /// Persists a finished run under `key`. Failures to write are
  /// diagnosed on stderr but never fail the run.
  void store(const std::string& key, const RunOutput& out);

  /// The one look-up/compute/store sequence every entry point shares.
  /// A hit returns the stored output; a miss (or a disabled cache)
  /// returns `compute()`, stored when `compute` set its flag to say the
  /// output is the run's complete, reproducible answer.
  [[nodiscard]] RunOutput run(
      const std::vector<std::string>& files,
      const std::function<RunOutput(bool* cacheable)>& compute);

  /// One-line human summary for --cache-stats.
  [[nodiscard]] std::string statsLine() const;

 private:
  void count(const char* name, std::uint64_t delta = 1);
  /// Hashes `path` and its transitive include closure into `hasher`.
  void hashFileClosure(const std::string& path,
                       const std::string& display_name,
                       support::Fnv1a& hasher,
                       std::vector<std::string>& visited) const;

  /// One file's bytes and resolved include edges, read from disk once
  /// per run. A shared header is part of every TU's closure, so without
  /// this memo an N-TU corpus re-reads it N times per keyFor sweep;
  /// with it the run does O(unique files) reads. Pinning the first
  /// observation also makes every key of one run see the same
  /// filesystem snapshot.
  struct FileInfo {
    bool exists = false;
    std::string contents;
    /// (resolved, value): value is the resolved path to recurse into,
    /// or the raw include name when resolution failed.
    std::vector<std::pair<bool, std::string>> includes;
  };
  const FileInfo& fileInfo(const std::string& path) const;

  CacheOptions options_;
  support::DiskCache disk_;
  support::MetricsRegistry* metrics_;
  std::string disabled_reason_;
  mutable std::map<std::string, FileInfo> file_info_;
};

}  // namespace safeflow
