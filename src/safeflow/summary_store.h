// Content-addressed persistent store for per-function analysis
// summaries (DESIGN.md §16).
//
// One entry per function Merkle key (summaries.h: body hash + callee
// keys + analyzer version + config fingerprint), holding the recorded
// memo blobs of all three interprocedural phases (shm-pointer
// propagation, ranges, taint). An edit to a function changes its key —
// and, Merkle-style, the key of everything that calls it — so the edited
// cone misses the store and re-solves while the rest of the module
// replays recorded post-states.
//
// Durability rides on support::DiskCache: entries are written through
// the checksummed SFC1 envelope (fsync + temp + rename), so a killed
// writer never leaves an undetected torn entry. On top of that, each
// payload carries its own text header (format tag, analyzer version,
// key echo); anything that fails validation is purged, counted in
// summaries.corrupt, and falls back to cold analysis — never a wrong
// replay. An empty dir makes the store memory-only (the resident tier
// safeflowd workers inherit is still the shared on-disk dir).
//
// The in-memory tier survives beginRun(), so a long-lived process (or a
// test driving several SafeFlowDriver instances) keeps its summaries
// resident between runs; invalidation is entirely by content key, no
// epochs or timestamps.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "analysis/summaries.h"
#include "support/cache.h"

namespace safeflow {

enum class SummaryPhase : int { kShm = 0, kRanges = 1, kTaint = 2 };
inline constexpr int kSummaryPhaseCount = 3;

[[nodiscard]] std::string_view summaryPhaseName(SummaryPhase phase);

/// Per-run counters, reset by beginRun(). `hits` / `misses` count
/// per-(function, digest) memo probes across all phases: a cold run
/// still shows intra-run hits (the fixpoint revisits a function whose
/// inputs did not change since its last solve), which is why tests
/// assert on resolvedFunctions() name sets rather than raw counters.
struct SummaryStoreStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Bound keys with no loadable entry — the invalidated cone of an
  /// edit (plus genuinely-new functions).
  std::uint64_t invalidated = 0;
  /// (phase, function) pairs fully replayed from recorded blobs (zero
  /// live solves in that phase this run).
  std::uint64_t spliced = 0;
  /// Entries written to disk by flush().
  std::uint64_t writes = 0;
  /// Entries purged for torn envelopes, version mismatch, key-echo
  /// mismatch, or unparsable payloads.
  std::uint64_t corrupt = 0;
};

/// The store. Not copyable; one instance may serve many runs (daemon /
/// resident use) — bind each run's keys with beginRun() first.
class SummaryStore {
 public:
  /// `analyzer_version` is echoed into every entry and checked on load
  /// (the driver passes kAnalyzerVersion). Empty `dir` = memory-only.
  /// The byte cap must comfortably exceed the working set: once eviction
  /// starts dropping live entries, every run re-records what the last
  /// run lost and warm hit rates degrade run over run.
  explicit SummaryStore(std::string dir, std::string analyzer_version,
                        std::uint64_t max_bytes = 512ull << 20);

  SummaryStore(const SummaryStore&) = delete;
  SummaryStore& operator=(const SummaryStore&) = delete;

  /// Startup recovery for the on-disk tier: mkdir -p, purge entries
  /// failing envelope verification, sweep aged-out stray temps. Returns
  /// the number of files removed. No-op when memory-only.
  std::uint64_t recoverDir();

  /// Binds this run's function keys and resets per-run stats. Keys come
  /// from analysis::computeFunctionKeys over the *current* module, so a
  /// stale resident entry is simply never addressed again.
  void beginRun(const analysis::FunctionKeyMap& keys);

  /// The memo seam handed to one phase (see PhaseMemoHooks). Valid for
  /// the store's lifetime.
  [[nodiscard]] analysis::SummaryBank* bank(SummaryPhase phase);

  /// Folds per-run derived stats (spliced pairs) and publishes the
  /// summaries.* metrics. Call once per run, after the phases.
  void finishRun();

  /// Persists dirty entries to disk (atomic per entry). The driver
  /// skips this on degraded runs so a budget-truncated post-state is
  /// never stored. Returns false when any store() failed.
  bool flush();

  /// Functions that needed >=1 live solve in `phase` this run (by
  /// name). On a fully-warm run this is empty; after an edit it is
  /// exactly the invalidated cone.
  [[nodiscard]] std::set<std::string> resolvedFunctions(
      SummaryPhase phase) const;
  /// Functions fully replayed in `phase` this run (>=1 hit, 0 live
  /// solves).
  [[nodiscard]] std::set<std::string> memoizedFunctions(
      SummaryPhase phase) const;

  [[nodiscard]] SummaryStoreStats stats() const;
  /// Human-readable one-liner for --summary-stats.
  [[nodiscard]] std::string statsLine() const;

  [[nodiscard]] std::uint64_t residentEntries() const;
  [[nodiscard]] std::uint64_t diskBytes() const;
  [[nodiscard]] const std::string& dir() const { return cache_.dir(); }

 private:
  struct Entry {
    /// Per phase: (input digest, recorded blob), FIFO-capped.
    std::array<std::vector<std::pair<std::uint64_t, std::string>>,
               kSummaryPhaseCount>
        records;
    bool dirty = false;
  };

  class PhaseBank final : public analysis::SummaryBank {
   public:
    PhaseBank() = default;
    void bind(SummaryStore* store, SummaryPhase phase) {
      store_ = store;
      phase_ = phase;
    }
    const std::string* find(const ir::Function& fn,
                            std::uint64_t digest) override;
    void record(const ir::Function& fn, std::uint64_t digest,
                std::string blob) override;

   private:
    SummaryStore* store_ = nullptr;
    SummaryPhase phase_ = SummaryPhase::kShm;
  };

  const std::string* find(SummaryPhase phase, const ir::Function& fn,
                          std::uint64_t digest);
  void record(SummaryPhase phase, const ir::Function& fn,
              std::uint64_t digest, std::string blob);
  /// This run's key for fn, or nullptr. Caller holds mu_.
  [[nodiscard]] const std::string* runKey(const ir::Function& fn) const;
  /// Entry for `key`, loading (and validating) from disk on first
  /// touch. Returns nullptr when absent everywhere. Caller holds mu_.
  Entry* loadEntry(const std::string& key);
  [[nodiscard]] std::string serialize(const std::string& key,
                                      const Entry& entry) const;
  bool deserialize(const std::string& key, const std::string& payload,
                   Entry* out) const;
  void noteCorrupt(const std::string& key, const char* why);

  support::DiskCache cache_;
  const std::string analyzer_version_;
  const bool disk_enabled_;

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
  /// Keys whose disk load already failed or missed this process — do
  /// not retry the filesystem on every probe.
  std::set<std::string> load_failed_;
  analysis::FunctionKeyMap run_keys_;  // by function index
  std::array<PhaseBank, kSummaryPhaseCount> banks_;

  SummaryStoreStats stats_;
  std::array<std::set<std::string>, kSummaryPhaseCount> resolved_;
  std::array<std::set<std::string>, kSummaryPhaseCount> hit_;
  std::set<std::string> counted_missing_;
};

}  // namespace safeflow
