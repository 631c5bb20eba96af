// sfbench: the C++ half of the SafeFlow benchmark (run.py is the other).
//
//   sfbench gen <taint_cycles|pointer_churn> <out.c>
//       Writes the workload's base program (bench/synthetic.h).
//   sfbench trace <spec.json> <out-dir>
//       The traced per-layer run. For every input in the spec it calls
//       the pipeline layers from outside, in SafeFlowDriver::analyze()'s
//       order, on the cold input (no memo) and, through the public memo
//       wiring (ModuleIndex, computeFunctionKeys, SummaryStore::bank),
//       on the edited input against a store primed with the cold one.
//       Each rendered report is compared byte for byte with
//       SafeFlowDriver's. Prints one JSON document on stdout; the spans
//       are kept in memory and written to <out-dir>/spans.json at the
//       end. <out-dir> must not exist yet: it also holds the stores.
//
// This binary replaces global operator new/delete and charges every
// allocation and its bytes to the innermost open span, so per-layer
// allocation counts are exact and repeat across runs of one input.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/alias.h"
#include "analysis/ranges.h"
#include "analysis/report.h"
#include "analysis/restrictions.h"
#include "analysis/shm_propagation.h"
#include "analysis/shm_regions.h"
#include "analysis/summaries.h"
#include "analysis/taint.h"
#include "bench/synthetic.h"
#include "cfront/frontend.h"
#include "ir/callgraph.h"
#include "ir/lowering.h"
#include "ir/ssa.h"
#include "safeflow/cache_manager.h"
#include "safeflow/driver.h"
#include "safeflow/summary_store.h"
#include "support/json.h"
#include "support/limits.h"
#include "support/metrics.h"
#include "support/subprocess.h"

namespace {

using Clock = std::chrono::steady_clock;

// ---- Span recorder with allocation accounting -------------------------
//
// Fixed-size storage: the allocator hook must never allocate itself, so
// spans live in a preallocated vector and the open-span stack is an
// array.

struct Span {
  const char* name = nullptr;
  int parent = -1;
  int op = -1;
  Clock::time_point start;
  Clock::time_point end;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
};

constexpr std::size_t kMaxSpans = 1 << 16;
constexpr int kMaxDepth = 64;

std::vector<Span>* g_spans = nullptr;
int g_stack[kMaxDepth];
int g_depth = 0;
int g_op = -1;

int openSpan(const char* name) {
  if (g_spans->size() == kMaxSpans || g_depth == kMaxDepth) {
    std::fprintf(stderr, "sfbench: span storage exhausted\n");
    std::exit(2);
  }
  Span s;
  s.name = name;
  s.parent = g_depth > 0 ? g_stack[g_depth - 1] : -1;
  s.op = g_op;
  s.start = Clock::now();
  g_spans->push_back(s);
  const int id = static_cast<int>(g_spans->size()) - 1;
  g_stack[g_depth++] = id;
  return id;
}

void closeSpan(int id) {
  (*g_spans)[static_cast<std::size_t>(id)].end = Clock::now();
  --g_depth;
}

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : id_(openSpan(name)) {}
  ~ScopedSpan() { closeSpan(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

void chargeAllocation(std::size_t bytes) {
  if (g_depth == 0) return;
  Span& s = (*g_spans)[static_cast<std::size_t>(g_stack[g_depth - 1])];
  ++s.allocs;
  s.alloc_bytes += bytes;
}

void* allocate(std::size_t bytes) {
  chargeAllocation(bytes);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t bytes) { return allocate(bytes); }
void* operator new[](std::size_t bytes) { return allocate(bytes); }
void* operator new(std::size_t bytes, const std::nothrow_t&) noexcept {
  chargeAllocation(bytes);
  return std::malloc(bytes == 0 ? 1 : bytes);
}
void* operator new[](std::size_t bytes, const std::nothrow_t&) noexcept {
  chargeAllocation(bytes);
  return std::malloc(bytes == 0 ? 1 : bytes);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

namespace fs = std::filesystem;
namespace json = safeflow::support::json;

double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[noreturn]] void die(const std::string& msg) {
  std::cerr << "sfbench: " << msg << "\n";
  std::exit(2);
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) die("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void writeFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) die("cannot write " + path);
}

// ---- Inputs ------------------------------------------------------------

struct Input {
  std::string name;
  std::vector<std::string> flags;  // as the CLI receives them
  std::vector<std::string> cold;
  std::vector<std::string> edited;
  /// The files and flags as the daemon last served them (cache-lookup
  /// probes).
  std::vector<std::string> lookup;
  std::vector<std::string> lookup_flags;
};

/// Applies the CLI flags the workloads use to driver options; anything
/// else is a spec error, so the traced run can never silently analyze
/// under a different configuration than the timed CLI runs.
safeflow::SafeFlowOptions optionsFor(const std::vector<std::string>& flags) {
  safeflow::SafeFlowOptions options;
  for (std::size_t i = 0; i < flags.size(); ++i) {
    if (flags[i] == "-I" && i + 1 < flags.size()) {
      options.include_dirs.push_back(flags[++i]);
    } else if (flags[i] == "--kill-critical") {
      options.taint.implicit_critical_calls.emplace_back("kill", 0u);
    } else {
      die("unsupported flag in spec: " + flags[i]);
    }
  }
  return options;
}

std::vector<std::string> stringList(const json::Value& v, const char* key) {
  std::vector<std::string> out;
  const json::Value* arr = v.find(key);
  if (arr == nullptr || !arr->isArray()) die(std::string("spec lacks ") + key);
  for (const json::Value& s : arr->array) out.push_back(s.stringOr({}));
  return out;
}

// ---- The traced pipeline ----------------------------------------------

/// Work counters read from the registry the traced run installs.
constexpr const char* kCounters[] = {
    "frontend.tokens",          "ssa.phis_inserted",
    "ranges.function_analyses", "shm_propagation.iterations",
    "pointsto.worklist_iterations",
    "alias.points_to_edges",
    "taint.body_analyses",      "taint.sweep_rounds",
};

struct PipelineRun {
  std::string rendered;
  std::map<std::string, std::uint64_t> counters;
  safeflow::SummaryStoreStats store_stats;
  std::uint64_t store_entries = 0;
  std::uint64_t store_bytes = 0;
};

/// SafeFlowDriver::analyze()'s sequence, one span per layer call. With a
/// store, the three interprocedural phases get their memo seams exactly
/// as the driver wires them.
PipelineRun tracedPipeline(const Input& in,
                           const std::vector<std::string>& files,
                           safeflow::SummaryStore* store) {
  namespace analysis = safeflow::analysis;
  namespace ir = safeflow::ir;
  const safeflow::SafeFlowOptions options = optionsFor(in.flags);
  safeflow::support::MetricsRegistry registry;
  safeflow::support::PipelineObserver observer;
  observer.metrics = &registry;
  const safeflow::support::ScopedObserver install(&observer);
  safeflow::support::AnalysisBudget budget(options.budget);
  PipelineRun run;

  const ScopedSpan root("pipeline");
  budget.start();
  std::optional<safeflow::cfront::Frontend> frontend;
  {
    const ScopedSpan span("frontend");
    frontend.emplace(options.include_dirs);
    for (const std::string& f : files) {
      if (!frontend->parseFile(f)) die("frontend failed on " + f);
    }
  }
  auto& diags = frontend->diagnostics();
  std::optional<ir::Module> module;
  {
    const ScopedSpan span("lowering");
    module.emplace(frontend->types());
    ir::Lowering lowering(frontend->unit(), *module, diags);
    if (!lowering.run()) die("lowering failed on " + in.name);
  }
  {
    const ScopedSpan span("ssa");
    ir::promoteModuleToSsa(*module);
  }
  std::optional<analysis::ShmRegionTable> regions;
  {
    const ScopedSpan span("shm_regions");
    regions.emplace(analysis::ShmRegionTable::build(*module, diags));
  }
  std::optional<ir::CallGraph> callgraph;
  {
    const ScopedSpan span("callgraph");
    callgraph.emplace(*module);
  }
  std::optional<analysis::ModuleIndex> index;
  analysis::PhaseMemoHooks shm_memo, ranges_memo, taint_memo;
  if (store != nullptr) {
    const ScopedSpan span("summary_store");
    index.emplace(*module);
    // Any fixed fingerprint works: the store is private to this run.
    store->beginRun(analysis::computeFunctionKeys(
        *module, *callgraph,
        std::string(safeflow::kAnalyzerVersion) + "|perfbench"));
    shm_memo = {store->bank(safeflow::SummaryPhase::kShm), &*index};
    ranges_memo = {store->bank(safeflow::SummaryPhase::kRanges), &*index};
    taint_memo = {store->bank(safeflow::SummaryPhase::kTaint), &*index};
  }
  std::optional<analysis::RangeAnalysis> ranges;
  {
    const ScopedSpan span("ranges");
    ranges.emplace(*module, *callgraph, options.ranges, &budget,
                   ranges_memo);
    ranges->run();
  }
  std::optional<analysis::ShmPointerAnalysis> shm;
  {
    const ScopedSpan span("shm_propagation");
    shm.emplace(*module, *regions, *callgraph, &budget, shm_memo);
    shm->run();
  }
  analysis::SafeFlowReport report;
  {
    const ScopedSpan span("restrictions");
    analysis::RestrictionChecker restrictions(
        *module, *regions, *shm, options.restrictions, &budget, &*ranges);
    report.restriction_violations = restrictions.run(diags);
  }
  std::optional<analysis::AliasAnalysis> alias;
  {
    const ScopedSpan span("pointsto");
    alias.emplace(*module, *regions, *callgraph, options.alias, &budget);
    alias->run();
  }
  {
    // The driver runs this ranges consumer between alias and taint; its
    // findings are restriction violations, so it is charged there.
    const ScopedSpan span("restrictions");
    analysis::checkShmConstBounds(*module, *regions, *shm, *alias, *ranges,
                                  report, diags);
  }
  {
    const ScopedSpan span("taint");
    analysis::TaintAnalysis taint(*module, *regions, *shm, *alias,
                                  *callgraph, options.taint, &budget,
                                  &*ranges, taint_memo);
    taint.run(report);
  }
  if (store != nullptr) {
    const ScopedSpan span("summary_store");
    store->finishRun();
    if (!store->flush()) die("summary store flush failed");
    run.store_stats = store->stats();
    run.store_entries = store->residentEntries();
    run.store_bytes = store->diskBytes();
  }
  {
    const ScopedSpan span("report");
    report.deduplicate(frontend->sources());
    run.rendered = report.render(frontend->sources());
  }
  if (budget.anyDegraded()) die("analysis degraded on " + in.name);
  for (const char* name : kCounters) {
    run.counters[name] = registry.counterValue(name);
  }
  return run;
}

/// The reference: SafeFlowDriver's own report for the same files. Timed
/// like the traced pipeline, teardown included.
std::string driverReport(const Input& in,
                         const std::vector<std::string>& files,
                         double* seconds) {
  std::string rendered;
  const auto t0 = Clock::now();
  {
    safeflow::SafeFlowDriver driver(optionsFor(in.flags));
    for (const std::string& f : files) {
      if (!driver.addFile(f)) die("driver frontend failed on " + f);
    }
    rendered = driver.analyze().render(driver.sources());
  }
  *seconds = secondsBetween(t0, Clock::now());
  return rendered;
}

// ---- JSON output ------------------------------------------------------

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

template <typename Map>
std::string object(const Map& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += quote(k) + ": " + number(static_cast<double>(v));
  }
  return out + "}";
}

// ---- Modes --------------------------------------------------------------

int gen(const std::string& workload, const std::string& out) {
  // Sizes follow the workload rationale in perfbench/README.md.
  if (workload == "taint_cycles") {
    writeFile(out, safeflow::bench::accumulatorCycleProgram(60, 48));
  } else if (workload == "pointer_churn") {
    writeFile(out, safeflow::bench::pointerChurnProgram(200, 16));
  } else {
    die("no generator for workload " + workload);
  }
  return 0;
}

enum OpKind { kCold = 0, kPrime = 1, kEdit = 2 };

/// One traced run per process, in a directory of its own: the taint
/// layer's allocation count depends on heap layout, so counts repeat
/// exactly only across runs with the same heap history.
int trace(const std::string& spec_path, const std::string& out_dir) {
  json::Value spec;
  std::string error;
  if (!json::parse(readFile(spec_path), &spec, &error)) die(error);
  const std::string safeflow_exe = spec.memberString("safeflow");
  const std::string cache_dir = spec.memberString("cache_dir");
  if (safeflow_exe.empty() || cache_dir.empty()) {
    die("spec needs safeflow and cache_dir");
  }
  if (!fs::create_directory(out_dir)) die(out_dir + " already exists");
  std::vector<Input> inputs;
  if (const json::Value* arr = spec.find("inputs"); arr && arr->isArray()) {
    for (const json::Value& v : arr->array) {
      inputs.push_back({v.memberString("name"), stringList(v, "flags"),
                        stringList(v, "cold"), stringList(v, "edited"),
                        stringList(v, "lookup"),
                        stringList(v, "lookup_flags")});
    }
  }
  if (inputs.empty()) die("spec has no inputs");

  std::vector<Span> spans;
  spans.reserve(kMaxSpans);
  g_spans = &spans;

  std::vector<int> op_kind;
  std::vector<std::string> mismatches;
  std::map<std::string, std::uint64_t> counters;
  safeflow::SummaryStoreStats edit_stats;
  std::uint64_t store_entries = 0, store_bytes = 0;
  double recover_s = 0.0, driver_s = 0.0;
  for (const Input& in : inputs) {
    const std::string store_dir = out_dir + "/store-" + in.name;

    g_op = static_cast<int>(op_kind.size());
    op_kind.push_back(kCold);
    const PipelineRun cold = tracedPipeline(in, in.cold, nullptr);
    for (const auto& [k, v] : cold.counters) counters[k] += v;
    double seconds = 0.0;
    if (driverReport(in, in.cold, &seconds) != cold.rendered) {
      mismatches.push_back(in.name + "/cold");
    }
    driver_s += seconds;

    {
      g_op = static_cast<int>(op_kind.size());
      op_kind.push_back(kPrime);
      safeflow::SummaryStore store(store_dir, safeflow::kAnalyzerVersion);
      store.recoverDir();
      (void)tracedPipeline(in, in.cold, &store);
    }

    // A fresh store object on the primed directory, as a daemon worker
    // process opens it for every request.
    g_op = static_cast<int>(op_kind.size());
    op_kind.push_back(kEdit);
    safeflow::SummaryStore store(store_dir, safeflow::kAnalyzerVersion);
    const auto t0 = Clock::now();
    {
      const ScopedSpan span("summary_store.recover");
      store.recoverDir();
    }
    recover_s += secondsBetween(t0, Clock::now());
    const PipelineRun edit = tracedPipeline(in, in.edited, &store);
    if (driverReport(in, in.edited, &seconds) != edit.rendered) {
      mismatches.push_back(in.name + "/edited");
    }
    edit_stats.hits += edit.store_stats.hits;
    edit_stats.misses += edit.store_stats.misses;
    edit_stats.spliced += edit.store_stats.spliced;
    store_entries += edit.store_entries;
    store_bytes += edit.store_bytes;
    g_op = -1;
  }

  // Self time = span time minus the time its direct children cover
  // (children nest strictly inside their parent on this one thread).
  // Layer figures come from the cold ops, store figures from the edits.
  std::vector<double> child_s(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] +=
          secondsBetween(s.start, s.end);
    }
  }
  std::map<std::string, double> self_s;
  std::map<std::string, std::uint64_t> allocs, alloc_bytes;
  double total_s = 0.0, self_sum = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (op_kind[static_cast<std::size_t>(s.op)] != kCold) continue;
    const double self = secondsBetween(s.start, s.end) - child_s[i];
    self_s[s.name] += self;
    allocs[s.name] += s.allocs;
    alloc_bytes[s.name] += s.alloc_bytes;
    self_sum += self;
    if (s.parent < 0) total_s += secondsBetween(s.start, s.end);
  }

  // Daemon-side layers timed from outside: a cache lookup as one warm
  // request pays it (fresh manager, per-file keys, envelope check), and
  // one worker spawn through the supervisor's subprocess runner.
  constexpr int kProbes = 5;
  std::vector<double> lookup_ms, spawn_ms;
  for (int i = 0; i < kProbes; ++i) {
    for (const Input& in : inputs) {
      const auto t0 = Clock::now();
      safeflow::CacheOptions cache_options;
      cache_options.enabled = true;
      cache_options.dir = cache_dir;
      cache_options.include_dirs = optionsFor(in.lookup_flags).include_dirs;
      cache_options.analysis_flags = in.lookup_flags;
      cache_options.verify_on_open = false;
      safeflow::CacheManager cache(cache_options, nullptr);
      for (const std::string& f : in.lookup) {
        (void)cache.lookup(cache.keyFor({f}));
      }
      lookup_ms.push_back(secondsBetween(t0, Clock::now()) * 1e3);
    }
    const auto t0 = Clock::now();
    const auto spawned =
        safeflow::support::runSubprocess({safeflow_exe, "--version"});
    spawn_ms.push_back(secondsBetween(t0, Clock::now()) * 1e3);
    if (spawned.status !=
            safeflow::support::SubprocessResult::Status::kExited ||
        spawned.exit_code != 0) {
      die("worker spawn probe failed");
    }
  }

  std::ostringstream spans_out;
  spans_out << "[";
  const Clock::time_point epoch =
      spans.empty() ? Clock::now() : spans.front().start;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    spans_out << (i == 0 ? "" : ",\n") << "{\"name\": " << quote(s.name)
              << ", \"start_s\": " << number(secondsBetween(epoch, s.start))
              << ", \"end_s\": " << number(secondsBetween(epoch, s.end))
              << ", \"parent\": " << s.parent << ", \"op\": " << s.op
              << ", \"allocs\": " << s.allocs
              << ", \"alloc_bytes\": " << s.alloc_bytes << "}";
  }
  spans_out << "]\n";
  g_spans = nullptr;
  writeFile(out_dir + "/spans.json", spans_out.str());

  const std::uint64_t probes = edit_stats.hits + edit_stats.misses;
  std::ostringstream out;
  out << "{\"self_s\": " << object(self_s)
      << ", \"allocs\": " << object(allocs)
      << ", \"alloc_bytes\": " << object(alloc_bytes)
      << ", \"counters\": " << object(counters)
      << ", \"pipeline_total_s\": " << number(total_s)
      << ", \"self_sum_s\": " << number(self_sum)
      << ", \"driver_s\": " << number(driver_s)
      << ", \"summary_store\": {\"recover_s\": " << number(recover_s)
      << ", \"hit_ratio\": "
      << number(probes == 0 ? 0.0
                            : static_cast<double>(edit_stats.hits) /
                                  static_cast<double>(probes))
      << ", \"spliced\": " << edit_stats.spliced
      << ", \"entries\": " << store_entries
      << ", \"bytes\": " << store_bytes << "}, \"mismatches\": [";
  for (std::size_t i = 0; i < mismatches.size(); ++i) {
    out << (i == 0 ? "" : ", ") << quote(mismatches[i]);
  }
  out << "], \"cache_lookup_ms\": [";
  for (std::size_t i = 0; i < lookup_ms.size(); ++i) {
    out << (i == 0 ? "" : ", ") << number(lookup_ms[i]);
  }
  out << "], \"spawn_ms\": [";
  for (std::size_t i = 0; i < spawn_ms.size(); ++i) {
    out << (i == 0 ? "" : ", ") << number(spawn_ms[i]);
  }
  out << "]}\n";
  std::cout << out.str();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 3 && args[0] == "gen") return gen(args[1], args[2]);
  if (args.size() == 3 && args[0] == "trace") return trace(args[1], args[2]);
  std::cerr << "usage: sfbench gen <workload> <out.c>\n"
               "       sfbench trace <spec.json> <out-dir>\n";
  return 2;
}
