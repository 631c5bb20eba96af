// Value numbering: every value a promoted module owns has one dense id
// (ir::Value::id), functions own contiguous id ranges whose offsets are
// the cross-run positions memo blobs use, and no analysis result, IR
// order or call-graph order depends on where the allocator placed the IR.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "analysis/summaries.h"
#include "bench/synthetic.h"
#include "ir/callgraph.h"
#include "ir/printer.h"
#include "safeflow/corpus_info.h"
#include "safeflow/driver.h"

namespace {

using namespace safeflow;

const std::string kCorpus = SAFEFLOW_CORPUS_DIR;

// One analysis input: every corpus system (core files, with its common
// headers and the kill-pid check as for Table 1) or one synthetic buffer.
struct Input {
  std::string name;
  std::vector<std::string> files;
  std::string source;
};

std::vector<Input> corpora() {
  std::vector<Input> inputs;
  for (const auto& dir : std::filesystem::directory_iterator(kCorpus)) {
    Input in;
    in.name = dir.path().filename().string();
    if (std::filesystem::exists(dir.path() / "core.c")) {
      in.files.push_back((dir.path() / "core.c").string());
    } else if (std::filesystem::is_directory(dir.path() / "core")) {
      for (const auto& e :
           std::filesystem::directory_iterator(dir.path() / "core")) {
        if (e.path().extension() == ".c") {
          in.files.push_back(e.path().string());
        }
      }
      std::sort(in.files.begin(), in.files.end());
    }
    if (!in.files.empty()) inputs.push_back(std::move(in));
  }
  std::sort(inputs.begin(), inputs.end(),
            [](const Input& a, const Input& b) { return a.name < b.name; });
  return inputs;
}

std::unique_ptr<SafeFlowDriver> analyze(const Input& in) {
  SafeFlowOptions options = corpusAnalysisOptions();
  const std::filesystem::path common = kCorpus + "/" + in.name + "/common";
  if (std::filesystem::is_directory(common)) {
    options.include_dirs.push_back(common.string());
  }
  auto d = std::make_unique<SafeFlowDriver>(options);
  for (const std::string& f : in.files) EXPECT_TRUE(d->addFile(f)) << f;
  if (in.files.empty()) d->addSource(in.name + ".c", in.source);
  d->analyze();
  EXPECT_FALSE(d->hasFrontendErrors()) << in.name;
  return d;
}

// Everything about one analysis whose order a heap layout could move:
// the reports, the printed SSA IR (phi operand order follows the
// dominator-tree walk), the call graph's SCC order, the summary-store
// keys, and the fixpoint counters of the three interprocedural phases.
struct Fingerprint {
  std::string report;
  std::string json;
  std::string ir;
  std::vector<std::vector<std::string>> sccs;  // function names
  std::vector<std::pair<std::string, std::string>> keys;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

Fingerprint fingerprint(const SafeFlowDriver& d) {
  Fingerprint f;
  f.report = d.report().render(d.sources());
  f.json = d.report().renderJson(d.sources());
  const ir::Module& m = *d.module();
  f.ir = ir::print(m);
  const ir::CallGraph cg(m);
  for (const auto& scc : cg.sccsBottomUp()) {
    std::vector<std::string> names;
    for (const ir::Function* fn : scc) names.push_back(fn->name());
    f.sccs.push_back(std::move(names));
  }
  const analysis::FunctionKeyMap keys =
      analysis::computeFunctionKeys(m, cg, "layout-test");
  for (const auto& fn : m.functions()) {
    if (!keys[fn->index()].empty()) {
      f.keys.emplace_back(fn->name(), keys[fn->index()]);
    }
  }
  for (const auto& [name, value] : d.stats().counters) {
    if (name.starts_with("taint.") || name.starts_with("shm_propagation.") ||
        name.starts_with("ranges.")) {
      f.counters.emplace_back(name, value);
    }
  }
  return f;
}

// Fragments the heap: many chunks of seed-dependent sizes, every other
// one freed. The survivors are returned so the holes stay in place while
// the next analysis allocates into them.
std::vector<std::unique_ptr<char[]>> fragmentHeap(unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::size_t> size(8, 600);
  std::vector<std::unique_ptr<char[]>> chunks;
  for (int i = 0; i < 4000; ++i) {
    chunks.push_back(std::make_unique<char[]>(size(rng)));
  }
  for (std::size_t i = 0; i < chunks.size(); i += 2) chunks[i].reset();
  return chunks;
}

// The id lives in the padding after the kind: vptr, kind + id, type,
// name — numbering adds no resident memory per value.
static_assert(sizeof(ir::Value) ==
              2 * sizeof(void*) + 2 * sizeof(std::uint32_t) +
                  sizeof(std::string));

TEST(ValueIds, DenseUniqueAndPositional) {
  for (const Input& in : corpora()) {
    const auto d = analyze(in);
    const ir::Module& m = *d->module();
    ASSERT_GT(m.valueCount(), 0u) << in.name;
    for (std::uint32_t id = 0; id < m.valueCount(); ++id) {
      ASSERT_NE(m.value(id), nullptr);
      EXPECT_EQ(m.value(id)->id(), id) << in.name;
    }
    const analysis::ModuleIndex index(m);
    std::size_t locals = 0;
    for (const auto& fn : m.functions()) {
      // Functions and blocks are numbered by position.
      EXPECT_EQ(m.functions()[fn->index()].get(), fn.get()) << in.name;
      for (const auto& bb : fn->blocks()) {
        EXPECT_EQ(fn->blocks()[bb->index()].get(), bb.get()) << fn->name();
      }
      // The walk memo positions were defined by: arguments in order,
      // then instructions in block order.
      std::vector<const ir::Value*> walk;
      for (const auto& arg : fn->args()) walk.push_back(arg.get());
      for (const auto& bb : fn->blocks()) {
        for (const auto& inst : bb->instructions()) {
          walk.push_back(inst.get());
        }
      }
      ASSERT_EQ(walk.size(), fn->localCount()) << fn->name();
      locals += walk.size();
      for (std::size_t pos = 0; pos < walk.size(); ++pos) {
        const ir::Value* v = walk[pos];
        EXPECT_EQ(v->id() - fn->firstLocalId(), pos) << fn->name();
        EXPECT_EQ(m.value(v->id()), v);
        if (!fn->isDefined()) continue;
        const auto [owner, at] = index.locate(v);
        EXPECT_EQ(owner, fn.get());
        EXPECT_EQ(index.resolve(fn->name(), at), v) << fn->name();
      }
    }
    // Globals first, then the constant pool, then the locals.
    for (std::size_t i = 0; i < m.globals().size(); ++i) {
      EXPECT_EQ(m.globals()[i]->id(), i);
    }
    ASSERT_FALSE(m.functions().empty());
    EXPECT_EQ(m.functions().front()->firstLocalId(), m.valueCount() - locals)
        << in.name;
  }
}

TEST(TaintGolden, IgnoresHeapAddresses) {
  std::vector<Input> inputs = corpora();
  inputs.push_back({"accumulator_cycle_20_8", {},
                    bench::accumulatorCycleProgram(20, 8)});
  for (const Input& in : inputs) {
    const Fingerprint a = fingerprint(*analyze(in));
    EXPECT_FALSE(a.counters.empty()) << in.name;
    EXPECT_FALSE(a.keys.empty()) << in.name;
    for (unsigned seed = 1; seed <= 6; ++seed) {
      const auto holes = fragmentHeap(seed);
      const Fingerprint b = fingerprint(*analyze(in));
      const std::string where = in.name + ", seed " + std::to_string(seed);
      EXPECT_EQ(a.report, b.report) << where;
      EXPECT_EQ(a.json, b.json) << where;
      EXPECT_EQ(a.ir, b.ir) << where;
      EXPECT_EQ(a.sccs, b.sccs) << where;
      EXPECT_EQ(a.keys, b.keys) << where;
      EXPECT_EQ(a.counters, b.counters) << where;
    }
  }
}

}  // namespace
