// Value numbering: every value a promoted module owns has one dense id
// (ir::Value::id), functions own contiguous id ranges whose offsets are
// the cross-run positions memo blobs use, and no analysis result depends
// on where the allocator placed the IR.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "analysis/summaries.h"
#include "bench/synthetic.h"
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

std::vector<std::pair<std::string, std::uint64_t>> taintCounters(
    const SafeFlowDriver& d) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& [name, value] : d.stats().counters) {
    if (name.rfind("taint.", 0) == 0) out.emplace_back(name, value);
  }
  return out;
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
    const auto a = analyze(in);
    // Shift the second run's allocations to other addresses.
    std::vector<std::unique_ptr<char[]>> ballast;
    for (int i = 0; i < 64; ++i) {
      ballast.push_back(std::make_unique<char[]>(48 + 16 * i));
    }
    const auto b = analyze(in);
    EXPECT_EQ(a->report().render(a->sources()),
              b->report().render(b->sources()))
        << in.name;
    EXPECT_EQ(a->report().renderJson(a->sources()),
              b->report().renderJson(b->sources()))
        << in.name;
    const auto counters = taintCounters(*a);
    EXPECT_FALSE(counters.empty()) << in.name;
    EXPECT_EQ(counters, taintCounters(*b)) << in.name;
  }
}

}  // namespace
