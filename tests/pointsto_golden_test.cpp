// Golden points-to sets for the Andersen solver. Each input is lowered,
// solved, and dumped one line per value that points somewhere: the
// value's cross-run stable name (owner function and position from
// ModuleIndex, or @name for globals) mapped to the sorted describe()
// names of its expanded points-to set. The dumps are compared against
// tests/golden/pointsto/<input>.txt, so any change in what a pointer may
// reach — field cells, union overlap, cycle collapse, the degraded
// widening — shows up as a diff. After an intended precision change, take
// the new dump from the failure output and commit it as the golden.
//
// The last test solves the same source twice in one process, from two
// separately built modules, and requires identical interned result
// pools: pool contents must never depend on heap addresses.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/alias.h"
#include "analysis/shm_regions.h"
#include "analysis/summaries.h"
#include "bench/synthetic.h"
#include "cfront/frontend.h"
#include "ir/callgraph.h"
#include "ir/lowering.h"
#include "ir/ssa.h"
#include "support/limits.h"

namespace {

using namespace safeflow;

const std::string kCorpus = SAFEFLOW_CORPUS_DIR;
const std::string kGoldenDir = SAFEFLOW_GOLDEN_DIR;

struct Pipeline {
  std::unique_ptr<cfront::Frontend> fe;
  std::unique_ptr<ir::Module> module;
  std::unique_ptr<ir::CallGraph> callgraph;
  analysis::ShmRegionTable regions;
};

// Either every `.c` file of a corpus directory (sorted) or one source
// buffer.
struct Input {
  std::vector<std::string> files;
  std::string source;
};

Input corpusSystem(const std::string& sys) {
  Input in;
  const std::filesystem::path single = kCorpus + "/" + sys + "/core.c";
  if (std::filesystem::exists(single)) {
    in.files.push_back(single.string());
    return in;
  }
  for (const auto& e :
       std::filesystem::directory_iterator(kCorpus + "/" + sys + "/core")) {
    if (e.path().extension() == ".c") in.files.push_back(e.path().string());
  }
  std::sort(in.files.begin(), in.files.end());
  return in;
}

Input synthetic(std::string source) {
  Input in;
  in.source = std::move(source);
  return in;
}

Pipeline build(const Input& in) {
  Pipeline p;
  p.fe = std::make_unique<cfront::Frontend>();
  if (in.files.empty()) {
    EXPECT_TRUE(p.fe->parseBuffer("synthetic.c", in.source));
  }
  for (const std::string& f : in.files) EXPECT_TRUE(p.fe->parseFile(f)) << f;
  p.module = std::make_unique<ir::Module>(p.fe->types());
  ir::Lowering lowering(p.fe->unit(), *p.module, p.fe->diagnostics());
  EXPECT_TRUE(lowering.run());
  ir::promoteModuleToSsa(*p.module);
  p.regions =
      analysis::ShmRegionTable::build(*p.module, p.fe->diagnostics());
  p.callgraph = std::make_unique<ir::CallGraph>(*p.module);
  return p;
}

std::string dump(const Pipeline& p, const analysis::AliasAnalysis& solver) {
  const analysis::ModuleIndex index(*p.module);
  std::ostringstream out;
  const auto line = [&](const std::string& name, const ir::Value* v) {
    const auto& pts = solver.pointsTo(v);
    if (pts.empty()) return;
    std::vector<std::string> names;
    for (const analysis::ObjId o : pts) names.push_back(solver.describe(o));
    std::sort(names.begin(), names.end());
    out << name << " ->";
    for (const std::string& n : names) out << " " << n;
    out << "\n";
  };
  for (const auto& g : p.module->globals()) line("@" + g->name(), g.get());
  for (const auto& fn : p.module->functions()) {
    for (int i = 0; const ir::Value* v = index.resolve(fn->name(), i); ++i) {
      line(fn->name() + "#" + std::to_string(i), v);
    }
  }
  return out.str();
}

void checkGolden(const std::string& name, const Input& in,
                 support::AnalysisBudget* budget = nullptr) {
  const Pipeline p = build(in);
  analysis::AliasAnalysis solver(*p.module, p.regions, *p.callgraph, {},
                                 budget);
  solver.run();
  EXPECT_EQ(solver.degraded(), budget != nullptr);
  const std::string got = dump(p, solver);
  ASSERT_FALSE(got.empty());
  const std::string path = kGoldenDir + "/" + name + ".txt";
  std::ifstream f(path);
  ASSERT_TRUE(f.good()) << "missing golden " << path;
  std::stringstream want;
  want << f.rdbuf();
  EXPECT_EQ(got, want.str()) << "points-to sets changed for " << name;
}

TEST(PointsToGolden, RunningExample) {
  checkGolden("running_example", corpusSystem("running_example"));
}
TEST(PointsToGolden, Ip) { checkGolden("ip", corpusSystem("ip")); }
TEST(PointsToGolden, GenericSimplex) {
  checkGolden("generic_simplex", corpusSystem("generic_simplex"));
}
TEST(PointsToGolden, DoubleIp) {
  checkGolden("double_ip", corpusSystem("double_ip"));
}
TEST(PointsToGolden, Rangelab) {
  checkGolden("rangelab", corpusSystem("rangelab"));
}
TEST(PointsToGolden, Pointerlab) {
  checkGolden("pointerlab", corpusSystem("pointerlab"));
}
TEST(PointsToGolden, PointerChurn) {
  checkGolden("pointer_churn_20_4",
              synthetic(bench::pointerChurnProgram(20, 4)));
}
TEST(PointsToGolden, AccumulatorCycle) {
  checkGolden("accumulator_cycle_6_4",
              synthetic(bench::accumulatorCycleProgram(6, 4)));
}

TEST(PointsToGolden, StarvedPointerlabDegrades) {
  // Trips inside constraint generation: every surviving set widens.
  support::BudgetLimits limits;
  limits.phase_steps = 100;
  support::AnalysisBudget budget(limits);
  budget.start();
  checkGolden("pointerlab_starved", corpusSystem("pointerlab"), &budget);
}

TEST(PointsToGolden, PoolIgnoresHeapAddresses) {
  for (const Input& in : {corpusSystem("pointerlab"),
                          synthetic(bench::pointerChurnProgram(20, 4))}) {
    const Pipeline a = build(in);
    // Shift the second module's allocations to other addresses.
    std::vector<std::unique_ptr<char[]>> ballast;
    for (int i = 0; i < 64; ++i) {
      ballast.push_back(std::make_unique<char[]>(48 + 16 * i));
    }
    const Pipeline b = build(in);
    analysis::AliasAnalysis sa(*a.module, a.regions, *a.callgraph);
    analysis::AliasAnalysis sb(*b.module, b.regions, *b.callgraph);
    sa.run();
    sb.run();
    ASSERT_FALSE(sa.pool().empty());
    EXPECT_EQ(sa.pool(), sb.pool());
    EXPECT_EQ(dump(a, sa), dump(b, sb));
    for (const auto& set : sa.pool()) {
      EXPECT_TRUE(std::is_sorted(set.begin(), set.end()));
      EXPECT_EQ(std::adjacent_find(set.begin(), set.end()), set.end());
    }
  }
}

}  // namespace
