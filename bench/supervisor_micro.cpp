// Microbenchmarks for the out-of-process supervisor: what does crash
// isolation cost? Compares in-process analysis against a supervised run
// of the same input — one worker spawn (fork/exec, envelope render and
// reparse) — for a single file and for the whole ip corpus.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "safeflow/driver.h"
#include "safeflow/supervisor.h"
#include "support/metrics.h"

namespace {

using namespace safeflow;

const std::string kCorpus = SAFEFLOW_CORPUS_DIR;

std::vector<std::string> ipCoreFiles() {
  return {
      kCorpus + "/ip/core/comm.c",      kCorpus + "/ip/core/decision.c",
      kCorpus + "/ip/core/filter.c",    kCorpus + "/ip/core/main.c",
      kCorpus + "/ip/core/safety.c",    kCorpus + "/ip/core/selftest.c",
      kCorpus + "/ip/core/telemetry.c",
  };
}

void BM_InProcessSingleFile(benchmark::State& state) {
  const std::string file = kCorpus + "/running_example/core.c";
  for (auto _ : state) {
    SafeFlowDriver driver;
    (void)driver.addFile(file);
    driver.analyze();
    benchmark::DoNotOptimize(driver.report());
  }
}
BENCHMARK(BM_InProcessSingleFile)->Unit(benchmark::kMillisecond);

void BM_SupervisedSingleFile(benchmark::State& state) {
  // The delta vs BM_InProcessSingleFile is the one-worker spawn
  // overhead: fork/exec, pipe capture, envelope render + reparse.
  const std::vector<std::string> files = {kCorpus +
                                          "/running_example/core.c"};
  SupervisorOptions opts;
  opts.worker_exe = SAFEFLOW_EXE;
  for (auto _ : state) {
    support::MetricsRegistry registry;
    Supervisor sup(opts, &registry);
    benchmark::DoNotOptimize(sup.run(files));
  }
}
BENCHMARK(BM_SupervisedSingleFile)->Unit(benchmark::kMillisecond);

void BM_InProcessCorpus(benchmark::State& state) {
  const auto files = ipCoreFiles();
  SafeFlowOptions options;
  options.include_dirs = {kCorpus + "/ip/common"};
  for (auto _ : state) {
    SafeFlowDriver driver(options);
    for (const std::string& f : files) (void)driver.addFile(f);
    driver.analyze();
    benchmark::DoNotOptimize(driver.report());
  }
  state.counters["files"] = static_cast<double>(files.size());
}
BENCHMARK(BM_InProcessCorpus)->Unit(benchmark::kMillisecond);

void BM_SupervisedCorpus(benchmark::State& state) {
  // The whole program in one worker: the delta vs BM_InProcessCorpus is
  // the same one-spawn overhead, independent of the file count.
  const auto files = ipCoreFiles();
  SupervisorOptions opts;
  opts.worker_exe = SAFEFLOW_EXE;
  opts.worker_args = {"-I", kCorpus + "/ip/common"};
  for (auto _ : state) {
    support::MetricsRegistry registry;
    Supervisor sup(opts, &registry);
    benchmark::DoNotOptimize(sup.run(files));
  }
  state.counters["files"] = static_cast<double>(files.size());
}
BENCHMARK(BM_SupervisedCorpus)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
