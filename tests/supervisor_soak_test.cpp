// Fault-injection soak for the analysis supervisor: many iterations of
// randomized fault kind / pipeline phase / targeted input / retry
// budget, asserting the supervisor itself never crashes, the dead
// worker is classified with the right attempt count, and its output
// never looks like a clean run: no findings summary, exit 2, and the
// failure named on stderr.
//
// Iteration count defaults low so the suite stays fast locally; CI sets
// SAFEFLOW_SOAK_ITERS=200 for the long soak. The random stream is a
// seeded LCG, so a given iteration count is fully reproducible.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "safeflow/supervisor.h"
#include "support/metrics.h"

namespace {

using namespace safeflow;

const std::string kCorpus = SAFEFLOW_CORPUS_DIR;

/// Deterministic 64-bit LCG (MMIX constants) — no std::random so runs
/// are identical across libstdc++ versions.
struct Lcg {
  std::uint64_t state;
  explicit Lcg(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 17;
  }
  std::size_t below(std::size_t n) { return n == 0 ? 0 : next() % n; }
};

std::size_t soakIterations() {
  if (const char* env = std::getenv("SAFEFLOW_SOAK_ITERS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 12;
}

TEST(SupervisorSoak, RandomizedFaultsNeverTakeDownTheSupervisor) {
  const std::vector<std::string> files = {
      kCorpus + "/ip/core/comm.c",      kCorpus + "/ip/core/decision.c",
      kCorpus + "/ip/core/filter.c",    kCorpus + "/ip/core/main.c",
      kCorpus + "/ip/core/safety.c",    kCorpus + "/ip/core/selftest.c",
      kCorpus + "/ip/core/telemetry.c",
  };
  // Fault menu: `hang` rides on a short watchdog so soak time stays
  // bounded; the others die instantly.
  const char* kinds[] = {"crash", "oom", "exit2", "hang"};
  const char* phases[] = {"frontend", "lowering",     "ssa",
                          "callgraph", "shm_propagation", "ranges",
                          "taint",     "report"};

  // Fault-free baseline: the worker's relayed output is the report.
  {
    SupervisorOptions opts;
    opts.worker_exe = SAFEFLOW_EXE;
    support::MetricsRegistry registry;
    const SupervisedRun clean = Supervisor(opts, &registry).run(files);
    ASSERT_FALSE(clean.failure.has_value());
    ASSERT_NE(clean.output.stdout_text.find("warning(s)"), std::string::npos);
  }

  Lcg rng(0x5afef10e);
  const std::size_t iters = soakIterations();
  for (std::size_t iter = 0; iter < iters; ++iter) {
    const char* kind = kinds[rng.below(4)];
    const char* phase = phases[rng.below(8)];
    const std::string& target = files[rng.below(files.size())];
    const bool hang = std::string(kind) == "hang";
    const bool exit2 = std::string(kind) == "exit2";

    SupervisorOptions opts;
    opts.worker_exe = SAFEFLOW_EXE;
    opts.json = rng.below(2) == 1;
    opts.backoff_base_seconds = 0.001;
    // Hangs burn the full watchdog per attempt; keep both short.
    opts.max_retries = hang ? 0 : static_cast<int>(rng.below(3));
    opts.worker_timeout_seconds = hang ? 2.0 : 30.0;
    opts.extra_env = {
        {"SAFEFLOW_INJECT_FAULT", std::string(kind) + "@" + phase},
        {"SAFEFLOW_INJECT_FAULT_FILE", target},
    };

    support::MetricsRegistry registry;
    Supervisor sup(opts, &registry);
    const SupervisedRun run = sup.run(files);

    SCOPED_TRACE("iter " + std::to_string(iter) + ": " + kind + "@" +
                 phase + " -> " + target +
                 (opts.json ? " --json" : ""));
    // The one worker died, with the right classification.
    ASSERT_TRUE(run.failure.has_value());
    // A deterministic exit 2 is never retried; crash/oom/hang use the
    // full retry budget.
    EXPECT_EQ(run.failure->attempts, exit2 ? 1 : 1 + opts.max_retries);
    // A dead worker never looks like a clean run.
    EXPECT_EQ(run.output.exit_code, 2);
    EXPECT_EQ(run.output.stdout_text.find("warning(s)"), std::string::npos);
    EXPECT_NE(run.output.stderr_text.find("analysis worker failed"),
              std::string::npos);
    if (opts.json) {
      EXPECT_NE(run.output.stdout_text.find("\"worker_failures\""),
                std::string::npos);
    } else {
      EXPECT_TRUE(run.output.stdout_text.empty());
    }
  }

  // After the whole soak: every child reaped, no zombies left behind.
  errno = 0;
  const pid_t reaped = ::waitpid(-1, nullptr, WNOHANG);
  EXPECT_TRUE(reaped == -1 && errno == ECHILD)
      << "zombie child survived the soak";
}

}  // namespace
