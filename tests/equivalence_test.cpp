// Entry-point equivalence: the safe-value-flow property is whole-program
// (each paper system's shminit in one file wires the shared memory that
// other files read), so every way of asking SafeFlow about a file set
// must give the in-process answer. For every corpus this runs the real
// `safeflow` binary through each entry point — in-process, --isolate,
// --connect to a live safeflowd, --cache-dir cold and warm, --cache-dir
// --summaries cold and warm, and --isolate --cache-dir warm — and
// requires stdout and the exit code to match the in-process run exactly,
// in text mode and in --json mode with wall-clock fields stripped. On
// the three paper systems the answer is Table 1 (7/1/2, 7/2/6 and 8/2/2
// warnings / data errors / control-only entries, exit 1).
//
// Also here: an --isolate --dot graph equals the in-process one, and a
// worker that dies never prints a findings summary.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "daemon_test_util.h"
#include "support/subprocess.h"

namespace {

using namespace safeflow;

const std::string kCorpus = SAFEFLOW_CORPUS_DIR;

struct Corpus {
  std::string name;
  std::vector<std::string> files;
  std::vector<std::string> flags;
};

/// The corpus's core/*.c files in name order (the order a shell glob
/// passes them).
std::vector<std::string> coreFiles(const std::string& system) {
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           kCorpus + "/" + system + "/core")) {
    if (entry.path().extension() == ".c") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

Corpus corpusNamed(const std::string& name) {
  Corpus corpus{name, {}, {"--kill-critical"}};
  if (name == "running_example") {
    corpus.files = {kCorpus + "/running_example/core.c"};
  } else {
    corpus.files = coreFiles(name);
    corpus.flags = {"-I", kCorpus + "/" + name + "/common",
                    "--kill-critical"};
  }
  return corpus;
}

std::string scratchPath(const std::string& tag) {
  return ::testing::TempDir() + "sfeq_" + tag + "_" +
         std::to_string(::getpid());
}

support::SubprocessResult runSafeflow(const std::vector<std::string>& args,
                                      const std::vector<std::pair<
                                          std::string, std::string>>& env =
                                          {}) {
  std::vector<std::string> argv = {SAFEFLOW_EXE};
  argv.insert(argv.end(), args.begin(), args.end());
  support::SubprocessOptions opts;
  opts.timeout_seconds = 120.0;
  opts.extra_env = env;
  return support::runSubprocess(argv, opts);
}

/// Drops every line carrying a wall-clock field, so JSON documents
/// compare on their deterministic content.
std::string stripTimes(const std::string& text) {
  std::string out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    if (line.find("seconds") == std::string::npos &&
        line.find("\"gauges\"") == std::string::npos) {
      out += line;
      out += '\n';
    }
    pos = eol + 1;
  }
  return out;
}

/// Drops the embedded "stats" member of a --json report. Summary
/// memoization changes the work counters inside it by design (spliced
/// summaries skip body analyses), never the findings around it.
std::string dropStats(const std::string& text) {
  const std::size_t begin = text.find("\n  \"stats\": {");
  if (begin == std::string::npos) return text;
  const std::size_t end = text.find("\n  }", begin);
  if (end == std::string::npos) return text;
  return text.substr(0, begin) + text.substr(end + 4);
}

class EntryPoints : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    socket_ = scratchPath("sock") + ".sock";
    daemon_ = daemon_test::spawnDaemon(
        {"--socket", socket_, "--no-cache", "--worker-exe", SAFEFLOW_EXE});
    ASSERT_GT(daemon_, 0);
    ASSERT_TRUE(daemon_test::waitForSocket(socket_));
  }
  void TearDown() override {
    if (daemon_ > 0) daemon_test::killDaemon(daemon_);
    const std::string scrub = "rm -rf '" + scratchPath("cache") + "' '" +
                              scratchPath("summaries") + "'";
    (void)std::system(scrub.c_str());
  }

  std::string socket_;
  pid_t daemon_ = -1;
};

TEST_P(EntryPoints, MatchTheInProcessRun) {
  const Corpus corpus = corpusNamed(GetParam());
  ASSERT_FALSE(corpus.files.empty());
  const std::string cache = scratchPath("cache");
  const std::string summaries = scratchPath("summaries");

  struct EntryPoint {
    std::string name;
    std::vector<std::string> args;
    bool memoized;  // runs with the summary store on
  };
  const std::vector<EntryPoint> entry_points = {
      {"--isolate", {"--isolate"}, false},
      {"--connect", {"--connect", socket_}, false},
      {"--cache-dir cold", {"--cache-dir", cache}, false},
      {"--cache-dir warm", {"--cache-dir", cache}, false},
      {"--cache-dir --summaries cold",
       {"--cache-dir", summaries, "--summaries"},
       true},
      {"--cache-dir --summaries warm",
       {"--cache-dir", summaries, "--summaries"},
       true},
      {"--isolate --cache-dir warm", {"--isolate", "--cache-dir", cache},
       false},
  };

  for (const bool json : {false, true}) {
    std::vector<std::string> base = corpus.flags;
    if (json) base.emplace_back("--json");
    std::vector<std::string> ref_args = base;
    ref_args.insert(ref_args.end(), corpus.files.begin(), corpus.files.end());
    const support::SubprocessResult ref = runSafeflow(ref_args);
    ASSERT_EQ(ref.status, support::SubprocessResult::Status::kExited);
    ASSERT_FALSE(ref.out_text.empty()) << ref.err_text;

    for (const EntryPoint& ep : entry_points) {
      SCOPED_TRACE(corpus.name + (json ? " --json " : " ") + ep.name);
      std::vector<std::string> args = ep.args;
      args.insert(args.end(), base.begin(), base.end());
      args.insert(args.end(), corpus.files.begin(), corpus.files.end());
      const support::SubprocessResult got = runSafeflow(args);
      ASSERT_EQ(got.status, support::SubprocessResult::Status::kExited);
      EXPECT_EQ(got.exit_code, ref.exit_code) << got.err_text;
      if (!json) {
        EXPECT_EQ(got.out_text, ref.out_text);
      } else if (ep.memoized) {
        EXPECT_EQ(dropStats(stripTimes(got.out_text)),
                  dropStats(stripTimes(ref.out_text)));
      } else {
        EXPECT_EQ(stripTimes(got.out_text), stripTimes(ref.out_text));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Corpora, EntryPoints,
                         ::testing::Values("running_example", "ip",
                                           "generic_simplex", "double_ip",
                                           "rangelab", "pointerlab"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(EntryPointAnswers, PaperSystemsReportTable1InProcessAndIsolated) {
  struct Row {
    const char* system;
    const char* summary;
  };
  const Row rows[] = {
      {"ip", "safeflow: 7 warning(s), 1 error dependency(ies), "
             "2 control-only"},
      {"generic_simplex", "safeflow: 7 warning(s), 2 error dependency(ies), "
                          "6 control-only"},
      {"double_ip", "safeflow: 8 warning(s), 2 error dependency(ies), "
                    "2 control-only"},
  };
  for (const Row& row : rows) {
    const Corpus corpus = corpusNamed(row.system);
    for (const std::vector<std::string>& mode :
         {std::vector<std::string>{}, std::vector<std::string>{"--isolate"}}) {
      SCOPED_TRACE(std::string(row.system) +
                   (mode.empty() ? " in-process" : " --isolate"));
      std::vector<std::string> args = mode;
      args.emplace_back("--quiet");
      args.insert(args.end(), corpus.flags.begin(), corpus.flags.end());
      args.insert(args.end(), corpus.files.begin(), corpus.files.end());
      const support::SubprocessResult run = runSafeflow(args);
      ASSERT_EQ(run.status, support::SubprocessResult::Status::kExited);
      EXPECT_EQ(run.exit_code, 1) << run.err_text;
      EXPECT_EQ(run.out_text.rfind(row.summary, 0), 0u) << run.out_text;
    }
  }
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(EntryPointAnswers, IsolateDotGraphMatchesInProcess) {
  const Corpus corpus = corpusNamed("generic_simplex");
  const std::string in_process_dot = scratchPath("inproc") + ".dot";
  const std::string isolated_dot = scratchPath("isolated") + ".dot";
  std::vector<std::string> args = corpus.flags;
  args.insert(args.end(), corpus.files.begin(), corpus.files.end());

  std::vector<std::string> in_process = {"--dot", in_process_dot};
  in_process.insert(in_process.end(), args.begin(), args.end());
  std::vector<std::string> isolated = {"--isolate", "--dot", isolated_dot};
  isolated.insert(isolated.end(), args.begin(), args.end());
  const support::SubprocessResult a = runSafeflow(in_process);
  const support::SubprocessResult b = runSafeflow(isolated);
  ASSERT_EQ(a.status, support::SubprocessResult::Status::kExited);
  ASSERT_EQ(b.status, support::SubprocessResult::Status::kExited);
  EXPECT_EQ(b.exit_code, a.exit_code) << b.err_text;
  // The reports match except for the path the graph was written to.
  EXPECT_NE(b.out_text.find("value-flow graph written to " + isolated_dot),
            std::string::npos)
      << b.out_text;
  const std::string graph = readFile(in_process_dot);
  EXPECT_NE(graph.find("digraph"), std::string::npos);
  EXPECT_NE(graph.find("->"), std::string::npos);
  EXPECT_EQ(readFile(isolated_dot), graph);
  ::remove(in_process_dot.c_str());
  ::remove(isolated_dot.c_str());
}

TEST(EntryPointAnswers, DeadWorkerPrintsNoSummaryAndExits2) {
  const Corpus corpus = corpusNamed("ip");
  for (const bool json : {false, true}) {
    SCOPED_TRACE(json ? "--json" : "text");
    std::vector<std::string> args = {"--isolate", "--retries", "0"};
    if (json) args.emplace_back("--json");
    args.insert(args.end(), corpus.flags.begin(), corpus.flags.end());
    args.insert(args.end(), corpus.files.begin(), corpus.files.end());
    const support::SubprocessResult run =
        runSafeflow(args, {{"SAFEFLOW_INJECT_FAULT", "crash@taint"}});
    ASSERT_EQ(run.status, support::SubprocessResult::Status::kExited);
    EXPECT_EQ(run.exit_code, 2);
    // Nothing that reads like a clean (or any) verdict.
    EXPECT_EQ(run.out_text.find("warning(s)"), std::string::npos)
        << run.out_text;
    EXPECT_EQ(run.out_text.find("error dependency"), std::string::npos);
    EXPECT_EQ(run.out_text.find("\"data_errors\""), std::string::npos);
    // The failure is named with its attempt count and phase.
    EXPECT_NE(run.err_text.find("analysis worker failed: SIGSEGV after 1 "
                                "attempt(s), last phase 'taint'"),
              std::string::npos)
        << run.err_text;
    if (json) {
      EXPECT_NE(run.out_text.find("\"flight_recorder\""), std::string::npos);
    } else {
      EXPECT_TRUE(run.out_text.empty()) << run.out_text;
    }
  }
}

}  // namespace
