// Round-trip tests for the output envelope a worker sends and the cache
// stores (renderRunOutputMembers / decodeRunOutput): every finding
// category, escape-heavy strings covering every byte value, and the
// empty report must come back byte-identical in both renderings, with
// the exit code and stats intact. This is the contract the supervised
// path and the incremental cache rest on — they relay these bytes, so
// anything the envelope loses every entry point loses.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/report.h"
#include "safeflow/cache_manager.h"
#include "safeflow/driver.h"
#include "support/json.h"
#include "support/source_manager.h"

namespace {

using namespace safeflow;

/// Encodes `out` as a worker envelope, parses it back and decodes it —
/// the exact path a supervised run and a cache hit take.
RunOutput roundTrip(const RunOutput& out) {
  const std::string envelope = "{\n  \"safeflow_worker\": 1,\n  " +
                               renderRunOutputMembers(out) + "\n}\n";
  support::json::Value doc;
  std::string err;
  EXPECT_TRUE(support::json::parse(envelope, &doc, &err)) << err;
  RunOutput decoded;
  EXPECT_TRUE(decodeRunOutput(doc, &decoded, &err)) << err;
  return decoded;
}

/// The text and JSON renderings of `report`, each through the envelope.
void expectLossless(const analysis::SafeFlowReport& report,
                    const support::SourceManager& sm,
                    const std::string& stderr_text = {}) {
  SafeFlowStats stats;
  stats.files = 1;
  stats.counters = {{"taint.body_analyses", 3}};
  for (const std::string& rendered :
       {report.render(sm), report.renderJson(sm, stats.renderJson())}) {
    RunOutput out;
    out.stdout_text = rendered;
    out.stderr_text = stderr_text;
    out.exit_code = exitCodeFor(report.dataErrorCount(),
                                !report.failed_files.empty(),
                                !report.degraded_phases.empty());
    out.stats = stats;
    const RunOutput back = roundTrip(out);
    EXPECT_EQ(back.stdout_text, out.stdout_text);
    EXPECT_EQ(back.stderr_text, out.stderr_text);
    EXPECT_EQ(back.exit_code, out.exit_code);
    EXPECT_EQ(back.stats.files, 1u);
    EXPECT_EQ(back.stats.counters, stats.counters);
  }
}

analysis::SafeFlowReport fullReport() {
  analysis::SafeFlowReport report;

  analysis::UnsafeAccessWarning w1;
  w1.function = "control_loop";
  w1.region_name = "telemetry_buf";
  w1.offset_known = true;
  w1.offset_lo = 4;
  w1.offset_hi = 12;
  analysis::UnsafeAccessWarning w2;
  w2.function = "isr_handler";
  w2.region_name = "shared_flags";  // bytes unknown: no "bytes" member
  report.warnings = {w1, w2};

  analysis::CriticalDependencyError data_err;
  data_err.kind = analysis::CriticalDependencyError::Kind::kData;
  data_err.function = "apply_command";
  data_err.critical_value = "thrust_cmd";
  data_err.region_names = {"ground_link", "param_table"};
  data_err.source_loads.resize(2);  // invalid locations -> "<unknown>"
  analysis::CriticalDependencyError ctrl_err;
  ctrl_err.kind = analysis::CriticalDependencyError::Kind::kControl;
  ctrl_err.function = "mode_switch";
  ctrl_err.critical_value = "mode";
  ctrl_err.region_names = {"debug_port"};
  report.errors = {data_err, ctrl_err};

  analysis::RestrictionViolation v;
  v.rule = "R2";
  v.message = "function pointer escapes core";
  report.restriction_violations = {v};

  report.asserts_checked = 7;
  report.required_runtime_checks = {"InitCheck(region 'param_table')"};
  report.degraded_phases = {"taint"};
  report.failed_files = {"bad_input.c"};
  return report;
}

TEST(ReportRoundTrip, AllCategoriesSurviveTheWorkerProtocol) {
  support::SourceManager sm;
  analysis::SafeFlowReport report = fullReport();
  report.deduplicate(sm);  // the driver always dedups before rendering
  const std::string text = report.render(sm);
  ASSERT_NE(text.find("[runtime-check]"), std::string::npos);
  ASSERT_NE(text.find("[partial]"), std::string::npos);
  ASSERT_NE(text.find("DEGRADED"), std::string::npos);
  expectLossless(report, sm, "unit.c:1:1: error: expected ')'\n");
}

TEST(ReportRoundTrip, EscapeHeavyStringsAreLossless) {
  support::SourceManager sm;
  analysis::SafeFlowReport report;

  // Every byte value, NUL and the high half included, in every string
  // field the renderings carry.
  std::string every_byte;
  for (int b = 0; b < 256; ++b) every_byte += static_cast<char>(b);

  analysis::UnsafeAccessWarning w;
  w.function = "fn\"with\\quotes";
  w.region_name = "tab\there\nnewline" + every_byte;
  report.warnings = {w};

  analysis::RestrictionViolation v;
  v.rule = "R1";
  v.message = std::string("ctrl:\x01\x1f end") + "\tand \"both\" \\ kinds";
  report.restriction_violations = {v};

  analysis::CriticalDependencyError e;
  e.function = "f";
  e.critical_value = "value\nwith\nnewlines";
  e.region_names = {"region\\back\\slash", every_byte};
  report.errors = {e};
  report.required_runtime_checks = {"check \"quoted\"\tname"};

  expectLossless(report, sm, "stderr " + every_byte + "\n");
}

TEST(ReportRoundTrip, EmptyReportStaysEmptyAndClean) {
  support::SourceManager sm;
  const analysis::SafeFlowReport report;
  expectLossless(report, sm);

  RunOutput out;
  out.stdout_text = report.render(sm);
  const RunOutput back = roundTrip(out);
  EXPECT_EQ(back.exit_code, 0);
  EXPECT_TRUE(back.stderr_text.empty());
}

TEST(ReportRoundTrip, LocationsResolveThroughTheSourceManager) {
  // With a live source manager the rendered "file:line:col" strings are
  // what crosses the envelope, byte for byte.
  support::SourceManager sm;
  const auto file = sm.addBuffer("unit.c", "int x;\nint y;\n");
  analysis::SafeFlowReport report;
  analysis::UnsafeAccessWarning w;
  w.location = {file, 2, 5};
  w.function = "f";
  w.region_name = "r";
  report.warnings = {w};
  ASSERT_NE(report.render(sm).find("unit.c:2:5"), std::string::npos);
  expectLossless(report, sm);
}

}  // namespace
