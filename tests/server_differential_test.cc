// The server's snapshot-isolation differential proof (ISSUE: concurrent
// reads must be byte-identical to a serial execution of an epoch-consistent
// commit prefix).
//
// Two legs:
//
//  1. Golden corpus: every script in examples/scripts/ runs once on a plain
//     single-caller Session and once through the server with three
//     concurrent sessions (src/server/script_driver.h, which itself asserts
//     all three answers per query are byte-identical). After stripping the
//     server framing (session header/trailer, `[epoch N]` annotations) the
//     two transcripts must be byte-identical — the server executes exactly
//     the serial semantics, concurrency changes nothing.
//
//  2. Generated workloads: >= 20 discrepancy universes replay their
//     PR 6 schema-evolution traces through the commit queue
//     (tests/reference/trace_sweep.h): every published epoch is compared
//     Value-identical against a shadow serial Session and the reference
//     evaluator's materialization of its base, and concurrent
//     readers assert oracle agreement at every step boundary. Zero
//     mismatches required.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/str_util.h"
#include "idl/idl.h"
#include "reference/trace_sweep.h"

namespace idl {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const fs::path& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

// Mirrors golden_corpus_test's plain run: fresh Session, same universe
// setup as idl_shell, statements applied serially.
std::string RunPlain(const std::string& script, bool name_mappings) {
  Session session;
  const std::string spec = [](const std::string& s) {
    const std::string directive = "% workload: ";
    size_t at = s.find(directive);
    if (at == std::string::npos) return std::string();
    size_t start = at + directive.size();
    size_t end = s.find('\n', start);
    return s.substr(start,
                    end == std::string::npos ? std::string::npos : end - start);
  }(script);
  if (!spec.empty()) {
    auto config = ParseWorkloadSpec(spec);
    EXPECT_TRUE(config.ok()) << config.status().ToString();
    DiscrepancyUniverse workload = GenerateDiscrepancyUniverse(*config);
    for (const auto& tenant : workload.tenants) {
      EXPECT_TRUE(session
                      .RegisterDatabase(tenant.name,
                                        workload.BuildTenantDatabase(tenant))
                      .ok());
    }
    EXPECT_TRUE(session.DefineRules(workload.UnificationRules()).ok());
  } else {
    PaperUniverse paper = MakePaperUniverse(name_mappings);
    for (const auto& field : paper.universe.fields()) {
      EXPECT_TRUE(session.RegisterDatabase(field.name, field.value).ok());
    }
  }
  std::string out;
  auto statements = ParseStatements(script);
  EXPECT_TRUE(statements.ok());
  if (!statements.ok()) return out;
  for (const auto& statement : *statements) {
    switch (statement.kind) {
      case Statement::Kind::kQuery: {
        std::string text = ToString(statement.query);
        out += StrCat(text, "\n");
        if (session.IsUpdateRequest(statement.query)) {
          auto r = session.Update(text);
          if (!r.ok()) {
            return StrCat(out, "  error: ", r.status().ToString(), "\n");
          }
          out += StrCat("  ok: ", r->counts.Total(), " change(s), ",
                        r->bindings, " binding(s)\n\n");
        } else {
          auto a = session.Query(text);
          if (!a.ok()) {
            return StrCat(out, "  error: ", a.status().ToString(), "\n");
          }
          out += StrCat(a->ToTable(), "\n");
        }
        break;
      }
      case Statement::Kind::kRule: {
        std::string text = ToString(statement.rule);
        Status st = session.DefineRule(text);
        out += StrCat("rule    ", text, "  [",
                      st.ok() ? "ok" : st.ToString(), "]\n");
        if (!st.ok()) return out;
        break;
      }
      case Statement::Kind::kProgramClause: {
        std::string text = ToString(statement.clause);
        Status st = session.DefineProgram(text);
        out += StrCat("program ", text, "  [",
                      st.ok() ? "ok" : st.ToString(), "]\n");
        if (!st.ok()) return out;
        break;
      }
    }
  }
  return out;
}

// The same script through the server with `num_sessions` concurrent
// sessions; returns the raw driver transcript (framing included).
std::string RunServer(const std::string& script, bool name_mappings,
                      size_t num_sessions) {
  Server server;
  const std::string spec = [](const std::string& s) {
    const std::string directive = "% workload: ";
    size_t at = s.find(directive);
    if (at == std::string::npos) return std::string();
    size_t start = at + directive.size();
    size_t end = s.find('\n', start);
    return s.substr(start,
                    end == std::string::npos ? std::string::npos : end - start);
  }(script);
  if (!spec.empty()) {
    auto config = ParseWorkloadSpec(spec);
    EXPECT_TRUE(config.ok()) << config.status().ToString();
    DiscrepancyUniverse workload = GenerateDiscrepancyUniverse(*config);
    for (const auto& tenant : workload.tenants) {
      EXPECT_TRUE(server
                      .RegisterDatabase(tenant.name,
                                        workload.BuildTenantDatabase(tenant))
                      .ok());
    }
    EXPECT_TRUE(server.DefineRules(workload.UnificationRules()).ok());
  } else {
    PaperUniverse paper = MakePaperUniverse(name_mappings);
    for (const auto& field : paper.universe.fields()) {
      EXPECT_TRUE(server.RegisterDatabase(field.name, field.value).ok());
    }
  }
  auto result = RunServerScript(&server, script, num_sessions);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result->transcript : "";
}

TEST(ServerDifferential, CorpusScriptsMatchSerialExecution) {
  const fs::path scripts_dir = fs::path(IDL_REPO_DIR) / "examples/scripts";
  std::vector<fs::path> scripts;
  for (const auto& entry : fs::directory_iterator(scripts_dir)) {
    if (entry.path().extension() == ".idl") scripts.push_back(entry.path());
  }
  std::sort(scripts.begin(), scripts.end());
  ASSERT_GE(scripts.size(), 9u);

  for (const auto& script_path : scripts) {
    SCOPED_TRACE(script_path.filename().string());
    std::string script = ReadFile(script_path);
    // governor_divergent needs its max-passes budget to terminate; the
    // corpus test pins its transcript, skip it here.
    if (script.find("% max-passes:") != std::string::npos) continue;
    bool name_mappings =
        script.find("% universe: name-mappings") != std::string::npos;

    std::string serial = RunPlain(script, name_mappings);
    std::string concurrent = RunServer(script, name_mappings, 3);

    // Strip the framing: header/trailer lines and [epoch N] annotations.
    std::string stripped;
    size_t start = 0;
    while (start < concurrent.size()) {
      size_t end = concurrent.find('\n', start);
      if (end == std::string::npos) end = concurrent.size() - 1;
      std::string line = concurrent.substr(start, end - start + 1);
      start = end + 1;
      if (line.rfind("server sessions=", 0) == 0) continue;
      if (size_t at = line.find(" [epoch "); at != std::string::npos) {
        size_t close = line.find(']', at);
        ASSERT_NE(close, std::string::npos) << line;
        line.erase(at, close - at + 1);
      }
      stripped += line;
    }
    EXPECT_EQ(stripped, serial)
        << "concurrent server transcript diverges from serial execution";
  }
}

TEST(ServerDifferential, TraceSweepTwentyUniversesZeroMismatches) {
  // Varied shapes so the commit queue sees every discrepancy style and the
  // trace generator's full request vocabulary (value flips, attribute and
  // relation creation/drops, mangled tenants).
  std::vector<DiscrepancyConfig> configs;
  for (size_t i = 0; i < 20; ++i) {
    DiscrepancyConfig config;
    config.seed = 301 + i;
    config.num_tenants = 2 + i % 3;
    config.num_entities = 3 + i % 2;
    config.num_keys = 2 + i % 2;
    config.fact_density = 0.45 + 0.1 * static_cast<double>(i % 4);
    config.mangle_rate = (i % 3) * 0.5;
    config.customized_views = i % 4 != 3;
    configs.push_back(config);
  }
  ServerSweepOptions options;
  options.trace_steps = 4;
  options.trace_salt = 7;
  options.reader_sessions = 3;
  ServerSweepReport report = RunServerTraceSweep(configs, options);
  std::cout << FormatServerSweepReport(report);
  std::string details;
  for (const auto& m : report.mismatches) details += "  " + m + "\n";
  EXPECT_TRUE(report.ok()) << details;
  EXPECT_EQ(report.universes, 20u);
  EXPECT_EQ(report.steps, 20u * 4u);
  EXPECT_GT(report.commits, report.steps);  // steps emit several requests
  EXPECT_EQ(report.serial_checks, report.commits + report.universes);
  EXPECT_GE(report.reader_checks,
            options.reader_sessions * (report.steps + report.universes));
}

}  // namespace
}  // namespace idl
