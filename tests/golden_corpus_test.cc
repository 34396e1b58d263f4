// Golden-corpus harness: runs every script in examples/scripts/ through a
// fresh Session (the same preloaded paper universe and output format as
// examples/idl_shell.cc) and compares the transcript against the checked-in
// golden in tests/golden/. The run also checks the session against the
// reference evaluator (tests/reference/reference.h) after every statement:
// the merged universe must equal the reference's from-scratch
// materialization of the session's base, every pure query's table must
// equal the reference's answer, and a statement the library rejects must be
// rejected by the reference with the same status text — so the corpus
// doubles as an end-to-end differential test through the full
// parse/session/update stack.
//
// Regenerate goldens after an intended behaviour change with:
//   IDL_UPDATE_GOLDENS=1 build/tests/golden_corpus_test
// then review the diff like any other code change.
//
// Script directives (comment lines, read by this harness and by
// examples/idl_shell.cc's ApplyScriptDirectives):
//   % universe: name-mappings   — preload MakePaperUniverse(true)
//   % max-passes: N             — fixpoint pass budget for the resource
//                                 governor, letting the corpus pin the abort
//                                 transcript of an intentionally divergent
//                                 script (governor abort messages carry only
//                                 configured limits, never live counters, so
//                                 the library and the reference produce
//                                 identical text)
//   % trace: text               — additionally run the script with tracing
//                                 on (serially, for a machine-independent
//                                 span tree): the answers must stay
//                                 byte-identical and the golden gains the
//                                 masked trace/analyze/metrics sections
//                                 (docs/OBSERVABILITY.md)
//   % workload: <spec>          — preload a generated multi-tenant
//                                 discrepancy universe (with its unification
//                                 rules pre-defined) instead of the paper
//                                 databases, exactly like idl_shell's
//                                 --workload flag; the transcript starts
//                                 with the same workload/tenant preamble the
//                                 shell prints (docs/WORKLOADS.md)
//   % server-sessions: N        — run the script through an in-process
//                                 Server with N concurrent sessions, exactly
//                                 like `idl_shell --server-sessions=N`: each
//                                 pure query evaluates on all N sessions at
//                                 once and the answers must be
//                                 byte-identical; updates commit through the
//                                 single-writer queue and the transcript
//                                 records the epoch each commit published
//                                 (docs/SERVER.md)
//   % wal:                      — run the script through a *durable* server
//                                 in a fresh temp directory, exactly like
//                                 `idl_shell --wal-dir=DIR`: commits write a
//                                 checksummed write-ahead log before their
//                                 epoch publishes, `% checkpoint-every: N`
//                                 controls snapshot checkpoints, and
//                                 `% crash-at:`/`% crash-after:` stage a
//                                 mid-script kill + recovery whose replay
//                                 report the transcript pins
//                                 (docs/DURABILITY.md)
// A `% server-sessions:` or `% wal:` script's golden is the server's
// transcript; its statements still run once on a plain session for the
// reference checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/str_util.h"
#include "idl/idl.h"
#include "reference/reference.h"

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

// The reference evaluator's materialization of the session's base, under
// the session's materialization budgets.
Result<ReferenceMaterialization> MaterializeReference(const Session& session) {
  IDL_ASSIGN_OR_RETURN(std::vector<Rule> rules,
                       ParseRuleTexts(session.rule_texts()));
  ResourceGovernor governor(GovernorLimitsFrom(session.materialize_options()));
  return ReferenceMaterialize(rules, session.base_universe(), &governor);
}

// The session's merged universe must equal the reference's, or both must
// fail with the same status text.
void ExpectUniverseMatchesReference(Session& session) {
  Result<ReferenceMaterialization> expected = MaterializeReference(session);
  Result<const Value*> actual = session.universe();
  ASSERT_EQ(actual.ok(), expected.ok())
      << "library: " << actual.status().ToString()
      << "\nreference: " << expected.status().ToString();
  if (!actual.ok()) {
    EXPECT_EQ(actual.status().ToString(), expected.status().ToString());
    return;
  }
  EXPECT_EQ(**actual, expected->universe)
      << "merged universe diverges from the reference";
}

// A pure query's outcome must equal the reference's answer over its own
// materialization: the same table, or the same rejection.
void ExpectAnswerMatchesReference(const Session& session, const Query& query,
                                  const Result<Answer>& actual) {
  Result<ReferenceMaterialization> m = MaterializeReference(session);
  Result<Answer> expected =
      m.ok() ? ReferenceQuery(m->universe, query) : Result<Answer>(m.status());
  ASSERT_EQ(actual.ok(), expected.ok())
      << "library: " << actual.status().ToString()
      << "\nreference: " << expected.status().ToString();
  if (!actual.ok()) {
    EXPECT_EQ(actual.status().ToString(), expected.status().ToString());
    return;
  }
  EXPECT_EQ(actual->ToTable(), expected->ToTable())
      << "answer diverges from the reference";
}

// Mirrors examples/idl_shell.cc's Run(), writing the transcript to a string.
// Errors are recorded in the transcript (so a golden can pin down an
// intended error message) and stop the script, exactly like the shell. With
// `check_reference`, every statement is also checked against the reference
// evaluator.
std::string RunStatements(Session& session, const std::string& script,
                          bool check_reference) {
  std::string out;
  auto statements = ParseStatements(script);
  if (!statements.ok()) {
    return StrCat("parse error: ", statements.status().ToString(), "\n");
  }
  for (const auto& statement : *statements) {
    std::string text;
    bool stop = false;
    switch (statement.kind) {
      case Statement::Kind::kQuery: {
        text = ToString(statement.query);
        out += text;
        out += "\n";
        if (session.IsUpdateRequest(statement.query)) {
          auto r = session.Update(text);
          if (!r.ok()) {
            out += StrCat("  error: ", r.status().ToString(), "\n");
            stop = true;
            break;
          }
          out += StrCat("  ok: ", r->counts.Total(), " change(s), ",
                        r->bindings, " binding(s)\n\n");
        } else {
          auto a = session.Query(text);
          if (check_reference) {
            SCOPED_TRACE(text);
            ExpectAnswerMatchesReference(session, statement.query, a);
          }
          if (!a.ok()) {
            out += StrCat("  error: ", a.status().ToString(), "\n");
            stop = true;
            break;
          }
          out += a->ToTable();
          out += "\n";
        }
        break;
      }
      case Statement::Kind::kRule: {
        text = ToString(statement.rule);
        auto st = session.DefineRule(text);
        out += StrCat("rule    ", text, "  [",
                      st.ok() ? "ok" : st.ToString(), "]\n");
        stop = !st.ok();
        break;
      }
      case Statement::Kind::kProgramClause: {
        text = ToString(statement.clause);
        auto st = session.DefineProgram(text);
        out += StrCat("program ", text, "  [",
                      st.ok() ? "ok" : st.ToString(), "]\n");
        stop = !st.ok();
        break;
      }
    }
    if (check_reference) {
      SCOPED_TRACE(StrCat("after ", text));
      ExpectUniverseMatchesReference(session);
    }
    if (stop) return out;
  }
  return out;
}

// Extracts the `% workload: <spec>` directive line, or "" when absent.
std::string WorkloadSpecOf(const std::string& script) {
  const std::string directive = "% workload: ";
  size_t at = script.find(directive);
  if (at == std::string::npos) return "";
  size_t start = at + directive.size();
  size_t end = script.find('\n', start);
  return script.substr(
      start, end == std::string::npos ? std::string::npos : end - start);
}

// Runs `script` against a fresh paper-universe session — or, for a
// `% workload:` script, against its generated discrepancy universe with the
// unification rules pre-defined, prefixing the transcript with the same
// preamble idl_shell prints. Without `trace`, every statement is checked
// against the reference evaluator. With `trace`, the run records a span
// trace and the transcript ends with the three masked observability
// sections, exactly as examples/idl_shell.cc renders a `% trace: text`
// script — the demo golden pins that format.
std::string RunScript(const std::string& script, bool name_mappings,
                      const EvalOptions& materialize_options,
                      bool trace = false) {
  Session session;
  session.set_materialize_options(materialize_options);
  std::string preamble;
  const std::string spec = WorkloadSpecOf(script);
  if (!spec.empty()) {
    auto config = ParseWorkloadSpec(spec);
    EXPECT_TRUE(config.ok()) << config.status().ToString();
    DiscrepancyUniverse workload = GenerateDiscrepancyUniverse(*config);
    preamble = StrCat("workload ", FormatWorkloadSpec(*config), "\n");
    for (const auto& tenant : workload.tenants) {
      preamble += StrCat("  tenant ", tenant.name, ": style=",
                         DiscrepancyStyleName(tenant.style),
                         tenant.mangled ? " (mangled names)" : "", "\n");
      auto st = session.RegisterDatabase(tenant.name,
                                         workload.BuildTenantDatabase(tenant));
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    preamble += "\n";
    auto st = session.DefineRules(workload.UnificationRules());
    EXPECT_TRUE(st.ok()) << st.ToString();
  } else {
    PaperUniverse paper = MakePaperUniverse(name_mappings);
    for (const auto& field : paper.universe.fields()) {
      auto st = session.RegisterDatabase(field.name, field.value);
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
  }
  if (trace) {
    MetricsRegistry::Global().Reset();
    Trace::Enable();
  }
  std::string out =
      preamble + RunStatements(session, script, /*check_reference=*/!trace);
  if (trace) {
    Trace::Disable();
    out += StrCat("-- trace --\n", Trace::Render(/*mask_timings=*/true));
    if (const Materialized* m = session.last_materialization()) {
      out += StrCat("-- analyze --\n",
                    m->ExplainAnalyze(/*mask_timings=*/true));
    }
    out += StrCat("-- metrics --\n",
                  MetricsRegistry::Global().Render(/*mask_values=*/true));
  }
  return out;
}

// Mirrors `idl_shell --server-sessions=N`: the same universe setup as
// RunScript, but the statements run through an in-process Server with
// `num_sessions` concurrent sessions (src/server/script_driver.h). The
// driver itself asserts every query's N answers are byte-identical, and the
// transcript records the epoch each commit published.
std::string RunScriptViaServer(const std::string& script, bool name_mappings,
                               const EvalOptions& materialize_options,
                               size_t num_sessions) {
  ServerOptions server_options;
  server_options.materialize = materialize_options;
  Server server(server_options);
  std::string preamble;
  const std::string spec = WorkloadSpecOf(script);
  if (!spec.empty()) {
    auto config = ParseWorkloadSpec(spec);
    EXPECT_TRUE(config.ok()) << config.status().ToString();
    DiscrepancyUniverse workload = GenerateDiscrepancyUniverse(*config);
    preamble = StrCat("workload ", FormatWorkloadSpec(*config), "\n");
    for (const auto& tenant : workload.tenants) {
      preamble += StrCat("  tenant ", tenant.name, ": style=",
                         DiscrepancyStyleName(tenant.style),
                         tenant.mangled ? " (mangled names)" : "", "\n");
      auto st = server.RegisterDatabase(tenant.name,
                                        workload.BuildTenantDatabase(tenant));
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    preamble += "\n";
    auto st = server.DefineRules(workload.UnificationRules());
    EXPECT_TRUE(st.ok()) << st.ToString();
  } else {
    PaperUniverse paper = MakePaperUniverse(name_mappings);
    for (const auto& field : paper.universe.fields()) {
      auto st = server.RegisterDatabase(field.name, field.value);
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
  }
  auto result = RunServerScript(&server, script, num_sessions);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return preamble;
  return preamble + result->transcript;
}

// Mirrors `idl_shell --wal-dir=DIR`: the script runs through a durable
// server in a fresh temp directory (removed afterwards). The same universe
// seeds as RunScript, registered — and logged — by the driver itself.
std::string RunScriptViaWal(const std::string& script, bool name_mappings,
                            const EvalOptions& materialize_options) {
  char tmpl[] = "/tmp/idl_wal_golden_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  if (dir == nullptr) return "";

  auto spec = ParseDurableScriptSpec(script);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  if (!spec.ok()) return "";
  spec->materialize = materialize_options;

  std::vector<std::pair<std::string, Value>> seeds;
  std::string preamble;
  const std::string workload_spec = WorkloadSpecOf(script);
  if (!workload_spec.empty()) {
    auto config = ParseWorkloadSpec(workload_spec);
    EXPECT_TRUE(config.ok()) << config.status().ToString();
    DiscrepancyUniverse workload = GenerateDiscrepancyUniverse(*config);
    preamble = StrCat("workload ", FormatWorkloadSpec(*config), "\n");
    for (const auto& tenant : workload.tenants) {
      preamble += StrCat("  tenant ", tenant.name, ": style=",
                         DiscrepancyStyleName(tenant.style),
                         tenant.mangled ? " (mangled names)" : "", "\n");
      seeds.emplace_back(tenant.name, workload.BuildTenantDatabase(tenant));
    }
    preamble += "\n";
  } else {
    PaperUniverse paper = MakePaperUniverse(name_mappings);
    for (const auto& field : paper.universe.fields()) {
      seeds.emplace_back(field.name, field.value);
    }
  }
  auto result = RunDurableScript(dir, script, *spec, seeds);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  fs::remove_all(dir);
  if (!result.ok()) return preamble;
  return preamble + result->transcript;
}

TEST(GoldenCorpus, ScriptsMatchGoldens) {
  const fs::path scripts_dir = fs::path(IDL_REPO_DIR) / "examples/scripts";
  const fs::path golden_dir = fs::path(IDL_REPO_DIR) / "tests/golden";
  const bool update = std::getenv("IDL_UPDATE_GOLDENS") != nullptr;

  std::vector<fs::path> scripts;
  for (const auto& entry : fs::directory_iterator(scripts_dir)) {
    if (entry.path().extension() == ".idl") scripts.push_back(entry.path());
  }
  std::sort(scripts.begin(), scripts.end());
  // Durable scripts run after the in-memory ones: constructing a durable
  // server registers its wal.*/recovery.* instruments for the rest of the
  // process, and the metrics listings pinned by earlier goldens
  // (observability_demo) must stay those of a purely in-memory run.
  std::stable_partition(scripts.begin(), scripts.end(), [](const fs::path& p) {
    return ReadFile(p).find("% wal:") == std::string::npos;
  });
  ASSERT_GE(scripts.size(), 9u) << "corpus lost scripts?";

  for (const auto& script_path : scripts) {
    SCOPED_TRACE(script_path.filename().string());
    std::string script = ReadFile(script_path);
    bool name_mappings =
        script.find("% universe: name-mappings") != std::string::npos;
    Result<int> max_passes = MaxPassesDirective(script);
    ASSERT_TRUE(max_passes.ok()) << max_passes.status().ToString();

    Result<size_t> sessions = ServerSessionsDirective(script);
    ASSERT_TRUE(sessions.ok()) << sessions.status().ToString();
    const size_t server_sessions = *sessions;
    const bool wal = script.find("% wal:") != std::string::npos;

    // Every script runs once in memory with the reference checks; a durable
    // or server script's golden is then the server's transcript.
    EvalOptions options;
    options.max_passes = *max_passes;
    std::string transcript = RunScript(script, name_mappings, options);
    if (wal) {
      transcript = RunScriptViaWal(script, name_mappings, options);
    } else if (server_sessions > 0) {
      transcript =
          RunScriptViaServer(script, name_mappings, options, server_sessions);
    }

    // A server script additionally runs single-session: concurrency must not
    // change any answer, so only the session count in the header/trailer
    // lines may differ.
    if (server_sessions > 1) {
      std::string serial =
          RunScriptViaServer(script, name_mappings, options, 1);
      const std::string one = "server sessions=1";
      const std::string many = StrCat("server sessions=", server_sessions);
      for (size_t at = serial.find(one); at != std::string::npos;
           at = serial.find(one, at + many.size())) {
        serial.replace(at, one.size(), many);
      }
      EXPECT_EQ(transcript, serial)
          << "N-session and 1-session server transcripts diverge";
    }

    // `% trace:` scripts additionally run with tracing on — serially, so
    // the span tree is machine-independent — and must produce byte-identical
    // answers; the masked observability sections are appended and become
    // part of the golden.
    if (script.find("% trace: text") != std::string::npos) {
      EvalOptions serial = options;
      serial.materialize_parallelism = 1;
      std::string traced =
          RunScript(script, name_mappings, serial, /*trace=*/true);
      ASSERT_GE(traced.size(), transcript.size());
      EXPECT_EQ(traced.substr(0, transcript.size()), transcript)
          << "tracing changed the script's answers";
      transcript = std::move(traced);

      // The machine surface over the same spans (idl_shell --trace=json):
      // validate the schema — ids are append-order, parents appear before
      // children, every span closed — and that the masked rendering leaks
      // no timings.
      std::vector<TraceSpanRecord> spans = Trace::Snapshot();
      ASSERT_FALSE(spans.empty());
      for (size_t i = 0; i < spans.size(); ++i) {
        EXPECT_EQ(spans[i].id, i + 1);
        EXPECT_LT(spans[i].parent, spans[i].id);
        EXPECT_TRUE(spans[i].closed) << spans[i].name;
        EXPECT_FALSE(spans[i].name.empty());
      }
      std::string json = Trace::RenderJson(/*mask_timings=*/true);
      EXPECT_EQ(json.substr(0, 10), "{\"spans\":[");
      EXPECT_EQ(json.back(), '}');
      EXPECT_NE(json.find("\"wall_ms\":null"), std::string::npos);
      EXPECT_EQ(json.find("\"wall_ms\":0"), std::string::npos)
          << "masked trace JSON leaked timings";
    }

    fs::path golden_path =
        golden_dir / script_path.stem().replace_extension(".golden");
    if (update) {
      std::ofstream out(golden_path);
      out << transcript;
      continue;
    }
    ASSERT_TRUE(fs::exists(golden_path))
        << golden_path << " missing; run with IDL_UPDATE_GOLDENS=1 and "
        << "review the generated file";
    EXPECT_EQ(transcript, ReadFile(golden_path))
        << "transcript drifted from " << golden_path
        << "; if intended, regenerate with IDL_UPDATE_GOLDENS=1";
  }
}

}  // namespace
}  // namespace idl
