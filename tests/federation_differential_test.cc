// Differential test for the federation layer (src/federation): running the
// whole golden corpus through a session whose paper databases live on
// autonomous sites behind a gateway (all-local, zero latency, no faults)
// must produce *exactly* the transcript of the direct single-universe
// session. This proves the assemble/ship/write-back machinery is
// answer-preserving across every query, rule, program and update request in
// the corpus — including the §4–§7 worked examples.
//
// A second suite differentials the ship path specifically on randomly
// generated stock universes: queries whose subgoals are shipped as
// restricted selections must agree with direct evaluation and with the
// reference evaluator (tests/reference/reference.h).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
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

// Mirrors golden_corpus_test's RunScript, but the preloaded databases —
// the paper universe, or a `% workload:` script's generated discrepancy
// tenants — are either registered directly (federate=false) or hosted on
// one LocalSite per database behind a gateway (federate=true).
std::string RunScript(const std::string& script, bool name_mappings,
                      const EvalOptions& materialize_options, bool federate) {
  Session session;
  session.set_materialize_options(materialize_options);
  // Collect (name, value) databases first; federation hosts the same set.
  std::vector<std::pair<std::string, Value>> databases;
  std::vector<std::string> rules;
  const std::string directive = "% workload: ";
  if (size_t at = script.find(directive); at != std::string::npos) {
    size_t start = at + directive.size();
    size_t end = script.find('\n', start);
    auto config = ParseWorkloadSpec(script.substr(
        start, end == std::string::npos ? std::string::npos : end - start));
    EXPECT_TRUE(config.ok()) << config.status().ToString();
    DiscrepancyUniverse workload = GenerateDiscrepancyUniverse(*config);
    for (const auto& tenant : workload.tenants) {
      databases.emplace_back(tenant.name,
                             workload.BuildTenantDatabase(tenant));
    }
    rules = workload.UnificationRules();
  } else {
    PaperUniverse paper = MakePaperUniverse(name_mappings);
    for (const auto& field : paper.universe.fields()) {
      databases.emplace_back(field.name, field.value);
    }
  }
  if (federate) {
    auto gateway = std::make_shared<Gateway>();
    for (const auto& [name, value] : databases) {
      auto st = gateway->AddSite(std::make_unique<LocalSite>(name, value));
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    auto st = session.ConnectGateway(gateway);
    EXPECT_TRUE(st.ok()) << st.ToString();
  } else {
    for (const auto& [name, value] : databases) {
      auto st = session.RegisterDatabase(name, value);
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
  }
  if (!rules.empty()) {
    auto st = session.DefineRules(rules);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }

  std::string out;
  auto statements = ParseStatements(script);
  if (!statements.ok()) {
    return StrCat("parse error: ", statements.status().ToString(), "\n");
  }
  for (const auto& statement : *statements) {
    switch (statement.kind) {
      case Statement::Kind::kQuery: {
        std::string text = ToString(statement.query);
        out += text;
        out += "\n";
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
          out += a->ToTable();
          out += "\n";
        }
        break;
      }
      case Statement::Kind::kRule: {
        std::string text = ToString(statement.rule);
        auto st = session.DefineRule(text);
        out += StrCat("rule    ", text, "  [",
                      st.ok() ? "ok" : st.ToString(), "]\n");
        if (!st.ok()) return out;
        break;
      }
      case Statement::Kind::kProgramClause: {
        std::string text = ToString(statement.clause);
        auto st = session.DefineProgram(text);
        out += StrCat("program ", text, "  [",
                      st.ok() ? "ok" : st.ToString(), "]\n");
        if (!st.ok()) return out;
        break;
      }
    }
  }
  return out;
}

TEST(FederationDifferential, CorpusTranscriptsMatchDirectSession) {
  const fs::path scripts_dir = fs::path(IDL_REPO_DIR) / "examples/scripts";
  std::vector<fs::path> scripts;
  for (const auto& entry : fs::directory_iterator(scripts_dir)) {
    if (entry.path().extension() == ".idl") scripts.push_back(entry.path());
  }
  std::sort(scripts.begin(), scripts.end());
  ASSERT_GE(scripts.size(), 9u) << "corpus lost scripts?";

  for (const auto& script_path : scripts) {
    SCOPED_TRACE(script_path.filename().string());
    std::string script = ReadFile(script_path);
    bool name_mappings =
        script.find("% universe: name-mappings") != std::string::npos;
    // Honor the governor directive exactly like golden_corpus_test: the
    // corpus deliberately contains a divergent script
    // (governor_divergent.idl) that only terminates under a pass budget.
    Result<int> max_passes = MaxPassesDirective(script);
    ASSERT_TRUE(max_passes.ok()) << max_passes.status().ToString();
    EvalOptions options;
    options.max_passes = *max_passes;

    std::string direct =
        RunScript(script, name_mappings, options, /*federate=*/false);
    std::string federated =
        RunScript(script, name_mappings, options, /*federate=*/true);
    EXPECT_EQ(federated, direct)
        << "federated and direct transcripts diverge";
  }
}

// ---------------------------------------------------------------------------
// Ship-path differential on generated universes

TEST(FederationDifferential, ShippedQueriesMatchOnGeneratedUniverses) {
  for (uint64_t seed : {1u, 7u, 23u}) {
    SCOPED_TRACE(StrCat("seed=", seed));
    StockWorkloadConfig config;
    config.num_stocks = 6;
    config.num_days = 5;
    config.seed = seed;
    Value universe = BuildStockUniverse(GenerateStockWorkload(config));

    Session direct;
    Session federated;
    auto gateway = std::make_shared<Gateway>();
    for (const auto& field : universe.fields()) {
      ASSERT_TRUE(direct.RegisterDatabase(field.name, field.value).ok());
      ASSERT_TRUE(gateway
                      ->AddSite(std::make_unique<LocalSite>(field.name,
                                                            field.value))
                      .ok());
    }
    ASSERT_TRUE(federated.ConnectGateway(gateway).ok());

    const std::vector<std::string> queries = {
        // First-order: shipped with restrictions.
        "?.euter.r(.stkCode=stk0, .clsPrice=P)",
        "?.euter.r(.date=D, .clsPrice>100)",
        // Join across two sites.
        "?.euter.r(.date=D, .stkCode=S, .clsPrice=P),"
        " .ource.S(.date=D, .clsPrice=P)",
        // Higher-order column variable: whole relation ships.
        "?.chwab.r(.S=P), S != date",
        // Higher-order relation variable: export pulled.
        "?.ource.Y(.clsPrice>150)",
        // Metadata sweep: everything pulled.
        "?.X.Y",
        // Negated shipped subgoal.
        "?.euter.r(.date=D, .stkCode=stk1),"
        " !.euter.r(.date=D, .stkCode=stk1, .clsPrice>50)",
    };
    for (const auto& q : queries) {
      SCOPED_TRACE(q);
      auto a = direct.Query(q);
      auto b = federated.Query(q);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      EXPECT_EQ(a->ToTable(), b->ToTable());
      auto query = ParseQuery(q);
      ASSERT_TRUE(query.ok()) << query.status().ToString();
      auto expected = ReferenceQuery(direct.base_universe(), *query);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      EXPECT_EQ(a->ToTable(), expected->ToTable());
    }
  }
}

}  // namespace
}  // namespace idl
