// idl_shell: a script runner for the IDL language.
//
//   build/examples/idl_shell script.idl     run a file
//   build/examples/idl_shell -              read statements from stdin
//   build/examples/idl_shell                run the built-in demo script
//
// Flags (before the script argument):
//   --site-latency-ms=N                     host the paper databases on
//                                           simulated remote sites with N ms
//                                           of request latency (federated
//                                           mode; 0 = direct, the default)
//   --deadline-ms=N                         wall-clock budget per statement
//   --max-passes=N                          fixpoint pass budget (stops
//                                           divergent recursive programs)
//   --max-derivations=N                     derivation-step budget
//   --trace[=json]                          record a span trace of the run
//                                           and append it (with the EXPLAIN
//                                           ANALYZE table and a metrics
//                                           snapshot) to the transcript;
//                                           =json emits one machine-readable
//                                           "trace-json: {...}" line instead
//   --workload=<spec>                       replace the paper databases with
//                                           a generated multi-tenant
//                                           discrepancy universe
//                                           (docs/WORKLOADS.md); <spec> is
//                                           "seed,tenants" shorthand or the
//                                           full "seed=1 tenants=3 ..." form
//
// The three budget flags arm the resource governor (docs/GOVERNOR.md): a
// statement that exceeds one aborts with `deadline exceeded` or `resource
// exhausted` and leaves the universe untouched. A script can pin its own
// pass budget with a `% max-passes: N` directive (used when the flag is not
// given) — see examples/scripts/governor_divergent.idl, which diverges by
// design and relies on its directive to terminate. Numeric flags and the
// directive take a plain decimal integer; anything else (trailing
// characters, a value out of range) is rejected with exit status 1.
//
// Scripts are ';'-separated statements: rules (head <- body), update
// programs (head -> body), queries and update requests (?...). The shell
// preloads the paper's three stock databases so scripts have something to
// talk to. Query answers print as tables.

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "idl/idl.h"

namespace {

constexpr char kDemoScript[] = R"(
% The two-level mapping of Figure 1:
.dbI.p(.date=D, .stk=S, .clsPrice=P) <- .euter.r(.date=D, .stkCode=S, .clsPrice=P);
.dbI.p(.date=D, .stk=S, .clsPrice=P) <- .chwab.r(.date=D, .S=P), S != date;
.dbI.p(.date=D, .stk=S, .clsPrice=P) <- .ource.S(.date=D, .clsPrice=P);

% Which stocks ever closed above 200, across all three databases?
?.dbI.p(.stk=S, .clsPrice>200);

% The daily leader:
?.dbI.p(.date=D, .stk=S, .clsPrice=P), .dbI.p!(.date=D, .clsPrice>P);

% Insert a quote into euter and look at the unified view again:
?.euter.r+(.date=3/5/85, .stkCode=hp, .clsPrice=321);
?.dbI.p(.stk=S, .clsPrice>200);
)";

// How (and whether) the run's trace is surfaced after the transcript.
enum class TraceMode { kOff, kText, kJson };

// Reads `--name=N` into `*out`. N must be a whole decimal integer in
// [lo, hi]: std::from_chars rejects a sign or space it does not take, and
// trailing characters or an out-of-range value are rejected here. Prints
// why and returns false otherwise.
template <typename T>
bool ParseIntegerFlag(const std::string& arg, std::string_view name, T lo,
                      T hi, T* out) {
  std::string_view text = std::string_view(arg).substr(name.size() + 1);
  const char* end = text.data() + text.size();
  T value{};
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < lo || value > hi) {
    std::printf("%s wants an integer in [%s, %s], got '%s'\n",
                std::string(name).c_str(), std::to_string(lo).c_str(),
                std::to_string(hi).c_str(), std::string(text).c_str());
    return false;
  }
  *out = value;
  return true;
}

// Applies a script's `% max-passes: N` directive when the flag left the
// budget unset, so divergent demo scripts terminate when run bare. (The
// `% trace: {text,json}` directive is read in main.) Returns false, having
// printed why, when the directive is malformed.
bool ApplyScriptDirectives(const std::string& script,
                           idl::EvalOptions* request_options) {
  if (request_options->max_passes == 0) {
    idl::Result<int> passes = idl::MaxPassesDirective(script);
    if (!passes.ok()) {
      std::printf("bad directive: %s\n", passes.status().ToString().c_str());
      return false;
    }
    request_options->max_passes = *passes;
  }
  return true;
}

// The three observability sections appended after a traced run: the span
// tree, the EXPLAIN ANALYZE table of the last materialization (when one
// exists), and the metrics snapshot. In kJson mode everything collapses to
// one "trace-json: {...}" line so CI can extract and schema-check it.
// tests/golden_corpus_test.cc mirrors this rendering for `% trace:` scripts.
void PrintTraceSections(const idl::Session& session, TraceMode mode,
                        bool mask_timings) {
  if (mode == TraceMode::kJson) {
    std::string doc = idl::Trace::RenderJson(mask_timings);
    doc.pop_back();  // splice the metrics object into the span document
    doc += ",\"metrics\":";
    doc += idl::MetricsRegistry::Global().ToJson();
    doc += "}";
    std::printf("trace-json: %s\n", doc.c_str());
    return;
  }
  std::printf("-- trace --\n%s", idl::Trace::Render(mask_timings).c_str());
  if (const idl::Materialized* m = session.last_materialization()) {
    std::printf("-- analyze --\n%s", m->ExplainAnalyze(mask_timings).c_str());
  }
  std::printf("-- metrics --\n%s",
              idl::MetricsRegistry::Global().Render(mask_timings).c_str());
}

int Run(idl::Session* session, const std::string& script,
        const idl::EvalOptions& request_options) {
  auto statements = idl::ParseStatements(script);
  if (!statements.ok()) {
    std::printf("parse error: %s\n",
                statements.status().ToString().c_str());
    return 1;
  }
  bool governed = request_options.deadline_ms > 0 ||
                  request_options.max_passes > 0 ||
                  request_options.max_derivations > 0;
  for (const auto& statement : *statements) {
    switch (statement.kind) {
      case idl::Statement::Kind::kQuery: {
        std::string text = idl::ToString(statement.query);
        std::printf("%s\n", text.c_str());
        if (session->IsUpdateRequest(statement.query)) {
          auto r = session->Update(text, request_options);
          if (!r.ok()) {
            std::printf("  error: %s\n", r.status().ToString().c_str());
            if (governed) {
              std::printf("  %s", session->last_governor().c_str());
            }
            return 1;
          }
          std::printf("  ok: %llu change(s), %zu binding(s)\n\n",
                      static_cast<unsigned long long>(r->counts.Total()),
                      r->bindings);
        } else {
          auto a = session->Query(text, request_options);
          if (!a.ok()) {
            std::printf("  error: %s\n", a.status().ToString().c_str());
            if (governed) {
              std::printf("  %s", session->last_governor().c_str());
            }
            return 1;
          }
          std::printf("%s\n", a->ToTable().c_str());
        }
        break;
      }
      case idl::Statement::Kind::kRule: {
        std::string text = idl::ToString(statement.rule);
        auto st = session->DefineRule(text);
        std::printf("rule    %s  [%s]\n", text.c_str(),
                    st.ok() ? "ok" : st.ToString().c_str());
        if (!st.ok()) return 1;
        break;
      }
      case idl::Statement::Kind::kProgramClause: {
        std::string text = idl::ToString(statement.clause);
        auto st = session->DefineProgram(text);
        std::printf("program %s  [%s]\n", text.c_str(),
                    st.ok() ? "ok" : st.ToString().c_str());
        if (!st.ok()) return 1;
        break;
      }
    }
  }
  return 0;
}

constexpr char kUsage[] =
    R"(usage: idl_shell [flags] [script.idl | -]

Runs an IDL script (';'-separated rules, programs, queries and update
requests) against the paper's three stock databases. With no script
argument a built-in demo runs; '-' reads from stdin.

  --site-latency-ms=N   host the databases on simulated remote sites with
                        N ms request latency (0 = direct, the default)
  --deadline-ms=N       wall-clock budget per statement
  --max-passes=N        fixpoint pass budget (stops divergent programs;
                        a script's '% max-passes: N' directive applies
                        when this flag is not given)
  --max-derivations=N   derivation-step budget
  --trace[=json]        append the run's span trace, EXPLAIN ANALYZE table
                        and metrics snapshot to the transcript (=json: one
                        machine-readable "trace-json: {...}" line). A
                        script's '% trace: {text,json}' directive applies
                        when this flag is not given, with timings masked so
                        the transcript stays reproducible
                        (docs/OBSERVABILITY.md)
  --workload=<spec>     replace the paper databases with a generated
                        multi-tenant discrepancy universe and auto-define
                        its unification rules (docs/WORKLOADS.md); <spec>
                        is "seed,tenants" shorthand or the full
                        "seed=1 tenants=3 entities=4 ..." form. A script's
                        '% workload: <spec>' directive applies when this
                        flag is not given
  --server-sessions=N   run the script against an in-process server with N
                        concurrent reader sessions under snapshot isolation
                        (docs/SERVER.md): every query evaluates on all N
                        sessions at once and the answers must agree
                        byte-for-byte; updates commit through the server's
                        write queue. A script's '% server-sessions: N'
                        directive applies when this flag is not given.
                        Incompatible with --site-latency-ms and --trace
  --wal-dir=DIR         run the script against a durable server
                        (docs/DURABILITY.md): every commit is written to a
                        checksummed write-ahead log in DIR before its epoch
                        publishes, with periodic snapshot checkpoints; state
                        already in DIR is recovered first (rerun the same
                        script to see it). Scripts can stage a mid-script
                        kill with '% crash-at: <point>' and
                        '% crash-after: N' — the shell then recovers from
                        DIR and continues, and the transcript records what
                        replay found. Incompatible with --site-latency-ms,
                        --trace and --server-sessions
  --help                show this message

The budget flags arm the resource governor (docs/GOVERNOR.md): a statement
that exceeds one aborts cleanly and leaves the universe untouched.
)";

}  // namespace

int main(int argc, char** argv) {
  constexpr int kIntMax = std::numeric_limits<int>::max();
  idl::EvalOptions request_options;
  TraceMode trace_mode = TraceMode::kOff;
  bool trace_flag_given = false;
  int site_latency_ms = 0;
  int server_sessions = 0;
  bool server_flag_given = false;
  std::string wal_dir;
  std::string workload_spec;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf("%s", kUsage);
      return 0;
    } else if (arg.rfind("--", 0) == 0 && arg != "--") {
      bool known =
          arg.rfind("--site-latency-ms=", 0) == 0 ||
          arg.rfind("--deadline-ms=", 0) == 0 ||
          arg.rfind("--max-passes=", 0) == 0 ||
          arg.rfind("--max-derivations=", 0) == 0 ||
          arg.rfind("--workload=", 0) == 0 ||
          arg.rfind("--server-sessions=", 0) == 0 ||
          arg.rfind("--wal-dir=", 0) == 0 ||
          arg == "--trace" || arg.rfind("--trace=", 0) == 0;
      if (!known) {
        std::printf("unknown flag %s\n\n%s", arg.c_str(), kUsage);
        return 1;
      }
    }
    if (arg.rfind("--site-latency-ms=", 0) == 0) {
      if (!ParseIntegerFlag(arg, "--site-latency-ms", 0, kIntMax,
                            &site_latency_ms)) {
        return 1;
      }
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      if (!ParseIntegerFlag(arg, "--deadline-ms", 0, kIntMax,
                            &request_options.deadline_ms)) {
        return 1;
      }
    } else if (arg.rfind("--max-passes=", 0) == 0) {
      if (!ParseIntegerFlag(arg, "--max-passes", 0, kIntMax,
                            &request_options.max_passes)) {
        return 1;
      }
    } else if (arg.rfind("--max-derivations=", 0) == 0) {
      if (!ParseIntegerFlag(arg, "--max-derivations", uint64_t{0},
                            std::numeric_limits<uint64_t>::max(),
                            &request_options.max_derivations)) {
        return 1;
      }
    } else if (arg.rfind("--workload=", 0) == 0) {
      workload_spec = arg.substr(std::string("--workload=").size());
      if (workload_spec.empty()) {
        std::printf("--workload needs a spec (try --workload=1,3)\n");
        return 1;
      }
    } else if (arg.rfind("--server-sessions=", 0) == 0) {
      if (!ParseIntegerFlag(arg, "--server-sessions", 1, kIntMax,
                            &server_sessions)) {
        return 1;
      }
      server_flag_given = true;
    } else if (arg.rfind("--wal-dir=", 0) == 0) {
      wal_dir = arg.substr(std::string("--wal-dir=").size());
      if (wal_dir.empty()) {
        std::printf("--wal-dir needs a directory\n");
        return 1;
      }
    } else if (arg == "--trace" || arg == "--trace=text") {
      trace_mode = TraceMode::kText;
      trace_flag_given = true;
    } else if (arg == "--trace=json") {
      trace_mode = TraceMode::kJson;
      trace_flag_given = true;
    } else if (arg.rfind("--trace", 0) == 0) {
      std::printf("unknown --trace mode '%s' (want --trace or --trace=json)\n",
                  arg.c_str());
      return 1;
    } else {
      positional.push_back(std::move(arg));
    }
  }

  // The script loads before session setup: its `% workload:` directive (when
  // the flag is not given) decides which databases get registered.
  std::string script;
  if (positional.empty()) {
    script = kDemoScript;
  } else if (positional[0] == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    script = buffer.str();
  } else {
    std::ifstream file(positional[0]);
    if (!file) {
      std::printf("cannot open %s\n", positional[0].c_str());
      return 1;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    script = buffer.str();
  }
  if (workload_spec.empty()) {
    const std::string directive = "% workload: ";
    size_t at = script.find(directive);
    if (at != std::string::npos) {
      size_t start = at + directive.size();
      size_t end = script.find('\n', start);
      workload_spec = script.substr(start, end == std::string::npos
                                               ? std::string::npos
                                               : end - start);
    }
  }

  if (!wal_dir.empty()) {
    // Durable scripted server (docs/DURABILITY.md): commits go through a
    // write-ahead log in wal_dir, state already there is recovered first,
    // and the `% crash-at:`/`% crash-after:` directives simulate a kill
    // mid-script followed by recovery.
    if (site_latency_ms > 0 || trace_flag_given || server_flag_given) {
      std::printf(
          "--wal-dir is incompatible with --site-latency-ms, --trace and "
          "--server-sessions\n");
      return 1;
    }
    if (!ApplyScriptDirectives(script, &request_options)) {
      return 1;
    }
    auto spec = idl::ParseDurableScriptSpec(script);
    if (!spec.ok()) {
      std::printf("bad wal directive: %s\n", spec.status().ToString().c_str());
      return 1;
    }
    std::vector<std::pair<std::string, idl::Value>> seeds;
    if (!workload_spec.empty()) {
      auto config = idl::ParseWorkloadSpec(workload_spec);
      if (!config.ok()) {
        std::printf("bad --workload spec: %s\n",
                    config.status().ToString().c_str());
        return 1;
      }
      idl::DiscrepancyUniverse workload =
          idl::GenerateDiscrepancyUniverse(*config);
      for (const auto& tenant : workload.tenants) {
        seeds.emplace_back(tenant.name, workload.BuildTenantDatabase(tenant));
      }
    } else {
      idl::PaperUniverse paper = idl::MakePaperUniverse();
      for (const auto& field : paper.universe.fields()) {
        seeds.emplace_back(field.name, field.value);
      }
    }
    auto result =
        idl::RunDurableScript(wal_dir, script, *spec, seeds, request_options);
    if (!result.ok()) {
      std::printf("wal error: %s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", result->transcript.c_str());
    return result->failed ? 1 : 0;
  }

  if (!server_flag_given) {
    idl::Result<size_t> sessions = idl::ServerSessionsDirective(script);
    if (!sessions.ok()) {
      std::printf("bad directive: %s\n", sessions.status().ToString().c_str());
      return 1;
    }
    server_sessions = static_cast<int>(*sessions);
  }
  if (server_sessions > 0) {
    // Concurrent scripted sessions against one in-process server
    // (docs/SERVER.md). The driver runs every query on all N sessions at
    // once and asserts byte-identical answers.
    if (site_latency_ms > 0) {
      std::printf("--server-sessions is incompatible with --site-latency-ms\n");
      return 1;
    }
    if (trace_flag_given) {
      std::printf("--server-sessions is incompatible with --trace\n");
      return 1;
    }
    if (!ApplyScriptDirectives(script, &request_options)) {
      return 1;
    }
    idl::Server server;
    if (!workload_spec.empty()) {
      auto config = idl::ParseWorkloadSpec(workload_spec);
      if (!config.ok()) {
        std::printf("bad --workload spec: %s\n",
                    config.status().ToString().c_str());
        return 1;
      }
      idl::DiscrepancyUniverse workload =
          idl::GenerateDiscrepancyUniverse(*config);
      std::printf("workload %s\n", idl::FormatWorkloadSpec(*config).c_str());
      for (const auto& tenant : workload.tenants) {
        std::printf("  tenant %s: style=%s%s\n", tenant.name.c_str(),
                    idl::DiscrepancyStyleName(tenant.style),
                    tenant.mangled ? " (mangled names)" : "");
        if (auto st = server.RegisterDatabase(
                tenant.name, workload.BuildTenantDatabase(tenant));
            !st.ok()) {
          std::printf("setup failed: %s\n", st.ToString().c_str());
          return 1;
        }
      }
      if (auto st = server.DefineRules(workload.UnificationRules());
          !st.ok()) {
        std::printf("setup failed: %s\n", st.ToString().c_str());
        return 1;
      }
      std::printf("\n");
    } else {
      idl::PaperUniverse paper = idl::MakePaperUniverse();
      for (const auto& field : paper.universe.fields()) {
        if (auto st = server.RegisterDatabase(field.name, field.value);
            !st.ok()) {
          std::printf("setup failed: %s\n", st.ToString().c_str());
          return 1;
        }
      }
    }
    auto result = idl::RunServerScript(
        &server, script, static_cast<size_t>(server_sessions),
        request_options);
    if (!result.ok()) {
      std::printf("server error: %s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", result->transcript.c_str());
    return result->failed ? 1 : 0;
  }

  idl::Session session;
  // A shared gateway hosts whichever databases federated mode serves.
  std::shared_ptr<idl::Gateway> gateway;
  if (site_latency_ms > 0) gateway = std::make_shared<idl::Gateway>();
  auto host = [&](const std::string& name, const idl::Value& db) {
    if (gateway != nullptr) {
      auto remote = std::make_unique<idl::SimulatedRemoteSite>(
          std::make_unique<idl::LocalSite>(name, db));
      remote->set_latency_ms(site_latency_ms);
      return gateway->AddSite(std::move(remote));
    }
    return session.RegisterDatabase(name, db);
  };

  if (!workload_spec.empty()) {
    // Generated multi-tenant discrepancy universe instead of the paper
    // databases, with its unification rules pre-defined (docs/WORKLOADS.md).
    auto config = idl::ParseWorkloadSpec(workload_spec);
    if (!config.ok()) {
      std::printf("bad --workload spec: %s\n",
                  config.status().ToString().c_str());
      return 1;
    }
    idl::DiscrepancyUniverse workload =
        idl::GenerateDiscrepancyUniverse(*config);
    std::printf("workload %s\n", idl::FormatWorkloadSpec(*config).c_str());
    for (const auto& tenant : workload.tenants) {
      std::printf("  tenant %s: style=%s%s\n", tenant.name.c_str(),
                  idl::DiscrepancyStyleName(tenant.style),
                  tenant.mangled ? " (mangled names)" : "");
      if (auto st = host(tenant.name, workload.BuildTenantDatabase(tenant));
          !st.ok()) {
        std::printf("setup failed: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    if (gateway != nullptr) {
      if (auto st = session.ConnectGateway(gateway); !st.ok()) {
        std::printf("setup failed: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    if (auto st = session.DefineRules(workload.UnificationRules());
        !st.ok()) {
      std::printf("setup failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("\n");
  } else {
    idl::PaperUniverse paper = idl::MakePaperUniverse();
    for (const auto& field : paper.universe.fields()) {
      if (auto st = host(field.name, field.value); !st.ok()) {
        std::printf("setup failed: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    if (gateway != nullptr) {
      if (auto st = session.ConnectGateway(gateway); !st.ok()) {
        std::printf("setup failed: %s\n", st.ToString().c_str());
        return 1;
      }
    }
  }
  if (!ApplyScriptDirectives(script, &request_options)) {
    return 1;
  }
  // A directive-requested trace masks its timings (the transcript must be
  // reproducible — the golden corpus pins it); the flag shows real ones.
  bool mask_trace_timings = false;
  if (!trace_flag_given) {
    if (script.find("% trace: json") != std::string::npos) {
      trace_mode = TraceMode::kJson;
      mask_trace_timings = true;
    } else if (script.find("% trace: text") != std::string::npos) {
      trace_mode = TraceMode::kText;
      mask_trace_timings = true;
    }
  }
  if (trace_mode != TraceMode::kOff) {
    idl::MetricsRegistry::Global().Reset();
    idl::Trace::Enable();
  }
  int rc = Run(&session, script, request_options);
  if (trace_mode != TraceMode::kOff) {
    idl::Trace::Disable();
    PrintTraceSections(session, trace_mode, mask_trace_timings);
  }
  if (site_latency_ms > 0) {
    std::printf("%s", session.ExplainFederation().c_str());
  }
  return rc;
}
