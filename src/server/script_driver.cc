#include "server/script_driver.h"

#include <charconv>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "common/str_util.h"
#include "common/thread_pool.h"
#include "syntax/parser.h"
#include "syntax/printer.h"

namespace idl {

namespace {

// "% name: 123" -> 123; `fallback` when the directive is absent.
size_t DirectiveNumber(std::string_view script, std::string_view directive,
                       size_t fallback) {
  size_t at = script.find(directive);
  if (at == std::string_view::npos) return fallback;
  size_t pos = at + directive.size();
  while (pos < script.size() && script[pos] == ' ') ++pos;
  size_t n = 0;
  bool any = false;
  while (pos < script.size() && script[pos] >= '0' && script[pos] <= '9') {
    n = n * 10 + static_cast<size_t>(script[pos] - '0');
    ++pos;
    any = true;
  }
  return any ? n : fallback;
}

// "% name: word" -> "word" (to end of line); "" when absent.
std::string DirectiveWord(std::string_view script, std::string_view directive) {
  size_t at = script.find(directive);
  if (at == std::string_view::npos) return "";
  size_t pos = at + directive.size();
  while (pos < script.size() && script[pos] == ' ') ++pos;
  size_t end = pos;
  while (end < script.size() && script[end] != '\n' && script[end] != ' ' &&
         script[end] != '\r') {
    ++end;
  }
  return std::string(script.substr(pos, end - pos));
}

}  // namespace

size_t ServerSessionsDirective(std::string_view script) {
  return DirectiveNumber(script, "% server-sessions:", 0);
}

Result<int> MaxPassesDirective(std::string_view script) {
  constexpr std::string_view kDirective = "% max-passes:";
  size_t at = script.find(kDirective);
  if (at == std::string_view::npos) return 0;
  std::string_view text = script.substr(at + kDirective.size());
  text = text.substr(0, text.find('\n'));
  auto blank = [](char c) { return c == ' ' || c == '\t' || c == '\r'; };
  while (!text.empty() && blank(text.front())) text.remove_prefix(1);
  while (!text.empty() && blank(text.back())) text.remove_suffix(1);
  int passes = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, passes);
  if (ec != std::errc() || ptr != end || passes < 0) {
    return InvalidArgument(StrCat(kDirective, " wants an integer in [0, ",
                                  std::numeric_limits<int>::max(), "], got '",
                                  text, "'"));
  }
  return passes;
}

Result<ServerScriptResult> RunServerScript(Server* server,
                                           std::string_view script,
                                           size_t num_sessions,
                                           const EvalOptions& request_options) {
  if (num_sessions == 0) {
    return InvalidArgument("server script needs at least one session");
  }
  IDL_ASSIGN_OR_RETURN(std::vector<Statement> statements,
                       ParseStatements(script));
  std::vector<ServerSession> sessions;
  sessions.reserve(num_sessions);
  for (size_t i = 0; i < num_sessions; ++i) {
    IDL_ASSIGN_OR_RETURN(ServerSession session, server->Connect());
    sessions.push_back(std::move(session));
  }
  ThreadPool pool(num_sessions > 1 ? num_sessions - 1 : 0);

  ServerScriptResult out;
  std::string& t = out.transcript;
  t += StrCat("server sessions=", num_sessions, "\n");

  auto refresh_all = [&]() -> Status {
    for (auto& session : sessions) IDL_RETURN_IF_ERROR(session.Refresh());
    return Status::Ok();
  };

  for (const auto& statement : statements) {
    switch (statement.kind) {
      case Statement::Kind::kRule: {
        std::string text = ToString(statement.rule);
        Status st = server->DefineRule(text);
        t += StrCat("rule    ", text, "  [",
                    st.ok() ? "ok" : st.ToString(), "]\n");
        if (!st.ok()) {
          out.failed = true;
          return out;
        }
        IDL_RETURN_IF_ERROR(refresh_all());
        break;
      }
      case Statement::Kind::kProgramClause: {
        std::string text = ToString(statement.clause);
        Status st = server->DefineProgram(text);
        t += StrCat("program ", text, "  [",
                    st.ok() ? "ok" : st.ToString(), "]\n");
        if (!st.ok()) {
          out.failed = true;
          return out;
        }
        break;
      }
      case Statement::Kind::kQuery: {
        std::string text = ToString(statement.query);
        t += StrCat(text, "\n");
        if (server->IsUpdateRequest(statement.query)) {
          // Writes serialize through the commit queue; every session then
          // re-pins to the epoch this commit published.
          Result<CommitResult> r =
              sessions[0].Update(text, request_options);
          if (!r.ok()) {
            t += StrCat("  error: ", r.status().ToString(), "\n");
            out.failed = true;
            return out;
          }
          IDL_RETURN_IF_ERROR(refresh_all());
          t += StrCat("  ok: ", r->counts.Total(), " change(s), ",
                      r->bindings, " binding(s) [epoch ", r->epoch->id,
                      "]\n\n");
          ++out.commits;
        } else {
          // All sessions evaluate the same query concurrently against
          // their shared pinned epoch; the answers must be byte-identical.
          std::vector<Result<Answer>> answers(num_sessions,
                                              Result<Answer>(Answer{}));
          pool.ParallelFor(num_sessions, [&](size_t task, size_t) {
            answers[task] = sessions[task].Query(text, request_options);
          });
          if (!answers[0].ok()) {
            t += StrCat("  error: ", answers[0].status().ToString(), "\n");
            out.failed = true;
            return out;
          }
          std::string table = answers[0]->ToTable();
          for (size_t i = 1; i < num_sessions; ++i) {
            if (!answers[i].ok()) {
              return Internal(StrCat(
                  "snapshot isolation violated: session ", i, " failed ('",
                  answers[i].status().ToString(), "') where session 0 ",
                  "succeeded on '", text, "'"));
            }
            if (answers[i]->ToTable() != table) {
              return Internal(StrCat(
                  "snapshot isolation violated: session ", i,
                  " disagrees with session 0 on '", text, "' at epoch ",
                  sessions[i].epoch_id()));
            }
          }
          t += StrCat(table, "\n");
          ++out.queries;
        }
        break;
      }
    }
  }
  out.final_epoch = sessions[0].epoch_id();
  t += StrCat("server sessions=", num_sessions, " epoch=", out.final_epoch,
              " commits=", out.commits, " queries=", out.queries, "\n");
  return out;
}

Result<DurableScriptSpec> ParseDurableScriptSpec(std::string_view script) {
  DurableScriptSpec spec;
  spec.durable = script.find("% wal:") != std::string_view::npos;
  spec.checkpoint_every =
      DirectiveNumber(script, "% checkpoint-every:", spec.checkpoint_every);
  spec.crash_after = DirectiveNumber(script, "% crash-after:", 0);
  std::string at = DirectiveWord(script, "% crash-at:");
  if (!at.empty() && !ParseCrashPointName(at, &spec.crash_at)) {
    return InvalidArgument(StrCat("unknown crash point '", at, "'"));
  }
  return spec;
}

Result<DurableScriptResult> RunDurableScript(
    const std::string& wal_dir, std::string_view script,
    const DurableScriptSpec& spec,
    const std::vector<std::pair<std::string, Value>>& seed_databases,
    const EvalOptions& request_options) {
  IDL_ASSIGN_OR_RETURN(std::vector<Statement> statements,
                       ParseStatements(script));

  DurableScriptResult out;
  std::string& t = out.transcript;

  ServerOptions options;
  options.materialize = spec.materialize;
  options.durability.dir = wal_dir;
  options.durability.checkpoint_every = spec.checkpoint_every;
  // Counted-firing injection: the hook trips the Nth time the armed point
  // is reached, once (the recovered server gets a hook-free copy).
  auto fired = std::make_shared<size_t>(0);
  if (spec.crash_after > 0) {
    CrashPoint target = spec.crash_at;
    size_t after = spec.crash_after;
    options.durability.crash_hook = [fired, target, after](CrashPoint p) {
      return p == target && ++*fired == after;
    };
  }

  auto describe = [](const RecoveryReport& report) {
    return StrCat("wal: recovered epoch=", report.epoch,
                  " replayed=", report.replayed_records,
                  " torn=", report.torn_tail_truncations,
                  " snapshot-lsn=", report.snapshot_lsn, "\n");
  };

  RecoveryReport report;
  IDL_ASSIGN_OR_RETURN(std::unique_ptr<Server> server,
                       Server::Open(options, &report));
  if (report.recovered) {
    t += describe(report);
  } else {
    // Fresh directory: register (and thereby log) the seed databases, so a
    // later recovery rebuilds them from the log rather than from us.
    for (const auto& [name, db] : seed_databases) {
      IDL_RETURN_IF_ERROR(server->RegisterDatabase(name, db).WithContext(
          StrCat("seeding database '", name, "'")));
    }
    t += StrCat("wal: fresh log, seeded ", seed_databases.size(),
                " database(s)\n");
  }
  std::optional<ServerSession> session;
  {
    IDL_ASSIGN_OR_RETURN(ServerSession s, server->Connect());
    session.emplace(std::move(s));
  }

  // The simulated kill: discard the live server (its memory dies with it)
  // and rebuild one from nothing but the directory's bytes.
  auto recover = [&]() -> Status {
    ++out.crashes;
    t += "wal: killed, recovering from disk\n";
    session.reset();
    server.reset();
    ServerOptions recover_options = options;
    recover_options.durability.crash_hook = nullptr;
    RecoveryReport rec;
    IDL_ASSIGN_OR_RETURN(server, Server::Recover(recover_options, &rec));
    t += describe(rec);
    IDL_ASSIGN_OR_RETURN(ServerSession s, server->Connect());
    session.emplace(std::move(s));
    return Status::Ok();
  };
  auto injected = [&](const Status& st) {
    return spec.crash_after > 0 && out.crashes == 0 &&
           st.ToString().find("crash injected") != std::string::npos;
  };

  for (const auto& statement : statements) {
    switch (statement.kind) {
      case Statement::Kind::kRule: {
        std::string text = ToString(statement.rule);
        Status st = server->DefineRule(text);
        t += StrCat("rule    ", text, "  [",
                    st.ok() ? "ok" : st.ToString(), "]\n");
        if (!st.ok()) {
          if (injected(st)) {
            IDL_RETURN_IF_ERROR(recover());
            break;
          }
          out.failed = true;
          return out;
        }
        IDL_RETURN_IF_ERROR(session->Refresh());
        break;
      }
      case Statement::Kind::kProgramClause: {
        std::string text = ToString(statement.clause);
        Status st = server->DefineProgram(text);
        t += StrCat("program ", text, "  [",
                    st.ok() ? "ok" : st.ToString(), "]\n");
        if (!st.ok()) {
          if (injected(st)) {
            IDL_RETURN_IF_ERROR(recover());
            break;
          }
          out.failed = true;
          return out;
        }
        break;
      }
      case Statement::Kind::kQuery: {
        std::string text = ToString(statement.query);
        t += StrCat(text, "\n");
        if (server->IsUpdateRequest(statement.query)) {
          Result<CommitResult> r = session->Update(text, request_options);
          if (!r.ok()) {
            t += StrCat("  error: ", r.status().ToString(), "\n");
            if (injected(r.status())) {
              IDL_RETURN_IF_ERROR(recover());
              break;
            }
            out.failed = true;
            return out;
          }
          t += StrCat("  ok: ", r->counts.Total(), " change(s), ",
                      r->bindings, " binding(s) [epoch ", r->epoch->id,
                      "]\n\n");
          ++out.commits;
        } else {
          Result<Answer> answer = session->Query(text, request_options);
          if (!answer.ok()) {
            t += StrCat("  error: ", answer.status().ToString(), "\n");
            out.failed = true;
            return out;
          }
          t += StrCat(answer->ToTable(), "\n");
          ++out.queries;
        }
        break;
      }
    }
  }
  out.final_epoch = session->epoch_id();
  t += StrCat("wal: epoch=", out.final_epoch, " commits=", out.commits,
              " queries=", out.queries, " crashes=", out.crashes, "\n");
  return out;
}

}  // namespace idl
