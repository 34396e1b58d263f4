// Concurrent scripted sessions against one in-process Server.
//
// The driver behind `idl_shell --server-sessions=N` and the golden corpus
// test's `% server-sessions: N` directive: it runs an ordinary IDL script,
// but every pure query is evaluated *concurrently on N reader sessions*
// (one thread each), and the transcript asserts that all N answers are
// byte-identical — the per-statement form of the snapshot-isolation
// guarantee, since the sessions share one pinned epoch. Update requests
// commit through the server's write queue on session 0 and every session
// re-pins to the published epoch afterwards, so the transcript stays a
// deterministic function of the script (it is pinned by
// tests/golden/server_demo.golden).

#ifndef IDL_SERVER_SCRIPT_DRIVER_H_
#define IDL_SERVER_SCRIPT_DRIVER_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "eval/query.h"
#include "server/server.h"

namespace idl {

struct ServerScriptResult {
  std::string transcript;
  // True when a statement failed (error appended to the transcript; the
  // statements after it did not run) — the shell exits non-zero on it.
  bool failed = false;
  size_t queries = 0;  // query statements run (each on every session)
  size_t commits = 0;  // update requests committed
  uint64_t final_epoch = 0;
};

// Runs `script` against `server` (already populated with databases) with
// `num_sessions` concurrent reader sessions. Rules and programs defined by
// the script go through the server online. Returns an error only for
// malformed scripts or a snapshot-isolation violation (sessions disagree);
// statement-level failures land in the transcript with failed=true, like
// the plain shell.
Result<ServerScriptResult> RunServerScript(
    Server* server, std::string_view script, size_t num_sessions,
    const EvalOptions& request_options = EvalOptions());

// The `% server-sessions: N` directive (0 when absent). The rest of the
// directive's line, without surrounding blanks, must be a decimal integer
// in [0, SIZE_MAX]; anything else is InvalidArgument.
Result<size_t> ServerSessionsDirective(std::string_view script);

// The `% max-passes: N` fixpoint pass budget (0 when absent), parsed like
// `% server-sessions:` but bounded by INT_MAX.
Result<int> MaxPassesDirective(std::string_view script);

// ---- Durable scripts (src/durability, docs/DURABILITY.md) ------------------
//
// The driver behind `idl_shell --wal-dir=DIR` and the golden corpus's
// `% wal:` scripts: an ordinary IDL script committed through a *durable*
// server (Server::Open — recover-or-create on `wal_dir`), with optional
// scripted crash injection:
//
//   % wal:                   mark the script durable (corpus gives it a dir)
//   % checkpoint-every: N    snapshot-checkpoint every N logged records
//   % crash-at: mid-append   crash point to arm (durability/crash_point.h)
//   % crash-after: N         ...fired the Nth time that point is reached
//
// When the armed crash fires, the failing statement's error lands in the
// transcript, the server is discarded (the simulated kill), a fresh one
// recovers from the directory — the transcript records what recovery found
// (replayed records, torn-tail truncation, resumed epoch) — and the script
// *continues* with the next statement. The crashed statement is not
// retried: whether its effect survived is exactly what the record-durable
// line of the crash taxonomy says, and the demo script's queries show it
// (tests/golden/durability_demo.golden pins the whole transcript).

struct DurableScriptSpec {
  bool durable = false;           // `% wal:` present
  size_t checkpoint_every = 64;   // `% checkpoint-every:` override
  // Armed when crash_after > 0.
  CrashPoint crash_at = CrashPoint::kAfterAppend;
  size_t crash_after = 0;
  // Materialization options for the durable server (not a directive — the
  // caller sets it; the corpus passes its `% max-passes:` budget).
  EvalOptions materialize;
};

// Parses the `% wal:` family of directives. InvalidArgument on an unknown
// `% crash-at:` point name, or on a `% checkpoint-every:` or
// `% crash-after:` value that is not a whole decimal integer in range.
Result<DurableScriptSpec> ParseDurableScriptSpec(std::string_view script);

struct DurableScriptResult {
  std::string transcript;
  bool failed = false;  // a statement failed for a non-injected reason
  size_t queries = 0;
  size_t commits = 0;
  size_t crashes = 0;  // injected kills survived (0 or 1)
  uint64_t final_epoch = 0;
};

// Runs `script` durably against `wal_dir` per `spec`. One reader session;
// update requests commit through the log. The directory must exist; state
// already in it is recovered first (and the transcript says so).
// `seed_databases` are registered — and therefore logged — only when the
// directory held no durable state; after a recovery (initial or
// mid-script) they come back from the log itself.
Result<DurableScriptResult> RunDurableScript(
    const std::string& wal_dir, std::string_view script,
    const DurableScriptSpec& spec,
    const std::vector<std::pair<std::string, Value>>& seed_databases = {},
    const EvalOptions& request_options = EvalOptions());

}  // namespace idl

#endif  // IDL_SERVER_SCRIPT_DRIVER_H_
