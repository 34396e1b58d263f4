// Server: one universe, N concurrent sessions, snapshot isolation.
//
// The paper's interoperability language assumes a federation that many
// clients query while component databases keep changing. `idl::Session` is
// strictly single-caller, so this layer adds the concurrency discipline
// around it:
//
//  * Readers never touch the session. They evaluate against an immutable
//    published *epoch* — a deep copy of the merged universe (base plus
//    materialized views), every hash cached, taken after each commit
//    (Session::SnapshotUniverse). An epoch is a shared_ptr<const>;
//    pinning one is a pointer copy, and a pinned epoch stays valid for as
//    long as any session holds it, however many commits happen meanwhile.
//
//  * Writers funnel through a single-writer commit queue (a
//    BoundedExecutor with one thread). Each commit applies its update
//    request to the inner session — which maintains the retained
//    materialization incrementally (ViewEngine::ApplyDelta, with the
//    fallback-to-rematerialize path preserved) — snapshots the result, and
//    atomically publishes the next epoch. Commits are strictly serialized,
//    so every epoch is the result of a serial prefix of committed requests:
//    a reader bound to epoch E sees exactly the serial execution of commits
//    1..E, which is the snapshot-isolation guarantee the differential tests
//    prove byte-for-byte.
//
//  * Admission control under overload: a commit arriving while
//    max_pending_commits are already queued is rejected at the door with
//    kResourceExhausted (retryable), and a commit whose deadline_ms expired
//    while it waited in the queue is rejected with kDeadlineExceeded
//    *before* any work happens. The time a commit did spend queued is
//    subtracted from its deadline, so `deadline_ms` bounds wall time from
//    the caller's perspective, queue included.
//
// Epoch lifecycle, isolation guarantee and admission policy are documented
// in docs/SERVER.md; metrics in docs/OBSERVABILITY.md (server.*).

#ifndef IDL_SERVER_SERVER_H_
#define IDL_SERVER_SERVER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/governor.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "durability/wal.h"
#include "eval/query.h"
#include "idl/session.h"
#include "object/value.h"
#include "programs/program.h"
#include "update/applier.h"

namespace idl {

class ColumnarStore;

// An immutable published snapshot of the merged universe. Never mutated
// after publication: the universe is hash-warmed (object/value.h, "Thread
// safety"), so any number of threads may evaluate against it concurrently.
struct Epoch {
  // 1 for the initial epoch, +1 per successful commit or schema change.
  uint64_t id = 0;
  Value universe;
  // "db.rel" paths created by rules, as of this epoch.
  std::vector<std::string> derived_paths;
  // Columnar pages for every flat relation of `universe`, attached to the
  // sets' cache slots at publication (docs/COLUMNAR.md). Pages are immutable
  // and refcounted: relations unchanged since the previous epoch share that
  // epoch's pages rather than re-encoding, and reader sessions on either
  // epoch keep the shared page alive.
  std::shared_ptr<const ColumnarStore> columnar;
  std::chrono::steady_clock::time_point published_at;
};
using EpochPtr = std::shared_ptr<const Epoch>;

// Where and how the server persists its committed state (src/durability;
// protocol in docs/DURABILITY.md). With `dir` empty the server is purely
// in-memory, exactly as before this layer existed.
struct DurabilityOptions {
  // Directory holding `wal.log` and `snap.*.idls`. Must already exist.
  std::string dir;
  // fsync every append/checkpoint step (WalOptions::fsync).
  bool fsync = true;
  // Snapshot-checkpoint (and truncate the log) after this many appended
  // records; 0 disables checkpointing (the log grows without bound).
  size_t checkpoint_every = 64;
  // Bound on Recover()'s total wall time (snapshot load + WAL replay);
  // 0 = unbounded. Composes with the governor: each replayed commit runs
  // under the remaining budget, so replay aborts with kDeadlineExceeded at
  // a governor checkpoint rather than overshooting.
  int recover_deadline_ms = 0;
  // Test-only crash injection (durability/crash_point.h).
  CrashHook crash_hook;
};

struct ServerOptions {
  // Commit-queue bound: an Update arriving while this many commits are
  // already pending is rejected with kResourceExhausted.
  size_t max_pending_commits = 64;
  // Materialization options of the inner session (parallelism and
  // governor budgets).
  EvalOptions materialize;
  DurabilityOptions durability;
};

// What Server::Recover/Open rebuilt (for logs, tests, the shell banner).
struct RecoveryReport {
  bool recovered = false;     // false: fresh directory, nothing to replay
  uint64_t snapshot_lsn = 0;  // 0 when no snapshot existed
  size_t replayed_records = 0;
  size_t torn_tail_truncations = 0;  // 0 or 1 (only the tail can tear)
  uint64_t epoch = 0;                // published epoch id after recovery
  double wall_ms = 0.0;
};

// What a successful commit published.
struct CommitResult {
  EpochPtr epoch;       // the epoch containing this commit's effects
  size_t bindings = 0;  // UpdateRequestResult passthrough
  UpdateCounts counts;
};

class ServerSession;

class Server {
 public:
  // In-memory server (options.durability.dir must be empty — use the
  // factories below for a durable one).
  explicit Server(const ServerOptions& options = ServerOptions());
  ~Server();  // Shutdown()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // ---- Durable servers (src/durability, docs/DURABILITY.md) ----------------
  //
  // A durable server writes every acknowledged state change — commits, rule
  // and program definitions, database registrations — to a checksummed
  // write-ahead log *before* publishing the resulting epoch, and
  // periodically folds the log into a snapshot checkpoint. After any
  // durability failure (I/O error, injected crash) the server is fail-stop:
  // every later state change returns the original failure; reads keep
  // working against the last published epoch.

  // Fresh durable server in a directory with no prior durable state
  // (kAlreadyExists if `wal.log` or a snapshot is present).
  static Result<std::unique_ptr<Server>> Create(const ServerOptions& options);

  // Rebuilds a server from the durable state in options.durability.dir:
  // loads the newest valid snapshot, replays the WAL tail with a later LSN
  // through the ordinary commit path, truncates a torn final record, and
  // republishes. kDataLoss (positioned) on mid-log or snapshot corruption;
  // kDeadlineExceeded when recover_deadline_ms expires mid-replay;
  // kNotFound when the directory holds no durable state at all.
  static Result<std::unique_ptr<Server>> Recover(
      const ServerOptions& options, RecoveryReport* report = nullptr);

  // Open-or-recover: Recover() when durable state exists, Create()
  // otherwise. What `idl_shell --wal-dir=` and `% wal:` scripts use.
  static Result<std::unique_ptr<Server>> Open(
      const ServerOptions& options, RecoveryReport* report = nullptr);

  // ---- Universe and schema setup -------------------------------------------
  // Serialized against the commit queue. When an epoch has already been
  // published, each successful call republishes so the change becomes
  // visible to sessions that Refresh() — failures (bad rule, failed
  // materialization) leave the published epoch untouched.
  Status RegisterDatabase(std::string name, Value db_object);
  Status DefineRule(std::string_view rule_text);
  Status DefineRules(const std::vector<std::string>& rule_texts);
  Status DefineProgram(std::string_view clause_text);

  // ---- Epochs and sessions -------------------------------------------------

  // The newest published epoch; publishes the first one on demand (which
  // can fail if materialization fails).
  Result<EpochPtr> PublishedEpoch();

  // Opens a reader session pinned to the newest epoch.
  Result<ServerSession> Connect();

  // ---- The write path ------------------------------------------------------

  // Applies one update request through the commit queue and publishes the
  // next epoch. Blocks until the commit is applied or rejected; thread-safe
  // (this is the whole point). Error surface:
  //   kResourceExhausted  — queue full; admission rejection, retry later
  //   kDeadlineExceeded   — options.deadline_ms expired while queued (the
  //                         request was never applied) or during evaluation
  //   kFailedPrecondition — server shut down
  //   anything else       — the Update itself failed; the universe and the
  //                         published epoch are unchanged (Session::Update
  //                         is atomic under a governor or constraints)
  Result<CommitResult> Commit(std::string_view request_text,
                              const EvalOptions& options = EvalOptions());

  // Drains queued commits, then rejects all further work. Idempotent;
  // called by the destructor. Pending Commit() callers get their results;
  // later callers get kFailedPrecondition.
  void Shutdown();

  // Commits queued but not yet applied (racy; for tests and metrics).
  size_t queue_depth() const { return commit_queue_.queue_depth(); }

  // True if `query` must go through Commit() rather than a reader session:
  // it carries an update marker or calls a registered update program.
  bool IsUpdateRequest(const Query& query) const;

  // The sticky durability failure (Status::Ok() while healthy); see the
  // fail-stop note above. Exposed for tests.
  Status durability_error() const;

 private:
  friend class ServerSession;

  // Appends one record for an applied change, assigning it the epoch id the
  // following PublishLocked() will use. No-op without durability. Caller
  // must hold session_mu_; on failure poisons the durability layer.
  Status AppendDurable(WalRecordType type, std::string_view name,
                       std::string_view body);
  // Snapshot-checkpoints and resets the log every checkpoint_every records.
  // Caller must hold session_mu_.
  Status MaybeCheckpointLocked();
  Status CheckpointLocked();
  Status PoisonDurability(Status status);  // records + returns the failure

  // Snapshots the session and publishes the next epoch. Caller must hold
  // session_mu_.
  Status PublishLocked();
  // Publishes a copy of the session's program registry for readers. Caller
  // must hold session_mu_.
  void PublishProgramsLocked();
  // Publishes the first epoch if none exists yet.
  Status EnsurePublished();
  EpochPtr CurrentEpoch() const;
  // Runs one commit on the queue thread (the ticket carries the result).
  struct CommitTicket;
  void RunCommit(const std::shared_ptr<CommitTicket>& ticket);

  ServerOptions options_;

  // Guards session_ and epoch publication order. Held by the commit thread
  // while applying, and by setup methods. Readers take it only to publish
  // the first epoch; after that they read published_ and programs_ under
  // epoch_mu_ alone.
  mutable std::mutex session_mu_;
  Session session_;
  uint64_t next_epoch_id_ = 1;

  // Durability (all guarded by session_mu_; null/zero without a dir).
  std::unique_ptr<Wal> wal_;
  size_t records_since_checkpoint_ = 0;
  Status durability_poison_;

  // Guards only the published_ and programs_ pointers (swap on publish,
  // copy on pin or on classifying a request).
  mutable std::mutex epoch_mu_;
  EpochPtr published_;
  // The update programs readers classify requests against: an immutable
  // copy of the session's registry, replaced after each DefineProgram.
  std::shared_ptr<const ProgramRegistry> programs_ =
      std::make_shared<const ProgramRegistry>();

  // The single-writer commit queue. Declared after the state it touches so
  // its destructor (which drains) runs first.
  BoundedExecutor commit_queue_;
};

// A reader session handle: pins one epoch and evaluates pure queries
// against it. NOT thread-safe itself (one session per thread — sessions
// are cheap); any number of sessions may share one epoch. Copyable: a copy
// is an independent session pinned to the same epoch.
class ServerSession {
 public:
  // Evaluates a pure query at the pinned epoch. The epoch never changes
  // under the caller: repeated queries see one consistent snapshot until
  // Refresh()/Update(). Update requests are rejected with
  // kInvalidArgument — route them through Update(). Governor budgets in
  // `options` apply; CancelHandle() cancels mid-evaluation.
  Result<Answer> Query(std::string_view query_text,
                       const EvalOptions& options = EvalOptions());

  // Submits an update request through the server's commit queue; on
  // success re-pins this session to the epoch the commit published
  // (read-your-writes). On failure the pinned epoch is unchanged.
  Result<CommitResult> Update(std::string_view request_text,
                              const EvalOptions& options = EvalOptions());

  // Re-pins to the newest published epoch.
  Status Refresh();

  const EpochPtr& epoch() const { return epoch_; }
  uint64_t epoch_id() const { return epoch_->id; }

  // A token another thread may use to abort this session's in-flight
  // queries (they unwind with kCancelled at a governor checkpoint).
  CancelHandle cancel_handle() const { return cancel_; }

  // Cumulative evaluation statistics of this session's queries.
  const EvalStats& stats() const { return stats_; }

 private:
  friend class Server;
  ServerSession(Server* server, EpochPtr epoch)
      : server_(server), epoch_(std::move(epoch)) {}

  Server* server_;
  EpochPtr epoch_;
  CancelHandle cancel_;
  EvalStats stats_;
};

}  // namespace idl

#endif  // IDL_SERVER_SERVER_H_
