#include "server/server.h"

#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <utility>

#include "common/metrics.h"
#include "common/str_util.h"
#include "durability/snapshot.h"
#include "object/value_io.h"
#include "relational/columnar.h"
#include "syntax/parser.h"

namespace idl {

namespace {

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct ServerMetrics {
  Counter* commits;
  Counter* commit_failures;
  Counter* admission_rejects;
  Counter* epochs_published;
  Gauge* queue_depth;
  Gauge* epoch_id;
  Histogram* query_ms;
  Histogram* commit_ms;
  Histogram* commit_queue_ms;
  Histogram* epoch_age_ms;
};

// One static lookup; the registry never invalidates instrument pointers.
const ServerMetrics& Metrics() {
  static const ServerMetrics m = {
      MetricsRegistry::Global().counter("server.commits"),
      MetricsRegistry::Global().counter("server.commit_failures"),
      MetricsRegistry::Global().counter("server.admission_rejects"),
      MetricsRegistry::Global().counter("server.epochs_published"),
      MetricsRegistry::Global().gauge("server.queue_depth"),
      MetricsRegistry::Global().gauge("server.epoch_id"),
      MetricsRegistry::Global().histogram("server.query_ms"),
      MetricsRegistry::Global().histogram("server.commit_ms"),
      MetricsRegistry::Global().histogram("server.commit_queue_ms"),
      MetricsRegistry::Global().histogram("server.epoch_age_ms"),
  };
  return m;
}

struct RecoveryMetrics {
  Counter* replayed_records;
  Counter* torn_tail_truncations;
  Histogram* wall_ms;
};

// Lazy like the WAL's: only durable servers register recovery.* at all.
const RecoveryMetrics& RecMetrics() {
  static const RecoveryMetrics m = {
      MetricsRegistry::Global().counter("wal.replayed_records"),
      MetricsRegistry::Global().counter("recovery.torn_tail_truncations"),
      MetricsRegistry::Global().histogram("recovery.wall_ms"),
  };
  return m;
}

std::string WalPath(const DurabilityOptions& d) {
  return StrCat(d.dir, "/wal.log");
}

WalOptions WalOptionsFrom(const DurabilityOptions& d) {
  WalOptions o;
  o.fsync = d.fsync;
  o.crash_hook = d.crash_hook;
  return o;
}

bool FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

}  // namespace

// The rendezvous between a Commit() caller and the queue thread. Shared
// (not stack-owned by the caller) so a Shutdown(drain=false) that destroys
// a queued task cannot leave the worker touching a dead ticket.
struct Server::CommitTicket {
  std::string request_text;
  EvalOptions options;
  std::chrono::steady_clock::time_point submitted_at;

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Result<CommitResult> result = Result<CommitResult>(CommitResult{});

  void Finish(Result<CommitResult> r) {
    {
      std::lock_guard<std::mutex> lock(mu);
      result = std::move(r);
      done = true;
    }
    cv.notify_all();
  }
  Result<CommitResult> Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
    return std::move(result);
  }
};

Server::Server(const ServerOptions& options)
    : options_(options),
      commit_queue_(/*num_threads=*/1, options.max_pending_commits) {
  session_.set_materialize_options(options_.materialize);
}

Server::~Server() { Shutdown(); }

void Server::Shutdown() { commit_queue_.Shutdown(/*drain=*/true); }

Result<std::unique_ptr<Server>> Server::Create(const ServerOptions& options) {
  const DurabilityOptions& d = options.durability;
  if (d.dir.empty()) {
    return InvalidArgument("DurabilityOptions.dir is empty");
  }
  IDL_ASSIGN_OR_RETURN(LatestSnapshot latest, FindLatestSnapshot(d.dir));
  if (FileExists(WalPath(d)) || !latest.path.empty()) {
    return AlreadyExists(
        StrCat("durable state already present in ", d.dir, "; use Recover"));
  }
  auto server = std::make_unique<Server>(options);
  IDL_ASSIGN_OR_RETURN(server->wal_,
                       Wal::Create(WalPath(d), /*next_lsn=*/1,
                                   WalOptionsFrom(d)));
  return server;
}

Result<std::unique_ptr<Server>> Server::Recover(const ServerOptions& options,
                                                RecoveryReport* report) {
  auto t0 = std::chrono::steady_clock::now();
  const DurabilityOptions& d = options.durability;
  if (d.dir.empty()) {
    return InvalidArgument("DurabilityOptions.dir is empty");
  }
  IDL_ASSIGN_OR_RETURN(LatestSnapshot latest, FindLatestSnapshot(d.dir));
  const bool have_wal = FileExists(WalPath(d));
  if (latest.path.empty() && !have_wal) {
    return NotFound(StrCat("no durable state in ", d.dir));
  }

  SnapshotData snap;  // empty-state defaults when no snapshot exists
  if (!latest.path.empty()) {
    IDL_ASSIGN_OR_RETURN(snap, ReadSnapshot(latest.path));
  }
  WalReadResult tail;
  if (have_wal) {
    // Repairing the torn tail here is what lets OpenForAppend below extend
    // the same file; the dropped record was never acknowledged.
    IDL_ASSIGN_OR_RETURN(tail, ReadWal(WalPath(d), /*repair_torn_tail=*/true));
  }

  RecoveryReport rep;
  rep.recovered = true;
  rep.snapshot_lsn = snap.last_lsn;
  rep.torn_tail_truncations = tail.torn_tail_truncations;

  auto server = std::make_unique<Server>(options);
  std::lock_guard<std::mutex> lock(server->session_mu_);

  // Replay budget: recover_deadline_ms bounds snapshot load + every
  // replayed commit. Each commit runs governed under the remaining budget,
  // so a slow record aborts at a governor checkpoint instead of
  // overshooting the deadline.
  auto remaining_ms = [&]() -> Result<int> {
    if (d.recover_deadline_ms <= 0) return 0;  // 0 = ungoverned
    double remaining = d.recover_deadline_ms - MsSince(t0);
    if (remaining < 1.0) {
      return DeadlineExceeded(
          StrCat("recovery deadline (", d.recover_deadline_ms,
                 " ms) expired after ", rep.replayed_records,
                 " replayed record(s)"));
    }
    return static_cast<int>(remaining);
  };

  // 1. Rebuild the snapshot's state (base databases verbatim, views
  //    rematerialized from the rule texts — derived state is never stored).
  for (const auto& [name, literal] : snap.databases) {
    IDL_ASSIGN_OR_RETURN(Value db, ParseValue(literal));
    IDL_RETURN_IF_ERROR(
        server->session_.RegisterDatabase(name, std::move(db))
            .WithContext(StrCat("snapshot database '", name, "'")));
  }
  for (const std::string& rule : snap.rules) {
    IDL_RETURN_IF_ERROR(
        server->session_.DefineRule(rule).WithContext("snapshot rule"));
  }
  for (const std::string& program : snap.programs) {
    IDL_RETURN_IF_ERROR(
        server->session_.DefineProgram(program).WithContext(
            "snapshot program"));
  }
  server->next_epoch_id_ = snap.next_epoch_id;

  // 2. Replay the WAL tail through the ordinary commit path. Records the
  //    snapshot already covers (a crash between the checkpoint rename and
  //    the log reset leaves them behind) are skipped by LSN. Replay is
  //    deterministic: a logged record is a change that *applied* before it
  //    was logged, so re-applying it to the same prefix state succeeds.
  for (const WalRecord& record : tail.records) {
    if (record.lsn <= snap.last_lsn) continue;
    IDL_ASSIGN_OR_RETURN(int budget, remaining_ms());
    Status applied = [&]() -> Status {
      switch (record.type) {
        case WalRecordType::kCommit: {
          EvalOptions opts;
          opts.deadline_ms = budget;
          return server->session_.Update(record.body, opts).status();
        }
        case WalRecordType::kDefineRule:
          return server->session_.DefineRule(record.body);
        case WalRecordType::kRegisterDatabase: {
          IDL_ASSIGN_OR_RETURN(Value db, ParseValue(record.body));
          return server->session_.RegisterDatabase(record.name,
                                                   std::move(db));
        }
        case WalRecordType::kDefineProgram:
          return server->session_.DefineProgram(record.body);
      }
      return Internal("unreachable: ReadWal validated the record type");
    }();
    IDL_RETURN_IF_ERROR(applied.WithContext(
        StrCat("replaying wal.log record lsn=", record.lsn, " (",
               WalRecordTypeName(record.type), ")")));
    // Resume epoch numbering past every epoch the dead server acknowledged.
    server->next_epoch_id_ =
        std::max(server->next_epoch_id_, record.epoch + 1);
    ++rep.replayed_records;
  }

  server->PublishProgramsLocked();

  // 3. Reopen the log for appending and republish. A fresh post-reset log
  //    reports next_lsn 1; the snapshot knows better.
  uint64_t next_lsn = std::max(tail.next_lsn, snap.last_lsn + 1);
  if (have_wal) {
    IDL_ASSIGN_OR_RETURN(
        server->wal_,
        Wal::OpenForAppend(WalPath(d), next_lsn, WalOptionsFrom(d)));
  } else {
    IDL_ASSIGN_OR_RETURN(
        server->wal_, Wal::Create(WalPath(d), next_lsn, WalOptionsFrom(d)));
  }
  IDL_RETURN_IF_ERROR(server->PublishLocked());
  rep.epoch = server->published_->id;
  rep.wall_ms = MsSince(t0);

  RecMetrics().replayed_records->Increment(rep.replayed_records);
  RecMetrics().torn_tail_truncations->Increment(rep.torn_tail_truncations);
  RecMetrics().wall_ms->Observe(rep.wall_ms);
  if (report != nullptr) *report = rep;
  return server;
}

Result<std::unique_ptr<Server>> Server::Open(const ServerOptions& options,
                                             RecoveryReport* report) {
  const DurabilityOptions& d = options.durability;
  if (d.dir.empty()) {
    return InvalidArgument("DurabilityOptions.dir is empty");
  }
  IDL_ASSIGN_OR_RETURN(LatestSnapshot latest, FindLatestSnapshot(d.dir));
  if (!FileExists(WalPath(d)) && latest.path.empty()) {
    if (report != nullptr) *report = RecoveryReport{};
    return Create(options);
  }
  return Recover(options, report);
}

Status Server::durability_error() const {
  std::lock_guard<std::mutex> lock(session_mu_);
  return durability_poison_;
}

Status Server::PoisonDurability(Status status) {
  durability_poison_ = status;
  return status;
}

Status Server::AppendDurable(WalRecordType type, std::string_view name,
                             std::string_view body) {
  if (wal_ == nullptr) return Status::Ok();
  if (!durability_poison_.ok()) return durability_poison_;
  // The record carries the epoch id the PublishLocked() right after this
  // append will assign — 0 when nothing republishes (program definitions,
  // setup before the first epoch), matching WalRecord::epoch's contract.
  uint64_t epoch = 0;
  if (type != WalRecordType::kDefineProgram && published_ != nullptr) {
    epoch = next_epoch_id_;
  }
  Status appended = wal_->Append(type, name, body, epoch);
  if (!appended.ok()) return PoisonDurability(appended);
  ++records_since_checkpoint_;
  return Status::Ok();
}

Status Server::MaybeCheckpointLocked() {
  if (wal_ == nullptr || options_.durability.checkpoint_every == 0 ||
      records_since_checkpoint_ < options_.durability.checkpoint_every) {
    return Status::Ok();
  }
  IDL_RETURN_IF_ERROR(CheckpointLocked());
  records_since_checkpoint_ = 0;
  return Status::Ok();
}

Status Server::CheckpointLocked() {
  SnapshotData data;
  data.last_lsn = wal_->last_lsn();
  data.next_epoch_id = next_epoch_id_;
  for (const std::string& name : session_.database_names()) {
    const Value* db = session_.base_universe().FindField(name);
    if (db == nullptr) continue;
    data.databases.emplace_back(name, ToString(*db));
  }
  data.rules = session_.rule_texts();
  data.programs = session_.program_texts();
  Status written = WriteSnapshot(options_.durability.dir, data,
                                 WalOptionsFrom(options_.durability));
  if (!written.ok()) return PoisonDurability(written);
  Status reset = wal_->Reset();
  if (!reset.ok()) return PoisonDurability(reset);
  if (options_.durability.crash_hook &&
      options_.durability.crash_hook(CrashPoint::kAfterWalReset)) {
    return PoisonDurability(Unavailable(StrCat(
        "crash injected at ", CrashPointName(CrashPoint::kAfterWalReset))));
  }
  return Status::Ok();
}

Status Server::RegisterDatabase(std::string name, Value db_object) {
  std::lock_guard<std::mutex> lock(session_mu_);
  if (!durability_poison_.ok()) return durability_poison_;
  // Serialize before the move: the record's body is the value_io literal
  // recovery parses back (the same round-trip ExportDatabase rests on).
  std::string literal;
  if (wal_ != nullptr) literal = ToString(db_object);
  IDL_RETURN_IF_ERROR(session_.RegisterDatabase(name, std::move(db_object)));
  IDL_RETURN_IF_ERROR(
      AppendDurable(WalRecordType::kRegisterDatabase, name, literal));
  if (published_ != nullptr) IDL_RETURN_IF_ERROR(PublishLocked());
  return MaybeCheckpointLocked();
}

Status Server::DefineRule(std::string_view rule_text) {
  std::lock_guard<std::mutex> lock(session_mu_);
  if (!durability_poison_.ok()) return durability_poison_;
  IDL_RETURN_IF_ERROR(session_.DefineRule(rule_text));
  IDL_RETURN_IF_ERROR(AppendDurable(WalRecordType::kDefineRule, "", rule_text));
  if (published_ != nullptr) IDL_RETURN_IF_ERROR(PublishLocked());
  return MaybeCheckpointLocked();
}

Status Server::DefineRules(const std::vector<std::string>& rule_texts) {
  std::lock_guard<std::mutex> lock(session_mu_);
  if (!durability_poison_.ok()) return durability_poison_;
  for (const auto& text : rule_texts) {
    IDL_RETURN_IF_ERROR(session_.DefineRule(text));
    IDL_RETURN_IF_ERROR(AppendDurable(WalRecordType::kDefineRule, "", text));
  }
  if (published_ != nullptr) IDL_RETURN_IF_ERROR(PublishLocked());
  return MaybeCheckpointLocked();
}

Status Server::DefineProgram(std::string_view clause_text) {
  std::lock_guard<std::mutex> lock(session_mu_);
  if (!durability_poison_.ok()) return durability_poison_;
  IDL_RETURN_IF_ERROR(session_.DefineProgram(clause_text));
  // Programs don't change the universe: no epoch republish, only the
  // registry readers classify requests against.
  PublishProgramsLocked();
  IDL_RETURN_IF_ERROR(
      AppendDurable(WalRecordType::kDefineProgram, "", clause_text));
  return MaybeCheckpointLocked();
}

void Server::PublishProgramsLocked() {
  auto programs =
      std::make_shared<const ProgramRegistry>(session_.programs().Clone());
  std::lock_guard<std::mutex> lock(epoch_mu_);
  programs_ = std::move(programs);
}

bool Server::IsUpdateRequest(const Query& query) const {
  std::shared_ptr<const ProgramRegistry> programs;
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    programs = programs_;
  }
  return programs->IsUpdateRequest(query);
}

Status Server::PublishLocked() {
  IDL_ASSIGN_OR_RETURN(Value universe, session_.SnapshotUniverse());
  auto epoch = std::make_shared<Epoch>();
  epoch->id = next_epoch_id_++;
  epoch->universe = std::move(universe);
  epoch->derived_paths = session_.derived_paths();
  {
    // The outgoing epoch stays alive across Build (readers hold it too), so
    // unchanged relations share its immutable pages instead of re-encoding.
    EpochPtr previous;
    {
      std::lock_guard<std::mutex> lock(epoch_mu_);
      previous = published_;
    }
    epoch->columnar = ColumnarStore::Build(
        epoch->universe, previous != nullptr ? previous->columnar.get()
                                             : nullptr);
  }
  epoch->published_at = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    if (published_ != nullptr) {
      Metrics().epoch_age_ms->Observe(MsSince(published_->published_at));
    }
    published_ = std::move(epoch);
    Metrics().epoch_id->Set(static_cast<int64_t>(published_->id));
  }
  Metrics().epochs_published->Increment();
  return Status::Ok();
}

Status Server::EnsurePublished() {
  if (CurrentEpoch() != nullptr) return Status::Ok();
  std::lock_guard<std::mutex> lock(session_mu_);
  if (published_ != nullptr) return Status::Ok();
  return PublishLocked();
}

EpochPtr Server::CurrentEpoch() const {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  return published_;
}

Result<EpochPtr> Server::PublishedEpoch() {
  IDL_RETURN_IF_ERROR(EnsurePublished());
  return CurrentEpoch();
}

Result<ServerSession> Server::Connect() {
  IDL_ASSIGN_OR_RETURN(EpochPtr epoch, PublishedEpoch());
  return ServerSession(this, std::move(epoch));
}

void Server::RunCommit(const std::shared_ptr<CommitTicket>& ticket) {
  Metrics().queue_depth->Set(static_cast<int64_t>(commit_queue_.queue_depth()));
  double queued_ms = MsSince(ticket->submitted_at);
  Metrics().commit_queue_ms->Observe(queued_ms);
  EvalOptions options = ticket->options;
  if (options.deadline_ms > 0) {
    // The deadline covers the caller's wait, queue time included: reject
    // without applying when it expired in the queue, otherwise hand the
    // remaining budget to the governed Update.
    double remaining = options.deadline_ms - queued_ms;
    if (remaining < 1.0) {
      Metrics().commit_failures->Increment();
      ticket->Finish(
          DeadlineExceeded("commit deadline expired while queued"));
      return;
    }
    options.deadline_ms = static_cast<int>(remaining);
  }
  auto t0 = std::chrono::steady_clock::now();
  Result<CommitResult> outcome = [&]() -> Result<CommitResult> {
    std::lock_guard<std::mutex> lock(session_mu_);
    if (!durability_poison_.ok()) return durability_poison_;
    if (published_ == nullptr) IDL_RETURN_IF_ERROR(PublishLocked());
    IDL_ASSIGN_OR_RETURN(UpdateRequestResult applied,
                         session_.Update(ticket->request_text, options));
    // Apply, then log, then publish: a failed apply logs nothing (replay
    // always succeeds), and a logged record is a change the server was
    // acknowledging — recovery must replay it even if the publish below
    // never ran.
    IDL_RETURN_IF_ERROR(
        AppendDurable(WalRecordType::kCommit, "", ticket->request_text));
    IDL_RETURN_IF_ERROR(PublishLocked());
    CommitResult result;
    result.epoch = published_;
    result.bindings = applied.bindings;
    result.counts = applied.counts;
    // A due checkpoint rides on this commit; its failure is this commit's
    // error (the commit itself is already durable in the log — the harness
    // classifies checkpoint crash points as record-durable).
    IDL_RETURN_IF_ERROR(MaybeCheckpointLocked());
    return result;
  }();
  Metrics().commit_ms->Observe(MsSince(t0));
  if (outcome.ok()) {
    Metrics().commits->Increment();
  } else {
    Metrics().commit_failures->Increment();
  }
  ticket->Finish(std::move(outcome));
}

Result<CommitResult> Server::Commit(std::string_view request_text,
                                    const EvalOptions& options) {
  auto ticket = std::make_shared<CommitTicket>();
  ticket->request_text = std::string(request_text);
  ticket->options = options;
  ticket->submitted_at = std::chrono::steady_clock::now();
  Status admitted = commit_queue_.Submit([this, ticket] { RunCommit(ticket); });
  if (!admitted.ok()) {
    if (admitted.code() == StatusCode::kResourceExhausted) {
      Metrics().admission_rejects->Increment();
      return ResourceExhausted(
          StrCat("server overloaded: ", options_.max_pending_commits,
                 " commits already pending"));
    }
    return admitted;  // kFailedPrecondition: shut down
  }
  Metrics().queue_depth->Set(static_cast<int64_t>(commit_queue_.queue_depth()));
  return ticket->Wait();
}

// ---- ServerSession ---------------------------------------------------------

Result<Answer> ServerSession::Query(std::string_view query_text,
                                    const EvalOptions& options) {
  IDL_ASSIGN_OR_RETURN(struct Query query, ParseQuery(query_text));
  if (server_->IsUpdateRequest(query)) {
    return InvalidArgument(
        "update request on a reader session; use ServerSession::Update");
  }
  auto t0 = std::chrono::steady_clock::now();
  // Always governed: the cancel handle must be able to abort a reader
  // mid-evaluation even when no budget is set.
  ResourceGovernor governor(GovernorLimitsFrom(options), cancel_);
  // Readers evaluate against the pages and indexes kept on the epoch's
  // sets: no per-query encode, and concurrent sessions on the same epoch
  // share them.
  EvalStats query_stats;
  Result<Answer> answer = EvaluateQuery(epoch_->universe, query, options,
                                        &query_stats, &governor);
  query_stats.BumpMetrics();
  stats_ += query_stats;
  Metrics().query_ms->Observe(MsSince(t0));
  return answer;
}

Result<CommitResult> ServerSession::Update(std::string_view request_text,
                                           const EvalOptions& options) {
  Result<CommitResult> committed = server_->Commit(request_text, options);
  if (committed.ok()) epoch_ = committed->epoch;
  return committed;
}

Status ServerSession::Refresh() {
  IDL_ASSIGN_OR_RETURN(epoch_, server_->PublishedEpoch());
  return Status::Ok();
}

}  // namespace idl
