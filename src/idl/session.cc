#include "idl/session.h"

#include <algorithm>
#include <utility>

#include "common/metrics.h"
#include "common/str_util.h"
#include "common/trace.h"
#include "eval/matcher.h"
#include "federation/ship.h"
#include "relational/adapter.h"
#include "syntax/analysis.h"
#include "syntax/parser.h"
#include "syntax/printer.h"

namespace idl {

namespace {

// Parses one request text under a "parse" span so a trace attributes
// front-end time separately from evaluation.
Result<Query> ParseRequest(std::string_view text) {
  TraceSpan span("parse", StrCat("bytes=", text.size()));
  return ParseQuery(text);
}

}  // namespace

Status Session::RegisterDatabase(std::string name, Value db_object) {
  if (!db_object.is_tuple()) {
    return TypeError(StrCat("database '", name,
                            "' must be a tuple of relations"));
  }
  if (base_.HasField(name) ||
      (federation_ != nullptr && federation_->HasSite(name))) {
    return AlreadyExists(StrCat("database '", name, "'"));
  }
  base_.SetField(name, std::move(db_object));
  database_names_.push_back(std::move(name));
  Invalidate();
  return Status::Ok();
}

Status Session::RegisterDatabase(const RelationalDatabase& db) {
  return RegisterDatabase(db.name(), LiftDatabase(db));
}

Status Session::RemoveDatabase(std::string_view name) {
  std::string site_name(name);
  if (federation_ != nullptr && federation_->HasSite(site_name)) {
    IDL_RETURN_IF_ERROR(federation_->RemoveSite(site_name));
    base_.RemoveField(name);
    synced_generations_.erase(site_name);
    Invalidate();
    return Status::Ok();
  }
  if (!base_.RemoveField(name)) {
    return NotFound(StrCat("database '", name, "'"));
  }
  database_names_.erase(
      std::remove(database_names_.begin(), database_names_.end(), site_name),
      database_names_.end());
  Invalidate();
  return Status::Ok();
}

Result<const Value*> Session::universe() { return universe(nullptr); }

Result<Value> Session::SnapshotUniverse() {
  IDL_ASSIGN_OR_RETURN(const Value* u, universe());
  Value snapshot = *u;
  snapshot.Hash();  // caches every node's hash (object/value.h)
  return snapshot;
}

Result<const Value*> Session::universe(const ResourceGovernor* request) {
  IDL_RETURN_IF_ERROR(SyncFederation(request));
  if (views_.rules().empty()) return &base_;  // nothing derived: no copy
  IDL_RETURN_IF_ERROR(EnsureMaterialized(request));
  return &materialized_.universe;
}

std::unique_ptr<ResourceGovernor> Session::MakeRequestGovernor(
    const EvalOptions& options) {
  GovernorLimits limits = GovernorLimitsFrom(options);
  if (limits.Unlimited() && !cancel_exposed_) return nullptr;
  return std::make_unique<ResourceGovernor>(limits, cancel_);
}

void Session::MarkStale(UniverseDelta delta) {
  materialized_valid_ = false;
  // A counted mutation that recorded nothing would otherwise slip past
  // maintenance entirely; treat an empty delta as whole-universe.
  if (delta.empty()) delta.MarkWhole();
  pending_delta_.MergeFrom(std::move(delta));
}

void Session::RecordGovernor(const ResourceGovernor* governor,
                             const Status& status) {
  if (governor == nullptr) return;
  GovernorUsage usage = governor->Usage();
  bool governor_abort = status.code() == StatusCode::kCancelled ||
                        status.code() == StatusCode::kDeadlineExceeded ||
                        status.code() == StatusCode::kResourceExhausted;
  if (governor_abort && usage.abort_reason.empty()) return;
  last_governor_ = FormatGovernorUsage(usage, governor->limits());
}

// ---------------------------------------------------------------------------
// Federation

Status Session::ConnectGateway(std::shared_ptr<Gateway> gateway) {
  if (gateway == nullptr) {
    return InvalidArgument("gateway must be non-null");
  }
  if (federation_ != nullptr) {
    return FailedPrecondition("a gateway is already connected");
  }
  for (const auto& name : gateway->SiteNames()) {
    if (base_.HasField(name)) {
      return AlreadyExists(StrCat("database '", name,
                                  "' is registered locally; a site of the "
                                  "same name cannot be attached"));
    }
  }
  federation_ = std::move(gateway);
  Invalidate();
  return Status::Ok();
}

Status Session::RegisterSite(std::shared_ptr<Site> site) {
  if (federation_ == nullptr) {
    return FailedPrecondition("connect a gateway before registering sites");
  }
  if (site != nullptr && base_.HasField(site->name())) {
    return AlreadyExists(StrCat("database '", site->name(),
                                "' is registered locally"));
  }
  return federation_->AddSite(std::move(site));
}

std::string Session::ExplainFederation() const {
  return federation_ == nullptr ? std::string() : federation_->Explain();
}

Status Session::SyncFederation(const ResourceGovernor* governor) {
  if (federation_ == nullptr) return Status::Ok();
  IDL_ASSIGN_OR_RETURN(Gateway::FederatedFetch fetch,
                       federation_->FetchAll(governor));
  degraded_sites_ = fetch.degraded;
  bool changed = false;
  UniverseDelta delta;  // one dirty db per replica that moved
  for (auto& [name, db] : fetch.site_databases) {
    auto it = synced_generations_.find(name);
    if (it != synced_generations_.end() &&
        it->second == fetch.generations[name] && base_.HasField(name)) {
      continue;  // replica already reflects this generation
    }
    base_.SetField(name, std::move(db));
    synced_generations_[name] = fetch.generations[name];
    delta.AddDirty({name});
    changed = true;
  }
  // A degraded site contributes nothing: the answer comes from the
  // remaining sites (and says so — see degraded_sites()).
  for (const auto& name : fetch.degraded) {
    if (base_.RemoveField(name)) {
      delta.AddDirty({name});
      changed = true;
    }
    synced_generations_.erase(name);
  }
  if (changed) MarkStale(std::move(delta));
  return Status::Ok();
}

Status Session::WriteBack(const std::set<std::string>& roots) {
  if (federation_ == nullptr || roots.empty()) return Status::Ok();
  std::set<std::string> sites;
  if (roots.contains("*")) {
    // An ungroundable database name may have touched anything.
    sites = federation_->SiteNames();
  } else {
    for (const auto& root : roots) {
      if (federation_->HasSite(root)) sites.insert(root);
    }
  }
  TraceSpan span("writeback", StrCat("sites=", sites.size()));
  for (const auto& name : sites) {
    const Value* db = base_.FindField(name);
    if (db == nullptr) continue;  // degraded site: no replica to push
    Status pushed = federation_->WriteSite(name, *db);
    if (!pushed.ok()) {
      // The caller restores its local snapshot; force the next sync to
      // re-pull every site so the session converges to remote truth (some
      // earlier write-back of this batch may have landed).
      synced_generations_.clear();
      return pushed;
    }
    // The site's generation moved; re-pin the replica on the next sync.
    synced_generations_.erase(name);
  }
  return Status::Ok();
}

Result<RelationalDatabase> Session::ExportDatabase(const std::string& name) {
  IDL_ASSIGN_OR_RETURN(const Value* u, universe());
  const Value* db = u->FindField(name);
  if (db == nullptr) return NotFound(StrCat("database '", name, "'"));
  return LowerDatabase(name, *db);
}

Status Session::DefineRule(std::string_view rule_text) {
  IDL_ASSIGN_OR_RETURN(Rule rule, ParseRule(rule_text));
  IDL_RETURN_IF_ERROR(views_.AddRule(std::move(rule)));
  rule_texts_.emplace_back(rule_text);
  Invalidate();
  return Status::Ok();
}

Status Session::DefineRules(const std::vector<std::string>& rule_texts) {
  for (const auto& text : rule_texts) {
    IDL_RETURN_IF_ERROR(DefineRule(text).WithContext(text));
  }
  return Status::Ok();
}

Status Session::DefineProgram(std::string_view clause_text) {
  IDL_ASSIGN_OR_RETURN(ProgramClause clause, ParseProgramClause(clause_text));
  IDL_RETURN_IF_ERROR(registry_.Register(std::move(clause)));
  program_texts_.emplace_back(clause_text);
  return Status::Ok();
}

Status Session::DefinePrograms(const std::vector<std::string>& clause_texts) {
  for (const auto& text : clause_texts) {
    IDL_RETURN_IF_ERROR(DefineProgram(text).WithContext(text));
  }
  return Status::Ok();
}

Status Session::DeclareConstraint(std::string_view declaration) {
  return constraints_.AddText(declaration);
}

Result<CallResult> Session::CallProgram(
    const std::string& path, const std::map<std::string, Value>& args,
    UpdateOp view_op, const EvalOptions& options) {
  TraceSpan span("session.call", StrCat("path=", path));
  static Counter* calls =
      MetricsRegistry::Global().counter("session.program_calls");
  calls->Increment();
  std::unique_ptr<ResourceGovernor> governor = MakeRequestGovernor(options);
  IDL_RETURN_IF_ERROR(SyncFederation(governor.get()));

  // With constraints declared, a federation connected (whose write-back can
  // fail), or a governor active (which can abort mid-call), the call is
  // atomic: snapshot, apply, validate, roll back on violation or abort.
  Value snapshot;
  bool guarded = constraints_.size() > 0 || federation_ != nullptr ||
                 governor != nullptr;
  if (guarded) snapshot = base_;

  std::set<std::string> touched;
  UniverseDelta call_delta;
  ProgramExecutor executor(&registry_, &base_, &stats_,
                           federation_ == nullptr ? nullptr : &touched,
                           governor.get(), &call_delta);
  Result<CallResult> result = executor.Call(path, view_op, args);
  RecordGovernor(governor.get(), result.status());
  if (!result.ok()) {
    if (guarded) {
      base_ = std::move(snapshot);
      Invalidate();
    }
    return result.status();
  }
  if (constraints_.size() > 0) {
    Status valid = constraints_.Validate(base_);
    if (!valid.ok()) {
      base_ = std::move(snapshot);
      Invalidate();
      return valid.WithContext(
          StrCat("program ", path, " rolled back"));
    }
  }
  if (result->counts.Total() > 0) MarkStale(std::move(call_delta));
  Status pushed = WriteBack(touched);
  if (!pushed.ok()) {
    base_ = std::move(snapshot);
    Invalidate();
    return pushed.WithContext(StrCat("program ", path, " rolled back"));
  }
  result->counts.BumpMetrics();
  return result;
}

Result<Answer> Session::Query(std::string_view query_text,
                              const EvalOptions& options) {
  IDL_ASSIGN_OR_RETURN(struct Query query, ParseRequest(query_text));
  IDL_ASSIGN_OR_RETURN(QueryInfo info, AnalyzeQuery(query));
  if (info.is_update_request) {
    return InvalidArgument(
        "this is an update request; use Session::Update for it");
  }
  return QueryParsed(query, options);
}

Result<Answer> Session::QueryParsed(const struct Query& query,
                                    const EvalOptions& options) {
  TraceSpan span("session.query");
  static Counter* queries =
      MetricsRegistry::Global().counter("session.queries");
  queries->Increment();
  std::unique_ptr<ResourceGovernor> governor = MakeRequestGovernor(options);
  Result<Answer> answer = QueryGoverned(query, options, governor.get());
  RecordGovernor(governor.get(), answer.status());
  return answer;
}

Result<Answer> Session::QueryGoverned(const struct Query& query,
                                      const EvalOptions& options,
                                      const ResourceGovernor* governor) {
  // Ship path: with a federation and no view rules, fetch only what the
  // query needs — shipped selections for first-order subgoals, exports for
  // higher-order ones — and evaluate over the assembled universe.
  Value assembled;
  const Value* target = nullptr;
  if (federation_ != nullptr && views_.rules().empty()) {
    ShipPlan plan = PlanQuery(query, federation_->SiteNames());
    IDL_ASSIGN_OR_RETURN(Gateway::FederatedFetch fetch,
                         federation_->Fetch(plan, governor));
    degraded_sites_ = fetch.degraded;
    assembled = base_;
    for (const auto& name : federation_->SiteNames()) {
      assembled.RemoveField(name);  // drop any stale replica
    }
    for (auto& [name, db] : fetch.site_databases) {
      assembled.SetField(name, std::move(db));
    }
    target = &assembled;
  } else {
    IDL_ASSIGN_OR_RETURN(target, universe(governor));
  }
  // This query's own counters reach the process metrics (eval.*) before
  // they join the session's cumulative stats, as ServerSession::Query does.
  EvalStats query_stats;
  Result<Answer> answer =
      EvaluateQuery(*target, query, options, &query_stats, governor);
  query_stats.BumpMetrics();
  stats_ += query_stats;
  return answer;
}

Status Session::EnsureMaterialized(const ResourceGovernor* request) {
  if (materialized_valid_) return Status::Ok();
  GovernorLimits limits = GovernorLimitsFrom(materialize_options_);
  if (request != nullptr) {
    // The materialization's budgets come from materialize_options_, but a
    // budget the session leaves unset is inherited from the request, so
    // Query("...", {.max_passes = 8}) bounds the fixpoint it triggers. The
    // request's deadline and cancel token ride along via the parent chain
    // (inheriting deadline_ms as a number would restart the clock).
    const GovernorLimits& outer = request->limits();
    if (limits.max_passes == 0) limits.max_passes = outer.max_passes;
    if (limits.max_derivations == 0) {
      limits.max_derivations = outer.max_derivations;
    }
    if (limits.max_universe_cells == 0) {
      limits.max_universe_cells = outer.max_universe_cells;
    }
  }
  const bool governed =
      request != nullptr || !limits.Unlimited() || cancel_exposed_;

  // Maintenance counters survive a rebuild (so `explain` shows the
  // session-lifetime tally, fallbacks included).
  MaintenanceStats carried;
  if (maintenance_available_) carried = materialized_.maintenance;

  if (maintenance_available_ && !pending_delta_.whole) {
    UniverseDelta delta = std::exchange(pending_delta_, UniverseDelta());
    Status applied;
    if (governed) {
      ResourceGovernor governor(limits, cancel_, request);
      applied = views_.ApplyDelta(&materialized_, base_, delta,
                                  materialize_options_, &stats_, &governor);
      if (applied.ok()) {
        materialized_.governor =
            FormatGovernorUsage(governor.Usage(), governor.limits());
      } else if (!governor.Usage().abort_reason.empty()) {
        // Aborted mid-delta: the retained state is unspecified. Publish the
        // fixpoint's own usage line and drop the state — the next request
        // rebuilds from base_, which the abort never touched.
        last_governor_ =
            FormatGovernorUsage(governor.Usage(), governor.limits());
        maintenance_available_ = false;
        return applied;
      }
    } else {
      applied = views_.ApplyDelta(&materialized_, base_, delta,
                                  materialize_options_, &stats_);
    }
    if (applied.ok()) {
      materialized_.federation = ExplainFederation();
      derived_paths_ = materialized_.derived_paths;
      materialized_valid_ = true;
      return Status::Ok();
    }
    // Not maintainable (whole-universe delta, missing retained state, an
    // evaluation error): fall through to the full rematerialization.
  }
  const bool fell_back = maintenance_available_;
  maintenance_available_ = false;
  pending_delta_.Clear();

  if (governed) {
    // Materialize derives into a scratch copy of base_, so an abort leaves
    // both base_ and the cached materialization untouched.
    ResourceGovernor governor(limits, cancel_, request);
    Result<Materialized> m =
        views_.Materialize(base_, materialize_options_, &stats_, &governor);
    if (!m.ok()) {
      // Publish the aborted fixpoint's own usage line — its counters (not
      // the enclosing request's) say why the request died.
      if (!governor.Usage().abort_reason.empty()) {
        last_governor_ =
            FormatGovernorUsage(governor.Usage(), governor.limits());
      }
      return m.status();
    }
    materialized_ = std::move(m).value();
  } else {
    IDL_ASSIGN_OR_RETURN(
        materialized_,
        views_.Materialize(base_, materialize_options_, &stats_));
  }
  materialized_.maintenance = carried;
  if (fell_back) ++materialized_.maintenance.fallbacks;
  materialized_.federation = ExplainFederation();
  derived_paths_ = materialized_.derived_paths;
  materialized_valid_ = true;
  maintenance_available_ = true;
  return Status::Ok();
}

bool Session::TargetsDerived(const std::string& path) const {
  // `path` is the dotted constant prefix of an update conjunct
  // (e.g. "dbO.stk1" or "dbO"). It targets a derived relation if it equals
  // a derived path, is a database-level prefix of one, or extends one.
  for (const auto& derived : derived_paths_) {
    if (path == derived) return true;
    if (StartsWith(derived, StrCat(path, "."))) return true;
    if (StartsWith(path, StrCat(derived, "."))) return true;
  }
  return false;
}

Result<UpdateRequestResult> Session::Update(std::string_view request_text,
                                            const EvalOptions& options) {
  TraceSpan span("session.update");
  static Counter* updates =
      MetricsRegistry::Global().counter("session.updates");
  updates->Increment();
  IDL_ASSIGN_OR_RETURN(struct Query request, ParseRequest(request_text));

  std::unique_ptr<ResourceGovernor> governor = MakeRequestGovernor(options);

  // Sync before the snapshot so a rollback restores current replicas.
  IDL_RETURN_IF_ERROR(SyncFederation(governor.get()));

  // With constraints declared, a federation connected (whose write-back can
  // fail), or a governor active (which can abort mid-request), the whole
  // request is atomic and validated.
  Value snapshot;
  bool guarded = constraints_.size() > 0 || federation_ != nullptr ||
                 governor != nullptr;
  if (guarded) snapshot = base_;
  std::set<std::string> touched;
  Result<UpdateRequestResult> result =
      UpdateImpl(request, &touched, governor.get());
  RecordGovernor(governor.get(), result.status());
  if (!result.ok()) {
    if (guarded) {
      base_ = std::move(snapshot);
      Invalidate();
    }
    return result;
  }
  if (constraints_.size() > 0) {
    Status valid = constraints_.Validate(base_);
    if (!valid.ok()) {
      base_ = std::move(snapshot);
      Invalidate();
      return valid.WithContext("update request rolled back");
    }
  }
  Status pushed = WriteBack(touched);
  if (!pushed.ok()) {
    base_ = std::move(snapshot);
    Invalidate();
    return pushed.WithContext("update request rolled back");
  }
  result->counts.BumpMetrics();
  return result;
}

Result<UpdateRequestResult> Session::UpdateImpl(
    const struct Query& request, std::set<std::string>* touched_roots,
    const ResourceGovernor* governor) {

  // Make derived_paths_ current so view-targeting conjuncts are detected
  // even before the first query.
  if (!views_.rules().empty()) {
    IDL_RETURN_IF_ERROR(EnsureMaterialized(governor));
  }

  UpdateRequestResult result;
  // Mutations are recorded per conjunct and handed to MarkStale before the
  // next conjunct runs: pure-query conjuncts read the merged universe, so
  // mid-request materializations must already see the delta.
  UniverseDelta request_delta;
  ProgramExecutor executor(&registry_, &base_, &stats_,
                           federation_ == nullptr ? nullptr : touched_roots,
                           governor, &request_delta);
  UpdateApplier applier(&stats_, &result.counts, governor);
  applier.set_delta(&request_delta);

  std::vector<Substitution> bindings;
  bindings.emplace_back();

  for (const auto& conjunct : request.conjuncts) {
    if (governor != nullptr) IDL_RETURN_IF_ERROR(governor->Checkpoint());
    std::vector<Substitution> next;

    ProgramKey key;
    if (registry_.MatchCall(*conjunct, &key)) {
      // Program (or view-update) dispatch.
      CallResult call;
      IDL_RETURN_IF_ERROR(executor.ExecuteConjunct(*conjunct, bindings, &next,
                                                   &call));
      result.counts += call.counts;
      if (call.counts.Total() > 0) {
        MarkStale(std::move(request_delta));
        request_delta.Clear();
      }
    } else if (conjunct->IsPureQuery()) {
      IDL_ASSIGN_OR_RETURN(const Value* u, universe(governor));
      for (const auto& sigma : bindings) {
        if (governor != nullptr) IDL_RETURN_IF_ERROR(governor->Checkpoint());
        Matcher matcher(&stats_);
        Substitution working = sigma;
        Result<bool> r = matcher.Match(*u, *conjunct, &working,
                                       [&](const Substitution& s) {
                                         next.push_back(s);
                                         return true;
                                       });
        if (!r.ok()) return r.status();
      }
    } else {
      // Base update. Refuse updates that target derived relations: the
      // administrator must provide the translation as a program (§7.2).
      std::string path;
      UpdateOp op;
      const Expr* params;
      if (DecomposeCallShape(*conjunct, &path, &op, &params) &&
          TargetsDerived(path)) {
        return Unsupported(StrCat(
            "'", ToString(*conjunct), "' updates the derived view '", path,
            "'; no ", (op == UpdateOp::kDelete ? "delete" : "insert"),
            " update program is registered for it (§7.2)"));
      }
      const uint64_t counts_before = result.counts.Total();
      for (const auto& sigma : bindings) {
        if (federation_ != nullptr) {
          CollectUpdateRoots(*conjunct, sigma, touched_roots);
        }
        IDL_RETURN_IF_ERROR(
            applier.ApplyConjunct(&base_, *conjunct, sigma, &next));
      }
      if (result.counts.Total() > counts_before) {
        MarkStale(std::move(request_delta));
        request_delta.Clear();
      }
    }

    DedupSubstitutions(&next);
    bindings = std::move(next);
    if (bindings.empty()) break;
  }
  result.bindings = bindings.size();
  if (!request_delta.empty()) MarkStale(std::move(request_delta));
  return result;
}

bool Session::IsUpdateRequest(const struct Query& query) const {
  return registry_.IsUpdateRequest(query);
}

Result<std::vector<Answer>> Session::ExecuteScript(std::string_view script,
                                                   const EvalOptions& options) {
  Result<std::vector<Statement>> parsed = [&] {
    TraceSpan span("parse", StrCat("bytes=", script.size()));
    return ParseStatements(script);
  }();
  IDL_ASSIGN_OR_RETURN(std::vector<Statement> statements, std::move(parsed));
  std::vector<Answer> answers;
  for (auto& statement : statements) {
    switch (statement.kind) {
      case Statement::Kind::kQuery: {
        if (IsUpdateRequest(statement.query)) {
          IDL_ASSIGN_OR_RETURN(UpdateRequestResult r,
                               Update(ToString(statement.query), options));
          (void)r;
        } else {
          IDL_ASSIGN_OR_RETURN(Answer a,
                               QueryParsed(statement.query, options));
          answers.push_back(std::move(a));
        }
        break;
      }
      case Statement::Kind::kRule:
        IDL_RETURN_IF_ERROR(views_.AddRule(std::move(statement.rule)));
        Invalidate();
        break;
      case Statement::Kind::kProgramClause:
        IDL_RETURN_IF_ERROR(
            registry_.Register(std::move(statement.clause)));
        break;
    }
  }
  return answers;
}

}  // namespace idl
