// Session: the public API of the IDL library.
//
// A session owns the base universe (registered databases), the view rules,
// and the update-program registry. Queries run against the *merged* universe
// (base plus materialized views, recomputed lazily after changes); update
// requests run against the base universe, with conjuncts that target a
// registered update program dispatched through it — including view-update
// programs (§7.2), which is how an update through a customized view reaches
// the base databases.
//
// Typical use (see examples/quickstart.cc):
//   Session session;
//   session.RegisterDatabase(BuildEuterDatabase(w));
//   session.DefineRules(PaperViewRules());
//   auto answer = session.Query("?.dbI.p(.stk=S, .clsPrice>200)");

#ifndef IDL_IDL_SESSION_H_
#define IDL_IDL_SESSION_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/governor.h"
#include "common/result.h"
#include "constraints/checker.h"
#include "eval/explain.h"
#include "eval/query.h"
#include "federation/gateway.h"
#include "object/value.h"
#include "programs/executor.h"
#include "programs/program.h"
#include "relational/database.h"
#include "update/applier.h"
#include "views/engine.h"

namespace idl {

class Session {
 public:
  Session() = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // ---- Universe management -------------------------------------------------

  // Registers a database object (a tuple of relation sets).
  Status RegisterDatabase(std::string name, Value db_object);
  // Lifts a relational database through the adapter and registers it.
  Status RegisterDatabase(const RelationalDatabase& db);
  Status RemoveDatabase(std::string_view name);

  const Value& base_universe() const { return base_; }

  // The merged universe: base plus materialized views. Recomputed lazily.
  Result<const Value*> universe();

  // Materializes if stale and returns a deep copy of the merged universe
  // with every node's hash cached: the epoch snapshot the server publishes
  // to concurrent reader sessions (src/server). The copy shares only its
  // sets' cache slots with the session, which are built for concurrent
  // readers, so it is safe to evaluate against from many threads while
  // this session keeps committing (object/value.h, "Thread safety").
  Result<Value> SnapshotUniverse();

  // Lowers a database of the *merged* universe back to relational form
  // (write-back path for substrate databases, export path for views).
  Result<RelationalDatabase> ExportDatabase(const std::string& name);

  // ---- Durable state enumeration (src/durability) ---------------------------
  // The definition texts and registration names this session retains
  // verbatim, in order, so a snapshot checkpoint can serialize everything
  // needed to rebuild it (derived state is recomputed, never persisted —
  // docs/DURABILITY.md). Names registered through RegisterDatabase only;
  // federation site replicas are remote truth, not durable local state.
  const std::vector<std::string>& database_names() const {
    return database_names_;
  }
  const std::vector<std::string>& rule_texts() const { return rule_texts_; }
  const std::vector<std::string>& program_texts() const {
    return program_texts_;
  }

  // ---- Federation (src/federation) -------------------------------------------

  // Connects this session to a federation gateway. The gateway's sites
  // appear in the universe as databases named after each site, kept in sync
  // lazily: every query and update first refreshes the replicas whose site
  // generation moved (cheap pings plus per-site answer caches — see
  // federation/gateway.h). Pure queries over a rule-free session take the
  // *ship* path instead: first-order subgoals naming one site are pushed
  // down as selections and only matching rows cross the boundary
  // (federation/ship.h). Update requests that touch a site-backed database
  // are written back through the gateway; a write-back failure restores the
  // local universe and forces a resync, so the session converges to what
  // the sites actually hold. Fails if a site name collides with a
  // registered database.
  Status ConnectGateway(std::shared_ptr<Gateway> gateway);
  const std::shared_ptr<Gateway>& gateway() const { return federation_; }

  // Convenience: registers `site` with the connected gateway.
  Status RegisterSite(std::shared_ptr<Site> site);

  // Per-site counter table (Gateway::Explain); empty without a gateway.
  std::string ExplainFederation() const;

  // Sites skipped under DegradePolicy::kPartial during the last fetch: any
  // answer produced while this is non-empty is a documented partial answer.
  const std::vector<std::string>& degraded_sites() const {
    return degraded_sites_;
  }

  // ---- Views (§6) ------------------------------------------------------------

  Status DefineRule(std::string_view rule_text);
  Status DefineRules(const std::vector<std::string>& rule_texts);
  // "db.rel" paths of relations created by rules in the last
  // materialization.
  const std::vector<std::string>& derived_paths() const {
    return derived_paths_;
  }
  const Materialized* last_materialization() const {
    return materialized_valid_ ? &materialized_ : nullptr;
  }

  // ---- Integrity constraints (§2/§8's types & keys) -------------------------

  // Declares a constraint, e.g.
  //   "constrain .euter.r (date: date!, stkCode: string!, "
  //   "clsPrice: number) key (date, stkCode)"
  // While any constraints are declared, Update and CallProgram become
  // *atomic and validated*: the base universe is snapshotted, the request
  // applied, the constraints checked, and on violation the snapshot is
  // restored and kFailedPrecondition returned.
  Status DeclareConstraint(std::string_view declaration);
  const ConstraintSet& constraints() const { return constraints_; }
  // Checks the current base universe (e.g. after registering databases).
  Status ValidateConstraints() const { return constraints_.Validate(base_); }

  // ---- Update programs (§7) ---------------------------------------------------

  Status DefineProgram(std::string_view clause_text);
  Status DefinePrograms(const std::vector<std::string>& clause_texts);
  Result<CallResult> CallProgram(const std::string& path,
                                 const std::map<std::string, Value>& args,
                                 UpdateOp view_op = UpdateOp::kNone,
                                 const EvalOptions& options = EvalOptions());
  const ProgramRegistry& programs() const { return registry_; }

  // ---- Queries and update requests -------------------------------------------

  // Evaluates a pure query ("?...") against the merged universe.
  Result<Answer> Query(std::string_view query_text,
                       const EvalOptions& options = EvalOptions());

  // Applies an update request ("?..." with +/- expressions). Pure query
  // conjuncts read the merged universe; update conjuncts write the base
  // universe; conjuncts naming a registered program (including view-update
  // programs) are dispatched to it. Updating a derived relation without a
  // program is an error (§7.2: the administrator must supply the
  // translation). `options` carries the request's governor budgets
  // (EvalOptions::{deadline_ms, max_passes, max_derivations,
  // max_universe_cells}); a governed request is atomic — aborting leaves the
  // base universe bit-identical.
  Result<UpdateRequestResult> Update(
      std::string_view request_text,
      const EvalOptions& options = EvalOptions());

  // True if this parsed query must go through Update rather than Query: it
  // contains an update marker, or a conjunct calls a registered update
  // program (§7.1 requests like "?.dbU.delStk(.stk=hp)" carry no marker of
  // their own — the marker lives in the program's body).
  bool IsUpdateRequest(const struct Query& query) const;

  // Parses and runs a ';'-separated script of rules, program definitions,
  // queries and update requests; returns the answers of the query
  // statements in order. `options` applies to every statement individually
  // (each query or update gets its own governor with these budgets).
  Result<std::vector<Answer>> ExecuteScript(
      std::string_view script, const EvalOptions& options = EvalOptions());

  // ---- Resource governor (common/governor.h) --------------------------------

  // A token another thread may use to cancel this session's in-flight (and
  // future, until Reset) requests; they unwind with kCancelled at the next
  // governor checkpoint. Grabbing the handle makes every subsequent request
  // governed: updates snapshot the base universe first, so a cancelled
  // request rolls back cleanly (strong exception safety).
  CancelHandle cancel_handle() {
    cancel_exposed_ = true;
    return cancel_;
  }

  // The FormatGovernorUsage line of the most recent governed request
  // (passes, derivations, peak cells, time remaining, abort reason); empty
  // if no governed request has run yet.
  const std::string& last_governor() const { return last_governor_; }

  // Cumulative evaluation statistics (reset with ResetStats).
  const EvalStats& stats() const { return stats_; }
  void ResetStats() { stats_ = EvalStats(); }

  // Options used when (re)materializing views — strategy and parallelism
  // (see EvalOptions). Changing them invalidates the cached materialization.
  void set_materialize_options(const EvalOptions& options) {
    materialize_options_ = options;
    Invalidate();
  }
  const EvalOptions& materialize_options() const {
    return materialize_options_;
  }

 private:
  // Rematerializes views if stale. The materialization runs under its own
  // governor built from materialize_options_, chained to `request` (so a
  // query's deadline/cancel bounds the materialization it triggers); no
  // governor at all when nothing is bounded and no cancel handle is out.
  Status EnsureMaterialized(const ResourceGovernor* request = nullptr);
  Result<UpdateRequestResult> UpdateImpl(const struct Query& request,
                                         std::set<std::string>* touched_roots,
                                         const ResourceGovernor* governor);
  // Evaluates an already-parsed pure query (the ship path lives here).
  Result<Answer> QueryParsed(const struct Query& query,
                             const EvalOptions& options);
  Result<Answer> QueryGoverned(const struct Query& query,
                               const EvalOptions& options,
                               const ResourceGovernor* governor);
  // The per-request governor: non-null when any budget in `options` is set
  // or a cancel handle has been handed out, null (ungoverned, zero
  // overhead) otherwise.
  std::unique_ptr<ResourceGovernor> MakeRequestGovernor(
      const EvalOptions& options);
  // Records the finished request's governor line into last_governor_.
  // `status` is the request's outcome: when a *chained* governor (the
  // materialization's) aborted the request, this governor's own counters
  // never fired, and the chained one has already published its more
  // informative line — which this call then must not clobber.
  void RecordGovernor(const ResourceGovernor* governor,
                      const Status& status = Status::Ok());
  // The merged universe, with materialization bounded by `request`.
  Result<const Value*> universe(const ResourceGovernor* request);
  // Refreshes the site replica fields of base_ from the federation; no-op
  // without a gateway or when no site generation moved.
  Status SyncFederation(const ResourceGovernor* governor = nullptr);
  // Pushes the named replica databases back to their sites ("*" means every
  // site). On failure the caller restores its snapshot; this clears the
  // synced generations so the next sync re-pulls remote truth.
  Status WriteBack(const std::set<std::string>& roots);
  // Hard invalidation: the retained materialization is unusable (rule set
  // changed, databases came or went, a rollback rewound the base). The next
  // request rematerializes from scratch.
  void Invalidate() {
    materialized_valid_ = false;
    maintenance_available_ = false;
    pending_delta_.Clear();
  }
  // Soft invalidation: the base changed exactly as `delta` describes. The
  // merged accumulated delta drives incremental maintenance at the next
  // EnsureMaterialized (views/engine.h ApplyDelta).
  void MarkStale(UniverseDelta delta);
  // True if an update conjunct with this decomposed path targets a derived
  // relation.
  bool TargetsDerived(const std::string& path) const;

  Value base_ = Value::EmptyTuple();
  CancelHandle cancel_;
  bool cancel_exposed_ = false;
  std::string last_governor_;
  std::shared_ptr<Gateway> federation_;
  std::map<std::string, uint64_t> synced_generations_;
  std::vector<std::string> degraded_sites_;
  ViewEngine views_;
  ProgramRegistry registry_;
  ConstraintSet constraints_;
  Materialized materialized_;
  bool materialized_valid_ = false;
  // True while materialized_ carries usable per-level maintenance state
  // (set by a full kSemiNaive materialization, cleared by Invalidate and by
  // maintenance errors). Orthogonal to materialized_valid_: a stale-but-
  // maintainable cache has maintenance_available_ && !materialized_valid_.
  bool maintenance_available_ = false;
  // Base changes accumulated since the retained materialization was built
  // (merged across MarkStale calls, consumed by EnsureMaterialized).
  UniverseDelta pending_delta_;
  std::vector<std::string> derived_paths_;
  // Durable-state enumeration (kept in sync by RegisterDatabase/
  // RemoveDatabase/DefineRule/DefineProgram).
  std::vector<std::string> database_names_;
  std::vector<std::string> rule_texts_;
  std::vector<std::string> program_texts_;
  EvalStats stats_;
  EvalOptions materialize_options_;
};

}  // namespace idl

#endif  // IDL_IDL_SESSION_H_
