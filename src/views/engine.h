// View engine: materializes derived views into the universe (paper §6).
//
// For each grounding substitution σ satisfying a rule body, the head instance
// (head)σ is "made true" in the universe via the recursive definition of §6:
//   MakeTrue(.a exp, o)  — create attribute a if absent, recurse on o.a
//   MakeTrue((exp), s)   — ensure some element of s satisfies exp
//   MakeTrue(=c, o)      — the object becomes c
// Making `(exp)` true prefers, in order: (1) an element already satisfying
// exp (no-op), (2) *extending* an element that is consistent with exp
// (absent attributes are added), (3) inserting a fresh element. Choice (2)
// is what folds per-stock facts into chwab's one-tuple-per-date shape, while
// a contradicting value (a price discrepancy) still yields a second tuple —
// exactly the behaviour §6 describes ("both prices are in the user's view").
//
// Two fixpoint strategies (EvalOptions::strategy):
//
//  * kNaive — strata (SCCs) in topological order; every pass of a recursive
//    stratum re-enumerates every rule body over the whole universe. Simple,
//    and kept as the oracle for tests/differential_engine_test.cc.
//
//  * kSemiNaive (default) — rules are grouped into topological *levels*
//    (independent SCCs of equal depth merged into one wave). Each pass
//    first enumerates all rule bodies read-only — concurrently on a thread
//    pool when materialize_parallelism allows — then writes all heads
//    sequentially in rule order, recording every change into a *delta
//    universe* when a later pass or level reads it (a non-recursive level
//    of a full run records none). Passes after the first replace, one at a
//    time, each body conjunct that may read this level's heads with the
//    delta universe, so only substitutions touching a newly derived fact
//    are re-derived. Pages and equality indexes live in each set's cache
//    slot (Value::set_cache), so they persist across rules, passes and
//    waves until the set itself is written.
//
// Both strategies write heads in rule order with identical per-rule
// substitution enumeration order, so for non-recursive programs the results
// are bit-identical; for recursive programs they converge to the same
// fixpoint (set equality) whenever derivations are confluent, which the
// differential harness checks on the whole paper corpus.
//
// A kSemiNaive materialization additionally retains per-level maintenance
// state (Materialized::level_written) so ApplyDelta can bring it up to date
// after a base change without re-running the whole fixpoint — insertions by
// seeded semi-naive propagation, everything else by delete-and-rederive
// restricted to the affected levels (docs/INCREMENTAL.md).

#ifndef IDL_VIEWS_ENGINE_H_
#define IDL_VIEWS_ENGINE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "eval/explain.h"
#include "eval/query.h"
#include "object/value.h"
#include "syntax/ast.h"
#include "views/delta.h"
#include "views/stratify.h"

namespace idl {

struct Materialized {
  // Base universe plus all derived facts.
  Value universe;
  // "db.rel" paths created by rules (sorted, unique) — the derived relations,
  // used by the session to route updates on views to update programs.
  std::vector<std::string> derived_paths;
  uint64_t facts_derived = 0;  // satisfying body substitutions processed
  uint64_t changes = 0;        // MakeTrue calls that changed the universe
  int fixpoint_passes = 0;     // total rule-evaluation passes across strata

  // Semi-naive observability (all zero under kNaive except stratum_stats).
  uint64_t delta_size = 0;             // facts recorded into read deltas
  uint64_t substitutions_skipped = 0;  // replays avoided vs naive (estimate)
  uint64_t indexes_reused = 0;         // index probes served without a build
  uint64_t parallel_tasks = 0;         // rule evaluations run on pool threads
  std::vector<StratumStats> stratum_stats;  // one row per evaluation wave

  // End-to-end timings of the materialization (stratification + every
  // wave). cpu_ms is the sum of the waves' attributed CPU (see
  // StratumStats::cpu_ms); wall_ms is one clock around the whole run, so
  // the per-stratum walls sum to slightly under it (the remainder is
  // stratification, classification and pool setup).
  double wall_ms = 0.0;
  double cpu_ms = 0.0;

  // ---- Incremental-maintenance state (views/delta.h, ApplyDelta) -----------
  // Per evaluation level (kSemiNaive only): the concrete "db"/"db.rel" paths
  // the level's rules actually wrote, recorded from derivations. For
  // higher-order heads the static target is data-dependent, which is exactly
  // why ApplyDelta's affectedness test consults these recorded paths instead
  // of head references: a HO stratum only invalidates when a relation it
  // *read* or *wrote* changed. Empty under kNaive, which therefore never
  // maintains incrementally.
  std::vector<std::vector<std::string>> level_written;
  // Maintenance counters accumulated across ApplyDelta calls (and fallback
  // rematerializations, which the session carries over).
  MaintenanceStats maintenance;

  // Per-site federation counter table (Gateway::Explain), set by the session
  // when the materialized universe was assembled through a gateway. Empty
  // for purely local sessions.
  std::string federation;

  // Governor section (FormatGovernorUsage: passes, derivations, peak cells,
  // time remaining at completion, abort reason), set when the
  // materialization ran under a ResourceGovernor. Empty otherwise.
  std::string governor;

  // Human-readable per-stratum table (FormatStratumStats) plus a summary
  // line — the `explain` view of a materialization. Ends with the governor
  // section and the federation table when present.
  std::string Explain() const;

  // The EXPLAIN ANALYZE view: FormatAnalyze over stratum_stats — per-rule
  // and per-stratum phase timings checked against wall_ms/cpu_ms. Masked
  // timings (every cell "-") for byte-stable golden transcripts.
  std::string ExplainAnalyze(bool mask_timings = false) const;
};

class ViewEngine {
 public:
  // Validates and adds a rule. Stratification is (re)checked lazily at
  // Materialize time.
  Status AddRule(Rule rule);

  const std::vector<Rule>& rules() const { return rules_; }
  void Clear() { rules_.clear(); }

  // Evaluates all rules against `base`, stratum by stratum, iterating each
  // recursive stratum to fixpoint. Strategy and parallelism come from
  // `options` (EvalOptions() means semi-naive, auto parallelism).
  //
  // `governor`, when non-null, is polled per fixpoint pass, per rule batch,
  // and per derivation (including inside thread-pool workers): a cancelled
  // or out-of-budget materialization returns the governor's abort status
  // and publishes nothing — derivation happens in a scratch copy of `base`,
  // so the caller's universe is untouched (strong exception safety).
  Result<Materialized> Materialize(const Value& base,
                                   EvalStats* stats = nullptr) const;
  Result<Materialized> Materialize(const Value& base,
                                   const EvalOptions& options,
                                   EvalStats* stats = nullptr,
                                   const ResourceGovernor* governor =
                                       nullptr) const;

  // Incrementally updates `m` — a kSemiNaive Materialize result over the
  // base universe *before* the change — to equal Materialize(base_after),
  // where `base_after` differs from that base exactly as `delta` describes.
  //
  //  * Pure insertions (delta.dirty empty) are mirrored into the retained
  //    universe and propagated semi-naively: each level runs only if a body
  //    conjunct can read the insertion closure, with pass 0 already
  //    delta-restricted to the seed.
  //  * Anything else takes the delete-and-rederive path: the universe is
  //    rebuilt from `base_after`, levels whose body reads, concrete head,
  //    or recorded outputs overlap the dirty closure re-run their full
  //    wave, and every other level's output relations are copied over
  //    verbatim from the old materialization.
  //
  // The insertion path additionally reroutes to delete-and-rederive when a
  // rule writes into an inserted relation (absorb folding could diverge) or
  // when the insertion closure reaches a negated body conjunct (insertions
  // are then non-monotone).
  //
  // Returns kFailedPrecondition when `m` carries no usable maintenance
  // state (kNaive result, rule set changed, whole-universe delta) — the
  // caller should fall back to a full rematerialization. Any other error
  // (governor aborts included) leaves `m` in an unspecified state: discard
  // it and rematerialize from the pristine base (the session does).
  Status ApplyDelta(Materialized* m, const Value& base_after,
                    const UniverseDelta& delta, const EvalOptions& options,
                    EvalStats* stats = nullptr,
                    const ResourceGovernor* governor = nullptr) const;

 private:
  std::vector<Rule> rules_;
};

}  // namespace idl

#endif  // IDL_VIEWS_ENGINE_H_
