// Conjunctive query evaluation over the universe (paper §4).
//
// A query `? c1, ..., ck` is one tuple expression on the universe whose items
// are the conjuncts; evaluation enumerates grounding substitutions
// left-to-right with sideways information passing, and the answer is the set
// of bindings of the query's positive free variables (§4.2: "the answer to a
// query is the set of grounding substitutions satisfying the query"). A
// variable-free query yields a boolean.

#ifndef IDL_EVAL_QUERY_H_
#define IDL_EVAL_QUERY_H_

#include <functional>
#include <string>
#include <vector>

#include "common/governor.h"
#include "common/result.h"
#include "eval/explain.h"
#include "eval/substitution.h"
#include "object/value.h"
#include "syntax/ast.h"

namespace idl {

// The answer to a query: a relation over the free variables.
struct Answer {
  std::vector<std::string> columns;        // free variables, in query order
  std::vector<std::vector<Value>> rows;    // deduplicated bindings
  bool boolean() const { return !rows.empty(); }

  // The row values for `var` across all rows (convenience for tests).
  std::vector<Value> Column(const std::string& var) const;

  // Renders as an aligned text table (column headers + rows).
  std::string ToTable() const;
};

// How ViewEngine::Materialize evaluates rules (see views/engine.h).
enum class EvalStrategy {
  // Re-enumerate every rule body over the full universe each fixpoint pass.
  // O(passes x rules x universe); kept as the differential-test oracle.
  kNaive,
  // Semi-naive delta evaluation: passes after the first only re-derive
  // substitutions whose body touches a fact derived in the previous pass,
  // with independent rules of one evaluation level run in parallel.
  kSemiNaive,
};

// How the session keeps a cached materialization current across base
// changes (see views/engine.h ApplyDelta and docs/INCREMENTAL.md).
enum class MaintenanceMode {
  // Propagate structured base deltas into the retained materialization:
  // insertions semi-naively, everything else by delete-and-rederive
  // restricted to the affected strata. Falls back to a full
  // rematerialization whenever the delta cannot be maintained safely.
  kIncremental,
  // Discard and rebuild from scratch on every base change; kept as the
  // differential oracle for the incremental path.
  kRematerialize,
};

// Which physical representation evaluates flat relations (see
// docs/COLUMNAR.md and relational/columnar.h).
enum class EvalSubstrate {
  // Vectorized kernels over per-attribute column vectors for flat
  // relations, falling back to tuple-at-a-time matching for everything
  // CompileVectorConjunct rejects (element-level attribute variables,
  // negation, guards) and for non-flat sets. Transcript-identical to
  // kNested by construction.
  kColumnar,
  // Tuple-at-a-time matching over nested Values everywhere; kept as the
  // differential oracle (the same naive-vs-optimized proof pattern as
  // EvalStrategy::kNaive and MaintenanceMode::kRematerialize).
  kNested,
};

class ColumnarStore;

struct EvalOptions {
  // Cap on result rows (0 = unlimited).
  size_t max_rows = 0;
  // Probe equality indexes over large sets instead of scanning them; the
  // indexes are built on first use and kept in each set's cache slot
  // (Value::set_cache). Ablated by bench_ablation_index.
  bool use_indexes = true;
  // Sets smaller than this are scanned, not indexed.
  size_t index_min_set_size = 32;
  // Materialization only: fixpoint evaluation strategy.
  EvalStrategy strategy = EvalStrategy::kSemiNaive;
  // Materialization only: worker threads for rule-body evaluation under
  // kSemiNaive. 0 = auto (hardware concurrency), 1 = serial, N = N-way.
  // Results are identical for every value (writes stay sequential).
  size_t materialize_parallelism = 0;
  // Materialization only: how the session maintains the cached
  // materialization across base changes. Incremental maintenance needs the
  // per-level state only kSemiNaive records, so kNaive always
  // rematerializes regardless of this setting.
  MaintenanceMode maintenance = MaintenanceMode::kIncremental;
  // Physical evaluation substrate for flat relations.
  EvalSubstrate substrate = EvalSubstrate::kColumnar;
  // Read by nothing in the library: evaluation finds every page in its
  // set's cache slot, where ColumnarStore::Build attaches epoch pages. Kept
  // only because perfbench/replay.cc still sets it.
  const ColumnarStore* columnar_store = nullptr;

  // ---- Resource-governor budgets (common/governor.h; 0 = unbounded) -------
  // The session builds one ResourceGovernor per request from these; a
  // request that exceeds a budget aborts with kDeadlineExceeded /
  // kResourceExhausted and leaves the universe exactly as it was.
  // Wall-clock deadline for the whole request.
  int deadline_ms = 0;
  // Fixpoint passes a materialization may run (guards divergent programs).
  int max_passes = 0;
  // Body substitutions a materialization may process.
  uint64_t max_derivations = 0;
  // Universe size budget in object-model cells (see CountCells).
  uint64_t max_universe_cells = 0;
  // Interrupt-injection seam for tests: cancel at the Nth governor
  // checkpoint (see GovernorLimits::cancel_at_checkpoint).
  uint64_t cancel_at_checkpoint = 0;
};

// The governor budgets carried by `options`, ready for ResourceGovernor.
GovernorLimits GovernorLimitsFrom(const EvalOptions& options);

// Evaluates a pure query (no update markers) against `universe`.
// `stats`, if non-null, accumulates work counters. `governor`, if non-null,
// is polled at every enumeration step: a cancelled or out-of-budget
// evaluation unwinds with the governor's abort status. Conjuncts carrying
// negation run after all positive ones, so their variables are bound
// whatever order the user wrote them in.
Result<Answer> EvaluateQuery(const Value& universe, const Query& query,
                             const EvalOptions& options = EvalOptions(),
                             EvalStats* stats = nullptr,
                             const ResourceGovernor* governor = nullptr);

// Evaluates the conjunction and calls back with every satisfying
// substitution (used by the view engine and the update applier, which need
// the substitutions themselves rather than a projected answer).
Result<bool> EnumerateBindings(
    const Value& universe, const std::vector<ExprPtr>& conjuncts,
    const EvalOptions& options, EvalStats* stats,
    const std::function<bool(const Substitution&)>& cb,
    const ResourceGovernor* governor = nullptr);

// A body conjunct paired with the universe it reads. Semi-naive evaluation
// points one conjunct at the (much smaller) delta universe of the previous
// fixpoint pass while the rest read the full one.
struct ConjunctSource {
  const Expr* expr = nullptr;
  const Value* universe = nullptr;
};

// Lower-level enumeration with per-conjunct universes.
Result<bool> EnumerateBindingsOver(
    const std::vector<ConjunctSource>& conjuncts, const EvalOptions& options,
    EvalStats* stats, const std::function<bool(const Substitution&)>& cb,
    const ResourceGovernor* governor = nullptr);

}  // namespace idl

#endif  // IDL_EVAL_QUERY_H_
