// Evaluation statistics: the instrumentation used by benches and
// EXPERIMENTS.md to substantiate claims about work performed
// (e.g. one higher-order query scans the chwab relation once, while the
// first-order expansion scans it once per stock; semi-naive materialization
// replays only delta-touching substitutions instead of the whole universe).

#ifndef IDL_EVAL_EXPLAIN_H_
#define IDL_EVAL_EXPLAIN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace idl {

struct EvalStats {
  uint64_t set_elements_scanned = 0;   // elements visited by set expressions
  uint64_t attrs_enumerated = 0;       // attribute names tried by HO variables
  uint64_t comparisons = 0;            // atomic-expression evaluations
  uint64_t substitutions_emitted = 0;  // satisfying grounding substitutions
  uint64_t negation_probes = 0;        // existence checks under ¬
  uint64_t index_probes = 0;           // set matches served by an index
  uint64_t indexes_built = 0;          // probes that had to build their index
  uint64_t indexes_reused = 0;         // probes served by an existing index

  // Adds this snapshot's aggregates to the process metrics registry
  // (counters eval.*) — called once per query/materialization, so the
  // per-probe hot paths stay metric-free.
  void BumpMetrics() const;

  EvalStats& operator+=(const EvalStats& o) {
    set_elements_scanned += o.set_elements_scanned;
    attrs_enumerated += o.attrs_enumerated;
    comparisons += o.comparisons;
    substitutions_emitted += o.substitutions_emitted;
    negation_probes += o.negation_probes;
    index_probes += o.index_probes;
    indexes_built += o.indexes_built;
    indexes_reused += o.indexes_reused;
    return *this;
  }

  std::string ToString() const;
};

// Per-rule timing inside one evaluation wave, split into the two phases the
// engine alternates: body enumeration (parallelizable, read-only) and head
// writing (sequential, in rule order). Sums cover every pass the rule was
// active in.
struct RuleTimingStats {
  int rule = 0;       // index in the engine's rule list
  std::string head;   // HeadTarget, "db.rel" with "*" for data-dependent
  int passes = 0;     // passes this rule was enumerated in
  uint64_t substitutions = 0;  // body substitutions processed
  double enumerate_ms = 0.0;   // body enumeration wall time
  double write_ms = 0.0;       // head write wall time
};

// Per-evaluation-level accounting of one materialization (see
// views/engine.h). A "stratum" here is one evaluation wave of the view
// engine: all mutually independent rules at the same topological depth form
// one wave.
struct StratumStats {
  int stratum = 0;        // wave id, in evaluation order
  int rules = 0;          // rules evaluated in this wave
  int passes = 0;         // fixpoint passes (1 unless recursive)
  bool recursive = false;
  uint64_t substitutions = 0;          // body substitutions processed
  uint64_t substitutions_skipped = 0;  // replays avoided vs. naive (estimate)
  uint64_t delta_facts = 0;            // facts recorded into read deltas
  uint64_t parallel_tasks = 0;         // rule evaluations run on pool threads
  double wall_ms = 0.0;
  // CPU time attributable to this wave: enumeration-task thread CPU (summed
  // across workers) plus the sequential write phase's. Can exceed wall_ms
  // under parallelism.
  double cpu_ms = 0.0;
  std::vector<RuleTimingStats> rule_timings;  // one row per rule in the wave
};

// Renders one row per stratum plus a totals row, aligned for terminals.
std::string FormatStratumStats(const std::vector<StratumStats>& strata);

// The EXPLAIN ANALYZE table: per-stratum rows (wall/CPU) interleaved with
// their per-rule phase timings (enumerate / write), and a totals row
// summing the strata, then a trailer line carrying the materialization's
// own measured totals —
//   analyze: wall=12.34ms cpu=11.90ms strata_wall=12.10ms
// so per-stratum attribution can be checked against end-to-end time (the
// two agree within 10% on the paper pipeline; tests/trace_metrics_test.cc
// asserts the containment direction). With mask_timings every timing cell
// (and the trailer's values) renders as "-" — the byte-stable form golden
// transcripts pin. Format locked by tests/explain_format_test.cc.
std::string FormatAnalyze(const std::vector<StratumStats>& strata,
                          double wall_ms, double cpu_ms,
                          bool mask_timings = false);

// Accounting of incremental view maintenance (views/engine.h ApplyDelta) on
// one retained materialization. `fallbacks` counts deltas the session could
// not maintain incrementally (whole-universe dirt, governor abort mid-delta,
// missing retained state) and served by a full rematerialization instead.
struct MaintenanceStats {
  uint64_t deltas_applied = 0;    // ApplyDelta calls that succeeded
  uint64_t rederived = 0;         // body substitutions replayed by maintenance
  uint64_t strata_skipped = 0;    // level visits that skipped evaluation
  uint64_t strata_rederived = 0;  // level visits that re-ran their wave
  uint64_t fallbacks = 0;         // deltas served by full rematerialization
};

// The one-line maintenance section of Materialized::Explain(), e.g.
// "maintenance: deltas=2 rederived=17 strata_skipped=3 strata_rederived=1
// fallbacks=0\n" (locked by tests/explain_format_test.cc).
std::string FormatMaintenanceStats(const MaintenanceStats& s);

// Per-site accounting of the federation gateway (src/federation/gateway.h):
// how many requests crossed the site boundary, how the generation-keyed
// answer cache behaved, and how the robustness machinery (retries, deadlines,
// degradation) fired. Cache hit/miss counters restart from zero whenever an
// update is written through to the site (the cache restarts cold), so
// hits/(hits+misses) is the hit rate *since the last write*.
struct SiteStats {
  std::string site;
  uint64_t requests = 0;        // site calls attempted (incl. retries, pings)
  uint64_t cache_hits = 0;      // answers served without a site call
  uint64_t cache_misses = 0;    // answers that had to call the site
  uint64_t retries = 0;         // failed attempts that were retried
  uint64_t timeouts = 0;        // attempts lost to the per-request deadline
  uint64_t failures = 0;        // attempts that failed for any reason
  uint64_t shipped_subgoals = 0;  // first-order subgoals pushed to the site
  uint64_t pulled_exports = 0;    // full fact exports pulled from the site
  bool degraded = false;        // answered without this site last operation

  double CacheHitRate() const {
    uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) / total;
  }
};

// Renders one row per site plus a totals row, aligned for terminals —
// the federation counterpart of FormatStratumStats.
std::string FormatSiteStats(const std::vector<SiteStats>& sites);

}  // namespace idl

#endif  // IDL_EVAL_EXPLAIN_H_
