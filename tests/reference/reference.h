// The reference evaluator: the engine-independent oracle that tests and
// benches compare the library against.
//
// It is deliberately the slow, obvious reading of the paper. Views
// materialize by the stratified *naive* fixpoint (every pass of a recursive
// stratum re-enumerates every rule body over the whole universe), heads are
// written by a scan-only §6 MakeTrue, and bodies and queries match
// tuple-at-a-time through Matcher alone, with conjuncts carrying negation
// moved last. It shares no fast path with what it checks: no vector
// kernels, no columnar pages, no delta universes, no absorb indexes, no
// incremental maintenance. The only knob is the matcher's existing equality
// index threshold, which defaults to scan-only; a check that compares
// against an indexed tuple-at-a-time run (the `_Nested` bench legs and the
// `attrs_enumerated` checks in tests/columnar_test.cc) sets it to 32.
//
// It bumps no metric and opens no span (a scan-only matcher builds no
// index), so metric and trace assertions see only the library. A governor,
// when given, is charged as the library charges one: a pass per fixpoint
// pass, a checkpoint per rule and per enumeration step, a derivation per
// body substitution and the cells each head write adds. Its abort messages
// carry configured limits only, so a budget the library exceeds is exceeded
// here with the same status text.
//
// This target is linked only by tests and benches; it is not part of libidl.

#ifndef IDL_TESTS_REFERENCE_REFERENCE_H_
#define IDL_TESTS_REFERENCE_REFERENCE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/governor.h"
#include "common/result.h"
#include "eval/explain.h"
#include "eval/matcher.h"
#include "eval/query.h"
#include "eval/substitution.h"
#include "object/value.h"
#include "syntax/ast.h"

namespace idl {

struct ReferenceMaterialization {
  // Base universe plus all derived facts.
  Value universe;
  // "db" / "db.rel" paths the rules wrote into (sorted, unique).
  std::vector<std::string> derived_paths;
  // Universe-changing MakeTrue steps, as Materialized::changes counts them.
  uint64_t changes = 0;
  // Body substitutions processed, over every pass.
  uint64_t facts_derived = 0;
};

// The stratified naive fixpoint of `rules` over `base`.
Result<ReferenceMaterialization> ReferenceMaterialize(
    const std::vector<Rule>& rules, const Value& base,
    const ResourceGovernor* governor = nullptr,
    size_t index_min_set_size = Matcher::kScanOnly);

// Calls back with every substitution satisfying the conjunction, in the
// matcher's order with negation-carrying conjuncts last. False when the
// callback stopped the enumeration. `stats`, if non-null, accumulates the
// matcher's counters.
Result<bool> ReferenceEnumerate(
    const Value& universe, const std::vector<ExprPtr>& conjuncts,
    const std::function<bool(const Substitution&)>& cb,
    EvalStats* stats = nullptr, const ResourceGovernor* governor = nullptr,
    size_t index_min_set_size = Matcher::kScanOnly);

// The answer to a pure query: ReferenceEnumerate's substitutions projected
// onto the free variables, duplicates dropped in first-seen order.
Result<Answer> ReferenceQuery(const Value& universe, const Query& query,
                              const ResourceGovernor* governor = nullptr,
                              size_t index_min_set_size = Matcher::kScanOnly);

// Parses rule texts (as Session::rule_texts() or a generator holds them).
Result<std::vector<Rule>> ParseRuleTexts(
    const std::vector<std::string>& texts);

}  // namespace idl

#endif  // IDL_TESTS_REFERENCE_REFERENCE_H_
