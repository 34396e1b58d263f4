// Vectorized conjunct execution over columnar pages (docs/COLUMNAR.md).
//
// The tuple-at-a-time matcher enumerates a conjunct like
//
//     .dbI.p(.date = D, .stock = S, .price = P)
//
// by walking every element of `dbI.p`, allocating and comparing nested
// Values per tuple. When the relation is flat (relational/columnar.h), the
// same conjunct runs as a handful of column kernels instead: resolve each
// item to a column, narrow a selection vector with typed filters (or one
// hash-index probe for the first `=ground` item), then emit the surviving
// rows, binding variables from column cells.
//
// Two pieces:
//  * CompileVectorConjunct — static shape analysis, once per enumeration: a
//    chain of single-item tuple navigations down to a set whose inner tuple
//    has only constant-attribute atomic/ε items (no negation, guards,
//    element-level attribute variables, updates, intra-conjunct variable
//    reuse, or nested aggregates — those shapes keep the matcher). The last
//    navigation step may be a relation-position attribute variable
//    (`.ource.S(.date=D, .clsPrice=P)`, §4.3).
//  * ExecuteVectorConjunct — runs a compiled plan under the current
//    substitution. Dynamic per-item classification (a variable bound by an
//    earlier conjunct filters; an unbound one binds) mirrors MatchAtomic. A
//    relation variable visits the navigated tuple's fields in field order,
//    binding the variable and running the item loop over each relation's
//    page — the written-order enumeration, one page at a time.
//
// Equivalence contract (pinned by columnar_test and every differential
// suite): for any conjunct it accepts, ExecuteVectorConjunct emits exactly
// the substitutions Matcher::Match would, in the same order, with the same
// error (and error timing) — so transcripts are byte-identical across
// EvalSubstrate modes. Rows emit in element order; errors surface only if
// some row reaches the erroring item, exactly like the scan.

#ifndef IDL_EVAL_VECTOR_EXEC_H_
#define IDL_EVAL_VECTOR_EXEC_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "eval/explain.h"
#include "eval/substitution.h"
#include "object/value.h"
#include "syntax/ast.h"

namespace idl {

// One inner-tuple item of a vectorizable conjunct.
struct VectorItemPlan {
  enum class Kind : uint8_t {
    kExists,  // `.attr` with ε: column must exist; any cell (even null) passes
    kAtomic,  // `.attr relop term`
  };
  Kind kind = Kind::kAtomic;
  const std::string* attr = nullptr;  // owned by the conjunct expression
  RelOp relop = RelOp::kEq;
  const Term* term = nullptr;         // kAtomic
  const Expr* expr = nullptr;         // the inner atomic expr (error messages)
};

// A compiled conjunct: navigate `path` from the universe root to a set,
// then run `items` over its columnar page. With `rel_var`, `path` ends at a
// tuple instead, and each of its set-valued fields is a relation to run.
struct VectorConjunctPlan {
  std::vector<const std::string*> path;  // tuple attrs, owned by `source`
  const std::string* rel_var = nullptr;  // `.db.R(…)`'s R, owned by `source`
  std::vector<VectorItemPlan> items;
  const Expr* source = nullptr;          // the conjunct (for fallback)
};

// Static shape analysis; nullopt when the conjunct must keep the matcher.
std::optional<VectorConjunctPlan> CompileVectorConjunct(const Expr& expr);

// Runs `plan` against `universe` under `*sigma`, calling `next` once per
// satisfying row with `*sigma` extended (and rolled back afterwards).
// Pages come from each set's cache slot (ColumnarRelation::Of). Returns
// false when `next` stopped enumeration, true otherwise; errors are the
// exact statuses the matcher would raise. If a target set has no columnar
// page (not flat) — for a relation variable, any set-valued field it may
// visit — sets `*fell_back` and returns before emitting anything: the
// caller must run the matcher instead.
Result<bool> ExecuteVectorConjunct(const VectorConjunctPlan& plan,
                                   const Value& universe, bool use_indexes,
                                   size_t index_min_rows, EvalStats* stats,
                                   Substitution* sigma,
                                   const std::function<bool()>& next,
                                   bool* fell_back);

}  // namespace idl

#endif  // IDL_EVAL_VECTOR_EXEC_H_
