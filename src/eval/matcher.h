// Matcher: the satisfaction semantics of IDL expressions (paper §4.2-4.3).
//
// Match(value, expr, σ, cb) enumerates every extension σ' of the current
// substitution σ under which `value` satisfies `expr`, invoking `cb` once per
// extension (with σ temporarily extended; the matcher backtracks afterward).
//
// Semantics implemented:
//  * atomic:  `α c` compares the atom against the (evaluated) term; an
//    unbound variable with `=` binds to the object (any category — the
//    paper's generalization of [KN88] lets variables range over aggregate
//    objects too); an unbound variable with another relop is unsafe.
//  * tuple:   each item's expression must be satisfied by the item's
//    attribute object; a variable in attribute position (higher-order,
//    §4.3) enumerates the tuple's attribute names.
//  * set:     exists an element satisfying the inner expression.
//  * ¬exp:    satisfied iff no extension satisfies exp; variables bound
//    only inside the negation are existential and do not escape (§4.2).
//  * ε:       satisfied by every object.
//  * null:    the null atom satisfies no atomic expression (§5.2).
//  * kind mismatches (tuple expression on an atom, …) simply fail — data
//    in multidatabases is heterogeneous — they are not errors.

#ifndef IDL_EVAL_MATCHER_H_
#define IDL_EVAL_MATCHER_H_

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "eval/explain.h"
#include "eval/substitution.h"
#include "syntax/ast.h"

namespace idl {

// Returns false to stop enumeration early.
using MatchCallback = std::function<bool(const Substitution&)>;

class Matcher {
 public:
  // A set of at least `index_min_set_size` elements answers an equality
  // probe from its index over the probed attribute, kept in its cache slot
  // (Value::set_cache) and built on the first probe. Smaller sets, and
  // every set under kScanOnly, are scanned.
  static constexpr size_t kScanOnly = SIZE_MAX;
  explicit Matcher(EvalStats* stats, size_t index_min_set_size = kScanOnly)
      : stats_(stats), index_min_set_size_(index_min_set_size) {}

  // Enumerates satisfying extensions; the result is false if enumeration was
  // stopped early by the callback, true otherwise. Update-marked expressions
  // are rejected (the update applier owns those).
  Result<bool> Match(const Value& value, const Expr& expr, Substitution* sigma,
                     const MatchCallback& cb);

  // Convenience: true iff at least one satisfying extension exists. Bindings
  // do not escape.
  Result<bool> Exists(const Value& value, const Expr& expr,
                      Substitution* sigma);

  // Evaluates a ground (under σ) term to a value. Errors on unbound
  // variables inside arithmetic or on invalid arithmetic operands.
  static Result<Value> EvalTerm(const Term& term, const Substitution& sigma);

  // Three-way comparison used by relops: numeric across int/double, strings,
  // dates, bools. Returns no value (unordered) for incompatible kinds.
  // `=`/`!=` never error: incompatible kinds are simply unequal.
  static bool EvalRelOp(RelOp op, const Value& object, const Value& operand);

 private:
  // Dispatch ignoring expr.negated (used to probe inside a negation).
  Result<bool> MatchPositive(const Value& value, const Expr& expr,
                             Substitution* sigma, const MatchCallback& cb);
  Result<bool> MatchAtomic(const Value& value, const Expr& expr,
                           Substitution* sigma, const MatchCallback& cb);
  Result<bool> MatchTuple(const Value& value, const Expr& expr,
                          Substitution* sigma, const MatchCallback& cb);
  Result<bool> MatchTupleItems(const Value& value,
                               const std::vector<TupleItem>& items,
                               size_t index, Substitution* sigma,
                               const MatchCallback& cb);
  Result<bool> MatchSet(const Value& value, const Expr& expr,
                        Substitution* sigma, const MatchCallback& cb);

  // If `inner` (the body of a set expression) contains a tuple item usable
  // as an equality probe under `sigma` — a constant attribute with a pure
  // `=term` expression whose term is ground — fills attr/value and returns
  // true. `*attr` aliases the item's name (owned by the expression, which
  // outlives the probe): the hot path copies no string.
  static bool FindProbe(const Expr& inner, const Substitution& sigma,
                        std::string_view* attr, Value* value);

  EvalStats* stats_;
  size_t index_min_set_size_;
  // An error raised inside a nested enumeration callback is parked here and
  // re-raised once the enumeration unwinds.
  Status nested_error_;
};

}  // namespace idl

#endif  // IDL_EVAL_MATCHER_H_
