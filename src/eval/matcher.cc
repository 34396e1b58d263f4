#include "eval/matcher.h"

#include "common/str_util.h"
#include "common/trace.h"
#include "object/set_cache.h"
#include "object/value_io.h"
#include "relational/columnar.h"
#include "syntax/printer.h"

namespace idl {

namespace {

// Order comparison across atoms: returns -1/0/1, or kUnordered if the kinds
// are not comparable.
constexpr int kUnordered = 2;

int CompareAtoms(const Value& a, const Value& b) {
  if (a.is_number() && b.is_number()) {
    if (a.is_int() && b.is_int()) {
      int64_t x = a.as_int(), y = b.as_int();
      return x == y ? 0 : (x < y ? -1 : 1);
    }
    double x = a.as_double(), y = b.as_double();
    return x == y ? 0 : (x < y ? -1 : 1);
  }
  if (a.is_string() && b.is_string()) {
    int c = a.as_string().compare(b.as_string());
    return c == 0 ? 0 : (c < 0 ? -1 : 1);
  }
  if (a.is_date() && b.is_date()) {
    if (a.as_date() == b.as_date()) return 0;
    return a.as_date() < b.as_date() ? -1 : 1;
  }
  if (a.is_bool() && b.is_bool()) {
    if (a.as_bool() == b.as_bool()) return 0;
    return !a.as_bool() ? -1 : 1;
  }
  return kUnordered;
}

// The equality index over `attr`: element positions by the normalized hash
// of their `attr` value. Positions are pushed in element order, so the
// indexed path visits candidates exactly as a scan would (the columnar
// substrate relies on this for transcript identity).
SetCache::AttrIndex BuildAttrIndex(const Value& set, std::string_view attr) {
  // A build walks the whole set, so it is worth a span; probes answered by
  // a built index are far too hot to trace (they show up as counters only).
  TraceSpan span("index.build",
                 StrCat("attr=", attr, " elements=", set.SetSize()));
  SetCache::AttrIndex index;
  const auto& elements = set.elements();
  for (uint32_t i = 0; i < elements.size(); ++i) {
    if (!elements[i].is_tuple()) continue;
    const Value* field = elements[i].FindField(attr);
    if (field == nullptr || field->is_null()) continue;
    index[NormalizedCellHash(*field)].push_back(i);
  }
  return index;
}

}  // namespace

bool Matcher::EvalRelOp(RelOp op, const Value& object, const Value& operand) {
  // The null atom satisfies no atomic expression (§5.2's null semantics).
  if (object.is_null()) return false;
  if (op == RelOp::kEq || op == RelOp::kNe) {
    bool eq;
    if (object.is_number() && operand.is_number()) {
      eq = object.as_double() == operand.as_double();
    } else {
      eq = object == operand;
    }
    return op == RelOp::kEq ? eq : !eq;
  }
  int c = CompareAtoms(object, operand);
  if (c == kUnordered) return false;
  switch (op) {
    case RelOp::kLt:
      return c < 0;
    case RelOp::kLe:
      return c <= 0;
    case RelOp::kGt:
      return c > 0;
    case RelOp::kGe:
      return c >= 0;
    default:
      return false;
  }
}

Result<Value> Matcher::EvalTerm(const Term& term, const Substitution& sigma) {
  switch (term.kind) {
    case Term::Kind::kConst:
      return term.constant;
    case Term::Kind::kVar: {
      const Value* v = sigma.Lookup(term.var);
      if (v == nullptr) {
        return Unsafe(StrCat("variable ", term.var,
                             " is unbound where a value is required"));
      }
      return *v;
    }
    case Term::Kind::kArith: {
      IDL_ASSIGN_OR_RETURN(Value lhs, EvalTerm(*term.lhs, sigma));
      IDL_ASSIGN_OR_RETURN(Value rhs, EvalTerm(*term.rhs, sigma));
      // Date ± int-days arithmetic supports workload-style queries.
      if (lhs.is_date() && rhs.is_int() &&
          (term.op == ArithOp::kAdd || term.op == ArithOp::kSub)) {
        int64_t days = term.op == ArithOp::kAdd ? rhs.as_int() : -rhs.as_int();
        return Value::Of(Date::FromDayNumber(lhs.as_date().DayNumber() + days));
      }
      if (!lhs.is_number() || !rhs.is_number()) {
        return TypeError(StrCat("arithmetic on non-numeric operands: ",
                                ToString(lhs.is_number() ? rhs : lhs)));
      }
      if (lhs.is_int() && rhs.is_int() && term.op != ArithOp::kDiv) {
        int64_t a = lhs.as_int(), b = rhs.as_int();
        switch (term.op) {
          case ArithOp::kAdd:
            return Value::Int(a + b);
          case ArithOp::kSub:
            return Value::Int(a - b);
          case ArithOp::kMul:
            return Value::Int(a * b);
          default:
            break;
        }
      }
      double a = lhs.as_double(), b = rhs.as_double();
      switch (term.op) {
        case ArithOp::kAdd:
          return Value::Real(a + b);
        case ArithOp::kSub:
          return Value::Real(a - b);
        case ArithOp::kMul:
          return Value::Real(a * b);
        case ArithOp::kDiv:
          if (b == 0) return InvalidArgument("division by zero");
          return Value::Real(a / b);
      }
      return Internal("unreachable arithmetic case");
    }
  }
  return Internal("unreachable term kind");
}

Result<bool> Matcher::Match(const Value& value, const Expr& expr,
                            Substitution* sigma, const MatchCallback& cb) {
  if (expr.update != UpdateOp::kNone) {
    return InvalidArgument(
        StrCat("update expression in a query context: ", ToString(expr)));
  }
  if (expr.negated) {
    // ¬exp: satisfied iff no extension satisfies exp. Inner variables are
    // existential: bindings do not escape (we roll back to the mark).
    ++stats_->negation_probes;
    bool found = false;
    size_t mark = sigma->Mark();
    Result<bool> r =
        MatchPositive(value, expr, sigma, [&](const Substitution&) {
          found = true;
          return false;  // stop at first witness
        });
    sigma->RollbackTo(mark);
    if (!r.ok()) return r.status();
    if (found) return true;  // negation fails: no callback, keep enumerating
    return cb(*sigma);
  }
  return MatchPositive(value, expr, sigma, cb);
}

Result<bool> Matcher::MatchPositive(const Value& value, const Expr& expr,
                                    Substitution* sigma,
                                    const MatchCallback& cb) {
  switch (expr.kind) {
    case Expr::Kind::kEpsilon:
      return cb(*sigma);
    case Expr::Kind::kAtomic:
      return MatchAtomic(value, expr, sigma, cb);
    case Expr::Kind::kTuple:
      return MatchTuple(value, expr, sigma, cb);
    case Expr::Kind::kSet:
      return MatchSet(value, expr, sigma, cb);
  }
  return Internal("unreachable expression kind");
}

Result<bool> Matcher::Exists(const Value& value, const Expr& expr,
                             Substitution* sigma) {
  bool found = false;
  size_t mark = sigma->Mark();
  Result<bool> r = Match(value, expr, sigma, [&](const Substitution&) {
    found = true;
    return false;
  });
  sigma->RollbackTo(mark);
  if (!r.ok()) return r.status();
  return found;
}

Result<bool> Matcher::MatchAtomic(const Value& value, const Expr& expr,
                                  Substitution* sigma,
                                  const MatchCallback& cb) {
  ++stats_->comparisons;
  // Guard: `Var relop Term` over bound variables (footnote 7); the context
  // object plays no role. `X = term` with X free binds X.
  if (!expr.guard_var.empty()) {
    const Value* bound = sigma->Lookup(expr.guard_var);
    if (bound == nullptr) {
      if (expr.relop != RelOp::kEq) {
        return Unsafe(StrCat("guard variable ", expr.guard_var,
                             " is unbound in '", ToString(expr), "'"));
      }
      IDL_ASSIGN_OR_RETURN(Value v, EvalTerm(expr.term, *sigma));
      size_t mark = sigma->Mark();
      sigma->Bind(expr.guard_var, std::move(v));
      bool keep_going = cb(*sigma);
      sigma->RollbackTo(mark);
      return keep_going;
    }
    IDL_ASSIGN_OR_RETURN(Value operand, EvalTerm(expr.term, *sigma));
    if (bound->is_tuple() || bound->is_set() || operand.is_tuple() ||
        operand.is_set()) {
      bool eq = *bound == operand;
      bool sat = expr.relop == RelOp::kEq     ? eq
                 : expr.relop == RelOp::kNe ? !eq
                                            : false;
      return sat ? cb(*sigma) : true;
    }
    // Guards compare two values symmetrically; `!=` must hold even against
    // null, so handle equality kinds directly rather than via EvalRelOp's
    // null-fails-everything rule.
    if (bound->is_null() || operand.is_null()) {
      bool eq = bound->is_null() && operand.is_null();
      bool sat = expr.relop == RelOp::kEq     ? eq
                 : expr.relop == RelOp::kNe ? !eq
                                            : false;
      return sat ? cb(*sigma) : true;
    }
    return EvalRelOp(expr.relop, *bound, operand) ? cb(*sigma) : true;
  }
  // Unbound variable with '=' binds the object itself (any category).
  if (expr.term.kind == Term::Kind::kVar) {
    const Value* bound = sigma->Lookup(expr.term.var);
    if (bound == nullptr) {
      if (expr.relop != RelOp::kEq) {
        return Unsafe(StrCat("variable ", expr.term.var, " is unbound in '",
                             ToString(expr), "'"));
      }
      if (value.is_null()) return true;  // null satisfies nothing
      size_t mark = sigma->Mark();
      sigma->Bind(expr.term.var, value);
      bool keep_going = cb(*sigma);
      sigma->RollbackTo(mark);
      return keep_going;
    }
    // Bound: fall through to comparison against the bound value.
    if (value.is_tuple() || value.is_set() || bound->is_tuple() ||
        bound->is_set()) {
      // Aggregate equality (deep, order-insensitive for sets).
      bool eq = value == *bound;
      bool sat = expr.relop == RelOp::kEq     ? eq
                 : expr.relop == RelOp::kNe ? !eq
                                            : false;
      return sat ? cb(*sigma) : true;
    }
    return EvalRelOp(expr.relop, value, *bound) ? cb(*sigma) : true;
  }
  // Constant or arithmetic term: evaluate and compare.
  if (value.is_tuple() || value.is_set()) return true;  // kind mismatch
  IDL_ASSIGN_OR_RETURN(Value operand, EvalTerm(expr.term, *sigma));
  return EvalRelOp(expr.relop, value, operand) ? cb(*sigma) : true;
}

Result<bool> Matcher::MatchTuple(const Value& value, const Expr& expr,
                                 Substitution* sigma, const MatchCallback& cb) {
  if (!value.is_tuple()) return true;  // kind mismatch: no match, no error
  return MatchTupleItems(value, expr.items, 0, sigma, cb);
}

Result<bool> Matcher::MatchTupleItems(const Value& value,
                                      const std::vector<TupleItem>& items,
                                      size_t index, Substitution* sigma,
                                      const MatchCallback& cb) {
  if (index == items.size()) return cb(*sigma);
  const TupleItem& item = items[index];
  if (item.update != UpdateOp::kNone) {
    return InvalidArgument("update item in a query context");
  }
  // Function-local static reference: never destroyed (per style rules on
  // static storage duration objects).
  static const Expr& kEpsilon = *new Expr();  // default-constructed == ε

  // Guard item: evaluate the guard (it ignores the context object).
  if (item.is_guard()) {
    Result<bool> r =
        Match(value, item.expr ? *item.expr : kEpsilon, sigma,
              [&](const Substitution&) {
                Result<bool> nested =
                    MatchTupleItems(value, items, index + 1, sigma, cb);
                if (!nested.ok()) {
                  nested_error_ = nested.status();
                  return false;
                }
                return *nested;
              });
    if (!r.ok()) return r.status();
    if (!nested_error_.ok()) {
      Status err = nested_error_;
      nested_error_ = Status::Ok();
      return err;
    }
    return r;
  }

  auto match_one_attr = [&](const Value& attr_object) -> Result<bool> {
    const Expr& sub = item.expr ? *item.expr : kEpsilon;
    return Match(attr_object, sub, sigma, [&](const Substitution&) {
      Result<bool> r = MatchTupleItems(value, items, index + 1, sigma, cb);
      // Errors inside nested enumeration surface as stop + sticky status.
      if (!r.ok()) {
        nested_error_ = r.status();
        return false;
      }
      return *r;
    });
  };

  Result<bool> result = true;
  if (!item.attr_is_var) {
    const Value* attr_object = value.FindField(item.attr);
    if (attr_object == nullptr) return true;  // attribute absent: no match
    result = match_one_attr(*attr_object);
  } else {
    const Value* bound = sigma->Lookup(item.attr);
    if (bound != nullptr) {
      // Higher-order variable already bound: must name an attribute.
      if (!bound->is_string()) return true;
      const Value* attr_object = value.FindField(bound->as_string());
      if (attr_object == nullptr) return true;
      result = match_one_attr(*attr_object);
    } else {
      // Enumerate attribute names (§4.3 higher-order quantification).
      for (const auto& field : value.fields()) {
        ++stats_->attrs_enumerated;
        size_t mark = sigma->Mark();
        sigma->Bind(item.attr, Value::String(field.name));
        Result<bool> r = match_one_attr(field.value);
        sigma->RollbackTo(mark);
        if (!r.ok()) return r.status();
        if (!*r) {
          result = false;
          break;
        }
      }
    }
  }
  if (!result.ok()) return result.status();
  if (!nested_error_.ok()) {
    Status err = nested_error_;
    nested_error_ = Status::Ok();
    return err;
  }
  return result;
}

bool Matcher::FindProbe(const Expr& inner, const Substitution& sigma,
                        std::string_view* attr, Value* value) {
  if (inner.negated || inner.kind != Expr::Kind::kTuple) return false;
  for (const auto& item : inner.items) {
    if (item.attr_is_var || item.is_guard() ||
        item.update != UpdateOp::kNone || item.expr == nullptr) {
      continue;
    }
    const Expr& sub = *item.expr;
    if (sub.negated || sub.kind != Expr::Kind::kAtomic ||
        sub.relop != RelOp::kEq || sub.update != UpdateOp::kNone ||
        !sub.guard_var.empty()) {
      continue;
    }
    Value v;
    if (sub.term.kind == Term::Kind::kConst) {
      v = sub.term.constant;
    } else if (sub.term.kind == Term::Kind::kVar) {
      const Value* bound = sigma.Lookup(sub.term.var);
      if (bound == nullptr) continue;
      v = *bound;
    } else {
      continue;  // arithmetic: not worth probing
    }
    if (v.is_tuple() || v.is_set() || v.is_null()) continue;
    *attr = item.attr;
    *value = std::move(v);
    return true;
  }
  return false;
}

Result<bool> Matcher::MatchSet(const Value& value, const Expr& expr,
                               Substitution* sigma, const MatchCallback& cb) {
  if (!value.is_set()) return true;  // kind mismatch
  static const Expr& kEpsilon = *new Expr();
  const Expr& inner = expr.set_inner ? *expr.set_inner : kEpsilon;

  // Fast path: probe an equality index instead of scanning, when the set
  // is large enough and the inner expression pins some attribute to a
  // ground value. Candidates are verified by the full match, so hash
  // collisions and cross-kind equality are handled exactly as in the scan
  // path.
  std::string_view attr;
  Value probe_value;
  if (value.SetSize() >= index_min_set_size_ &&
      FindProbe(inner, *sigma, &attr, &probe_value)) {
    bool built = false;
    const SetCache::AttrIndex& index = value.set_cache().GetIndex(
        attr, [&] { return BuildAttrIndex(value, attr); }, &built);
    ++stats_->index_probes;
    ++(built ? stats_->indexes_built : stats_->indexes_reused);
    auto candidates = index.find(NormalizedCellHash(probe_value));
    if (candidates == index.end()) return true;
    const auto& elements = value.elements();
    for (uint32_t i : candidates->second) {
      ++stats_->set_elements_scanned;
      size_t mark = sigma->Mark();
      Result<bool> r = Match(elements[i], inner, sigma, cb);
      sigma->RollbackTo(mark);
      if (!r.ok()) return r.status();
      if (!*r) return false;
    }
    return true;
  }

  for (const auto& element : value.elements()) {
    ++stats_->set_elements_scanned;
    size_t mark = sigma->Mark();
    Result<bool> r = Match(element, inner, sigma, cb);
    sigma->RollbackTo(mark);
    if (!r.ok()) return r.status();
    if (!*r) return false;
  }
  return true;
}

}  // namespace idl
