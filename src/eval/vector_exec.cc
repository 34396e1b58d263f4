#include "eval/vector_exec.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/str_util.h"
#include "eval/matcher.h"
#include "relational/columnar.h"
#include "syntax/printer.h"

namespace idl {

namespace {

Counter* VectorActivationsCounter() {
  static Counter* c =
      MetricsRegistry::Global().counter("columnar.vector_activations");
  return c;
}
Counter* NonflatFallbacksCounter() {
  static Counter* c =
      MetricsRegistry::Global().counter("columnar.nonflat_fallbacks");
  return c;
}

}  // namespace

std::optional<VectorConjunctPlan> CompileVectorConjunct(const Expr& expr) {
  VectorConjunctPlan plan;
  plan.source = &expr;

  // Navigate single-item tuple levels down to the set. Every step names a
  // constant attribute except possibly the last, a relation variable.
  const Expr* e = &expr;
  while (true) {
    if (e->negated || e->update != UpdateOp::kNone) return std::nullopt;
    if (e->kind == Expr::Kind::kSet) break;
    if (plan.rel_var != nullptr || e->kind != Expr::Kind::kTuple ||
        e->items.size() != 1) {
      return std::nullopt;
    }
    const TupleItem& item = e->items[0];
    if (item.is_guard() || item.update != UpdateOp::kNone ||
        item.expr == nullptr) {
      return std::nullopt;
    }
    if (item.attr_is_var) {
      plan.rel_var = &item.attr;
    } else {
      plan.path.push_back(&item.attr);
    }
    e = item.expr.get();
  }

  const Expr* inner = e->set_inner.get();
  if (inner == nullptr ||
      (inner->kind == Expr::Kind::kEpsilon && !inner->negated)) {
    return plan;  // `(ε)`: every row emits, no bindings
  }
  if (inner->kind != Expr::Kind::kTuple || inner->negated) {
    return std::nullopt;
  }

  std::vector<const std::string*> binderish;  // kVar term names
  for (const TupleItem& item : inner->items) {
    if (item.update != UpdateOp::kNone || item.is_guard() ||
        item.attr_is_var) {
      return std::nullopt;
    }
    const Expr* sub = item.expr.get();
    if (sub == nullptr || (sub->kind == Expr::Kind::kEpsilon &&
                           !sub->negated)) {
      VectorItemPlan p;
      p.kind = VectorItemPlan::Kind::kExists;
      p.attr = &item.attr;
      plan.items.push_back(p);
      continue;
    }
    if (sub->kind != Expr::Kind::kAtomic || sub->negated ||
        sub->update != UpdateOp::kNone || !sub->guard_var.empty()) {
      return std::nullopt;
    }
    VectorItemPlan p;
    p.kind = VectorItemPlan::Kind::kAtomic;
    p.attr = &item.attr;
    p.relop = sub->relop;
    p.term = &sub->term;
    p.expr = sub;
    plan.items.push_back(p);
    if (sub->term.kind == Term::Kind::kVar) {
      binderish.push_back(&sub->term.var);
    }
  }

  // Intra-conjunct variable reuse keeps the matcher: a variable bound by
  // one item and read by a sibling is a per-row dependency the item-order
  // kernel loop cannot express.
  for (size_t i = 0; i < binderish.size(); ++i) {
    for (size_t j = i + 1; j < binderish.size(); ++j) {
      if (*binderish[i] == *binderish[j]) return std::nullopt;
    }
  }
  for (const VectorItemPlan& p : plan.items) {
    if (p.kind != VectorItemPlan::Kind::kAtomic ||
        p.term->kind != Term::Kind::kArith) {
      continue;
    }
    std::vector<std::string> vars;
    p.term->CollectVars(&vars);
    for (const std::string& v : vars) {
      for (const std::string* b : binderish) {
        if (v == *b) return std::nullopt;
      }
    }
  }
  return plan;
}

namespace {

// The item loop over one relation's page: narrows a selection vector item
// by item, then emits the surviving rows in row order.
Result<bool> RunItems(const VectorConjunctPlan& plan,
                      const ColumnarRelation& rel, bool use_indexes,
                      size_t index_min_rows, EvalStats* stats,
                      Substitution* sigma, const std::function<bool()>& next) {
  // The selection vector starts as "all rows" without materializing it, so
  // a leading equality item can seed it straight from an index probe.
  std::vector<uint32_t> sel;
  bool sel_is_all = true;
  auto sel_empty = [&] {
    return sel_is_all ? rel.num_rows() == 0 : sel.empty();
  };
  auto materialize = [&] {
    if (sel_is_all) {
      rel.AllRows(&sel);
      sel_is_all = false;
    }
  };

  struct PendingBind {
    const std::string* var;
    int col;
  };
  std::vector<PendingBind> binds;
  Value scratch;  // evaluated arithmetic operand

  // Stats mirror the scan: the first narrowing step over a page
  // "scans" its input rows (the probe path counts only its candidates,
  // exactly like the nested index fast path).
  bool scan_counted = false;
  auto count_scan = [&](size_t rows) {
    if (!scan_counted) {
      stats->set_elements_scanned += rows;
      scan_counted = true;
    }
  };

  // Items run strictly in written order: error timing (an unbound variable
  // under `<`, a failing arithmetic term) must match the scan, which raises
  // an error only when some element survives the items before it.
  for (const VectorItemPlan& item : plan.items) {
    int col = rel.FindColumn(*item.attr);
    if (col < 0) {
      // No element has this attribute (the relation is flat): nothing
      // matches, but later items still must NOT error — the scan never
      // reaches them.
      materialize();
      count_scan(sel.size());
      sel.clear();
      continue;
    }
    if (item.kind == VectorItemPlan::Kind::kExists) continue;  // ε: any cell

    const Term& term = *item.term;
    const Value* operand = nullptr;
    if (term.kind == Term::Kind::kVar) {
      const Value* bound = sigma->Lookup(term.var);
      if (bound == nullptr) {
        if (item.relop != RelOp::kEq) {
          if (sel_empty()) continue;
          return Unsafe(StrCat("variable ", term.var, " is unbound in '",
                               ToString(*item.expr), "'"));
        }
        // Binder: null cells never bind (null satisfies nothing), and they
        // drop out here — at this item's position — so later items never
        // see them, exactly like the per-element scan.
        const ColumnarRelation::Column& c = rel.columns()[col];
        if (!c.valid.empty()) {
          materialize();
          count_scan(sel.size());
          size_t out = 0;
          for (uint32_t r : sel) {
            if (c.valid[r] != 0) sel[out++] = r;
          }
          sel.resize(out);
        }
        binds.push_back(PendingBind{&term.var, col});
        continue;
      }
      if (bound->is_tuple() || bound->is_set()) {
        // MatchAtomic's aggregate-equality branch: an atom cell never deep-
        // equals an aggregate, and — unlike EvalRelOp — null cells take this
        // branch too, so `!=` keeps every row (nulls included).
        if (item.relop != RelOp::kNe) {
          materialize();
          count_scan(sel.size());
          sel.clear();
        }
        continue;
      }
      operand = bound;
    } else if (term.kind == Term::Kind::kConst) {
      operand = &term.constant;
    } else {  // kArith: row-independent by compilation; lazy for error parity
      if (sel_empty()) continue;
      Result<Value> v = Matcher::EvalTerm(term, *sigma);
      if (!v.ok()) return v.status();
      scratch = std::move(v).value();
      operand = &scratch;
    }

    // First `=ground` item over an untouched selection: one hash-bucket
    // probe instead of a scan. Small relations skip the index (scanning a
    // typed column beats building a hash map), same threshold as the
    // nested SetIndexCache.
    if (use_indexes && sel_is_all && rel.num_rows() >= index_min_rows &&
        item.relop == RelOp::kEq && operand->is_atom() &&
        !operand->is_null()) {
      bool built = false;
      rel.ProbeEq(static_cast<size_t>(col), *operand, &sel, &built);
      sel_is_all = false;
      ++stats->index_probes;
      if (built) {
        ++stats->indexes_built;
      } else {
        ++stats->indexes_reused;
      }
      stats->set_elements_scanned += sel.size();
      scan_counted = true;
    } else {
      materialize();
      count_scan(sel.size());
      stats->comparisons += sel.size();
      rel.Filter(static_cast<size_t>(col), item.relop, *operand, &sel);
    }
  }

  materialize();
  count_scan(sel.size());
  for (uint32_t r : sel) {
    size_t mark = sigma->Mark();
    for (const PendingBind& b : binds) {
      sigma->Bind(*b.var, rel.CellValue(static_cast<size_t>(b.col), r));
    }
    bool keep_going = next();
    sigma->RollbackTo(mark);
    if (!keep_going) return false;
  }
  return true;
}

}  // namespace

Result<bool> ExecuteVectorConjunct(const VectorConjunctPlan& plan,
                                   const Value& universe, SetIndexCache* cache,
                                   const ColumnarStore* store, bool use_indexes,
                                   size_t index_min_rows, EvalStats* stats,
                                   Substitution* sigma,
                                   const std::function<bool()>& next,
                                   bool* fell_back) {
  *fell_back = false;

  // Navigate to the relation set (or, under a relation variable, to the
  // tuple of relations); kind mismatches and absent attributes are "no
  // match", never errors (heterogeneous multidatabase data).
  const Value* cur = &universe;
  for (const std::string* attr : plan.path) {
    if (!cur->is_tuple()) return true;
    cur = cur->FindField(*attr);
    if (cur == nullptr) return true;
  }
  auto fall_back = [&] {
    NonflatFallbacksCounter()->Increment();
    *fell_back = true;
    return true;
  };
  auto run = [&](const ColumnarRelation& rel) {
    return RunItems(plan, rel, use_indexes, index_min_rows, stats, sigma,
                    next);
  };

  // A relation variable ranges over the tuple's attribute names, exactly as
  // Matcher::MatchTupleItems enumerates them: bound, it must be a string
  // naming a field; unbound, it visits every field in field order. Fields
  // that are not sets match nothing.
  if (plan.rel_var != nullptr) {
    if (!cur->is_tuple()) return true;
    const Value* bound = sigma->Lookup(*plan.rel_var);
    if (bound == nullptr) {
      // Every page is fetched before the first row emits, so a non-flat
      // relation anywhere sends the whole activation to the matcher and no
      // row is emitted twice.
      const std::vector<Value::Field>& fields = cur->fields();
      std::vector<std::shared_ptr<const ColumnarRelation>> pages(
          fields.size());
      for (size_t i = 0; i < fields.size(); ++i) {
        if (!fields[i].value.is_set()) continue;
        pages[i] = cache->Columnar(fields[i].value, store);
        if (pages[i] == nullptr) return fall_back();
      }
      VectorActivationsCounter()->Increment();
      for (size_t i = 0; i < fields.size(); ++i) {
        ++stats->attrs_enumerated;
        if (pages[i] == nullptr) continue;
        size_t mark = sigma->Mark();
        sigma->Bind(*plan.rel_var, Value::String(fields[i].name));
        Result<bool> r = run(*pages[i]);
        sigma->RollbackTo(mark);
        if (!r.ok() || !*r) return r;
      }
      return true;
    }
    if (!bound->is_string()) return true;
    cur = cur->FindField(bound->as_string());
    if (cur == nullptr) return true;
  }

  if (!cur->is_set()) return true;
  std::shared_ptr<const ColumnarRelation> page = cache->Columnar(*cur, store);
  if (page == nullptr) return fall_back();
  VectorActivationsCounter()->Increment();
  return run(*page);
}

}  // namespace idl
