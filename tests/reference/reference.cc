#include "reference/reference.h"

#include <algorithm>
#include <set>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/str_util.h"
#include "syntax/analysis.h"
#include "syntax/parser.h"
#include "views/stratify.h"

namespace idl {

namespace {

const Expr& Epsilon() {
  static const Expr& kEpsilon = *new Expr();
  return kEpsilon;
}

// A head item's attribute name: its constant, or the string a body variable
// bound it to.
Result<std::string_view> HeadName(const TupleItem& item,
                                  const Substitution& sigma) {
  if (!item.attr_is_var) return std::string_view(item.attr);
  const Value* bound = sigma.Lookup(item.attr);
  if (bound == nullptr) {
    return Internal(StrCat("head variable ", item.attr,
                           " unbound (ValidateRule should have caught this)"));
  }
  if (!bound->is_string()) {
    return TypeError(StrCat("head variable ", item.attr,
                            " bound to a non-name object; it cannot be used "
                            "as an attribute name"));
  }
  return std::string_view(bound->as_string());
}

// True if `v` can be extended to satisfy `expr` without contradicting any
// of its content: absent attributes may be added, nulls filled.
Result<bool> Consistent(const Value& v, const Expr& expr,
                        const Substitution& sigma) {
  switch (expr.kind) {
    case Expr::Kind::kEpsilon:
      return true;
    case Expr::Kind::kAtomic: {
      if (v.is_null()) return true;
      if (v.is_tuple() || v.is_set()) return false;
      IDL_ASSIGN_OR_RETURN(Value operand, Matcher::EvalTerm(expr.term, sigma));
      return Matcher::EvalRelOp(RelOp::kEq, v, operand);
    }
    case Expr::Kind::kTuple: {
      if (v.is_null()) return true;
      if (!v.is_tuple()) return false;
      for (const auto& item : expr.items) {
        IDL_ASSIGN_OR_RETURN(std::string_view attr, HeadName(item, sigma));
        const Value* field = v.FindField(attr);
        if (field == nullptr) continue;
        IDL_ASSIGN_OR_RETURN(
            bool ok,
            Consistent(*field, item.expr ? *item.expr : Epsilon(), sigma));
        if (!ok) return false;
      }
      return true;
    }
    case Expr::Kind::kSet:
      return v.is_null() || v.is_set();
  }
  return false;
}

// §6's MakeTrue. At a set: a fact already present is a no-op; otherwise it
// is absorbed into the first consistent element in element order, or
// inserted. Every step that changes the universe bumps *changes.
Status MakeTrue(Value* slot, const Expr& expr, const Substitution& sigma,
                uint64_t* changes) {
  switch (expr.kind) {
    case Expr::Kind::kEpsilon:
      return Status::Ok();
    case Expr::Kind::kAtomic: {
      IDL_ASSIGN_OR_RETURN(Value v, Matcher::EvalTerm(expr.term, sigma));
      if (slot->is_null() || !Matcher::EvalRelOp(RelOp::kEq, *slot, v)) {
        *slot = std::move(v);
        ++*changes;
      }
      return Status::Ok();
    }
    case Expr::Kind::kTuple: {
      if (slot->is_null()) {
        *slot = Value::EmptyTuple();
        ++*changes;
      }
      if (!slot->is_tuple()) {
        return TypeError(StrCat("cannot make a tuple expression true on a ",
                                ValueKindName(slot->kind()), " object"));
      }
      for (const auto& item : expr.items) {
        IDL_ASSIGN_OR_RETURN(std::string_view attr, HeadName(item, sigma));
        if (slot->FindField(attr) == nullptr) {
          slot->SetField(attr, Value::Null());
          ++*changes;
        }
        IDL_RETURN_IF_ERROR(MakeTrue(slot->MutableField(attr),
                                     item.expr ? *item.expr : Epsilon(), sigma,
                                     changes));
      }
      return Status::Ok();
    }
    case Expr::Kind::kSet: {
      if (slot->is_null()) {
        *slot = Value::EmptySet();
        ++*changes;
      }
      if (!slot->is_set()) {
        return TypeError(StrCat("cannot make a set expression true on a ",
                                ValueKindName(slot->kind()), " object"));
      }
      const Expr& inner = expr.set_inner ? *expr.set_inner : Epsilon();
      Value fact;
      uint64_t scratch = 0;  // building the fact changes no universe
      IDL_RETURN_IF_ERROR(MakeTrue(&fact, inner, sigma, &scratch));
      if (slot->Contains(fact)) return Status::Ok();
      for (size_t i = 0; i < slot->SetSize(); ++i) {
        IDL_ASSIGN_OR_RETURN(bool ok,
                             Consistent(slot->elements()[i], inner, sigma));
        if (!ok) continue;
        const uint64_t before = *changes;
        IDL_RETURN_IF_ERROR(
            MakeTrue(slot->MutableElement(i), inner, sigma, changes));
        if (*changes != before) slot->RehashSet();
        return Status::Ok();
      }
      slot->Insert(std::move(fact));
      ++*changes;
      return Status::Ok();
    }
  }
  return Internal("unreachable expression kind");
}

// The "db" or "db.rel" path a head instance writes under.
Result<std::string> WrittenPath(const Rule& rule, const Substitution& sigma) {
  const TupleItem& db_item = rule.head->items[0];
  IDL_ASSIGN_OR_RETURN(std::string_view db, HeadName(db_item, sigma));
  std::string path(db);
  if (db_item.expr != nullptr && db_item.expr->kind == Expr::Kind::kTuple &&
      !db_item.expr->items.empty()) {
    IDL_ASSIGN_OR_RETURN(std::string_view rel,
                         HeadName(db_item.expr->items[0], sigma));
    path += '.';
    path += rel;
  }
  return path;
}

}  // namespace

Result<ReferenceMaterialization> ReferenceMaterialize(
    const std::vector<Rule>& rules, const Value& base,
    const ResourceGovernor* governor, size_t index_min_set_size) {
  ReferenceMaterialization m;
  m.universe = base;
  if (governor != nullptr && governor->limits().max_universe_cells > 0) {
    IDL_RETURN_IF_ERROR(governor->ChargeCells(CountCells(base)));
  }
  IDL_ASSIGN_OR_RETURN(Stratification strat, Stratify(rules));
  std::vector<std::vector<const Rule*>> strata(
      static_cast<size_t>(std::max(strat.num_strata, 0)));
  for (size_t i = 0; i < rules.size(); ++i) {
    strata[strat.stratum[i]].push_back(&rules[i]);
  }

  std::set<std::string> derived;
  for (int s = 0; s < strat.num_strata; ++s) {
    while (true) {
      if (governor != nullptr) IDL_RETURN_IF_ERROR(governor->ChargePass());
      const uint64_t changes_before = m.changes;
      for (const Rule* rule : strata[s]) {
        if (governor != nullptr) IDL_RETURN_IF_ERROR(governor->Checkpoint());
        // Every body binding is collected before any head is written: the
        // body reads the universe the head writes.
        std::vector<Substitution> sigmas;
        Result<bool> r = ReferenceEnumerate(
            m.universe, rule->body,
            [&](const Substitution& sigma) {
              sigmas.push_back(sigma);
              return true;
            },
            nullptr, governor, index_min_set_size);
        if (!r.ok()) {
          return r.status().WithContext(
              StrCat("evaluating body of '", rule->source, "'"));
        }
        for (const Substitution& sigma : sigmas) {
          if (governor != nullptr) {
            IDL_RETURN_IF_ERROR(governor->ChargeDerivations(1));
          }
          ++m.facts_derived;
          IDL_ASSIGN_OR_RETURN(std::string path, WrittenPath(*rule, sigma));
          derived.insert(std::move(path));
          const uint64_t before = m.changes;
          Status st = MakeTrue(&m.universe, *rule->head, sigma, &m.changes);
          if (!st.ok()) {
            return st.WithContext(
                StrCat("deriving head of '", rule->source, "'"));
          }
          if (governor != nullptr && m.changes != before) {
            IDL_RETURN_IF_ERROR(governor->ChargeCells(m.changes - before));
          }
        }
      }
      if (!strat.stratum_recursive[s] || m.changes == changes_before) break;
    }
  }
  m.derived_paths.assign(derived.begin(), derived.end());
  return m;
}

Result<bool> ReferenceEnumerate(
    const Value& universe, const std::vector<ExprPtr>& conjuncts,
    const std::function<bool(const Substitution&)>& cb, EvalStats* stats,
    const ResourceGovernor* governor, size_t index_min_set_size) {
  EvalStats local_stats;
  Matcher matcher(stats != nullptr ? stats : &local_stats,
                  index_min_set_size);
  // Conjuncts carrying negation anywhere run after every positive one, so
  // their variables are bound.
  std::vector<const Expr*> ordered;
  for (const auto& c : conjuncts) {
    if (!ContainsNegation(*c)) ordered.push_back(c.get());
  }
  for (const auto& c : conjuncts) {
    if (ContainsNegation(*c)) ordered.push_back(c.get());
  }

  Substitution sigma;
  Status error;
  std::function<bool(size_t)> step = [&](size_t index) -> bool {
    if (governor != nullptr) {
      Status st = governor->Checkpoint();
      if (!st.ok()) {
        error = std::move(st);
        return false;
      }
    }
    if (index == ordered.size()) return cb(sigma);
    Result<bool> r =
        matcher.Match(universe, *ordered[index], &sigma,
                      [&](const Substitution&) { return step(index + 1); });
    if (!r.ok()) {
      error = r.status();
      return false;
    }
    return *r;
  };
  const bool keep_going = step(0);
  if (!error.ok()) return error;
  return keep_going;
}

Result<Answer> ReferenceQuery(const Value& universe, const Query& query,
                              const ResourceGovernor* governor,
                              size_t index_min_set_size) {
  IDL_ASSIGN_OR_RETURN(QueryInfo info, AnalyzeQuery(query));
  if (info.is_update_request) {
    return InvalidArgument(
        "update request passed to EvaluateQuery; use ApplyUpdateRequest");
  }
  Answer answer;
  answer.columns = info.free_vars;
  // Deep comparison within a hash bucket: a collision must not drop a row.
  std::unordered_map<uint64_t, std::vector<size_t>> seen;
  Result<bool> r = ReferenceEnumerate(
      universe, query.conjuncts,
      [&](const Substitution& sigma) {
        std::vector<Value> row;
        uint64_t h = 0;
        for (const auto& var : answer.columns) {
          const Value* v = sigma.Lookup(var);
          row.push_back(v != nullptr ? *v : Value::Null());
          h = h * 1099511628211ULL ^ row.back().Hash();
        }
        std::vector<size_t>& bucket = seen[h];
        for (size_t at : bucket) {
          if (answer.rows[at] == row) return true;
        }
        bucket.push_back(answer.rows.size());
        answer.rows.push_back(std::move(row));
        return true;
      },
      nullptr, governor, index_min_set_size);
  if (!r.ok()) return r.status();
  return answer;
}

Result<std::vector<Rule>> ParseRuleTexts(
    const std::vector<std::string>& texts) {
  std::vector<Rule> rules;
  rules.reserve(texts.size());
  for (const std::string& text : texts) {
    IDL_ASSIGN_OR_RETURN(Rule rule, ParseRule(text));
    rules.push_back(std::move(rule));
  }
  return rules;
}

}  // namespace idl
