#include "views/engine.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "eval/matcher.h"
#include "eval/query.h"
#include "eval/substitution.h"
#include "relational/columnar.h"
#include "syntax/analysis.h"
#include "syntax/printer.h"

namespace idl {

namespace {

const Expr& EpsilonExpr() {
  static const Expr& kEpsilon = *new Expr();
  return kEpsilon;
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double CpuMsSince(int64_t start_ns) {
  return static_cast<double>(ThreadCpuNs() - start_ns) / 1e6;
}

// Rolls one finished materialization's aggregates into the process metrics.
// Called once per run (full or maintenance wave set) so the per-derivation
// hot paths stay metric-free.
void BumpEngineMetrics(const Materialized& m, const EvalStats& run_stats) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  static Counter* runs = registry.counter("engine.materializations");
  static Counter* passes = registry.counter("engine.fixpoint_passes");
  static Counter* facts = registry.counter("engine.facts_derived");
  static Counter* changes = registry.counter("engine.changes");
  static Counter* par = registry.counter("engine.parallel_tasks");
  static Histogram* wall = registry.histogram("engine.materialize_ms");
  runs->Increment();
  passes->Increment(static_cast<uint64_t>(m.fixpoint_passes));
  facts->Increment(m.facts_derived);
  changes->Increment(m.changes);
  par->Increment(m.parallel_tasks);
  wall->Observe(m.wall_ms);
  run_stats.BumpMetrics();
}

// Resolves an attribute name in a head item: constant, or a variable the
// body bound to a string. The view aliases storage owned by the rule or the
// substitution, both of which outlive the head write.
Result<std::string_view> GroundName(const TupleItem& item,
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

// True if `v` can be mutated to satisfy `expr` without contradicting any of
// its existing content (absent attributes may be added, null slots may be
// filled).
Result<bool> CanAbsorb(const Value& v, const Expr& expr,
                       const Substitution& sigma) {
  switch (expr.kind) {
    case Expr::Kind::kEpsilon:
      return true;
    case Expr::Kind::kAtomic: {
      if (v.is_null()) return true;
      if (v.is_tuple() || v.is_set()) return false;
      IDL_ASSIGN_OR_RETURN(Value operand,
                           Matcher::EvalTerm(expr.term, sigma));
      return Matcher::EvalRelOp(RelOp::kEq, v, operand);
    }
    case Expr::Kind::kTuple: {
      if (v.is_null()) return true;
      if (!v.is_tuple()) return false;
      for (const auto& item : expr.items) {
        IDL_ASSIGN_OR_RETURN(std::string_view attr, GroundName(item, sigma));
        const Value* field = v.FindField(attr);
        if (field == nullptr) continue;  // addable
        IDL_ASSIGN_OR_RETURN(
            bool ok, CanAbsorb(*field, item.expr ? *item.expr : EpsilonExpr(),
                               sigma));
        if (!ok) return false;
      }
      return true;
    }
    case Expr::Kind::kSet:
      return v.is_null() || v.is_set();  // can always insert
  }
  return false;
}

Counter* AbsorbBatchedCounter() {
  static Counter* c =
      MetricsRegistry::Global().counter("columnar.absorb_batched");
  return c;
}
Counter* AbsorbIndexBuildsCounter() {
  static Counter* c =
      MetricsRegistry::Global().counter("columnar.absorb_index_builds");
  return c;
}
Counter* AbsorbCandidatesCounter() {
  static Counter* c =
      MetricsRegistry::Global().counter("columnar.absorb_candidates");
  return c;
}

// Folds one key field's NormalizedCellHash into a composite absorb key.
uint64_t CombineKeyHash(uint64_t h, uint64_t cell) {
  return (h ^ cell) * 0x100000001b3ull + 0x9e3779b97f4a7c15ull;
}

class HeadWriter {
 public:
  explicit HeadWriter(Materialized* out) : out_(out) {}

  // Columnar substrate: maintain a per-set absorb index so the set case
  // probes a handful of candidate elements instead of scanning the whole
  // relation per derived fact (docs/COLUMNAR.md). The batch path visits
  // candidates in ascending element order and verifies each with the exact
  // scan predicate, so the element it picks — and therefore the universe it
  // produces — is byte-identical to the scan's.
  void EnableBatchAbsorb() { batch_enabled_ = true; }

  // §6's recursive MakeTrue, with absorb-before-insert at sets. When `delta`
  // is non-null it mirrors `slot`: every change is recorded into it — a set
  // gains the new/extended element, an atom the new value, a tuple the
  // touched attribute path — so the next semi-naive pass can match rule
  // bodies against just the facts this pass produced. Nested sets inside a
  // set element are covered by recording the whole element at the outer set.
  Status MakeTrue(Value* slot, const Expr& expr, const Substitution& sigma,
                  Value* delta) {
    return MakeTrueImpl(slot, expr, sigma, delta, batch_enabled_);
  }

 private:
  // Absorb candidates for one tracked relation set, keyed by the key items
  // of its flat inner tuple: every constrained item with a constant
  // attribute name. An element can satisfy all key items only if every key
  // field hash-matches its operand (`by_key`), some key field is absent or
  // null (`fillable`), or the element is null outright (`always`) —
  // everything else fails the scan's flat check at a key item, so skipping
  // it cannot change which element absorbs first.
  struct AbsorbIndex {
    std::vector<std::string> key_attrs;  // in head item order
    // Composite key hash -> element index, for elements whose key fields
    // are all non-null atoms.
    std::unordered_multimap<uint64_t, uint32_t> by_key;
    std::vector<uint32_t> fillable;  // a key field absent or null; ascending
    std::vector<uint32_t> always;    // null elements; ascending
    size_t synced_size = 0;          // set size the lists describe
  };

  static void ClassifyElement(const Value& e,
                              const std::vector<std::string>& key_attrs,
                              uint32_t i, AbsorbIndex* st) {
    if (e.is_null()) {
      InsertAscending(&st->always, i);
      return;
    }
    if (!e.is_tuple()) return;  // an atom/set element never absorbs a tuple
    uint64_t key = 0;
    bool fillable = false;
    for (const std::string& attr : key_attrs) {
      const Value* f = e.FindField(attr);
      if (f == nullptr || f->is_null()) {
        fillable = true;
      } else if (!f->is_atom()) {
        return;  // never equals an atom operand: the flat check rejects it
      } else {
        key = CombineKeyHash(key, NormalizedCellHash(*f));
      }
    }
    if (fillable) {
      InsertAscending(&st->fillable, i);
    } else {
      st->by_key.emplace(key, i);
    }
  }

  // Re-classifies every element of `set` under st->key_attrs.
  static void RebuildAbsorbIndex(const Value& set, AbsorbIndex* st) {
    AbsorbIndexBuildsCounter()->Increment();
    st->by_key.clear();
    st->fillable.clear();
    st->always.clear();
    const auto& elems = set.elements();
    st->by_key.reserve(elems.size());
    for (uint32_t i = 0; i < elems.size(); ++i) {
      ClassifyElement(elems[i], st->key_attrs, i, st);
    }
    st->synced_size = elems.size();
  }

  static void InsertAscending(std::vector<uint32_t>* v, uint32_t i) {
    v->insert(std::lower_bound(v->begin(), v->end(), i), i);
  }

  static void EraseAscending(std::vector<uint32_t>* v, uint32_t i) {
    auto it = std::lower_bound(v->begin(), v->end(), i);
    if (it != v->end() && *it == i) v->erase(it);
  }

  // `batch` means this slot sits on the head path at or above the first set
  // (the level absorb indexes track). Below that — inside set elements —
  // structural edits cannot move a tracked set, so recursion drops the flag
  // and skips both index maintenance and invalidation.
  Status MakeTrueImpl(Value* slot, const Expr& expr, const Substitution& sigma,
                      Value* delta, bool batch) {
    switch (expr.kind) {
      case Expr::Kind::kEpsilon:
        return Status::Ok();
      case Expr::Kind::kAtomic: {
        IDL_ASSIGN_OR_RETURN(Value v, Matcher::EvalTerm(expr.term, sigma));
        if (slot->is_null() || !Matcher::EvalRelOp(RelOp::kEq, *slot, v)) {
          if (delta != nullptr) {
            *delta = v;
            ++out_->delta_size;
          }
          // Overwriting a non-null path slot can destroy a tracked set.
          if (batch && !slot->is_null()) absorb_states_.clear();
          *slot = std::move(v);
          ++out_->changes;
        }
        return Status::Ok();
      }
      case Expr::Kind::kTuple: {
        if (slot->is_null()) {
          *slot = Value::EmptyTuple();
          ++out_->changes;
        }
        if (!slot->is_tuple()) {
          return TypeError(
              StrCat("cannot make a tuple expression true on a ",
                     ValueKindName(slot->kind()), " object"));
        }
        if (delta != nullptr && !delta->is_tuple()) {
          *delta = Value::EmptyTuple();
        }
        for (const auto& item : expr.items) {
          IDL_ASSIGN_OR_RETURN(std::string_view attr, GroundName(item, sigma));
          if (slot->FindField(attr) == nullptr) {
            // Inserting a field shifts this tuple's later fields in memory;
            // any tracked set stored there has moved.
            if (batch) absorb_states_.clear();
            slot->SetField(attr, Value::Null());
            ++out_->changes;
          }
          Value* field = slot->MutableField(attr);
          Value* delta_field = nullptr;
          if (delta != nullptr) {
            if (delta->FindField(attr) == nullptr) {
              delta->SetField(attr, Value::Null());
            }
            delta_field = delta->MutableField(attr);
          }
          IDL_RETURN_IF_ERROR(MakeTrueImpl(
              field, item.expr ? *item.expr : EpsilonExpr(), sigma,
              delta_field, batch));
        }
        return Status::Ok();
      }
      case Expr::Kind::kSet: {
        if (slot->is_null()) {
          *slot = Value::EmptySet();
          ++out_->changes;
        }
        if (!slot->is_set()) {
          return TypeError(StrCat("cannot make a set expression true on a ",
                                  ValueKindName(slot->kind()), " object"));
        }
        if (delta != nullptr && !delta->is_set()) *delta = Value::EmptySet();
        const Expr& inner = expr.set_inner ? *expr.set_inner : EpsilonExpr();
        // Build the element this fact would create, with a scratch counter
        // (candidate construction is not a universe change).
        Value candidate;
        {
          Materialized scratch;
          HeadWriter sub(&scratch);
          IDL_RETURN_IF_ERROR(sub.MakeTrue(&candidate, inner, sigma,
                                           nullptr));
        }
        // (1) Exactly present already: nothing to do (hash lookup — this is
        // the common case on fixpoint re-derivation).
        if (slot->Contains(candidate)) return Status::Ok();
        // (2) Extend a consistent element (the absorb step that folds
        // per-stock facts into chwab's one-tuple-per-date shape). An element
        // that satisfies the expression outright is absorbable with zero
        // changes, which also keeps the fixpoint monotone.
        //
        // The scan visits every element, so for the common flat-tuple head
        // the probe (resolved names + evaluated `=` operands) is built once
        // here instead of once per element inside CanAbsorb — on large
        // derived relations this loop dominates materialization cost.
        struct ProbeItem {
          std::string_view attr;
          Value operand;     // meaningful only when constrained
          bool constrained;  // false: ε item, no demand on an existing field
        };
        std::vector<ProbeItem> probe;
        bool flat = inner.kind == Expr::Kind::kTuple;
        if (flat) {
          probe.reserve(inner.items.size());
          for (const auto& item : inner.items) {
            IDL_ASSIGN_OR_RETURN(std::string_view attr,
                                 GroundName(item, sigma));
            const Expr* ie = item.expr.get();
            if (ie == nullptr || ie->kind == Expr::Kind::kEpsilon) {
              probe.push_back({attr, Value::Null(), false});
            } else if (ie->kind == Expr::Kind::kAtomic) {
              IDL_ASSIGN_OR_RETURN(Value operand,
                                   Matcher::EvalTerm(ie->term, sigma));
              probe.push_back({attr, std::move(operand), true});
            } else {
              flat = false;  // nested tuple/set item: generic walk below
              break;
            }
          }
        }
        // Mirrors CanAbsorb(e, inner, sigma) for a flat tuple probe. Both
        // the scan below and the batch path verify candidates with exactly
        // this predicate.
        auto flat_ok = [&](const Value& e) {
          if (e.is_null()) return true;
          if (!e.is_tuple()) return false;
          for (const auto& p : probe) {
            const Value* f = e.FindField(p.attr);
            if (f == nullptr) continue;    // addable
            if (!p.constrained) continue;  // ε accepts any field
            if (f->is_null()) continue;    // fillable
            if (f->is_tuple() || f->is_set() ||
                !Matcher::EvalRelOp(RelOp::kEq, *f, p.operand)) {
              return false;
            }
          }
          return true;
        };
        // Absorbs into element i and maintains the delta; shared by both
        // paths. Sets *rehashed when the caller must not touch indexes
        // (RehashSet/RehashElement already ran).
        auto absorb_into = [&](size_t i, bool* changed,
                               bool* removed_dup) -> Status {
          uint64_t before = out_->changes;
          uint64_t old_hash = slot->elements()[i].Hash();
          Value* element = slot->MutableElement(i);
          IDL_RETURN_IF_ERROR(
              MakeTrueImpl(element, inner, sigma, nullptr, false));
          *changed = out_->changes != before;
          *removed_dup = false;
          if (*changed) {
            if (delta != nullptr && delta->Insert(*element)) {
              ++out_->delta_size;
            }
            *removed_dup = slot->RehashElement(i, old_hash);
          }
          return Status::Ok();
        };

        // Batch absorb (columnar substrate): probe the absorb index on the
        // composite key of the key items instead of scanning. Candidate
        // order is ascending, verification is `flat_ok` — scan-identical.
        auto is_key = [&](size_t k) {
          return probe[k].constrained && !inner.items[k].attr_is_var;
        };
        bool keyed = false;
        if (batch && flat) {
          for (size_t k = 0; k < probe.size() && !keyed; ++k) {
            keyed = is_key(k);
          }
        }
        if (keyed) {
          AbsorbBatchedCounter()->Increment();
          AbsorbIndex& st = absorb_states_[slot];
          // Compare the rule's key names against the index's in place.
          size_t n = 0;
          bool same_key = true;
          for (size_t k = 0; k < probe.size() && same_key; ++k) {
            if (!is_key(k)) continue;
            same_key = n < st.key_attrs.size() &&
                       st.key_attrs[n] == probe[k].attr;
            ++n;
          }
          const bool rekey = !same_key || n != st.key_attrs.size();
          if (rekey) {
            st.key_attrs.clear();
            for (size_t k = 0; k < probe.size(); ++k) {
              if (is_key(k)) st.key_attrs.emplace_back(probe[k].attr);
            }
          }
          if (rekey || st.synced_size != slot->SetSize()) {
            RebuildAbsorbIndex(*slot, &st);
          }
          // by_key holds only elements whose key fields are all non-null
          // atoms; a null or non-atomic operand equals none of them.
          bucket_.clear();
          uint64_t key = 0;
          bool probe_key = true;
          for (size_t k = 0; k < probe.size() && probe_key; ++k) {
            if (!is_key(k)) continue;
            const Value& operand = probe[k].operand;
            probe_key = operand.is_atom() && !operand.is_null();
            if (probe_key) {
              key = CombineKeyHash(key, NormalizedCellHash(operand));
            }
          }
          if (probe_key) {
            auto [lo, hi] = st.by_key.equal_range(key);
            for (auto it = lo; it != hi; ++it) bucket_.push_back(it->second);
            std::sort(bucket_.begin(), bucket_.end());
          }
          enum class Src { kAlways, kFillable, kBucket };
          size_t ia = 0, ib = 0, ic = 0;
          uint64_t verified = 0;
          uint32_t pick = UINT32_MAX;
          Src pick_src = Src::kAlways;
          while (pick == UINT32_MAX) {
            uint32_t i = UINT32_MAX;
            Src src = Src::kAlways;
            if (ia < st.always.size()) {
              i = st.always[ia];
            }
            if (ib < st.fillable.size() && st.fillable[ib] < i) {
              i = st.fillable[ib];
              src = Src::kFillable;
            }
            if (ic < bucket_.size() && bucket_[ic] < i) {
              i = bucket_[ic];
              src = Src::kBucket;
            }
            if (i == UINT32_MAX) break;
            switch (src) {
              case Src::kAlways: ++ia; break;
              case Src::kFillable: ++ib; break;
              case Src::kBucket: ++ic; break;
            }
            ++verified;
            if (flat_ok(slot->elements()[i])) {
              pick = i;
              pick_src = src;
            }
          }
          AbsorbCandidatesCounter()->Increment(verified);
          if (pick != UINT32_MAX) {
            bool changed = false, removed_dup = false;
            IDL_RETURN_IF_ERROR(absorb_into(pick, &changed, &removed_dup));
            if (!changed) return Status::Ok();
            if (removed_dup) {
              // Indices past the removed duplicate shifted; the size check
              // forces a rebuild on the next write to this set.
              st.synced_size = 0;
              return Status::Ok();
            }
            // Reclassify the pick: a bucket hit's key fields already equaled
            // their operands, so the absorb left them (and its hash entry)
            // alone.
            if (pick_src != Src::kBucket) {
              EraseAscending(
                  pick_src == Src::kAlways ? &st.always : &st.fillable, pick);
              ClassifyElement(slot->elements()[pick], st.key_attrs, pick,
                              &st);
            }
            return Status::Ok();
          }
          if (delta != nullptr && delta->Insert(candidate)) {
            ++out_->delta_size;
          }
          slot->Insert(std::move(candidate));
          ++out_->changes;
          ClassifyElement(slot->elements()[slot->SetSize() - 1], st.key_attrs,
                          static_cast<uint32_t>(slot->SetSize() - 1), &st);
          st.synced_size = slot->SetSize();
          return Status::Ok();
        }
        // Scan path mutates the set without maintaining its absorb index.
        if (batch) absorb_states_.erase(slot);
        for (size_t i = 0; i < slot->SetSize(); ++i) {
          const Value& e = slot->elements()[i];
          bool ok;
          if (flat) {
            ok = flat_ok(e);
          } else {
            IDL_ASSIGN_OR_RETURN(ok, CanAbsorb(e, inner, sigma));
          }
          if (ok) {
            uint64_t before = out_->changes;
            Value* element = slot->MutableElement(i);
            IDL_RETURN_IF_ERROR(
                MakeTrueImpl(element, inner, sigma, nullptr, false));
            if (out_->changes != before) {
              if (delta != nullptr && delta->Insert(*element)) {
                ++out_->delta_size;
              }
              slot->RehashSet();
            }
            return Status::Ok();
          }
        }
        // (3) Insert the fresh element.
        if (delta != nullptr && delta->Insert(candidate)) {
          ++out_->delta_size;
        }
        slot->Insert(std::move(candidate));
        ++out_->changes;
        return Status::Ok();
      }
    }
    return Internal("unreachable expression kind");
  }

  Materialized* out_;
  bool batch_enabled_ = false;
  // Scratch for one batched absorb's key bucket, reused across facts. Safe
  // because the batch path recurses only into flat elements, which never
  // reach a set case.
  std::vector<uint32_t> bucket_;
  // Keyed by set address; entries are valid only while head-path structure
  // is stable — any armed structural edit clears the map (see MakeTrueImpl).
  std::unordered_map<const Value*, AbsorbIndex> absorb_states_;
};

// The distinct "db[.rel]" paths a run's head writes landed in. A path
// already recorded costs one lookup and no allocation: Add builds each path
// in a reused buffer.
class WrittenPaths {
 public:
  Status Add(const Rule& rule, const Substitution& sigma) {
    const TupleItem& db_item = rule.head->items[0];
    IDL_ASSIGN_OR_RETURN(std::string_view db, GroundName(db_item, sigma));
    scratch_.assign(db);
    if (db_item.expr != nullptr && db_item.expr->kind == Expr::Kind::kTuple &&
        !db_item.expr->items.empty()) {
      IDL_ASSIGN_OR_RETURN(std::string_view rel,
                           GroundName(db_item.expr->items[0], sigma));
      scratch_ += '.';
      scratch_ += rel;
    }
    paths_.insert(scratch_);
    return Status::Ok();
  }

  // Sorted and unique.
  std::vector<std::string> Sorted() const {
    return std::vector<std::string>(paths_.begin(), paths_.end());
  }

 private:
  std::set<std::string> paths_;
  std::string scratch_;
};

// Records a processed body substitution: derived-path bookkeeping plus the
// head write (shared by both strategies). Charges the governor one
// derivation step plus one cell per universe change the head write makes.
Status ProcessSubstitution(const Rule& rule, const Substitution& sigma,
                           HeadWriter* writer, Materialized* m,
                           WrittenPaths* derived, Value* delta,
                           const ResourceGovernor* governor) {
  if (governor != nullptr) {
    IDL_RETURN_IF_ERROR(governor->ChargeDerivations(1));
  }
  const uint64_t changes_before = m->changes;
  ++m->facts_derived;
  IDL_RETURN_IF_ERROR(derived->Add(rule, sigma));

  Status st = writer->MakeTrue(&m->universe, *rule.head, sigma, delta);
  if (!st.ok()) {
    return st.WithContext(StrCat("deriving head of '", rule.source, "'"));
  }
  if (governor != nullptr && m->changes != changes_before) {
    IDL_RETURN_IF_ERROR(governor->ChargeCells(m->changes - changes_before));
  }
  return Status::Ok();
}

// Seeds the cell account with the base universe's size; the budget then
// bounds base plus everything derivation adds. The O(universe) walk is paid
// only when a cell budget is actually set.
Status ChargeBaseCells(const Value& base, const ResourceGovernor* governor) {
  if (governor == nullptr || governor->limits().max_universe_cells == 0) {
    return Status::Ok();
  }
  return governor->ChargeCells(CountCells(base));
}

// Every path any level wrote, sorted and unique.
std::vector<std::string> UnionOfLevels(
    const std::vector<std::vector<std::string>>& level_written) {
  std::set<std::string> all;
  for (const auto& written : level_written) {
    all.insert(written.begin(), written.end());
  }
  return std::vector<std::string>(all.begin(), all.end());
}

// ---- kNaive: the original strategy, kept verbatim as the test oracle -------

Result<Materialized> MaterializeNaive(const std::vector<Rule>& rules,
                                      const Value& base,
                                      const EvalOptions& options,
                                      EvalStats* stats,
                                      const ResourceGovernor* governor) {
  TraceSpan mat_span("materialize",
                     StrCat("strategy=naive rules=", rules.size()));
  auto mat_start = std::chrono::steady_clock::now();
  Materialized m;
  m.universe = base;
  IDL_RETURN_IF_ERROR(ChargeBaseCells(base, governor));

  IDL_ASSIGN_OR_RETURN(Stratification strat, Stratify(rules));
  std::vector<std::vector<size_t>> by_stratum(
      static_cast<size_t>(std::max(strat.num_strata, 0)));
  for (size_t i = 0; i < rules.size(); ++i) {
    by_stratum[strat.stratum[i]].push_back(i);
  }

  WrittenPaths derived;
  HeadWriter writer(&m);
  EvalStats run_stats;  // this run only; merged into *stats at the end

  for (int s = 0; s < strat.num_strata; ++s) {
    bool recursive = strat.stratum_recursive[s];
    TraceSpan stratum_span(
        "stratum", StrCat("level=", s, " rules=", by_stratum[s].size(),
                          recursive ? " recursive" : ""));
    auto start = std::chrono::steady_clock::now();
    int64_t cpu_start = ThreadCpuNs();
    StratumStats row;
    row.stratum = s;
    row.rules = static_cast<int>(by_stratum[s].size());
    row.recursive = recursive;
    row.rule_timings.resize(by_stratum[s].size());
    for (size_t k = 0; k < by_stratum[s].size(); ++k) {
      RuleTimingStats& timing = row.rule_timings[k];
      timing.rule = static_cast<int>(by_stratum[s][k]);
      Result<RelRef> head = HeadTarget(rules[by_stratum[s][k]]);
      timing.head = head.ok() ? head->ToString() : "?";
    }
    while (true) {
      if (governor != nullptr) IDL_RETURN_IF_ERROR(governor->ChargePass());
      uint64_t changes_before = m.changes;
      for (size_t k = 0; k < by_stratum[s].size(); ++k) {
        const size_t rule_index = by_stratum[s][k];
        const Rule& rule = rules[rule_index];
        RuleTimingStats& timing = row.rule_timings[k];
        if (governor != nullptr) IDL_RETURN_IF_ERROR(governor->Checkpoint());
        // Materialize the body bindings *before* writing any head instance
        // (the body reads the same universe the head writes).
        auto enum_start = std::chrono::steady_clock::now();
        std::vector<Substitution> sigmas;
        Result<bool> r = EnumerateBindings(
            m.universe, rule.body, options, &run_stats,
            [&](const Substitution& sigma) {
              sigmas.push_back(sigma);
              return true;
            },
            governor);
        if (!r.ok()) {
          return r.status().WithContext(
              StrCat("evaluating body of '", rule.source, "'"));
        }
        timing.enumerate_ms += MsSince(enum_start);
        ++timing.passes;
        timing.substitutions += sigmas.size();
        row.substitutions += sigmas.size();
        auto write_start = std::chrono::steady_clock::now();
        for (const auto& sigma : sigmas) {
          IDL_RETURN_IF_ERROR(ProcessSubstitution(rule, sigma, &writer, &m,
                                                  &derived, nullptr,
                                                  governor));
        }
        timing.write_ms += MsSince(write_start);
      }
      ++m.fixpoint_passes;
      ++row.passes;
      if (!recursive || m.changes == changes_before) break;
    }
    row.wall_ms = MsSince(start);
    row.cpu_ms = CpuMsSince(cpu_start);
    m.cpu_ms += row.cpu_ms;
    m.stratum_stats.push_back(row);
  }

  m.derived_paths = derived.Sorted();
  m.wall_ms = MsSince(mat_start);
  if (stats != nullptr) *stats += run_stats;
  BumpEngineMetrics(m, run_stats);
  return m;
}

// ---- kSemiNaive: delta-driven fixpoint with parallel rule evaluation -------
//
// The per-level wave is shared between full materialization and incremental
// maintenance (ViewEngine::ApplyDelta): SemiNaiveContext carries everything
// a wave needs, RunLevelWave runs one level to fixpoint.

struct SemiNaiveContext {
  const std::vector<Rule>* rules = nullptr;
  Stratification strat;
  std::vector<std::vector<size_t>> by_level;        // rule indexes per level
  std::vector<RelRef> heads;                        // per rule
  std::vector<std::vector<ConjunctClass>> classes;  // per rule
  EvalOptions options;
  const ResourceGovernor* governor = nullptr;
  // Worker pool: the calling thread always participates (slot 0), so
  // parallelism P means P-1 pool threads.
  std::unique_ptr<ThreadPool> pool;
  EvalStats mat_stats;  // this run only (merged by the caller)
  Materialized* m = nullptr;
};

Status InitSemiNaive(const std::vector<Rule>& rules,
                     const EvalOptions& options,
                     const ResourceGovernor* governor, Materialized* m,
                     SemiNaiveContext* ctx) {
  ctx->rules = &rules;
  IDL_ASSIGN_OR_RETURN(ctx->strat, Stratify(rules));
  const size_t n = rules.size();
  ctx->by_level.assign(
      static_cast<size_t>(std::max(ctx->strat.num_levels, 0)), {});
  for (size_t i = 0; i < n; ++i) {
    ctx->by_level[ctx->strat.level[i]].push_back(i);
  }
  ctx->heads.resize(n);
  ctx->classes.resize(n);
  for (size_t i = 0; i < n; ++i) {
    IDL_ASSIGN_OR_RETURN(ctx->heads[i], HeadTarget(rules[i]));
    IDL_ASSIGN_OR_RETURN(ctx->classes[i], ClassifyBody(rules[i]));
  }
  ctx->options = options;
  ctx->governor = governor;
  ctx->m = m;
  size_t parallelism = options.materialize_parallelism == 0
                           ? ThreadPool::DefaultWorkers() + 1
                           : options.materialize_parallelism;
  if (parallelism > 1) {
    ctx->pool = std::make_unique<ThreadPool>(parallelism - 1);
  }
  return Status::Ok();
}

// Merges sorted-unique `add` into sorted-unique `*into`.
void MergeSortedUnique(std::vector<std::string>* into,
                       const std::vector<std::string>& add) {
  std::vector<std::string> merged;
  merged.reserve(into->size() + add.size());
  std::set_union(into->begin(), into->end(), add.begin(), add.end(),
                 std::back_inserter(merged));
  *into = std::move(merged);
}

// Runs one evaluation level to fixpoint over ctx->m->universe.
//
// Full mode (`seed` null): pass 0 enumerates every rule body over the whole
// universe; later passes restrict delta-eligible conjuncts to the previous
// pass's delta — the original semi-naive wave.
//
// Seeded mode (`seed` non-null, incremental maintenance): every pass is
// delta-restricted. Pass 0's delta is `*seed` — the facts newly present in
// the universe, in delta-universe shape — and rules none of whose conjuncts
// can touch the seed or a same-level head are skipped outright (their
// output is already in the universe).
//
// When `accumulate` is non-null every fact the wave derives is also merged
// into it, so a maintenance caller can seed the next level with this one's
// output. A wave that neither recurses nor accumulates records no delta:
// nothing would read it.
//
// `*written` receives the "db[.rel]" paths the wave's facts were written
// under, sorted and unique.
Result<StratumStats> RunLevelWave(SemiNaiveContext* ctx, int level,
                                  const Value* seed,
                                  const std::vector<RelRef>* seed_refs,
                                  Value* accumulate,
                                  std::vector<std::string>* written) {
  const std::vector<Rule>& rules = *ctx->rules;
  const std::vector<size_t>& level_rules = ctx->by_level[level];
  const bool recursive = ctx->strat.level_recursive[level];
  const EvalOptions& options = ctx->options;
  const ResourceGovernor* governor = ctx->governor;
  Materialized& m = *ctx->m;
  HeadWriter writer(&m);
  if (options.substrate == EvalSubstrate::kColumnar) {
    writer.EnableBatchAbsorb();
  }
  TraceSpan wave_span(
      "stratum", StrCat("level=", level, " rules=", level_rules.size(),
                        recursive ? " recursive" : "",
                        seed != nullptr ? " seeded" : ""));
  auto start = std::chrono::steady_clock::now();
  StratumStats row;
  row.stratum = level;
  row.rules = static_cast<int>(level_rules.size());
  row.recursive = recursive;
  row.rule_timings.resize(level_rules.size());
  for (size_t k = 0; k < level_rules.size(); ++k) {
    row.rule_timings[k].rule = static_cast<int>(level_rules[k]);
    row.rule_timings[k].head = ctx->heads[level_rules[k]].ToString();
  }
  uint64_t delta_before_level = m.delta_size;
  const bool delta_read = recursive || accumulate != nullptr;
  WrittenPaths paths;

  // Body positions eligible for delta restriction: positive universe
  // readers that may overlap a head defined in this level — or, in seeded
  // mode, a seed relation. (Same-level heads a rule can actually read are
  // its own SCC's — anything else would be a cross-SCC dependency and sit
  // at a lower level — so this conservative test only ever adds redundant
  // variants, never misses.)
  std::vector<std::vector<size_t>> delta_positions(level_rules.size());
  for (size_t k = 0; k < level_rules.size(); ++k) {
    const auto& body = ctx->classes[level_rules[k]];
    for (size_t pos = 0; pos < body.size(); ++pos) {
      if (!body[pos].reads_universe || body[pos].negative) continue;
      bool eligible = false;
      for (size_t other : level_rules) {
        if (body[pos].ref.Overlaps(ctx->heads[other])) {
          eligible = true;
          break;
        }
      }
      if (!eligible && seed_refs != nullptr) {
        for (const RelRef& ref : *seed_refs) {
          if (body[pos].ref.Overlaps(ref)) {
            eligible = true;
            break;
          }
        }
      }
      if (eligible) delta_positions[k].push_back(pos);
    }
  }

  Value delta;  // facts derived by the previous pass (or the seed)
  if (seed != nullptr) delta = *seed;
  std::vector<uint64_t> cumulative(level_rules.size(), 0);
  int pass = 0;
  while (true) {
    if (governor != nullptr) IDL_RETURN_IF_ERROR(governor->ChargePass());
    const bool use_delta = seed != nullptr || pass > 0;

    // Rules whose body cannot touch the delta are settled after pass 0:
    // their inputs live in lower (final) levels. A naive pass would have
    // replayed their whole output again.
    std::vector<size_t> active;
    for (size_t k = 0; k < level_rules.size(); ++k) {
      if (!use_delta || !delta_positions[k].empty()) {
        active.push_back(k);
      } else {
        row.substitutions_skipped += cumulative[k];
      }
    }

    TraceSpan pass_span("pass",
                        StrCat("pass=", row.passes, " active=", active.size()));

    // ---- enumeration phase: the universe is immutable, so rule bodies
    // evaluate concurrently (sharing each set's page and indexes through
    // its cache slot); each task gets its own result slot and stats. Phase
    // timings land in the task's own slot (thread-safe) and are folded into
    // the rule timings by the sequential collection loop below.
    struct TaskResult {
      std::vector<Substitution> sigmas;
      Status status = Status::Ok();
      EvalStats stats;
      double enum_wall_ms = 0.0;
      double enum_cpu_ms = 0.0;
    };
    std::vector<TaskResult> results(active.size());
    const bool run_parallel = ctx->pool != nullptr && active.size() > 1;
    if (run_parallel) {
      // Pre-compute every lazily-cached structural hash while still
      // single-threaded: concurrent readers must not race on the caches.
      m.universe.Hash();
      if (!delta.is_null()) delta.Hash();
    }
    auto run_task = [&](size_t t, size_t /*slot*/) {
      TaskResult& out = results[t];
      const size_t k = active[t];
      const Rule& rule = rules[level_rules[k]];
      auto enum_start = std::chrono::steady_clock::now();
      int64_t enum_cpu_start = ThreadCpuNs();
      auto collect = [&](const Substitution& sigma) {
        out.sigmas.push_back(sigma);
        return true;
      };
      std::vector<ConjunctSource> sources;
      sources.reserve(rule.body.size());
      for (const auto& conjunct : rule.body) {
        sources.push_back(ConjunctSource{conjunct.get(), &m.universe});
      }
      if (!use_delta) {
        Result<bool> r = EnumerateBindingsOver(sources, options, &out.stats,
                                               collect, governor);
        if (!r.ok()) out.status = r.status();
      } else {
        // One variant per delta-eligible conjunct: that conjunct reads
        // the delta, the rest the full universe. The union over variants
        // covers every substitution whose body touches a new fact.
        for (size_t pos : delta_positions[k]) {
          sources[pos].universe = &delta;
          Result<bool> r = EnumerateBindingsOver(sources, options,
                                                 &out.stats, collect, governor);
          sources[pos].universe = &m.universe;
          if (!r.ok()) {
            out.status = r.status();
            break;
          }
        }
        DedupSubstitutions(&out.sigmas);
      }
      if (!out.status.ok()) {
        out.status = out.status.WithContext(
            StrCat("evaluating body of '", rule.source, "'"));
      }
      out.enum_wall_ms = MsSince(enum_start);
      out.enum_cpu_ms = CpuMsSince(enum_cpu_start);
    };
    {
      TraceSpan enum_span(
          "enumerate", StrCat("tasks=", active.size(),
                              run_parallel ? " parallel" : ""));
      if (run_parallel) {
        ctx->pool->ParallelFor(active.size(), run_task);
        row.parallel_tasks += active.size();
      } else {
        for (size_t t = 0; t < active.size(); ++t) run_task(t, 0);
      }
    }
    for (size_t t = 0; t < active.size(); ++t) {
      IDL_RETURN_IF_ERROR(results[t].status);
      ctx->mat_stats += results[t].stats;
      RuleTimingStats& timing = row.rule_timings[active[t]];
      ++timing.passes;
      timing.enumerate_ms += results[t].enum_wall_ms;
      row.cpu_ms += results[t].enum_cpu_ms;
    }

    // ---- write phase: sequential, in rule order, so results do not
    // depend on thread count. Changes are recorded into the next delta
    // when something reads it.
    TraceSpan write_span("write");
    int64_t write_cpu_start = ThreadCpuNs();
    Value next_delta;
    Value* record_delta = delta_read ? &next_delta : nullptr;
    uint64_t changes_before = m.changes;
    for (size_t t = 0; t < active.size(); ++t) {
      if (governor != nullptr) IDL_RETURN_IF_ERROR(governor->Checkpoint());
      const size_t k = active[t];
      const Rule& rule = rules[level_rules[k]];
      RuleTimingStats& timing = row.rule_timings[k];
      auto write_start = std::chrono::steady_clock::now();
      row.substitutions += results[t].sigmas.size();
      timing.substitutions += results[t].sigmas.size();
      if (use_delta && cumulative[k] > results[t].sigmas.size()) {
        // A naive pass would have re-enumerated (at least) everything this
        // rule derived so far; the delta variants only replayed these.
        row.substitutions_skipped +=
            cumulative[k] - results[t].sigmas.size();
      }
      cumulative[k] += results[t].sigmas.size();
      for (const auto& sigma : results[t].sigmas) {
        IDL_RETURN_IF_ERROR(ProcessSubstitution(rule, sigma, &writer, &m,
                                                &paths, record_delta,
                                                governor));
      }
      timing.write_ms += MsSince(write_start);
    }
    row.cpu_ms += CpuMsSince(write_cpu_start);
    ++m.fixpoint_passes;
    ++row.passes;
    const bool changed = m.changes != changes_before;
    if (accumulate != nullptr && !next_delta.is_null()) {
      MergeUniverse(accumulate, next_delta);
    }
    if (!recursive || !changed) break;
    delta = std::move(next_delta);
    ++pass;
  }

  row.delta_facts = m.delta_size - delta_before_level;
  row.wall_ms = MsSince(start);
  *written = paths.Sorted();
  return row;
}

Result<Materialized> MaterializeSemiNaive(const std::vector<Rule>& rules,
                                          const Value& base,
                                          const EvalOptions& options,
                                          EvalStats* stats,
                                          const ResourceGovernor* governor) {
  TraceSpan mat_span("materialize",
                     StrCat("strategy=semi-naive rules=", rules.size()));
  auto mat_start = std::chrono::steady_clock::now();
  Materialized m;
  m.universe = base;
  IDL_RETURN_IF_ERROR(ChargeBaseCells(base, governor));

  SemiNaiveContext ctx;
  IDL_RETURN_IF_ERROR(InitSemiNaive(rules, options, governor, &m, &ctx));
  m.level_written.assign(ctx.by_level.size(), {});

  for (int level = 0; level < static_cast<int>(ctx.by_level.size());
       ++level) {
    IDL_ASSIGN_OR_RETURN(
        StratumStats row, RunLevelWave(&ctx, level, nullptr, nullptr,
                                       nullptr, &m.level_written[level]));
    m.substitutions_skipped += row.substitutions_skipped;
    m.parallel_tasks += row.parallel_tasks;
    m.cpu_ms += row.cpu_ms;
    m.stratum_stats.push_back(row);
  }

  m.indexes_reused = ctx.mat_stats.indexes_reused;
  if (stats != nullptr) *stats += ctx.mat_stats;
  m.derived_paths = UnionOfLevels(m.level_written);
  m.wall_ms = MsSince(mat_start);
  BumpEngineMetrics(m, ctx.mat_stats);
  return m;
}

// ---- Incremental maintenance helpers (ViewEngine::ApplyDelta) --------------

bool OverlapsAny(const RelRef& ref, const std::vector<RelRef>& refs) {
  for (const auto& r : refs) {
    if (ref.Overlaps(r)) return true;
  }
  return false;
}

// Whether the level must re-run under the dirty set: a body conjunct
// (positive or negative) reads a dirty relation, a concrete head may write
// one, or the level's recorded outputs overlap one (the rebuild dropped
// them). Higher-order heads are deliberately absent from the static check:
// their targets are data-dependent, so only the recorded outputs and body
// reads decide — a HO stratum stays skipped unless a relation it read or
// wrote changed.
bool LevelAffected(const SemiNaiveContext& ctx, size_t level,
                   const std::vector<RelRef>& dirty,
                   const std::vector<std::string>& old_written) {
  for (size_t rule_index : ctx.by_level[level]) {
    for (const auto& c : ctx.classes[rule_index]) {
      if (c.reads_universe && OverlapsAny(c.ref, dirty)) return true;
    }
    const RelRef& head = ctx.heads[rule_index];
    if (head.db.has_value() && head.rel.has_value() &&
        OverlapsAny(head, dirty)) {
      return true;
    }
  }
  for (const auto& path : old_written) {
    if (OverlapsAny(PathToRef(path), dirty)) return true;
  }
  return false;
}

// True when every head's fold into its relation is order-independent, so a
// seeded wave (which derives new facts against retained state) reaches the
// same content a from-scratch rematerialization (which interleaves them
// with re-derivations of the old facts) would. The absorb step (HeadWriter
// case 2) folds a candidate into the first consistent element it scans —
// order-dependent as soon as candidates can be *partial* relative to each
// other, because then which element each candidate lands in depends on
// arrival order. Absorb degenerates to exact-duplicate detection — and the
// fold commutes — when every candidate of a relation carries the same fully
// constrained attribute set. Conservatively that requires of every head:
//  * a flat tuple inner with constant attribute names (a higher-order
//    *attribute* yields one-attribute partial tuples — the chwab shape —
//    though a higher-order *relation name* is fine: attributes stay fixed
//    within each relation the head lands in);
//  * every item an un-negated `=`-constrained atomic (an ε or relational
//    item absorbs into nearly anything);
//  * heads that can share a relation agreeing on the attribute set;
//  * no head writing into a relation the base holds (base rows carry
//    attribute sets the rules cannot see, and fold differently depending
//    on which derived facts reached them first).
bool AbsorbOrderIndependent(const SemiNaiveContext& ctx,
                            const Value& base_after) {
  const std::vector<Rule>& rules = *ctx.rules;
  std::vector<std::vector<std::string>> attrs(rules.size());
  for (size_t i = 0; i < rules.size(); ++i) {
    const RelRef& head = ctx.heads[i];
    if (!head.db.has_value()) return false;
    const Value* base_db = base_after.FindField(*head.db);
    if (base_db != nullptr &&
        (!head.rel.has_value() || !base_db->is_tuple() ||
         base_db->FindField(*head.rel) != nullptr)) {
      return false;
    }
    const Expr& root = *rules[i].head;
    if (root.kind != Expr::Kind::kTuple || root.items.size() != 1 ||
        root.items[0].expr == nullptr ||
        root.items[0].expr->kind != Expr::Kind::kTuple ||
        root.items[0].expr->items.size() != 1) {
      return false;
    }
    const Expr* rel_expr = root.items[0].expr->items[0].expr.get();
    if (rel_expr == nullptr || rel_expr->kind != Expr::Kind::kSet ||
        rel_expr->set_inner == nullptr ||
        rel_expr->set_inner->kind != Expr::Kind::kTuple) {
      return false;
    }
    for (const TupleItem& item : rel_expr->set_inner->items) {
      if (item.attr_is_var || item.is_guard() || item.expr == nullptr ||
          item.expr->kind != Expr::Kind::kAtomic ||
          item.expr->relop != RelOp::kEq || item.expr->negated) {
        return false;
      }
      attrs[i].push_back(item.attr);
    }
    std::sort(attrs[i].begin(), attrs[i].end());
  }
  for (size_t i = 0; i < rules.size(); ++i) {
    for (size_t j = i + 1; j < rules.size(); ++j) {
      if (ctx.heads[i].Overlaps(ctx.heads[j]) && attrs[i] != attrs[j]) {
        return false;
      }
    }
  }
  return true;
}

// True when pure-insert propagation is sound: no rule ever wrote into an
// inserted relation (a rematerialization could absorb-fold old facts into
// the new tuples differently), and no negated body conjunct can read the
// insertion closure (insertions would then retract derived facts). The
// closure grows level by level with the heads of levels whose bodies it
// reaches; a higher-order head widens it to everything (conservative).
bool InsertionMonotone(
    const SemiNaiveContext& ctx,
    const std::vector<std::vector<std::string>>& level_written,
    const std::vector<RelRef>& inserted) {
  for (const auto& written : level_written) {
    for (const auto& path : written) {
      if (OverlapsAny(PathToRef(path), inserted)) return false;
    }
  }
  std::vector<RelRef> growing = inserted;
  bool wildcard = false;
  for (size_t level = 0; level < ctx.by_level.size(); ++level) {
    bool reached = false;
    for (size_t rule_index : ctx.by_level[level]) {
      for (const auto& c : ctx.classes[rule_index]) {
        if (!c.reads_universe) continue;
        if (!wildcard && !OverlapsAny(c.ref, growing)) continue;
        if (c.negative) return false;
        reached = true;
      }
    }
    if (!reached) continue;
    for (size_t rule_index : ctx.by_level[level]) {
      const RelRef& head = ctx.heads[rule_index];
      if (head.db.has_value() && head.rel.has_value()) {
        growing.push_back(head);
      } else {
        wildcard = true;
      }
    }
  }
  return true;
}

// Copies the "db[.rel]" subtree of `from` into `to`, creating the database
// tuple when the path was rule-created and absent from the base.
void CopyPath(const Value& from, const std::string& path, Value* to) {
  size_t dot = path.find('.');
  std::string_view db = dot == std::string::npos
                            ? std::string_view(path)
                            : std::string_view(path).substr(0, dot);
  const Value* src_db = from.FindField(db);
  if (src_db == nullptr) return;
  if (dot == std::string::npos) {
    to->SetField(db, *src_db);
    return;
  }
  std::string_view rel = std::string_view(path).substr(dot + 1);
  const Value* src_rel = src_db->FindField(rel);
  if (src_rel == nullptr) return;
  Value* dst_db = to->MutableField(db);
  if (dst_db == nullptr) {
    to->SetField(db, Value::EmptyTuple());
    dst_db = to->MutableField(db);
  }
  if (!dst_db->is_tuple()) return;  // shape conflict: keep the base value
  dst_db->SetField(rel, *src_rel);
}

// The insertion path: mirror the inserted facts into the retained universe,
// then run a seeded wave over each level whose rules can read the growing
// insertion closure. Facts each wave derives extend the seed for the levels
// above it.
Status ApplyInsertions(SemiNaiveContext* ctx, const Value& inserted_tree,
                       std::vector<RelRef> seed_refs) {
  Materialized& m = *ctx->m;
  if (ctx->governor != nullptr &&
      ctx->governor->limits().max_universe_cells > 0) {
    IDL_RETURN_IF_ERROR(
        ctx->governor->ChargeCells(CountCells(inserted_tree)));
  }
  MergeUniverse(&m.universe, inserted_tree);
  Value seed = inserted_tree;  // grows with each level's derivations
  for (size_t level = 0; level < ctx->by_level.size(); ++level) {
    bool affected = false;
    for (size_t rule_index : ctx->by_level[level]) {
      for (const auto& c : ctx->classes[rule_index]) {
        if (c.reads_universe && !c.negative &&
            OverlapsAny(c.ref, seed_refs)) {
          affected = true;
          break;
        }
      }
      if (affected) break;
    }
    if (!affected) {
      ++m.maintenance.strata_skipped;
      continue;
    }
    std::vector<std::string> new_paths;
    IDL_ASSIGN_OR_RETURN(
        StratumStats row,
        RunLevelWave(ctx, static_cast<int>(level), &seed, &seed_refs, &seed,
                     &new_paths));
    m.maintenance.rederived += row.substitutions;
    ++m.maintenance.strata_rederived;
    for (const auto& path : new_paths) seed_refs.push_back(PathToRef(path));
    MergeSortedUnique(&m.level_written[level], new_paths);
    MergeSortedUnique(&m.derived_paths, new_paths);
  }
  return Status::Ok();
}

// The delete-and-rederive path: rebuild from the new base, re-run only the
// levels the dirty closure reaches, and copy every other level's output
// relations verbatim from the old materialization (exact, because any
// co-writer of a dirty relation is itself in the closure).
Status DeleteAndRederive(SemiNaiveContext* ctx, const Value& base_after,
                         std::vector<RelRef> dirty) {
  Materialized& m = *ctx->m;
  const size_t num_levels = ctx->by_level.size();

  // Plan: close the affected set over recorded outputs. A level whose old
  // outputs overlap the dirty closure must re-run (the rebuild drops its
  // contributions), and its outputs dirty their readers — which includes
  // lower-level co-writers of the same relation, hence the fixpoint.
  std::vector<bool> affected(num_levels, false);
  bool grew = true;
  while (grew) {
    grew = false;
    for (size_t level = 0; level < num_levels; ++level) {
      if (affected[level]) continue;
      if (!LevelAffected(*ctx, level, dirty, m.level_written[level])) {
        continue;
      }
      affected[level] = true;
      for (const auto& path : m.level_written[level]) {
        dirty.push_back(PathToRef(path));
      }
      grew = true;
    }
  }

  Value old_universe = std::move(m.universe);
  m.universe = base_after;
  IDL_RETURN_IF_ERROR(ChargeBaseCells(m.universe, ctx->governor));
  for (size_t level = 0; level < num_levels; ++level) {
    // Re-check against the live dirty set: an affected wave below may have
    // written paths the plan did not know about (higher-order heads).
    if (!affected[level] &&
        LevelAffected(*ctx, level, dirty, m.level_written[level])) {
      affected[level] = true;
      for (const auto& path : m.level_written[level]) {
        dirty.push_back(PathToRef(path));
      }
    }
    if (!affected[level]) {
      for (const auto& path : m.level_written[level]) {
        CopyPath(old_universe, path, &m.universe);
      }
      ++m.maintenance.strata_skipped;
      continue;
    }
    IDL_ASSIGN_OR_RETURN(
        StratumStats row,
        RunLevelWave(ctx, static_cast<int>(level), nullptr, nullptr, nullptr,
                     &m.level_written[level]));
    m.maintenance.rederived += row.substitutions;
    ++m.maintenance.strata_rederived;
    for (const auto& path : m.level_written[level]) {
      dirty.push_back(PathToRef(path));
    }
  }

  m.derived_paths = UnionOfLevels(m.level_written);
  return Status::Ok();
}

}  // namespace

std::string Materialized::Explain() const {
  std::string out =
      StrCat(FormatStratumStats(stratum_stats), "facts=", facts_derived,
             " changes=", changes, " passes=", fixpoint_passes,
             " delta=", delta_size, " skipped=", substitutions_skipped,
             " idxreused=", indexes_reused, " par=", parallel_tasks, "\n");
  if (maintenance.deltas_applied > 0 || maintenance.fallbacks > 0) {
    out += FormatMaintenanceStats(maintenance);
  }
  if (!governor.empty()) out += governor;
  if (!federation.empty()) out += federation;
  return out;
}

std::string Materialized::ExplainAnalyze(bool mask_timings) const {
  return FormatAnalyze(stratum_stats, wall_ms, cpu_ms, mask_timings);
}

Status ViewEngine::AddRule(Rule rule) {
  IDL_RETURN_IF_ERROR(ValidateRule(rule));
  rules_.push_back(std::move(rule));
  // Check stratifiability of the whole program eagerly so the error points
  // at the offending rule.
  Result<Stratification> s = Stratify(rules_);
  if (!s.ok()) {
    Status err = s.status().WithContext(
        StrCat("adding rule '", rules_.back().source, "'"));
    rules_.pop_back();
    return err;
  }
  return Status::Ok();
}

Result<Materialized> ViewEngine::Materialize(const Value& base,
                                             EvalStats* stats) const {
  return Materialize(base, EvalOptions(), stats);
}

Result<Materialized> ViewEngine::Materialize(const Value& base,
                                             const EvalOptions& options,
                                             EvalStats* stats,
                                             const ResourceGovernor* governor)
    const {
  EvalStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  Result<Materialized> r =
      options.strategy == EvalStrategy::kNaive
          ? MaterializeNaive(rules_, base, options, stats, governor)
          : MaterializeSemiNaive(rules_, base, options, stats, governor);
  if (r.ok() && governor != nullptr) {
    r->governor = FormatGovernorUsage(governor->Usage(), governor->limits());
  }
  return r;
}

Status ViewEngine::ApplyDelta(Materialized* m, const Value& base_after,
                              const UniverseDelta& delta,
                              const EvalOptions& options, EvalStats* stats,
                              const ResourceGovernor* governor) const {
  if (delta.whole) {
    return FailedPrecondition(
        "delta covers the whole universe; rematerialize");
  }
  if (delta.empty()) {
    ++m->maintenance.deltas_applied;
    return Status::Ok();
  }
  SemiNaiveContext ctx;
  IDL_RETURN_IF_ERROR(InitSemiNaive(rules_, options, governor, m, &ctx));
  if (m->level_written.size() != ctx.by_level.size()) {
    return FailedPrecondition(
        "materialization carries no maintenance state for this rule set; "
        "rematerialize");
  }

  std::vector<RelRef> inserted_refs = delta.InsertedRefs();
  std::vector<RelRef> dirty = delta.DirtyRefs();
  bool insert_only = dirty.empty() && !inserted_refs.empty();
  if (insert_only &&
      (!InsertionMonotone(ctx, m->level_written, inserted_refs) ||
       !AbsorbOrderIndependent(ctx, base_after))) {
    insert_only = false;  // reroute the insertions through delete-and-rederive
  }

  const uint64_t rederived_before = m->maintenance.rederived;
  Status st;
  {
    TraceSpan span("apply_delta",
                   insert_only ? "path=insert_propagation"
                               : "path=delete_and_rederive");
    if (insert_only) {
      st = ApplyInsertions(&ctx, delta.inserted, std::move(inserted_refs));
    } else {
      for (const RelRef& ref : inserted_refs) dirty.push_back(ref);
      st = DeleteAndRederive(&ctx, base_after, std::move(dirty));
    }
  }
  if (!st.ok()) return st;
  ++m->maintenance.deltas_applied;
  m->indexes_reused = ctx.mat_stats.indexes_reused;
  if (stats != nullptr) *stats += ctx.mat_stats;

  MetricsRegistry& registry = MetricsRegistry::Global();
  static Counter* inserts =
      registry.counter("engine.deltas.insert_propagated");
  static Counter* rederives =
      registry.counter("engine.deltas.delete_and_rederive");
  static Counter* rederived =
      registry.counter("engine.maintenance_rederived");
  (insert_only ? inserts : rederives)->Increment();
  rederived->Increment(m->maintenance.rederived - rederived_before);
  ctx.mat_stats.BumpMetrics();
  return Status::Ok();
}

}  // namespace idl
