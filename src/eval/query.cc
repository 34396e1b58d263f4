#include "eval/query.h"

#include <algorithm>
#include <unordered_map>

#include "common/str_util.h"
#include "eval/matcher.h"
#include "eval/substitution.h"
#include "eval/vector_exec.h"
#include "object/value_io.h"
#include "syntax/analysis.h"

namespace idl {

std::vector<Value> Answer::Column(const std::string& var) const {
  std::vector<Value> out;
  for (size_t c = 0; c < columns.size(); ++c) {
    if (columns[c] == var) {
      out.reserve(rows.size());
      for (const auto& row : rows) out.push_back(row[c]);
      return out;
    }
  }
  return out;
}

std::string Answer::ToTable() const {
  if (columns.empty()) {
    return boolean() ? "true" : "false";
  }
  std::vector<std::vector<std::string>> cells;
  cells.push_back(columns);
  for (const auto& row : rows) {
    std::vector<std::string> line;
    line.reserve(row.size());
    for (const auto& v : row) line.push_back(ToString(v));
    cells.push_back(std::move(line));
  }
  std::vector<size_t> width(columns.size(), 0);
  for (const auto& line : cells) {
    for (size_t c = 0; c < line.size(); ++c) {
      width[c] = std::max(width[c], line[c].size());
    }
  }
  std::string out;
  for (size_t r = 0; r < cells.size(); ++r) {
    for (size_t c = 0; c < cells[r].size(); ++c) {
      if (c > 0) out += "  ";
      out += cells[r][c];
      out.append(width[c] - cells[r][c].size(), ' ');
    }
    out += '\n';
    if (r == 0) {
      for (size_t c = 0; c < width.size(); ++c) {
        if (c > 0) out += "  ";
        out.append(width[c], '-');
      }
      out += '\n';
    }
  }
  return out;
}

namespace {

// Recursive conjunct-by-conjunct enumeration. Each conjunct carries its own
// universe so semi-naive delta variants can point one conjunct at the delta.
struct ConjunctChain {
  const std::vector<ConjunctSource>* conjuncts;
  Matcher* matcher;
  const std::function<bool(const Substitution&)>* cb;
  const ResourceGovernor* governor;
  Status error;
  // Columnar substrate (null under EvalSubstrate::kNested): per-conjunct
  // vector plans parallel to `conjuncts`. Vectorized and matched conjuncts
  // interleave freely — emission happens through the same Step recursion
  // either way, so checkpoint counts and substitution order are
  // substrate-independent.
  const std::vector<std::optional<VectorConjunctPlan>>* plans = nullptr;
  const EvalOptions* options = nullptr;
  EvalStats* stats = nullptr;

  bool Step(size_t index, Substitution* sigma) {
    // Checkpoint per enumeration step, not just per emitted substitution: a
    // highly selective conjunct over a huge relation emits rarely but steps
    // constantly, and cancellation must stay responsive there too.
    if (governor != nullptr) {
      Status st = governor->Checkpoint();
      if (!st.ok()) {
        error = std::move(st);
        return false;
      }
    }
    if (index == conjuncts->size()) return (*cb)(*sigma);
    const ConjunctSource& source = (*conjuncts)[index];
    if (plans != nullptr && (*plans)[index].has_value()) {
      bool fell_back = false;
      Result<bool> r = ExecuteVectorConjunct(
          *(*plans)[index], *source.universe, options->use_indexes,
          options->index_min_set_size, stats, sigma,
          [&] { return Step(index + 1, sigma); }, &fell_back);
      if (!fell_back) {
        if (!r.ok()) {
          error = r.status();
          return false;
        }
        return *r;
      }
      // Not flat: this activation runs tuple-at-a-time below.
    }
    Result<bool> r = matcher->Match(
        *source.universe, *source.expr, sigma,
        [&](const Substitution&) { return Step(index + 1, sigma); });
    if (!r.ok()) {
      error = r.status();
      return false;
    }
    return *r;
  }
};

}  // namespace

GovernorLimits GovernorLimitsFrom(const EvalOptions& options) {
  GovernorLimits limits;
  limits.deadline_ms = options.deadline_ms;
  limits.max_passes = options.max_passes;
  limits.max_derivations = options.max_derivations;
  limits.max_universe_cells = options.max_universe_cells;
  limits.cancel_at_checkpoint = options.cancel_at_checkpoint;
  return limits;
}

Result<bool> EnumerateBindingsOver(
    const std::vector<ConjunctSource>& conjuncts, const EvalOptions& options,
    EvalStats* stats, const std::function<bool(const Substitution&)>& cb,
    const ResourceGovernor* governor) {
  EvalStats local_stats;
  if (stats == nullptr) stats = &local_stats;

  // Conjuncts carrying negation anywhere (top level or nested inside a set
  // expression) run after all purely positive conjuncts, so their
  // variables are bound.
  std::vector<ConjunctSource> ordered;
  ordered.reserve(conjuncts.size());
  for (const auto& c : conjuncts) {
    if (!ContainsNegation(*c.expr)) ordered.push_back(c);
  }
  for (const auto& c : conjuncts) {
    if (ContainsNegation(*c.expr)) ordered.push_back(c);
  }

  Matcher matcher(stats, options.use_indexes ? options.index_min_set_size
                                             : Matcher::kScanOnly);
  Substitution sigma;
  ConjunctChain chain{&ordered, &matcher, &cb, governor, Status::Ok()};

  // Columnar substrate: compile a vector plan per conjunct (static shape
  // analysis, once per enumeration). Conjuncts the compiler rejects — and
  // activations whose target set turns out not to be flat — keep the
  // matcher, with identical semantics.
  std::vector<std::optional<VectorConjunctPlan>> plans;
  if (options.substrate == EvalSubstrate::kColumnar) {
    plans.reserve(ordered.size());
    bool any = false;
    for (const ConjunctSource& c : ordered) {
      plans.push_back(CompileVectorConjunct(*c.expr));
      any |= plans.back().has_value();
    }
    if (any) {
      chain.plans = &plans;
      chain.options = &options;
      chain.stats = stats;
    }
  }

  bool keep_going = chain.Step(0, &sigma);
  if (!chain.error.ok()) return chain.error;
  return keep_going;
}

Result<bool> EnumerateBindings(
    const Value& universe, const std::vector<ExprPtr>& conjuncts,
    const EvalOptions& options, EvalStats* stats,
    const std::function<bool(const Substitution&)>& cb,
    const ResourceGovernor* governor) {
  std::vector<ConjunctSource> sources;
  sources.reserve(conjuncts.size());
  for (const auto& c : conjuncts) {
    sources.push_back(ConjunctSource{c.get(), &universe});
  }
  return EnumerateBindingsOver(sources, options, stats, cb, governor);
}

Result<Answer> EvaluateQuery(const Value& universe, const Query& query,
                             const EvalOptions& options, EvalStats* stats,
                             const ResourceGovernor* governor) {
  IDL_ASSIGN_OR_RETURN(QueryInfo info, AnalyzeQuery(query));
  if (info.is_update_request) {
    return InvalidArgument(
        "update request passed to EvaluateQuery; use ApplyUpdateRequest");
  }

  Answer answer;
  answer.columns = info.free_vars;

  // Row dedup: hash buckets with deep comparison (hash alone would silently
  // drop distinct rows on collision).
  std::unordered_map<uint64_t, std::vector<size_t>> seen;
  EvalStats local_stats;
  EvalStats* st = stats ? stats : &local_stats;

  Result<bool> r = EnumerateBindings(
      universe, query.conjuncts, options, st,
      [&](const Substitution& sigma) {
        std::vector<Value> row;
        row.reserve(answer.columns.size());
        uint64_t h = 0x9e3779b97f4a7c15ULL;
        for (const auto& var : answer.columns) {
          const Value* v = sigma.Lookup(var);
          // A free variable can be unbound when it only occurs in a conjunct
          // that bound nothing (e.g. under a deferred branch); treat as null.
          Value val = v ? *v : Value::Null();
          h = h * 1099511628211ULL ^ val.Hash();
          row.push_back(std::move(val));
        }
        auto& bucket = seen[h];
        for (size_t idx : bucket) {
          if (answer.rows[idx] == row) return true;  // duplicate
        }
        bucket.push_back(answer.rows.size());
        ++st->substitutions_emitted;
        answer.rows.push_back(std::move(row));
        if (options.max_rows != 0 && answer.rows.size() >= options.max_rows) {
          return false;
        }
        return true;
      },
      governor);
  if (!r.ok()) return r.status();
  return answer;
}

}  // namespace idl
