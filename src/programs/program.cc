#include "programs/program.h"

#include <algorithm>

#include "common/str_util.h"

namespace idl {

std::string ProgramKey::ToString() const {
  std::string out = path;
  if (view_op == UpdateOp::kInsert) out += '+';
  if (view_op == UpdateOp::kDelete) out += '-';
  return out;
}

bool DecomposeCallShape(const Expr& conjunct, std::string* path,
                        UpdateOp* op, const Expr** param_set) {
  *path = "";
  *op = UpdateOp::kNone;
  *param_set = nullptr;
  const Expr* cur = &conjunct;
  if (cur->negated) return false;
  while (true) {
    if (cur->kind != Expr::Kind::kTuple || cur->items.size() != 1) {
      return false;
    }
    const TupleItem& item = cur->items[0];
    if (item.attr_is_var || item.update != UpdateOp::kNone) return false;
    if (!path->empty()) *path += '.';
    *path += item.attr;
    if (item.expr == nullptr) return true;  // bare path, no parameters
    if (item.expr->kind == Expr::Kind::kTuple) {
      if (item.expr->negated) return false;
      cur = item.expr.get();
      continue;
    }
    if (item.expr->kind == Expr::Kind::kSet && !item.expr->negated) {
      *op = item.expr->update;
      *param_set = item.expr.get();
      return true;
    }
    return false;
  }
}

Status ProgramRegistry::Register(ProgramClause clause) {
  if (clause.name_path.empty()) {
    return InvalidArgument("update program clause has an empty name");
  }
  ProgramKey key{Join(clause.name_path, "."), clause.view_op};

  // Non-recursion check (§7.1): adding this clause must not let `key` reach
  // itself through the call graph. Insert the key first (possibly as an
  // empty placeholder) so that calls *to* this program from previously
  // registered clauses resolve during the check.
  bool existed = programs_.contains(key);
  ProgramDef& def = programs_[key];
  def.key = key;
  for (const ProgramKey& callee : CalledPrograms(clause)) {
    if (Reaches(callee, key)) {
      if (!existed) programs_.erase(key);
      if (callee.path == key.path && callee.view_op == key.view_op) {
        return Unsafe(StrCat("update program ", key.ToString(),
                             " calls itself (recursion is disallowed)"));
      }
      return Unsafe(StrCat("registering ", key.ToString(), " -> ",
                           callee.ToString(),
                           " would create a recursive call cycle"));
    }
  }

  Result<ClauseInfo> info_or = AnalyzeClause(clause);
  if (!info_or.ok()) {
    if (!existed) programs_.erase(key);
    return info_or.status();
  }
  const ClauseInfo& info = *info_or;
  for (const auto& p : info.required_params) {
    if (std::find(def.required_params.begin(), def.required_params.end(),
                  p) == def.required_params.end()) {
      def.required_params.push_back(p);
    }
  }
  def.clauses.push_back(std::move(clause));
  return Status::Ok();
}

const ProgramDef* ProgramRegistry::Find(const ProgramKey& key) const {
  auto it = programs_.find(key);
  return it == programs_.end() ? nullptr : &it->second;
}

bool ProgramRegistry::MatchCall(const Expr& conjunct, ProgramKey* key) const {
  std::string path;
  UpdateOp op;
  const Expr* params;
  if (!DecomposeCallShape(conjunct, &path, &op, &params)) return false;
  ProgramKey candidate{path, op};
  if (programs_.contains(candidate)) {
    *key = candidate;
    return true;
  }
  return false;
}

bool ProgramRegistry::IsUpdateRequest(const Query& query) const {
  ProgramKey key;
  for (const auto& conjunct : query.conjuncts) {
    if (conjunct->HasUpdate()) return true;
    if (MatchCall(*conjunct, &key)) return true;
  }
  return false;
}

ProgramRegistry ProgramRegistry::Clone() const {
  ProgramRegistry copy;
  for (const auto& [key, def] : programs_) {
    ProgramDef& d = copy.programs_[key];
    d.key = def.key;
    d.required_params = def.required_params;
    for (const ProgramClause& clause : def.clauses) {
      d.clauses.push_back(clause.Clone());
    }
  }
  return copy;
}

std::vector<ProgramKey> ProgramRegistry::CalledPrograms(
    const ProgramClause& clause) const {
  std::vector<ProgramKey> out;
  for (const auto& conjunct : clause.body) {
    std::string path;
    UpdateOp op;
    const Expr* params;
    if (DecomposeCallShape(*conjunct, &path, &op, &params)) {
      ProgramKey key{path, op};
      if (programs_.contains(key)) out.push_back(key);
    }
  }
  return out;
}

bool ProgramRegistry::Reaches(const ProgramKey& from,
                              const ProgramKey& to) const {
  if (from.path == to.path && from.view_op == to.view_op) return true;
  const ProgramDef* def = Find(from);
  if (def == nullptr) return false;
  for (const auto& clause : def->clauses) {
    for (const ProgramKey& next : CalledPrograms(clause)) {
      if (Reaches(next, to)) return true;
    }
  }
  return false;
}

}  // namespace idl
