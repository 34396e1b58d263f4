// Update programs (paper §7.1): named, parameterized collections of update
// and query expressions, defined by `head -> body` clauses. A program may
// have several clauses (delStk has one per database); a call executes all of
// them in definition order. Programs may call other programs, but never
// recursively (enforced at registration), which is what licenses the
// top-down semantics.
//
// View-update programs (§7.2) are update programs whose head carries a '+'
// or '-' between the view name and the parameter tuple: `.dbX.p+(...) -> …`.
// They state the administrator's chosen translation of a view update into
// base updates.

#ifndef IDL_PROGRAMS_PROGRAM_H_
#define IDL_PROGRAMS_PROGRAM_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "syntax/analysis.h"
#include "syntax/ast.h"

namespace idl {

// Registry key: the dotted name path plus the view-update op.
struct ProgramKey {
  std::string path;  // "dbU.delStk"
  UpdateOp view_op = UpdateOp::kNone;

  friend bool operator<(const ProgramKey& a, const ProgramKey& b) {
    if (a.path != b.path) return a.path < b.path;
    return static_cast<int>(a.view_op) < static_cast<int>(b.view_op);
  }
  std::string ToString() const;
};

struct ProgramDef {
  ProgramKey key;
  std::vector<ProgramClause> clauses;
  // Union of the clauses' required parameters (binding signature, §7.1):
  // parameters that occur in '+' expressions and must be bound by the call.
  std::vector<std::string> required_params;
};

class ProgramRegistry {
 public:
  // Adds a clause (creating the program if new). Rejects clauses that would
  // make the call graph cyclic.
  Status Register(ProgramClause clause);

  // nullptr if unknown.
  const ProgramDef* Find(const ProgramKey& key) const;

  // True if a body conjunct's constant path prefix names a program; used by
  // the executor to distinguish program calls from base updates. Fills
  // `key` with the longest matching prefix.
  bool MatchCall(const Expr& conjunct, ProgramKey* key) const;

  // True if `query` must run as an update: a conjunct carries an update
  // marker or calls a registered program.
  bool IsUpdateRequest(const Query& query) const;

  // A deep copy (clauses own their ASTs, so the registry is move-only).
  ProgramRegistry Clone() const;

  const std::map<ProgramKey, ProgramDef>& programs() const {
    return programs_;
  }

 private:
  // Program keys called (directly) from `clause`'s body.
  std::vector<ProgramKey> CalledPrograms(const ProgramClause& clause) const;
  // True if `from` can reach `to` through the call graph.
  bool Reaches(const ProgramKey& from, const ProgramKey& to) const;

  std::map<ProgramKey, ProgramDef> programs_;
};

// Decomposes a conjunct of the form `.a.b.c[±](.x=…, …)` into its constant
// dotted prefix, the op on the final set expression (kNone when absent) and
// the parameter set expression (nullptr when the path has no parentheses).
// Returns false for conjuncts that are not shaped like that (e.g. contain
// variables in the path).
bool DecomposeCallShape(const Expr& conjunct, std::string* path,
                        UpdateOp* op, const Expr** param_set);

}  // namespace idl

#endif  // IDL_PROGRAMS_PROGRAM_H_
