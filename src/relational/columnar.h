// ColumnarRelation: flat relations as per-attribute column vectors.
//
// The nested object model (object/value.h) stores a relation as a set of
// tuples — pointer-heavy, one allocation per cell, one hash per equality.
// The overwhelmingly common relation in this system is *flat*: every
// element a tuple over the same attribute set, every field an atom. For
// those, this module stores each attribute as one typed vector (int64,
// double, bool, date day-number, interned string id — with a Value-typed
// spill column for mixed-kind attributes), so the vectorized kernels in
// eval/vector_exec.h can select and join over contiguous arrays without
// touching a Value per tuple.
//
// Contracts (docs/COLUMNAR.md):
//  * FromSet succeeds exactly when the set is flat (IsFlat); row r of the
//    columnar form is element r of the set — order is preserved, and
//    ToNested() rebuilds a set equal to (and element-ordered like) the
//    original.
//  * Cell predicates reproduce the matcher's atomic semantics bit for bit:
//    null satisfies no relop, numbers compare across int/double, `!=` holds
//    across incompatible kinds, everything else is unordered
//    (eval/matcher.cc EvalRelOp).
//  * Equality probes hash numbers by their double value (with -0.0 folded
//    onto +0.0) exactly like the matcher's equality indexes, so the two
//    substrates agree on which rows an index probe finds.
//  * A ColumnarRelation is immutable after construction and safe to share
//    across threads: the lazy per-column hash indexes are built under a
//    mutex and published with release/acquire atomics, so concurrent
//    readers (server epochs share column pages across sessions) never
//    race. The `stress`-labelled suites re-check this under TSan.

#ifndef IDL_RELATIONAL_COLUMNAR_H_
#define IDL_RELATIONAL_COLUMNAR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/interner.h"
#include "object/value.h"
#include "syntax/ast.h"

namespace idl {

// The normalized cell hash shared by the matcher's equality indexes and the
// columnar indexes: numbers hash by double value (so `=50` probes find 50.0
// cells, matching EvalRelOp's cross-kind numeric equality), with -0.0
// folded onto +0.0 (equal under every relop, distinct bit patterns).
uint64_t NormalizedCellHash(const Value& v);

enum class ColumnKind : uint8_t {
  kInt,     // int64 cells
  kDouble,  // double cells
  kBool,
  kString,  // interned symbol ids
  kDate,    // proleptic day numbers
  kMixed,   // mixed atom kinds: exact Values
};

class ColumnarRelation {
 public:
  struct Column {
    std::string name;
    ColumnKind kind = ColumnKind::kMixed;
    // Exactly one payload vector is populated, per `kind`.
    std::vector<int64_t> ints;    // kInt
    std::vector<double> reals;    // kDouble
    std::vector<uint8_t> bools;   // kBool
    std::vector<uint32_t> syms;   // kString (ids into the relation interner)
    std::vector<int64_t> dates;   // kDate (Date::DayNumber)
    std::vector<Value> mixed;     // kMixed
    // Validity: empty when the column has no nulls, else one byte per row
    // (1 = present). Null cells hold a zero payload slot.
    std::vector<uint8_t> valid;

    bool IsNull(uint32_t row) const {
      return !valid.empty() && valid[row] == 0;
    }
  };

  // True when every element is a tuple over the same attribute names with
  // every field an atom (nulls allowed). The empty set is flat.
  static bool IsFlat(const Value& set);

  // Builds the columnar form, or returns nullptr when `set` is not a flat
  // set. Row order is element order.
  static std::shared_ptr<const ColumnarRelation> FromSet(const Value& set);

  // The page kept in `set`'s cache slot (Value::set_cache), built by
  // FromSet on first use; nullptr when the set is not flat.
  static std::shared_ptr<const ColumnarRelation> Of(const Value& set);

  ~ColumnarRelation();
  ColumnarRelation(const ColumnarRelation&) = delete;
  ColumnarRelation& operator=(const ColumnarRelation&) = delete;

  size_t num_rows() const { return num_rows_; }
  size_t num_cols() const { return cols_.size(); }
  const std::vector<Column>& columns() const { return cols_; }
  // Column position for `attr`, or -1 when the relation has no such
  // attribute (then no element has it: the relation is flat).
  int FindColumn(std::string_view attr) const;

  // The cell as a Value (materializes strings; used to bind variables).
  Value CellValue(size_t col, uint32_t row) const;

  // Rebuilds the nested set: equal to the source set, same element order.
  Value ToNested() const;

  // Matcher-equivalent atomic predicate on one cell (EvalRelOp semantics:
  // null cells satisfy nothing, numeric comparison crosses int/double,
  // `!=` is true across incompatible kinds).
  bool CellSatisfies(size_t col, uint32_t row, RelOp op,
                     const Value& operand) const;

  // Selection kernel: keeps the rows of `*sel` satisfying `op operand` on
  // `col` (order preserved; no Value is materialized for typed columns).
  void Filter(size_t col, RelOp op, const Value& operand,
              std::vector<uint32_t>* sel) const;

  // Equality-probe kernel: appends to `*out` (cleared first) the rows whose
  // `col` cell equals `operand` under EvalRelOp, in ascending row order.
  // Uses the lazy per-column hash index; `built` (optional) reports whether
  // this probe built it. Thread-safe.
  void ProbeEq(size_t col, const Value& operand, std::vector<uint32_t>* out,
               bool* built = nullptr) const;

  // All rows, ascending (the identity selection vector).
  void AllRows(std::vector<uint32_t>* sel) const;

 private:
  // element hash (normalized) -> rows in ascending order.
  struct ColumnIndex {
    std::unordered_map<uint64_t, std::vector<uint32_t>> buckets;
  };

  ColumnarRelation() = default;

  uint64_t CellHash(size_t col, uint32_t row) const;
  const ColumnIndex& EnsureIndex(size_t col, bool* built) const;

  size_t num_rows_ = 0;
  std::vector<Column> cols_;
  StringInterner syms_;                 // shared by every kString column
  std::vector<uint64_t> sym_hashes_;    // Value::String hash per symbol id
  // Lazy per-column hash indexes (see class comment for the publication
  // protocol).
  mutable std::mutex index_mu_;
  mutable std::vector<std::atomic<ColumnIndex*>> indexes_;
};

// ColumnarStore: the column pages of one epoch universe (src/server).
//
// Built at epoch publication, it attaches a page to the cache slot of every
// flat `db.rel` set, where readers find it (ColumnarRelation::Of). A set
// copied from one whose slot held a page already carries it; any other set
// (delete-and-rederive rebuilds derived relations on every commit) reuses
// the previous epoch's page for its path when the elements are equal in
// order. The store points into its universe and must not outlive it.
class ColumnarStore {
 public:
  // Attaches pages to every flat relation set of `universe` (a tuple of
  // databases, each a tuple of relations). `previous` (may be null) donates
  // pages for relations whose content and element order are unchanged.
  static std::shared_ptr<const ColumnarStore> Build(
      const Value& universe, const ColumnarStore* previous);

  size_t pages() const { return by_path_.size(); }
  // Pages that are the previous epoch's page for the same path.
  size_t shared_with_previous() const { return shared_; }

 private:
  struct Entry {
    const Value* source = nullptr;  // the set inside this epoch's universe
    std::shared_ptr<const ColumnarRelation> page;
  };
  std::unordered_map<std::string, Entry> by_path_;  // "db.rel" -> page
  size_t shared_ = 0;
};

}  // namespace idl

#endif  // IDL_RELATIONAL_COLUMNAR_H_
