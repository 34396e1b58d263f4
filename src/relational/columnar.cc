#include "relational/columnar.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/str_util.h"
#include "common/trace.h"

namespace idl {

namespace {

// Numbers hash by their double value — so `=50` probes find `50.0` cells,
// matching EvalRelOp's cross-kind numeric equality — with -0.0 folded onto
// +0.0 (every relop treats them as equal, but their bit patterns differ).
uint64_t NormalizedNumberHash(double d) {
  if (d == 0) d = 0.0;
  return Value::Real(d).Hash();
}

// EvalRelOp (eval/matcher.cc) replicated over atoms, so the columnar
// kernels agree with the tuple-at-a-time matcher on every comparison.
// (Duplicated rather than shared: src/relational must not depend on
// src/eval, and columnar_test pins the two implementations together over
// exhaustive atom pairs.)
constexpr int kUnordered = 2;

int CompareAtomValues(const Value& a, const Value& b) {
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

bool OrderHolds(RelOp op, int c) {
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

bool AtomRelOp(RelOp op, const Value& object, const Value& operand) {
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
  int c = CompareAtomValues(object, operand);
  if (c == kUnordered) return false;
  return OrderHolds(op, c);
}

Counter* PagesBuiltCounter() {
  static Counter* c =
      MetricsRegistry::Global().counter("columnar.pages_built");
  return c;
}
Counter* PagesSharedCounter() {
  static Counter* c =
      MetricsRegistry::Global().counter("columnar.pages_shared");
  return c;
}
Counter* ColumnIndexesBuiltCounter() {
  static Counter* c =
      MetricsRegistry::Global().counter("columnar.indexes_built");
  return c;
}

}  // namespace

uint64_t NormalizedCellHash(const Value& v) {
  return v.is_number() ? NormalizedNumberHash(v.as_double()) : v.Hash();
}

bool ColumnarRelation::IsFlat(const Value& set) {
  if (!set.is_set()) return false;
  const std::vector<Value>& elems = set.elements();
  const std::vector<Value::Field>* shape = nullptr;
  for (const Value& e : elems) {
    if (!e.is_tuple()) return false;
    const std::vector<Value::Field>& fields = e.fields();
    for (const Value::Field& f : fields) {
      if (!f.value.is_atom()) return false;
    }
    if (shape == nullptr) {
      shape = &fields;
      continue;
    }
    // Fields are sorted by name, so shape equality is a name-wise walk.
    if (fields.size() != shape->size()) return false;
    for (size_t i = 0; i < fields.size(); ++i) {
      if (fields[i].name != (*shape)[i].name) return false;
    }
  }
  return true;
}

std::shared_ptr<const ColumnarRelation> ColumnarRelation::FromSet(
    const Value& set) {
  if (!IsFlat(set)) return nullptr;
  const std::vector<Value>& elems = set.elements();
  std::shared_ptr<ColumnarRelation> rel(new ColumnarRelation());
  rel->num_rows_ = elems.size();
  const size_t ncols = elems.empty() ? 0 : elems.front().TupleSize();
  rel->cols_.resize(ncols);

  // Pass 1: per-column kind — uniform non-null atom kind, else kMixed.
  for (size_t c = 0; c < ncols; ++c) {
    Column& col = rel->cols_[c];
    col.name = elems.front().fields()[c].name;
    bool decided = false;
    for (const Value& e : elems) {
      const Value& cell = e.fields()[c].value;
      if (cell.is_null()) continue;
      ColumnKind k;
      switch (cell.kind()) {
        case ValueKind::kInt:
          k = ColumnKind::kInt;
          break;
        case ValueKind::kDouble:
          k = ColumnKind::kDouble;
          break;
        case ValueKind::kBool:
          k = ColumnKind::kBool;
          break;
        case ValueKind::kString:
          k = ColumnKind::kString;
          break;
        case ValueKind::kDate:
          k = ColumnKind::kDate;
          break;
        default:
          k = ColumnKind::kMixed;
          break;
      }
      if (!decided) {
        col.kind = k;
        decided = true;
      } else if (col.kind != k) {
        col.kind = ColumnKind::kMixed;
        break;
      }
      if (k == ColumnKind::kMixed) break;
    }
    if (!decided) col.kind = ColumnKind::kMixed;  // all-null column
  }

  // Pass 2: fill the payload vectors.
  for (size_t c = 0; c < ncols; ++c) {
    Column& col = rel->cols_[c];
    switch (col.kind) {
      case ColumnKind::kInt:
        col.ints.reserve(elems.size());
        break;
      case ColumnKind::kDouble:
        col.reals.reserve(elems.size());
        break;
      case ColumnKind::kBool:
        col.bools.reserve(elems.size());
        break;
      case ColumnKind::kString:
        col.syms.reserve(elems.size());
        break;
      case ColumnKind::kDate:
        col.dates.reserve(elems.size());
        break;
      case ColumnKind::kMixed:
        col.mixed.reserve(elems.size());
        break;
    }
    bool any_null = false;
    for (const Value& e : elems) {
      const Value& cell = e.fields()[c].value;
      const bool null = cell.is_null();
      any_null |= null;
      switch (col.kind) {
        case ColumnKind::kInt:
          col.ints.push_back(null ? 0 : cell.as_int());
          break;
        case ColumnKind::kDouble:
          col.reals.push_back(null ? 0.0 : cell.as_double());
          break;
        case ColumnKind::kBool:
          col.bools.push_back(null ? 0 : (cell.as_bool() ? 1 : 0));
          break;
        case ColumnKind::kString: {
          if (null) {
            col.syms.push_back(0);
            break;
          }
          StringInterner::Id id = rel->syms_.Intern(cell.as_string());
          if (id == rel->sym_hashes_.size()) {
            rel->sym_hashes_.push_back(cell.Hash());
          }
          col.syms.push_back(id);
          break;
        }
        case ColumnKind::kDate:
          col.dates.push_back(null ? 0 : cell.as_date().DayNumber());
          break;
        case ColumnKind::kMixed:
          col.mixed.push_back(cell);
          break;
      }
    }
    if (any_null) {
      col.valid.resize(elems.size(), 1);
      for (size_t r = 0; r < elems.size(); ++r) {
        if (elems[r].fields()[c].value.is_null()) col.valid[r] = 0;
      }
    }
  }

  rel->indexes_ = std::vector<std::atomic<ColumnIndex*>>(ncols);
  for (auto& slot : rel->indexes_) {
    slot.store(nullptr, std::memory_order_relaxed);
  }
  PagesBuiltCounter()->Increment();
  return rel;
}

ColumnarRelation::~ColumnarRelation() {
  for (auto& slot : indexes_) {
    delete slot.load(std::memory_order_relaxed);
  }
}

int ColumnarRelation::FindColumn(std::string_view attr) const {
  // Columns are few (relation arity); a linear scan over sorted names beats
  // a map for the arities this system sees.
  for (size_t c = 0; c < cols_.size(); ++c) {
    if (cols_[c].name == attr) return static_cast<int>(c);
  }
  return -1;
}

Value ColumnarRelation::CellValue(size_t col, uint32_t row) const {
  const Column& c = cols_[col];
  if (c.IsNull(row)) return Value::Null();
  switch (c.kind) {
    case ColumnKind::kInt:
      return Value::Int(c.ints[row]);
    case ColumnKind::kDouble:
      return Value::Real(c.reals[row]);
    case ColumnKind::kBool:
      return Value::Bool(c.bools[row] != 0);
    case ColumnKind::kString:
      return Value::String(syms_.Lookup(c.syms[row]));
    case ColumnKind::kDate:
      return Value::Of(Date::FromDayNumber(c.dates[row]));
    case ColumnKind::kMixed:
      return c.mixed[row];
  }
  return Value::Null();
}

Value ColumnarRelation::ToNested() const {
  Value set = Value::EmptySet();
  for (uint32_t r = 0; r < num_rows_; ++r) {
    Value tuple = Value::EmptyTuple();
    for (size_t c = 0; c < cols_.size(); ++c) {
      tuple.SetField(cols_[c].name, CellValue(c, r));
    }
    set.Insert(std::move(tuple));
  }
  return set;
}

bool ColumnarRelation::CellSatisfies(size_t col, uint32_t row, RelOp op,
                                     const Value& operand) const {
  const Column& c = cols_[col];
  if (c.IsNull(row)) return false;  // null satisfies nothing
  switch (c.kind) {
    case ColumnKind::kInt: {
      if (operand.is_number()) {
        if (op == RelOp::kEq || op == RelOp::kNe) {
          bool eq = static_cast<double>(c.ints[row]) == operand.as_double();
          return op == RelOp::kEq ? eq : !eq;
        }
        if (operand.is_int()) {
          int64_t x = c.ints[row], y = operand.as_int();
          return OrderHolds(op, x == y ? 0 : (x < y ? -1 : 1));
        }
        double x = static_cast<double>(c.ints[row]), y = operand.as_double();
        return OrderHolds(op, x == y ? 0 : (x < y ? -1 : 1));
      }
      return op == RelOp::kNe;  // kind mismatch: only != holds
    }
    case ColumnKind::kDouble: {
      if (operand.is_number()) {
        double x = c.reals[row], y = operand.as_double();
        if (op == RelOp::kEq) return x == y;
        if (op == RelOp::kNe) return x != y;
        return OrderHolds(op, x == y ? 0 : (x < y ? -1 : 1));
      }
      return op == RelOp::kNe;
    }
    case ColumnKind::kBool: {
      if (operand.is_bool()) {
        bool x = c.bools[row] != 0, y = operand.as_bool();
        if (op == RelOp::kEq) return x == y;
        if (op == RelOp::kNe) return x != y;
        return OrderHolds(op, x == y ? 0 : (!x ? -1 : 1));
      }
      return op == RelOp::kNe;
    }
    case ColumnKind::kString: {
      if (operand.is_string()) {
        if (op == RelOp::kEq || op == RelOp::kNe) {
          // Content equality via the interner: equal strings share an id.
          StringInterner::Id id = syms_.Find(operand.as_string());
          bool eq = id != StringInterner::kNotInterned && id == c.syms[row];
          return op == RelOp::kEq ? eq : !eq;
        }
        int cmp = syms_.Lookup(c.syms[row]).compare(operand.as_string());
        return OrderHolds(op, cmp == 0 ? 0 : (cmp < 0 ? -1 : 1));
      }
      return op == RelOp::kNe;
    }
    case ColumnKind::kDate: {
      if (operand.is_date()) {
        int64_t x = c.dates[row], y = operand.as_date().DayNumber();
        if (op == RelOp::kEq) return x == y;
        if (op == RelOp::kNe) return x != y;
        return OrderHolds(op, x == y ? 0 : (x < y ? -1 : 1));
      }
      return op == RelOp::kNe;
    }
    case ColumnKind::kMixed:
      return AtomRelOp(op, c.mixed[row], operand);
  }
  return false;
}

void ColumnarRelation::Filter(size_t col, RelOp op, const Value& operand,
                              std::vector<uint32_t>* sel) const {
  // Kind-mismatch fast exits: against a tuple/set/null operand, typed cells
  // satisfy only `!=` (and null cells satisfy nothing) — CellSatisfies
  // handles each row, so just run the generic loop below.
  size_t out = 0;
  for (uint32_t r : *sel) {
    if (CellSatisfies(col, r, op, operand)) (*sel)[out++] = r;
  }
  sel->resize(out);
}

void ColumnarRelation::AllRows(std::vector<uint32_t>* sel) const {
  sel->resize(num_rows_);
  for (uint32_t r = 0; r < num_rows_; ++r) (*sel)[r] = r;
}

uint64_t ColumnarRelation::CellHash(size_t col, uint32_t row) const {
  const Column& c = cols_[col];
  switch (c.kind) {
    case ColumnKind::kInt:
      return NormalizedNumberHash(static_cast<double>(c.ints[row]));
    case ColumnKind::kDouble:
      return NormalizedNumberHash(c.reals[row]);
    case ColumnKind::kBool:
      return Value::Bool(c.bools[row] != 0).Hash();
    case ColumnKind::kString:
      return sym_hashes_[c.syms[row]];
    case ColumnKind::kDate:
      return Value::Of(Date::FromDayNumber(c.dates[row])).Hash();
    case ColumnKind::kMixed:
      return NormalizedCellHash(c.mixed[row]);
  }
  return 0;
}

const ColumnarRelation::ColumnIndex& ColumnarRelation::EnsureIndex(
    size_t col, bool* built) const {
  ColumnIndex* idx = indexes_[col].load(std::memory_order_acquire);
  if (idx != nullptr) {
    if (built != nullptr) *built = false;
    return *idx;
  }
  std::lock_guard<std::mutex> lock(index_mu_);
  idx = indexes_[col].load(std::memory_order_relaxed);
  if (idx != nullptr) {
    if (built != nullptr) *built = false;
    return *idx;
  }
  TraceSpan span("columnar.index_build",
                 StrCat("attr=", cols_[col].name, " rows=", num_rows_));
  auto owned = std::make_unique<ColumnIndex>();
  owned->buckets.reserve(num_rows_);
  const Column& c = cols_[col];
  for (uint32_t r = 0; r < num_rows_; ++r) {
    if (c.IsNull(r)) continue;  // null cells satisfy no equality
    owned->buckets[CellHash(col, r)].push_back(r);  // ascending by build
  }
  ColumnIndexesBuiltCounter()->Increment();
  idx = owned.release();
  indexes_[col].store(idx, std::memory_order_release);
  if (built != nullptr) *built = true;
  return *idx;
}

void ColumnarRelation::ProbeEq(size_t col, const Value& operand,
                               std::vector<uint32_t>* out, bool* built) const {
  out->clear();
  if (built != nullptr) *built = false;
  // Aggregates and null never equal an atom cell.
  if (operand.is_tuple() || operand.is_set() || operand.is_null()) return;
  const ColumnIndex& index = EnsureIndex(col, built);
  auto it = index.buckets.find(NormalizedCellHash(operand));
  if (it == index.buckets.end()) return;
  for (uint32_t r : it->second) {
    // Verify: hash buckets may hold collisions.
    if (CellSatisfies(col, r, RelOp::kEq, operand)) out->push_back(r);
  }
}

std::shared_ptr<const ColumnarStore> ColumnarStore::Build(
    const Value& universe, const ColumnarStore* previous) {
  TraceSpan span("columnar.store_build");
  auto store = std::make_shared<ColumnarStore>();
  if (!universe.is_tuple()) return store;
  for (const Value::Field& db : universe.fields()) {
    if (!db.value.is_tuple()) continue;
    for (const Value::Field& rel : db.value.fields()) {
      if (!rel.value.is_set()) continue;
      std::string path = StrCat(db.name, ".", rel.name);
      std::shared_ptr<const ColumnarRelation> page;
      if (previous != nullptr) {
        auto prev = previous->by_path_.find(path);
        if (prev != previous->by_path_.end() && prev->second.page != nullptr &&
            prev->second.source != nullptr) {
          // Reuse requires *order-sensitive* equality: row order is
          // emission order, so an order-insensitively-equal set with
          // shuffled elements must rebuild.
          const std::vector<Value>& a = prev->second.source->elements();
          const std::vector<Value>& b = rel.value.elements();
          if (a.size() == b.size() &&
              std::equal(a.begin(), a.end(), b.begin())) {
            page = prev->second.page;
            ++store->shared_;
            PagesSharedCounter()->Increment();
          }
        }
      }
      if (page == nullptr) page = ColumnarRelation::FromSet(rel.value);
      if (page == nullptr) continue;  // not flat: nested evaluation only
      store->by_addr_[static_cast<const void*>(&rel.value)] = page;
      store->by_path_[path] = Entry{&rel.value, page};
    }
  }
  return store;
}

std::shared_ptr<const ColumnarRelation> ColumnarStore::Find(
    const void* addr) const {
  auto it = by_addr_.find(addr);
  return it == by_addr_.end() ? nullptr : it->second;
}

}  // namespace idl
