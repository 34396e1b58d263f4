// Value: the IDL object model (paper Section 3).
//
// An object is an atom (null, bool, int, double, string, date), a tuple of
// named attribute/object pairs, or a set of objects. The model is purely
// value-based (no object identity), sets are duplicate-free and
// order-insensitive, and — crucially for the paper — sets may contain
// *heterogeneous* elements: tuples in one relation can have different
// attribute sets ("varying arity").
//
// The universe of databases is itself a Value: a tuple of databases, each a
// tuple of relations, each relation a set of tuples of atoms.
//
// Mutation discipline: every mutable access (MutableField, MutableElement,
// SetField, Insert, …) invalidates the cached hash of the node it goes
// through, so a node with a cached hash has cached descendants; a mutable
// set access also detaches the set's cache slot (set_cache()). Code that
// mutates a set element in place must call RehashSet() on the containing
// set afterwards to restore the dedup index.
//
// Thread safety: a Value that no thread mutates is safe to read from many
// threads at once. The mutable state behind a const read is the hash cache,
// a relaxed atomic — concurrent Hash() calls race only on storing the
// identical computed value — and the set cache slot, which is built for
// concurrent readers. The server layer (src/server) relies on this to share
// one published epoch universe across reader sessions; one Hash() on the
// root before publication caches every node's hash, so steady-state readers
// never write a hash.

#ifndef IDL_OBJECT_VALUE_H_
#define IDL_OBJECT_VALUE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <variant>
#include <vector>

#include "object/date.h"

namespace idl {

class SetCache;

enum class ValueKind : uint8_t {
  kNull = 0,
  kBool,
  kInt,
  kDouble,
  kString,
  kDate,
  kTuple,
  kSet,
};

// "tuple", "set", "int", ...
std::string_view ValueKindName(ValueKind kind);

class Value {
 public:
  // A named attribute of a tuple. Defined after the class (it holds a Value
  // by value).
  struct Field;

  // ---- Construction -------------------------------------------------------

  // Null atom by default.
  Value() = default;

  static Value Null() { return Value(); }
  static Value Bool(bool b);
  static Value Int(int64_t i);
  static Value Real(double d);
  static Value String(std::string s);
  static Value Of(Date d);
  static Value EmptyTuple();
  static Value EmptySet();

  // Hand-written only because the hash cache is an atomic (atomics are not
  // copyable); semantically these are the defaulted member-wise operations.
  Value(const Value& o) : rep_(o.rep_), hash_(o.CachedHash()) {}
  Value& operator=(const Value& o) {
    rep_ = o.rep_;
    SetCachedHash(o.CachedHash());
    return *this;
  }
  Value(Value&& o) noexcept
      : rep_(std::move(o.rep_)), hash_(o.CachedHash()) {}
  Value& operator=(Value&& o) noexcept {
    rep_ = std::move(o.rep_);
    SetCachedHash(o.CachedHash());
    return *this;
  }

  // ---- Classification -----------------------------------------------------

  ValueKind kind() const { return static_cast<ValueKind>(rep_.index()); }
  bool is_null() const { return kind() == ValueKind::kNull; }
  bool is_bool() const { return kind() == ValueKind::kBool; }
  bool is_int() const { return kind() == ValueKind::kInt; }
  bool is_double() const { return kind() == ValueKind::kDouble; }
  bool is_string() const { return kind() == ValueKind::kString; }
  bool is_date() const { return kind() == ValueKind::kDate; }
  bool is_tuple() const { return kind() == ValueKind::kTuple; }
  bool is_set() const { return kind() == ValueKind::kSet; }
  bool is_atom() const { return !is_tuple() && !is_set(); }
  bool is_number() const { return is_int() || is_double(); }

  // ---- Atom access (valid only for the matching kind) ---------------------

  bool as_bool() const;
  int64_t as_int() const;
  double as_double() const;       // valid for int or double
  const std::string& as_string() const;
  const Date& as_date() const;

  // ---- Tuple access -------------------------------------------------------

  size_t TupleSize() const;
  // Fields in sorted-by-name order.
  const std::vector<Field>& fields() const;
  // nullptr if absent.
  const Value* FindField(std::string_view name) const;
  bool HasField(std::string_view name) const {
    return FindField(name) != nullptr;
  }
  // Mutable access; nullptr if absent. Invalidates this node's hash cache.
  Value* MutableField(std::string_view name);
  // Inserts or overwrites.
  void SetField(std::string_view name, Value value);
  // True if the field existed.
  bool RemoveField(std::string_view name);

  // ---- Set access ---------------------------------------------------------

  size_t SetSize() const;
  const std::vector<Value>& elements() const;
  bool Contains(const Value& v) const;
  // Inserts `v` unless already present. Returns true if the set changed.
  bool Insert(Value v);
  // Removes all elements for which pred(elem) is true; returns count removed.
  template <typename Pred>
  size_t EraseIf(Pred pred) {
    auto& s = set_rep();
    std::vector<Value> kept;
    kept.reserve(s.elems.size());
    size_t removed = 0;
    for (auto& e : s.elems) {
      if (pred(static_cast<const Value&>(e))) {
        ++removed;
      } else {
        kept.push_back(std::move(e));
      }
    }
    if (removed > 0) {
      s.elems = std::move(kept);
      RebuildSetIndex();
      ResetSetCaches(s);
    }
    return removed;
  }
  // Mutable element access. Invalidates this node's hash cache. The caller
  // must call RehashSet() after in-place element mutation.
  Value* MutableElement(size_t index);
  // Rebuilds the dedup index and removes duplicates introduced by in-place
  // element mutation (keeps the first occurrence).
  void RehashSet();
  // Targeted alternative to RehashSet() when exactly one element was mutated
  // in place: re-indexes elems[index] given its pre-mutation hash. If the new
  // value duplicates another element, the later of the two is removed (the
  // same survivor RehashSet would keep) and true is returned — element
  // indices past the removal point have shifted.
  bool RehashElement(size_t index, uint64_t old_hash);
  // This set's cache slot (object/set_cache.h): its columnar page and
  // equality indexes. A copy shares the slot its source has; the mutable
  // accessors above detach it. Safe to call from many threads at once.
  SetCache& set_cache() const;

  // ---- Whole-value operations ---------------------------------------------

  // Structural hash; sets hash order-insensitively. Cached on every node it
  // visits.
  uint64_t Hash() const;

  // Canonical total order over all values: kinds ranked
  // null < bool < int < double < string < date < tuple < set; tuples compare
  // field-by-field in name order; sets compare as sorted element sequences.
  // (Cross-kind *numeric* comparison for query relops lives in the matcher,
  // not here: Compare is a strict ordering for canonicalization.)
  static int Compare(const Value& a, const Value& b);

  // Deep structural equality (sets order-insensitive). Int(1) != Real(1.0).
  friend bool operator==(const Value& a, const Value& b) {
    uint64_t ha = a.CachedHash(), hb = b.CachedHash();
    if (ha != 0 && hb != 0 && ha != hb) return false;
    return Compare(a, b) == 0;
  }

 private:
  struct TupleRep {
    // Sorted by name, unique names.
    std::vector<Field> fields;
  };
  struct SetRep {
    // element hash -> indices into elems (collision chains possible).
    using Index = std::unordered_multimap<uint64_t, uint32_t>;

    // The dedup index and the cache slot.
    struct Heap {
      Heap() = default;
      Heap(const Heap& o);  // copies the index, shares the slot
      ~Heap();              // releases the slot
      // The slot, installed on first use.
      SetCache& Slot() const;
      Index index;
      // Counted: copies of the set share it.
      mutable std::atomic<SetCache*> cache{nullptr};
    };

    SetRep() = default;
    SetRep(const SetRep& o);
    SetRep& operator=(const SetRep& o);
    SetRep(SetRep&&) = default;
    SetRep& operator=(SetRep&&) = default;

    // The index, created on first use.
    Index& MutableIndex();

    std::vector<Value> elems;
    // Held by pointer because the map object alone is larger than every
    // other alternative of Rep: inline, it would double every Value (96
    // bytes instead of 48). Null until something is inserted, so a null
    // heap means an empty set.
    std::unique_ptr<Heap> heap;
  };

  using Rep = std::variant<std::monostate, bool, int64_t, double, std::string,
                           Date, TupleRep, SetRep>;

  TupleRep& tuple_rep();
  const TupleRep& tuple_rep() const;
  SetRep& set_rep();
  const SetRep& set_rep() const;
  void RebuildSetIndex();
  // Resets this set's hash and detaches its cache slot (`s` is set_rep()).
  void ResetSetCaches(SetRep& s);

  uint64_t CachedHash() const {
    return hash_.load(std::memory_order_relaxed);
  }
  void SetCachedHash(uint64_t h) const {
    hash_.store(h, std::memory_order_relaxed);
  }

  Rep rep_;
  // 0 == not computed. Reset by every mutation path; cached by Hash(). A
  // relaxed atomic so concurrent readers of an immutable Value may race on
  // caching the (identical, deterministic) hash without UB.
  mutable std::atomic<uint64_t> hash_{0};
};

struct Value::Field {
  std::string name;
  Value value;
};

// Every node is one Value; keep it small (see SetRep::heap).
static_assert(sizeof(Value) == 48);

// Number of object-model cells in `v`: every node (atom, tuple, or set)
// counts as one cell, recursively through tuple fields and set elements.
// The resource governor's max_universe_cells budget is accounted in these
// units (common/governor.h).
uint64_t CountCells(const Value& v);

}  // namespace idl

#endif  // IDL_OBJECT_VALUE_H_
