#include "object/value.h"

#include <algorithm>

#include "common/logging.h"

namespace idl {

namespace {

// 64-bit mix (SplitMix64 finalizer) for hash combining.
uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Combine(uint64_t a, uint64_t b) { return Mix(a * 31 + b + 0x9e37); }

uint64_t HashString(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

std::string_view ValueKindName(ValueKind kind) {
  switch (kind) {
    case ValueKind::kNull:
      return "null";
    case ValueKind::kBool:
      return "bool";
    case ValueKind::kInt:
      return "int";
    case ValueKind::kDouble:
      return "double";
    case ValueKind::kString:
      return "string";
    case ValueKind::kDate:
      return "date";
    case ValueKind::kTuple:
      return "tuple";
    case ValueKind::kSet:
      return "set";
  }
  return "unknown";
}

// ---- Construction ----------------------------------------------------------

Value Value::Bool(bool b) {
  Value v;
  v.rep_ = b;
  return v;
}

Value Value::Int(int64_t i) {
  Value v;
  v.rep_ = i;
  return v;
}

Value Value::Real(double d) {
  Value v;
  v.rep_ = d;
  return v;
}

Value Value::String(std::string s) {
  Value v;
  v.rep_ = std::move(s);
  return v;
}

Value Value::Of(Date d) {
  Value v;
  v.rep_ = d;
  return v;
}

Value Value::EmptyTuple() {
  Value v;
  v.rep_ = TupleRep{};
  return v;
}

Value Value::EmptySet() {
  Value v;
  v.rep_ = SetRep{};
  return v;
}

// ---- Atom access -----------------------------------------------------------

bool Value::as_bool() const {
  IDL_CHECK(is_bool());
  return std::get<bool>(rep_);
}

int64_t Value::as_int() const {
  IDL_CHECK(is_int());
  return std::get<int64_t>(rep_);
}

double Value::as_double() const {
  if (is_int()) return static_cast<double>(std::get<int64_t>(rep_));
  IDL_CHECK(is_double());
  return std::get<double>(rep_);
}

const std::string& Value::as_string() const {
  IDL_CHECK(is_string());
  return std::get<std::string>(rep_);
}

const Date& Value::as_date() const {
  IDL_CHECK(is_date());
  return std::get<Date>(rep_);
}

// ---- Tuple access ----------------------------------------------------------

Value::TupleRep& Value::tuple_rep() {
  IDL_CHECK(is_tuple());
  return std::get<TupleRep>(rep_);
}

const Value::TupleRep& Value::tuple_rep() const {
  IDL_CHECK(is_tuple());
  return std::get<TupleRep>(rep_);
}

size_t Value::TupleSize() const { return tuple_rep().fields.size(); }

const std::vector<Value::Field>& Value::fields() const {
  return tuple_rep().fields;
}

namespace {
// Iterator to the first field with name >= `name`.
std::vector<Value::Field>::iterator LowerBound(std::vector<Value::Field>& fs,
                                               std::string_view name) {
  return std::lower_bound(
      fs.begin(), fs.end(), name,
      [](const Value::Field& f, std::string_view n) { return f.name < n; });
}
}  // namespace

const Value* Value::FindField(std::string_view name) const {
  const auto& fs = tuple_rep().fields;
  auto it = std::lower_bound(
      fs.begin(), fs.end(), name,
      [](const Field& f, std::string_view n) { return f.name < n; });
  if (it != fs.end() && it->name == name) return &it->value;
  return nullptr;
}

Value* Value::MutableField(std::string_view name) {
  auto& fs = tuple_rep().fields;
  auto it = LowerBound(fs, name);
  if (it != fs.end() && it->name == name) {
    SetCachedHash(0);
    return &it->value;
  }
  return nullptr;
}

void Value::SetField(std::string_view name, Value value) {
  auto& fs = tuple_rep().fields;
  auto it = LowerBound(fs, name);
  if (it != fs.end() && it->name == name) {
    it->value = std::move(value);
  } else {
    fs.insert(it, Field{std::string(name), std::move(value)});
  }
  SetCachedHash(0);
}

bool Value::RemoveField(std::string_view name) {
  auto& fs = tuple_rep().fields;
  auto it = LowerBound(fs, name);
  if (it == fs.end() || it->name != name) return false;
  fs.erase(it);
  SetCachedHash(0);
  return true;
}

// ---- Set access ------------------------------------------------------------

Value::SetRep::SetRep(const SetRep& o)
    : elems(o.elems),
      index(o.index == nullptr ? nullptr : std::make_unique<Index>(*o.index)) {}

Value::SetRep& Value::SetRep::operator=(const SetRep& o) {
  if (this != &o) *this = SetRep(o);
  return *this;
}

Value::SetRep::Index& Value::SetRep::MutableIndex() {
  if (index == nullptr) index = std::make_unique<Index>();
  return *index;
}

Value::SetRep& Value::set_rep() {
  IDL_CHECK(is_set());
  return std::get<SetRep>(rep_);
}

const Value::SetRep& Value::set_rep() const {
  IDL_CHECK(is_set());
  return std::get<SetRep>(rep_);
}

size_t Value::SetSize() const { return set_rep().elems.size(); }

const std::vector<Value>& Value::elements() const { return set_rep().elems; }

bool Value::Contains(const Value& v) const {
  const auto& s = set_rep();
  if (s.index == nullptr) return false;
  uint64_t h = v.Hash();
  auto [lo, hi] = s.index->equal_range(h);
  for (auto it = lo; it != hi; ++it) {
    if (s.elems[it->second] == v) return true;
  }
  return false;
}

bool Value::Insert(Value v) {
  if (Contains(v)) return false;
  auto& s = set_rep();
  uint64_t h = v.Hash();
  s.MutableIndex().emplace(h, static_cast<uint32_t>(s.elems.size()));
  s.elems.push_back(std::move(v));
  SetCachedHash(0);
  return true;
}

Value* Value::MutableElement(size_t index) {
  auto& s = set_rep();
  IDL_CHECK(index < s.elems.size());
  SetCachedHash(0);
  return &s.elems[index];
}

void Value::RehashSet() {
  auto& s = set_rep();
  // Dedup (keep first occurrence) then rebuild the index.
  std::vector<Value> kept;
  kept.reserve(s.elems.size());
  SetRep::Index& index = s.MutableIndex();
  index.clear();
  for (auto& e : s.elems) {
    uint64_t h = e.Hash();
    bool dup = false;
    auto [lo, hi] = index.equal_range(h);
    for (auto it = lo; it != hi; ++it) {
      if (kept[it->second] == e) {
        dup = true;
        break;
      }
    }
    if (!dup) {
      index.emplace(h, static_cast<uint32_t>(kept.size()));
      kept.push_back(std::move(e));
    }
  }
  s.elems = std::move(kept);
  SetCachedHash(0);
}

bool Value::RehashElement(size_t index, uint64_t old_hash) {
  auto& s = set_rep();
  IDL_CHECK(index < s.elems.size());
  SetRep::Index& set_index = s.MutableIndex();
  // Drop the stale index entry keyed by the pre-mutation hash.
  {
    auto [lo, hi] = set_index.equal_range(old_hash);
    for (auto it = lo; it != hi; ++it) {
      if (it->second == index) {
        set_index.erase(it);
        break;
      }
    }
  }
  uint64_t h = s.elems[index].Hash();
  auto [lo, hi] = set_index.equal_range(h);
  for (auto it = lo; it != hi; ++it) {
    if (s.elems[it->second] == s.elems[index]) {
      // One mutated element can create at most one duplicate pair (the set
      // was duplicate-free before). RehashSet keeps first occurrences, so
      // the higher index loses regardless of which one was mutated.
      size_t drop = std::max<size_t>(index, it->second);
      s.elems.erase(s.elems.begin() + static_cast<ptrdiff_t>(drop));
      RebuildSetIndex();
      SetCachedHash(0);
      return true;
    }
  }
  set_index.emplace(h, static_cast<uint32_t>(index));
  SetCachedHash(0);
  return false;
}

void Value::RebuildSetIndex() {
  auto& s = set_rep();
  SetRep::Index& index = s.MutableIndex();
  index.clear();
  for (uint32_t i = 0; i < s.elems.size(); ++i) {
    index.emplace(s.elems[i].Hash(), i);
  }
}

// ---- Whole-value operations --------------------------------------------------

uint64_t Value::Hash() const {
  if (uint64_t cached = CachedHash(); cached != 0) return cached;
  uint64_t h = Mix(static_cast<uint64_t>(kind()) + 0x51ed);
  switch (kind()) {
    case ValueKind::kNull:
      break;
    case ValueKind::kBool:
      h = Combine(h, std::get<bool>(rep_) ? 2 : 1);
      break;
    case ValueKind::kInt:
      h = Combine(h, static_cast<uint64_t>(std::get<int64_t>(rep_)));
      break;
    case ValueKind::kDouble: {
      double d = std::get<double>(rep_);
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      __builtin_memcpy(&bits, &d, sizeof(bits));
      h = Combine(h, bits);
      break;
    }
    case ValueKind::kString:
      h = Combine(h, HashString(std::get<std::string>(rep_)));
      break;
    case ValueKind::kDate:
      h = Combine(h, static_cast<uint64_t>(std::get<Date>(rep_).DayNumber()));
      break;
    case ValueKind::kTuple:
      for (const auto& f : std::get<TupleRep>(rep_).fields) {
        h = Combine(h, HashString(f.name));
        h = Combine(h, f.value.Hash());
      }
      break;
    case ValueKind::kSet: {
      // Order-insensitive: XOR of element hashes (sets are duplicate-free).
      uint64_t x = 0;
      for (const auto& e : std::get<SetRep>(rep_).elems) x ^= Mix(e.Hash());
      h = Combine(h, x);
      h = Combine(h, std::get<SetRep>(rep_).elems.size());
      break;
    }
  }
  if (h == 0) h = 1;
  SetCachedHash(h);
  return h;
}

void Value::WarmHashCaches() const {
  switch (kind()) {
    case ValueKind::kTuple:
      for (const auto& f : std::get<TupleRep>(rep_).fields) {
        f.value.WarmHashCaches();
      }
      break;
    case ValueKind::kSet:
      for (const auto& e : std::get<SetRep>(rep_).elems) e.WarmHashCaches();
      break;
    default:
      break;
  }
  Hash();
}

int Value::Compare(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) {
    return static_cast<int>(a.kind()) < static_cast<int>(b.kind()) ? -1 : 1;
  }
  switch (a.kind()) {
    case ValueKind::kNull:
      return 0;
    case ValueKind::kBool: {
      bool x = std::get<bool>(a.rep_), y = std::get<bool>(b.rep_);
      return x == y ? 0 : (x < y ? -1 : 1);
    }
    case ValueKind::kInt: {
      int64_t x = std::get<int64_t>(a.rep_), y = std::get<int64_t>(b.rep_);
      return x == y ? 0 : (x < y ? -1 : 1);
    }
    case ValueKind::kDouble: {
      double x = std::get<double>(a.rep_), y = std::get<double>(b.rep_);
      if (x < y) return -1;
      if (x > y) return 1;
      return 0;
    }
    case ValueKind::kString:
      return std::get<std::string>(a.rep_).compare(std::get<std::string>(b.rep_));
    case ValueKind::kDate: {
      const Date& x = std::get<Date>(a.rep_);
      const Date& y = std::get<Date>(b.rep_);
      if (x == y) return 0;
      return x < y ? -1 : 1;
    }
    case ValueKind::kTuple: {
      const auto& fa = std::get<TupleRep>(a.rep_).fields;
      const auto& fb = std::get<TupleRep>(b.rep_).fields;
      size_t n = std::min(fa.size(), fb.size());
      for (size_t i = 0; i < n; ++i) {
        int c = fa[i].name.compare(fb[i].name);
        if (c != 0) return c < 0 ? -1 : 1;
        c = Compare(fa[i].value, fb[i].value);
        if (c != 0) return c;
      }
      if (fa.size() == fb.size()) return 0;
      return fa.size() < fb.size() ? -1 : 1;
    }
    case ValueKind::kSet: {
      const auto& ea = std::get<SetRep>(a.rep_).elems;
      const auto& eb = std::get<SetRep>(b.rep_).elems;
      if (ea.size() != eb.size()) return ea.size() < eb.size() ? -1 : 1;
      // Compare as canonically sorted sequences.
      auto sorted = [](const std::vector<Value>& v) {
        std::vector<const Value*> p;
        p.reserve(v.size());
        for (const auto& e : v) p.push_back(&e);
        std::sort(p.begin(), p.end(), [](const Value* x, const Value* y) {
          return Compare(*x, *y) < 0;
        });
        return p;
      };
      std::vector<const Value*> pa = sorted(ea), pb = sorted(eb);
      for (size_t i = 0; i < pa.size(); ++i) {
        int c = Compare(*pa[i], *pb[i]);
        if (c != 0) return c;
      }
      return 0;
    }
  }
  return 0;
}

uint64_t CountCells(const Value& v) {
  uint64_t cells = 1;
  if (v.is_tuple()) {
    for (const auto& field : v.fields()) cells += CountCells(field.value);
  } else if (v.is_set()) {
    for (const auto& element : v.elements()) cells += CountCells(element);
  }
  return cells;
}

}  // namespace idl
