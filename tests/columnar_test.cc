// ColumnarRelation / ColumnarStore contracts (relational/columnar.h):
//  - flatness detection and the FromSet <-> ToNested round trip, including
//    over every PR 6 discrepancy style x mangling and over adversarial
//    strings (embedded NULs, all 256 byte values);
//  - CellSatisfies parity with Matcher::EvalRelOp over an exhaustive
//    atom-pair grid (the columnar kernels re-implement the matcher's atomic
//    semantics and must never drift);
//  - ProbeEq agreeing with the Filter scan kernel on every operand;
//  - Value::RehashElement matching RehashSet's dedup semantics;
//  - epoch page sharing in ColumnarStore::Build;
//  - zero non-flat fallbacks when the queried relations are flat;
//  - relation-variable conjuncts (`.db.R(…)`, §4.3) emitting exactly the
//    reference evaluator's substitutions, errors and error timing,
//    attribute enumeration counts and early stop — including the
//    whole-activation fallback when one relation is not flat;
//  - the batch absorber verifying at most one candidate per absorb on the
//    paper's views, whatever the stock count.

#include "relational/columnar.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "eval/matcher.h"
#include "idl/session.h"
#include "eval/query.h"
#include "object/builder.h"
#include "object/date.h"
#include "object/value.h"
#include "object/value_io.h"
#include "reference/reference.h"
#include "syntax/parser.h"
#include "views/engine.h"
#include "workload/discrepancy_gen.h"
#include "workload/paper_universe.h"
#include "workload/stock_gen.h"

namespace idl {
namespace {

Value Row(std::initializer_list<std::pair<std::string, Value>> fields) {
  Value t = Value::EmptyTuple();
  for (const auto& [name, value] : fields) t.SetField(name, value);
  return t;
}

TEST(ColumnarFlatness, FlatSetsAreDetected) {
  Value set = Value::EmptySet();
  set.Insert(Row({{"date", Value::Int(1)}, {"px", Value::Real(50.5)}}));
  set.Insert(Row({{"date", Value::Int(2)}, {"px", Value::Null()}}));
  EXPECT_TRUE(ColumnarRelation::IsFlat(set));
  EXPECT_NE(ColumnarRelation::FromSet(set), nullptr);

  // The empty set is flat (zero rows, zero columns).
  EXPECT_TRUE(ColumnarRelation::IsFlat(Value::EmptySet()));

  // Heterogeneous attribute sets are not flat.
  Value hetero = Value::EmptySet();
  hetero.Insert(Row({{"a", Value::Int(1)}}));
  hetero.Insert(Row({{"b", Value::Int(2)}}));
  EXPECT_FALSE(ColumnarRelation::IsFlat(hetero));

  // Aggregate cells are not flat.
  Value nested = Value::EmptySet();
  nested.Insert(Row({{"a", Row({{"x", Value::Int(1)}})}}));
  EXPECT_FALSE(ColumnarRelation::IsFlat(nested));

  // Non-tuple elements are not flat.
  Value atoms = MakeSet({Value::Int(1), Value::Int(2)});
  EXPECT_FALSE(ColumnarRelation::IsFlat(atoms));
  EXPECT_EQ(ColumnarRelation::FromSet(atoms), nullptr);

  // Non-sets are not flat.
  EXPECT_FALSE(ColumnarRelation::IsFlat(Value::Int(3)));
}

// Round trip: ToNested() must rebuild an equal set in the same element
// order. Exercised per typed column kind plus the mixed spill column.
TEST(ColumnarRoundTrip, TypedColumnsAndNulls) {
  Value set = Value::EmptySet();
  set.Insert(Row({{"i", Value::Int(7)},
                  {"d", Value::Real(2.5)},
                  {"b", Value::Bool(true)},
                  {"s", Value::String("hp")},
                  {"t", Value::Of(Date::FromDayNumber(1000))},
                  {"m", Value::Int(1)}}));
  set.Insert(Row({{"i", Value::Int(-9)},
                  {"d", Value::Null()},
                  {"b", Value::Bool(false)},
                  {"s", Value::String("")},
                  {"t", Value::Of(Date::FromDayNumber(400))},
                  {"m", Value::String("mixed")}}));
  set.Insert(Row({{"i", Value::Null()},
                  {"d", Value::Real(-0.0)},
                  {"b", Value::Null()},
                  {"s", Value::Null()},
                  {"t", Value::Null()},
                  {"m", Value::Null()}}));
  auto rel = ColumnarRelation::FromSet(set);
  ASSERT_NE(rel, nullptr);
  EXPECT_EQ(rel->num_rows(), 3u);
  EXPECT_EQ(rel->num_cols(), 6u);

  Value back = rel->ToNested();
  EXPECT_EQ(back, set);
  ASSERT_EQ(back.SetSize(), set.SetSize());
  for (size_t i = 0; i < set.SetSize(); ++i) {
    EXPECT_EQ(back.elements()[i], set.elements()[i]) << "row " << i;
  }
}

TEST(ColumnarRoundTrip, AdversarialStrings) {
  // Embedded NULs and every byte value: the per-relation interner must be
  // 8-bit clean and length-aware.
  std::string nul("a\0b", 3);
  std::string all256;
  for (int c = 0; c < 256; ++c) all256.push_back(static_cast<char>(c));
  Value set = Value::EmptySet();
  set.Insert(Row({{"s", Value::String(nul)}}));
  set.Insert(Row({{"s", Value::String(std::string("a"))}}));
  set.Insert(Row({{"s", Value::String(all256)}}));
  set.Insert(Row({{"s", Value::String(std::string(1, '\0'))}}));
  auto rel = ColumnarRelation::FromSet(set);
  ASSERT_NE(rel, nullptr);
  EXPECT_EQ(rel->ToNested(), set);

  // Probing with the NUL-embedded operand finds exactly its row.
  std::vector<uint32_t> rows;
  rel->ProbeEq(0, Value::String(nul), &rows);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], 0u);
}

TEST(ColumnarRoundTrip, DiscrepancyTenantDatabases) {
  // Every generated style x mangling: each tenant database is a tuple of
  // relation sets; every flat one must round-trip with element order
  // preserved. (`map` relations and per-entity relations are flat; the
  // generator's shapes cover value/attr/rel/nested/mixed placement.)
  size_t flat_relations = 0;
  for (uint64_t seed : {11u, 12u, 13u}) {
    DiscrepancyConfig config;
    config.seed = seed;
    config.num_tenants = 5;
    config.mangle_rate = seed % 2 == 0 ? 1.0 : 0.4;
    config.pinned_styles = {
        DiscrepancyStyle::kValue, DiscrepancyStyle::kAttribute,
        DiscrepancyStyle::kRelation, DiscrepancyStyle::kNested,
        DiscrepancyStyle::kMixed};
    DiscrepancyUniverse universe = GenerateDiscrepancyUniverse(config);
    for (const auto& tenant : universe.tenants) {
      Value db = universe.BuildTenantDatabase(tenant);
      ASSERT_TRUE(db.is_tuple());
      for (const auto& field : db.fields()) {
        if (!field.value.is_set()) continue;
        auto rel = ColumnarRelation::FromSet(field.value);
        if (rel == nullptr) {
          EXPECT_FALSE(ColumnarRelation::IsFlat(field.value));
          continue;
        }
        ++flat_relations;
        Value back = rel->ToNested();
        EXPECT_EQ(back, field.value) << tenant.name << "." << field.name;
        ASSERT_EQ(back.SetSize(), field.value.SetSize());
        for (size_t i = 0; i < back.SetSize(); ++i) {
          EXPECT_EQ(back.elements()[i], field.value.elements()[i]);
        }
      }
    }
  }
  EXPECT_GT(flat_relations, 20u) << "generator shapes changed?";
}

// The atom zoo for the parity grid: every kind, numeric cross-kind pairs,
// signed zero, empty and NUL strings, date/int lookalikes.
std::vector<Value> AtomZoo() {
  return {Value::Null(),
          Value::Bool(false),
          Value::Bool(true),
          Value::Int(0),
          Value::Int(1),
          Value::Int(-3),
          Value::Int(50),
          Value::Real(0.0),
          Value::Real(-0.0),
          Value::Real(1.0),
          Value::Real(50.5),
          Value::Real(-3.0),
          Value::String(""),
          Value::String("a"),
          Value::String(std::string("a\0b", 3)),
          Value::String("hp"),
          Value::Of(Date::FromDayNumber(0)),
          Value::Of(Date::FromDayNumber(1000))};
}

TEST(ColumnarParity, CellSatisfiesMatchesEvalRelOpExhaustively) {
  const std::vector<Value> zoo = AtomZoo();
  const RelOp ops[] = {RelOp::kEq, RelOp::kNe, RelOp::kLt,
                       RelOp::kLe, RelOp::kGt, RelOp::kGe};

  // One relation per cell kind arrangement: a homogeneous typed column per
  // kind (via one-row sets) plus one mixed column holding the whole zoo.
  // Mixed column: all zoo atoms as rows.
  Value mixed_set = Value::EmptySet();
  for (size_t i = 0; i < zoo.size(); ++i) {
    // A disambiguator field keeps elements distinct even when cells repeat.
    mixed_set.Insert(Row({{"c", zoo[i]}, {"row", Value::Int(int64_t(i))}}));
  }
  auto mixed = ColumnarRelation::FromSet(mixed_set);
  ASSERT_NE(mixed, nullptr);
  int c = mixed->FindColumn("c");
  ASSERT_GE(c, 0);
  for (uint32_t row = 0; row < mixed->num_rows(); ++row) {
    for (const Value& operand : zoo) {
      for (RelOp op : ops) {
        bool expected = Matcher::EvalRelOp(op, zoo[row], operand);
        EXPECT_EQ(mixed->CellSatisfies(size_t(c), row, op, operand), expected)
            << "mixed cell=" << row << " op=" << int(op);
      }
    }
  }

  // Typed columns: group cells by kind so FromSet builds kInt/kDouble/
  // kBool/kString/kDate columns, then run the same grid.
  for (const Value& cell_proto : zoo) {
    if (cell_proto.is_null()) continue;
    Value typed_set = Value::EmptySet();
    std::vector<Value> cells;
    for (const Value& v : zoo) {
      if (v.kind() != cell_proto.kind() && !v.is_null()) continue;
      cells.push_back(v);
      typed_set.Insert(
          Row({{"c", v}, {"row", Value::Int(int64_t(cells.size()))}}));
    }
    auto rel = ColumnarRelation::FromSet(typed_set);
    ASSERT_NE(rel, nullptr);
    int col = rel->FindColumn("c");
    ASSERT_GE(col, 0);
    for (uint32_t row = 0; row < rel->num_rows(); ++row) {
      for (const Value& operand : zoo) {
        for (RelOp op : ops) {
          bool expected = Matcher::EvalRelOp(op, cells[row], operand);
          EXPECT_EQ(rel->CellSatisfies(size_t(col), row, op, operand),
                    expected)
              << ValueKindName(cell_proto.kind()) << " row=" << row;
        }
      }
    }
  }
}

TEST(ColumnarParity, ProbeEqMatchesFilterScan) {
  Value set = Value::EmptySet();
  for (int64_t i = 0; i < 40; ++i) {
    set.Insert(Row({{"k", i % 3 == 0 ? Value::Real(double(i % 10))
                                     : Value::Int(i % 10)},
                    {"row", Value::Int(i)}}));
  }
  set.Insert(Row({{"k", Value::Null()}, {"row", Value::Int(99)}}));
  auto rel = ColumnarRelation::FromSet(set);
  ASSERT_NE(rel, nullptr);
  int k = rel->FindColumn("k");
  ASSERT_GE(k, 0);

  for (const Value& operand : AtomZoo()) {
    std::vector<uint32_t> probed;
    rel->ProbeEq(size_t(k), operand, &probed);
    std::vector<uint32_t> scanned;
    rel->AllRows(&scanned);
    rel->Filter(size_t(k), RelOp::kEq, operand, &scanned);
    EXPECT_EQ(probed, scanned) << "operand kind " << int(operand.kind());
  }
}

TEST(ColumnarParity, RehashElementMatchesRehashSetDedup) {
  // Mutate one element into a duplicate both ways; the survivor set must
  // match RehashSet's keep-first semantics regardless of which index moved.
  for (bool mutate_later : {false, true}) {
    Value a = Value::EmptySet();
    a.Insert(Row({{"x", Value::Int(1)}}));
    a.Insert(Row({{"x", Value::Int(2)}}));
    a.Insert(Row({{"x", Value::Int(3)}}));
    Value b = a;
    size_t i = mutate_later ? 2 : 0;
    uint64_t old_hash = a.elements()[i].Hash();
    a.MutableElement(i)->SetField("x", Value::Int(2));
    b.MutableElement(i)->SetField("x", Value::Int(2));
    EXPECT_TRUE(a.RehashElement(i, old_hash));
    b.RehashSet();
    ASSERT_EQ(a, b);
    ASSERT_EQ(a.SetSize(), 2u);
    for (size_t r = 0; r < a.SetSize(); ++r) {
      EXPECT_EQ(a.elements()[r], b.elements()[r]) << "order diverged at " << r;
    }
    // And the index is still consistent: lookups and inserts behave.
    EXPECT_TRUE(a.Contains(Row({{"x", Value::Int(2)}})));
    EXPECT_FALSE(a.Insert(Row({{"x", Value::Int(2)}})));
  }

  // The common case: no duplicate, element stays, index entry moves.
  Value s = Value::EmptySet();
  s.Insert(Row({{"x", Value::Int(1)}}));
  s.Insert(Row({{"x", Value::Int(2)}}));
  uint64_t old_hash = s.elements()[0].Hash();
  s.MutableElement(0)->SetField("x", Value::Int(7));
  EXPECT_FALSE(s.RehashElement(0, old_hash));
  EXPECT_EQ(s.SetSize(), 2u);
  EXPECT_TRUE(s.Contains(Row({{"x", Value::Int(7)}})));
  EXPECT_FALSE(s.Contains(Row({{"x", Value::Int(1)}})));
}

TEST(ColumnarStoreTest, EpochPageSharing) {
  Value universe = Value::EmptyTuple();
  Value db = Value::EmptyTuple();
  Value r = Value::EmptySet();
  r.Insert(Row({{"date", Value::Int(1)}, {"px", Value::Int(50)}}));
  r.Insert(Row({{"date", Value::Int(2)}, {"px", Value::Int(60)}}));
  Value w = Value::EmptySet();
  w.Insert(Row({{"k", Value::String("ibm")}}));
  db.SetField("r", std::move(r));
  db.SetField("w", std::move(w));
  universe.SetField("t0", std::move(db));

  // Build attaches each page to its set's cache slot, where readers find
  // it without building (ColumnarRelation::Of).
  Counter* built = MetricsRegistry::Global().counter("columnar.pages_built");
  auto store1 = ColumnarStore::Build(universe, nullptr);
  ASSERT_NE(store1, nullptr);
  EXPECT_EQ(store1->pages(), 2u);
  EXPECT_EQ(store1->shared_with_previous(), 0u);
  const uint64_t built_by_store1 = built->value();
  const Value* r_set = universe.FindField("t0")->FindField("r");
  auto page1 = ColumnarRelation::Of(*r_set);
  ASSERT_NE(page1, nullptr);
  EXPECT_EQ(page1->num_rows(), 2u);
  EXPECT_EQ(built->value(), built_by_store1) << "the page was not attached";

  // Next epoch: deep-copied universe, only `w` changes. `r`'s page must be
  // the same object, not an equal rebuild.
  Value next = universe;
  next.MutableField("t0")->MutableField("w")->Insert(
      Row({{"k", Value::String("hp")}}));
  auto store2 = ColumnarStore::Build(next, store1.get());
  EXPECT_EQ(store2->pages(), 2u);
  EXPECT_EQ(store2->shared_with_previous(), 1u);
  const Value* r_next = next.FindField("t0")->FindField("r");
  EXPECT_EQ(ColumnarRelation::Of(*r_next).get(), page1.get());
  // The changed relation got a fresh page.
  const Value* w_next = next.FindField("t0")->FindField("w");
  auto w_page = ColumnarRelation::Of(*w_next);
  ASSERT_NE(w_page, nullptr);
  EXPECT_EQ(w_page->num_rows(), 2u);
  const uint64_t built_by_store2 = built->value();

  // A relation rebuilt element by element (as delete-and-rederive does)
  // carries no page of its own: equal content in equal order reuses the
  // previous epoch's page for the same path; a reordering rebuilds.
  Value rebuilt = next;
  Value* t0 = rebuilt.MutableField("t0");
  Value same = Value::EmptySet();
  for (const Value& e : r_next->elements()) same.Insert(e);
  t0->SetField("r", std::move(same));
  Value reversed = Value::EmptySet();
  for (size_t i = w_next->SetSize(); i-- > 0;) {
    reversed.Insert(w_next->elements()[i]);
  }
  t0->SetField("w", std::move(reversed));
  auto store3 = ColumnarStore::Build(rebuilt, store2.get());
  EXPECT_EQ(store3->shared_with_previous(), 1u);
  EXPECT_EQ(
      ColumnarRelation::Of(*rebuilt.FindField("t0")->FindField("r")).get(),
      page1.get());
  auto w_rebuilt =
      ColumnarRelation::Of(*rebuilt.FindField("t0")->FindField("w"));
  EXPECT_NE(w_rebuilt.get(), w_page.get());
  EXPECT_EQ(built->value(), built_by_store2 + 1);
}

TEST(ColumnarFallbacks, FlatRelationsNeverFallBack) {
  // A flat universe must vectorize every eligible conjunct activation and
  // never fall back to the matcher for non-flatness.
  Value universe = Value::EmptyTuple();
  Value db = Value::EmptyTuple();
  Value r = Value::EmptySet();
  for (int64_t i = 0; i < 64; ++i) {
    r.Insert(Row({{"date", Value::Int(i / 8)},
                  {"stk", Value::String(i % 2 == 0 ? "ibm" : "hp")},
                  {"px", Value::Int(100 + i)}}));
  }
  db.SetField("p", std::move(r));
  universe.SetField("dbI", std::move(db));

  Counter* fallbacks =
      MetricsRegistry::Global().counter("columnar.nonflat_fallbacks");
  Counter* activations =
      MetricsRegistry::Global().counter("columnar.vector_activations");
  uint64_t fallbacks_before = fallbacks->value();
  uint64_t activations_before = activations->value();

  auto query = ParseQuery("?.dbI.p(.date=D, .stk=ibm, .px>120)");
  ASSERT_TRUE(query.ok());
  EvalOptions options;
  auto columnar = EvaluateQuery(universe, *query, options, nullptr, nullptr);
  ASSERT_TRUE(columnar.ok());
  EXPECT_GT(columnar->rows.size(), 0u);

  EXPECT_EQ(fallbacks->value(), fallbacks_before);
  EXPECT_GT(activations->value(), activations_before);

  // Differential: identical answer from the tuple-at-a-time reference,
  // which runs no vector kernel at all.
  uint64_t activations_mid = activations->value();
  auto oracle = ReferenceQuery(universe, *query);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(columnar->columns, oracle->columns);
  EXPECT_EQ(columnar->rows, oracle->rows);
  EXPECT_EQ(activations->value(), activations_mid);
}

// ---- Relation variables: `.db.R(…)` on columnar pages ----------------------

// Everything one enumeration shows its caller: each emitted substitution in
// emission order, the final status, and the attribute-name count.
struct Enumeration {
  std::vector<std::string> emitted;
  std::string status;
  uint64_t attrs_enumerated = 0;
};

// The library's enumeration, or with `reference` the reference evaluator's
// at the library's index threshold — the tuple-at-a-time matcher with the
// same per-attribute equality indexes.
Enumeration Enumerate(const Value& universe, const std::string& text,
                      size_t stop_after = 0, bool reference = false) {
  auto query = ParseQuery(text);
  EXPECT_TRUE(query.ok()) << text;
  Enumeration out;
  if (!query.ok()) return out;
  EvalStats stats;
  auto collect = [&](const Substitution& sigma) {
    std::string row;
    for (const auto& b : sigma.bindings()) {
      row += b.var + "=" + ToString(b.value) + " ";
    }
    out.emitted.push_back(std::move(row));
    return stop_after == 0 || out.emitted.size() < stop_after;
  };
  Result<bool> r =
      reference ? ReferenceEnumerate(universe, query->conjuncts, collect,
                                     &stats, nullptr,
                                     EvalOptions().index_min_set_size)
                : EnumerateBindings(universe, query->conjuncts, EvalOptions(),
                                    &stats, collect);
  out.status = r.ok() ? (*r ? "done" : "stopped") : r.status().ToString();
  out.attrs_enumerated = stats.attrs_enumerated;
  return out;
}

// The library and the reference must agree on every emission (order
// included), on the error and the point it surfaces, and on how many
// attribute names the relation variable tried.
void ExpectReferenceAgrees(const Value& universe, const std::string& text,
                           size_t stop_after = 0) {
  SCOPED_TRACE(text);
  Enumeration library = Enumerate(universe, text, stop_after);
  Enumeration reference =
      Enumerate(universe, text, stop_after, /*reference=*/true);
  EXPECT_EQ(library.emitted, reference.emitted);
  EXPECT_EQ(library.status, reference.status);
  EXPECT_EQ(library.attrs_enumerated, reference.attrs_enumerated);
}

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().counter(name)->value();
}

// `lead` holds, in field order: an empty relation, an atom, a tuple, and
// three flat relations of 40 rows (past the 32-row indexing threshold, so
// equality items probe column indexes) whose `name` column repeats the
// relation names. Only the second and third have rows with k = 0. `names.n` binds a relation variable to a name of a set,
// a missing name, a non-string and a non-set field. `mix` has one
// non-flat relation between two flat ones.
Value RelationVariableUniverse() {
  Value lead = Value::EmptyTuple();
  lead.SetField("a", Value::EmptySet());
  lead.SetField("b", Value::Int(7));
  lead.SetField("c", Row({{"k", Value::Int(1)}}));
  const char* rels[] = {"d", "e", "f"};
  for (size_t r = 0; r < 3; ++r) {
    Value set = Value::EmptySet();
    for (int64_t i = 0; i < 40; ++i) {
      int64_t k = r == 0 ? 1 + i % 9 : (i + int64_t(r)) % 10;
      set.Insert(Row({{"k", Value::Int(k)},
                      {"v", Value::Int(10 * i + int64_t(r))},
                      {"name", Value::String(rels[(i + r) % 3])}}));
    }
    lead.SetField(rels[r], std::move(set));
  }

  Value names = Value::EmptySet();
  names.Insert(Row({{"rel", Value::String("e")}}));
  names.Insert(Row({{"rel", Value::String("zz")}}));
  names.Insert(Row({{"rel", Value::Int(5)}}));
  names.Insert(Row({{"rel", Value::String("b")}}));
  names.Insert(Row({{"rel", Value::String("d")}}));

  Value mix = Value::EmptyTuple();
  Value flat = Value::EmptySet();
  flat.Insert(Row({{"k", Value::Int(1)}}));
  flat.Insert(Row({{"k", Value::Int(2)}}));
  Value hetero = Value::EmptySet();
  hetero.Insert(Row({{"k", Value::Int(1)}}));
  hetero.Insert(Row({{"j", Value::Int(2)}}));
  mix.SetField("a", flat);
  mix.SetField("h", std::move(hetero));
  mix.SetField("z", flat);

  Value universe = Value::EmptyTuple();
  universe.SetField("lead", std::move(lead));
  universe.SetField("names", Row({{"n", std::move(names)}}));
  universe.SetField("mix", std::move(mix));
  return universe;
}

TEST(ColumnarRelationVariable, UnboundVisitsEveryRelationInFieldOrder) {
  Value universe = RelationVariableUniverse();
  // Empty relations, an atom and a tuple among the fields: counted as
  // enumerated attribute names, matching nothing.
  ExpectReferenceAgrees(universe, "?.lead.R(.k=K, .v=V)");
  ExpectReferenceAgrees(universe, "?.lead.R(.k=3, .v=V)");  // index probe
  ExpectReferenceAgrees(universe, "?.lead.R(.v>300)");
  ExpectReferenceAgrees(universe, "?.lead.R(.missing=M)");
  ExpectReferenceAgrees(universe, "?.lead.R(.k=K), .lead.R(.v=K)");
  ExpectReferenceAgrees(universe, "?.nodb.R(.k=K)");
  ExpectReferenceAgrees(universe, "?.lead.c.R(.k=K)");  // not a tuple of sets

  Counter* activations =
      MetricsRegistry::Global().counter("columnar.vector_activations");
  uint64_t before = activations->value();
  Enumeration e =
      Enumerate(universe, "?.lead.R(.k=K, .v=V)");
  EXPECT_EQ(e.emitted.size(), 120u);
  EXPECT_EQ(e.attrs_enumerated, 6u);  // a, b, c, d, e, f
  EXPECT_EQ(activations->value() - before, 1u);
}

TEST(ColumnarRelationVariable, BoundVariableVisitsOnlyTheNamedField) {
  Value universe = RelationVariableUniverse();
  // names.n binds R to "e" (a set), "zz" (absent), 5 (not a string), "b"
  // (an atom) and "d" (a set): only the two sets match, and a bound
  // variable enumerates no attribute names.
  ExpectReferenceAgrees(universe, "?.names.n(.rel=R), .lead.R(.k=2, .v=V)");
  Enumeration e = Enumerate(universe, "?.names.n(.rel=R), .lead.R(.k=2)");
  EXPECT_EQ(e.emitted.size(), 9u);  // 4 rows with k=2 in e, then 5 in d
  EXPECT_EQ(e.attrs_enumerated, 0u);
}

TEST(ColumnarRelationVariable, VariableReusedInsideTheItems) {
  Value universe = RelationVariableUniverse();
  // The relation's name filters its own `name` column.
  ExpectReferenceAgrees(universe, "?.lead.S(.name=S)");
  ExpectReferenceAgrees(universe, "?.lead.S(.name=S, .k=K)");
  ExpectReferenceAgrees(universe, "?.lead.S(.name!=S, .v<100)");
  Enumeration e =
      Enumerate(universe, "?.lead.S(.name=S, .k=K)");
  EXPECT_GT(e.emitted.size(), 0u);
  EXPECT_LT(e.emitted.size(), 120u);
}

TEST(ColumnarRelationVariable, ErrorsSurfaceAtTheWrittenPoint) {
  Value universe = RelationVariableUniverse();
  // X is unbound under `<`: the empty relation and the non-sets before the
  // first relation with a row raise nothing; the first row raises.
  ExpectReferenceAgrees(universe, "?.lead.R(.v<X)");
  Enumeration e =
      Enumerate(universe, "?.lead.R(.v<X)");
  EXPECT_NE(e.status.find("variable X is unbound"), std::string::npos)
      << e.status;
  // No row survives `.k=11`, so the erroring item is never reached.
  ExpectReferenceAgrees(universe, "?.lead.R(.k=11, .v<X)");
  EXPECT_EQ(Enumerate(universe, "?.lead.R(.k=11, .v<X)")
                .status,
            "done");
  // Rows of earlier relations emit before a later one divides by zero.
  ExpectReferenceAgrees(universe, "?.lead.R(.k=K, .v=V), V > 10 / K");
  Enumeration divided = Enumerate(universe, "?.lead.R(.k=K, .v=V), V > 10 / K");
  EXPECT_GT(divided.emitted.size(), 0u);
  EXPECT_NE(divided.status.find("division by zero"), std::string::npos)
      << divided.status;
  // Arithmetic on the relation name itself.
  ExpectReferenceAgrees(universe, "?.lead.R(.v=V, .k>R+1)");
}

TEST(ColumnarRelationVariable, NonFlatRelationSendsTheWholeActivationBack) {
  Value universe = RelationVariableUniverse();
  Counter* fallbacks =
      MetricsRegistry::Global().counter("columnar.nonflat_fallbacks");
  Counter* activations =
      MetricsRegistry::Global().counter("columnar.vector_activations");
  uint64_t fallbacks_before = fallbacks->value();
  uint64_t activations_before = activations->value();
  Enumeration e = Enumerate(universe, "?.mix.R(.k=K)");
  // One fallback for the activation, no vectorized rows, and every row
  // emitted once: a (2), h (1), z (2).
  EXPECT_EQ(fallbacks->value() - fallbacks_before, 1u);
  EXPECT_EQ(activations->value() - activations_before, 0u);
  EXPECT_EQ(e.emitted.size(), 5u);
  ExpectReferenceAgrees(universe, "?.mix.R(.k=K)");
  // Bound to a flat relation of the same database, it stays vectorized.
  fallbacks_before = fallbacks->value();
  ExpectReferenceAgrees(universe, "?.names.n(.rel=R), .mix.R(.k=K)");
  EXPECT_EQ(fallbacks->value(), fallbacks_before);
}

TEST(ColumnarRelationVariable, EarlyStopAndRowCap) {
  Value universe = RelationVariableUniverse();
  for (size_t stop : {1u, 39u, 40u, 41u, 100u}) {
    ExpectReferenceAgrees(universe, "?.lead.R(.k=K, .v=V)", stop);
  }
  auto query = ParseQuery("?.lead.R(.k=K, .v=V)");
  ASSERT_TRUE(query.ok());
  EvalOptions capped;
  capped.max_rows = 45;
  auto a = EvaluateQuery(universe, *query, capped);
  auto b = ReferenceQuery(universe, *query);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->rows.size(), 45u);
  // The cap keeps the first 45 distinct rows in enumeration order.
  b->rows.resize(45);
  EXPECT_EQ(a->ToTable(), b->ToTable());
}

// The paper's higher-order queries (§4.3) over Figure 1, including
// relation variables joined against attribute variables and first-order
// relations, and errors raised after a relation variable has bound.
TEST(ColumnarRelationVariable, PaperHigherOrderQueries) {
  Value paper = MakePaperUniverse().universe;
  for (const char* text : {
           "?.chwab.r(.S>200)",
           "?.ource.S(.clsPrice>200)",
           "?.ource.S(.date=D, .clsPrice=P)",
           "?.chwab.r(.date=D,.S=P), .ource.S(.date=D,.clsPrice=P)",
           "?.ource.S(.date=D,.clsPrice=P), "
           ".euter.r(.stkCode=S,.date=D,.clsPrice=P)",
           "?.euter.r(.stkCode=S,.date=D,.clsPrice=P), "
           ".ource.S(.date=D,.clsPrice=P)",
           "?.ource.S(.date=D,.clsPrice=P), P > P / 0",
           "?.chwab.r(.date=D,.S=P), P > P / 0",
       }) {
    ExpectReferenceAgrees(paper, text);
  }

  Value stock = BuildStockUniverse(
      GenerateStockWorkload({.num_stocks = 10, .num_days = 30, .seed = 11}));
  ExpectReferenceAgrees(stock, "?.ource.S(.date=D, .clsPrice=P), P > 100");
  ExpectReferenceAgrees(
      stock, "?.euter.r(.stkCode=stk3, .date=D), .ource.S(.date=D)");

  // A guard dividing by a bound value over data that contains a zero, and
  // non-numeric arithmetic: the same error after the same emissions.
  Value universe = Value::EmptyTuple();
  Value rel = Value::EmptySet();
  for (int i = 4; i >= 0; --i) {
    rel.Insert(Row({{"k", Value::Int(i)}, {"tag", Value::String("x")}}));
  }
  universe.SetField("d", Row({{"r", std::move(rel)}}));
  ExpectReferenceAgrees(universe, "?.d.R(.k=K,.tag=T), K > 10 / K");
  ExpectReferenceAgrees(universe, "?.d.R(.k=K,.tag=T), K > T + 1");
}

// An answer's rows in canonical order: a maintained view may hold its
// elements in a different order than a from-scratch materialization.
std::vector<std::vector<Value>> SortedRows(Answer answer) {
  std::sort(answer.rows.begin(), answer.rows.end(),
            [](const std::vector<Value>& a, const std::vector<Value>& b) {
              return std::lexicographical_compare(
                  a.begin(), a.end(), b.begin(), b.end(),
                  [](const Value& x, const Value& y) {
                    return Value::Compare(x, y) < 0;
                  });
            });
  return answer.rows;
}

// The paper's `ource` rule materializes on columnar pages, before and after
// an incrementally maintained insert, with the reference's universe,
// answers and derivation count.
TEST(ColumnarRelationVariable, OurceRuleMaterializesOnPages) {
  MetricsRegistry::Global().Reset();
  const char* rule =
      ".dbI.p(.date=D, .stk=S, .clsPrice=P) <- .ource.S(.date=D, "
      ".clsPrice=P)";
  Session session;
  EvalOptions materialize;
  materialize.materialize_parallelism = 1;
  session.set_materialize_options(materialize);
  PaperUniverse paper = MakePaperUniverse();
  for (const auto& field : paper.universe.fields()) {
    ASSERT_TRUE(session.RegisterDatabase(field.name, field.value).ok());
  }
  ASSERT_TRUE(session.DefineRule(rule).ok());
  auto rules = ParseRuleTexts({rule});
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  const char* unified = "?.dbI.p(.date=D, .stk=S, .clsPrice=P)";
  auto query = ParseQuery(unified);
  ASSERT_TRUE(query.ok());

  for (const char* update :
       {"", "?.ource.hp+(.date=3/5/1985, .clsPrice=321)"}) {
    SCOPED_TRACE(update);
    if (*update != '\0') {
      auto u = session.Update(update);
      ASSERT_TRUE(u.ok()) << u.status().ToString();
    }
    auto answer = session.Query(unified);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    auto m = ReferenceMaterialize(*rules, session.base_universe());
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    auto expected = ReferenceQuery(m->universe, *query);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    auto universe = session.universe();
    ASSERT_TRUE(universe.ok()) << universe.status().ToString();
    EXPECT_EQ(**universe, m->universe);
    EXPECT_EQ(SortedRows(*answer), SortedRows(*expected));
    // The first query materialized from scratch, exactly as the reference
    // did: one derivation per ource row.
    if (*update == '\0') {
      EXPECT_EQ(CounterValue("engine.facts_derived"), m->facts_derived);
    }
  }
  EXPECT_GT(CounterValue("columnar.vector_activations"), 0u);
  EXPECT_EQ(CounterValue("columnar.nonflat_fallbacks"), 0u);
}

// The absorb key spans every constrained, constant-named head attribute,
// so a derived fact verifies at most one candidate element on the paper's
// views: none for dbI.p, dbE.r and dbO.S, whose facts never match an
// existing row on all keys, and the date's row for dbC.r. A key on `date`
// alone verified every row of the fact's date, a count that grows with the
// number of stocks.
TEST(ColumnarAbsorb, OneCandidatePerAbsorbAtAnyStockCount) {
  ViewEngine engine;
  for (const std::string& text : PaperViewRules()) {
    auto rule = ParseRule(text);
    ASSERT_TRUE(rule.ok()) << rule.status().ToString();
    ASSERT_TRUE(engine.AddRule(std::move(rule).value()).ok());
  }
  Counter* absorbs =
      MetricsRegistry::Global().counter("columnar.absorb_batched");
  Counter* candidates =
      MetricsRegistry::Global().counter("columnar.absorb_candidates");
  for (size_t stocks : {16, 64}) {
    Value universe = BuildStockUniverse(GenerateStockWorkload(
        {.num_stocks = stocks, .num_days = 40, .seed = 42}));
    const uint64_t absorbs_before = absorbs->value();
    const uint64_t candidates_before = candidates->value();
    EvalOptions options;
    options.materialize_parallelism = 1;
    auto m = engine.Materialize(universe, options);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    const uint64_t n = absorbs->value() - absorbs_before;
    const uint64_t verified = candidates->value() - candidates_before;
    EXPECT_GT(n, 0u) << stocks << " stocks";
    EXPECT_GT(verified, 0u) << stocks << " stocks";  // dbC.r's date rows
    EXPECT_LE(verified, n) << stocks << " stocks: " << verified
                           << " candidates over " << n << " absorbs";
  }
}

}  // namespace
}  // namespace idl
