// Property-based suites (parameterized over workload shapes and seeds):
//  - schema-transparency: the same intention yields the same answer under
//    all three schematic representations;
//  - view faithfulness: customized views reproduce the original databases
//    on arbitrary generated data;
//  - update inverses: insert-then-delete restores the universe;
//  - pivot/unpivot inversion on the relational substrate.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "common/str_util.h"
#include "eval/query.h"
#include "idl/session.h"
#include "object/value_io.h"
#include "relational/pivot.h"
#include "syntax/lexer.h"
#include "syntax/parser.h"
#include "workload/paper_universe.h"
#include "workload/stock_gen.h"

namespace idl {
namespace {

struct Shape {
  size_t stocks;
  size_t days;
  uint64_t seed;
};

class WorkloadProperty : public ::testing::TestWithParam<Shape> {
 protected:
  StockWorkload Workload() const {
    const Shape& s = GetParam();
    return GenerateStockWorkload(
        {.num_stocks = s.stocks, .num_days = s.days, .seed = s.seed});
  }

  static std::vector<std::string> SortedStrings(const Answer& a,
                                                const std::string& var) {
    std::vector<std::string> out;
    for (const auto& v : a.Column(var)) out.push_back(v.as_string());
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  static Answer Eval(const Value& universe, const std::string& text) {
    auto q = ParseQuery(text);
    EXPECT_TRUE(q.ok()) << text;
    auto a = EvaluateQuery(universe, *q);
    EXPECT_TRUE(a.ok()) << text << ": " << a.status().ToString();
    return std::move(a).value();
  }
};

// The same intention — "which stocks ever closed above T" — formulated per
// schema returns identical stock sets.
TEST_P(WorkloadProperty, SchemaTransparency) {
  StockWorkload w = Workload();
  Value universe = BuildStockUniverse(w);
  for (double threshold : {0.0, 50.0, 150.0, 300.0, 1e9}) {
    Answer euter = Eval(universe, StrCat("?.euter.r(.stkCode=S, .clsPrice>",
                                         threshold, ")"));
    Answer chwab =
        Eval(universe, StrCat("?.chwab.r(.S>", threshold, ")"));
    Answer ource =
        Eval(universe, StrCat("?.ource.S(.clsPrice>", threshold, ")"));
    EXPECT_EQ(SortedStrings(euter, "S"), SortedStrings(chwab, "S"))
        << "threshold " << threshold;
    EXPECT_EQ(SortedStrings(euter, "S"), SortedStrings(ource, "S"))
        << "threshold " << threshold;
  }
}

// Figure 1 on arbitrary data: the customized views equal the originals.
TEST_P(WorkloadProperty, ViewFaithfulness) {
  StockWorkload w = Workload();
  Session session;
  ASSERT_TRUE(session.RegisterDatabase(BuildEuterDatabase(w)).ok());
  ASSERT_TRUE(session.RegisterDatabase(BuildChwabDatabase(w)).ok());
  ASSERT_TRUE(session.RegisterDatabase(BuildOurceDatabase(w)).ok());
  ASSERT_TRUE(session.DefineRules(PaperViewRules()).ok());
  auto u = session.universe();
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  EXPECT_EQ(*(*u)->FindField("dbE")->FindField("r"),
            *(*u)->FindField("euter")->FindField("r"));
  EXPECT_EQ(*(*u)->FindField("dbC")->FindField("r"),
            *(*u)->FindField("chwab")->FindField("r"));
  EXPECT_EQ(*(*u)->FindField("dbO"), *(*u)->FindField("ource"));
  // Unified view cardinality = stocks x days.
  Answer p = Eval(*u.value(), "?.dbI.p(.date=D, .stk=S, .clsPrice=P)");
  EXPECT_EQ(p.rows.size(), w.stocks.size() * w.dates.size());
}

// insStk of a fresh fact followed by delStk of the same fact restores the
// universe exactly.
TEST_P(WorkloadProperty, InsertDeleteInverse) {
  StockWorkload w = Workload();
  Session session;
  ASSERT_TRUE(session.RegisterDatabase(BuildEuterDatabase(w)).ok());
  ASSERT_TRUE(session.RegisterDatabase(BuildChwabDatabase(w)).ok());
  ASSERT_TRUE(session.RegisterDatabase(BuildOurceDatabase(w)).ok());
  ASSERT_TRUE(session.DefinePrograms(PaperUpdatePrograms()).ok());
  Value before = session.base_universe();

  Date fresh = Date::FromDayNumber(w.dates.back().DayNumber() + 10);
  std::map<std::string, Value> args = {
      {"stk", Value::String(w.stocks[0])},
      {"date", Value::Of(fresh)},
      {"price", Value::Real(123.45)}};
  ASSERT_TRUE(session.CallProgram("dbU.insStk", args).ok());
  EXPECT_FALSE(session.base_universe() == before);

  auto r = session.CallProgram(
      "dbU.delStk",
      {{"stk", Value::String(w.stocks[0])}, {"date", Value::Of(fresh)}});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // delStk nulls the chwab cell rather than removing the attribute — which
  // is exactly the paper's point that structure is preserved. For euter and
  // ource the deletion is exact.
  auto q = ParseQuery(StrCat("?.euter.r(.date=", fresh.ToString(), ")"));
  ASSERT_TRUE(q.ok());
  auto gone = EvaluateQuery(session.base_universe(), *q);
  ASSERT_TRUE(gone.ok());
  EXPECT_FALSE(gone->boolean());
  EXPECT_EQ(*session.base_universe().FindField("euter"),
            *before.FindField("euter"));
  EXPECT_EQ(*session.base_universe().FindField("ource"),
            *before.FindField("ource"));
}

// Pivot then unpivot over the generated euter table is the identity (as a
// set of rows).
TEST_P(WorkloadProperty, PivotUnpivotInverse) {
  StockWorkload w = Workload();
  RelationalDatabase euter = BuildEuterDatabase(w);
  const Table& r = *euter.FindTable("r");
  auto pivoted = Pivot(r, "date", "stkCode", "clsPrice");
  ASSERT_TRUE(pivoted.ok());
  auto back = Unpivot(*pivoted, "date", "stkCode", "clsPrice");
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->NumRows(), r.NumRows());
  auto fingerprint = [](const Table& t) {
    std::vector<std::string> keys;
    int date = t.schema().FindColumn("date");
    int stk = t.schema().FindColumn("stkCode");
    int price = t.schema().FindColumn("clsPrice");
    for (const auto& row : t.rows()) {
      keys.push_back(StrCat(row.cells[date].as_date().ToString(), "|",
                            row.cells[stk].as_string(), "|",
                            row.cells[price].as_double()));
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  EXPECT_EQ(fingerprint(r), fingerprint(*back));
}

// Query answers are insensitive to conjunct order (join commutativity).
TEST_P(WorkloadProperty, ConjunctOrderInsensitive) {
  StockWorkload w = Workload();
  Value universe = BuildStockUniverse(w);
  Answer a = Eval(universe,
                  "?.chwab.r(.date=D,.S=P), .ource.S(.date=D,.clsPrice=P)");
  Answer b = Eval(universe,
                  "?.ource.S(.date=D,.clsPrice=P), .chwab.r(.date=D,.S=P)");
  EXPECT_EQ(SortedStrings(a, "S"), SortedStrings(b, "S"));
  EXPECT_EQ(a.rows.size(), b.rows.size());
}

// ---- Fixpoint properties (both evaluation strategies) ----------------------

ViewEngine PaperEngine() {
  ViewEngine engine;
  for (const auto& text : PaperViewRules()) {
    auto r = ParseRule(text);
    EXPECT_TRUE(r.ok()) << text;
    EXPECT_TRUE(engine.AddRule(std::move(r).value()).ok()) << text;
  }
  return engine;
}

Materialized MustMaterialize(const ViewEngine& engine, const Value& universe) {
  auto m = engine.Materialize(universe);
  EXPECT_TRUE(m.ok()) << m.status().ToString();
  return std::move(m).value();
}

// Element subsumption: every field of `elem` is present with the same value
// in some element of `set`. Absorb-extended elements (dbC folding new stocks
// into an existing date tuple) satisfy this even when exact set membership
// no longer holds.
bool Subsumed(const Value& elem, const Value& set) {
  if (set.Contains(elem)) return true;
  if (!elem.is_tuple()) return false;
  for (const auto& candidate : set.elements()) {
    if (!candidate.is_tuple()) continue;
    bool all_fields_present = true;
    for (const auto& field : elem.fields()) {
      const Value* other = candidate.FindField(field.name);
      if (other == nullptr || !(*other == field.value)) {
        all_fields_present = false;
        break;
      }
    }
    if (all_fields_present) return true;
  }
  return false;
}

const Value* FindRelation(const Value& universe, const std::string& path) {
  size_t dot = path.find('.');
  if (dot == std::string::npos) return universe.FindField(path);
  const Value* db = universe.FindField(path.substr(0, dot));
  return db == nullptr ? nullptr : db->FindField(path.substr(dot + 1));
}

// Materialization is idempotent: re-running the rules over an already
// materialized universe changes nothing.
TEST_P(WorkloadProperty, MaterializationIdempotent) {
  StockWorkload w = Workload();
  Value universe = BuildStockUniverse(w);
  ViewEngine engine = PaperEngine();
  Materialized once = MustMaterialize(engine, universe);
  Materialized twice = MustMaterialize(engine, once.universe);
  EXPECT_EQ(twice.changes, 0u);
  EXPECT_EQ(once.universe, twice.universe);
}

// Adding a base fact never removes a derived fact (monotonicity of the
// positive rules): every derived element before the insertion is still
// subsumed afterwards. Exercised with a brand-new date (fresh derived
// facts) and a conflicting price on an existing date (a discrepancy, which
// must coexist with the old fact rather than replace it).
TEST_P(WorkloadProperty, AddingBaseFactIsMonotone) {
  StockWorkload w = Workload();
  Value universe = BuildStockUniverse(w);
  ViewEngine engine = PaperEngine();
  Materialized before = MustMaterialize(engine, universe);

  auto insert_quote = [&](Value base, const Date& date, double price) {
    Value row = Value::EmptyTuple();
    row.SetField("date", Value::Of(date));
    row.SetField("stkCode", Value::String(w.stocks[0]));
    row.SetField("clsPrice", Value::Real(price));
    base.MutableField("euter")->MutableField("r")->Insert(std::move(row));
    return base;
  };
  Date fresh = Date::FromDayNumber(w.dates.back().DayNumber() + 3);
  std::vector<Value> grown;
  grown.push_back(insert_quote(universe, fresh, 77.0));
  grown.push_back(insert_quote(universe, w.dates[0], -1.0));  // discrepancy

  for (const Value& base : grown) {
    Materialized after = MustMaterialize(engine, base);
    for (const auto& path : before.derived_paths) {
      const Value* old_rel = FindRelation(before.universe, path);
      const Value* new_rel = FindRelation(after.universe, path);
      ASSERT_NE(old_rel, nullptr) << path;
      ASSERT_NE(new_rel, nullptr) << path;
      if (!old_rel->is_set() || !new_rel->is_set()) continue;
      for (const auto& elem : old_rel->elements()) {
        EXPECT_TRUE(Subsumed(elem, *new_rel))
            << path << " lost " << ToString(elem);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, WorkloadProperty,
    ::testing::Values(Shape{1, 1, 1}, Shape{1, 10, 2}, Shape{5, 1, 3},
                      Shape{3, 7, 4}, Shape{8, 5, 5}, Shape{10, 20, 6},
                      Shape{2, 30, 7}, Shape{6, 6, 8}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return StrCat("s", info.param.stocks, "d", info.param.days, "seed",
                    info.param.seed);
    });

// Round-trip property over generated universes: print -> parse -> equal.
class UniverseRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UniverseRoundTrip, ValueIoRoundTrips) {
  StockWorkload w = GenerateStockWorkload(
      {.num_stocks = 3, .num_days = 3, .seed = GetParam()});
  Value universe = BuildStockUniverse(w);
  auto reparsed = ParseValue(ToString(universe));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(*reparsed, universe);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UniverseRoundTrip,
                         ::testing::Values(1, 2, 3, 42, 99, 12345));

// QuoteString -> Lex is total and exact over arbitrary byte strings: every
// control byte, quote, and backslash must survive the printer -> lexer round
// trip. (Regression: the lexer used to swallow unknown escapes and the
// printer emitted raw control bytes, so the pair was lossy on anything
// outside the printable ASCII set.)
class QuoteRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QuoteRoundTrip, QuotedStringLexesBackExactly) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    std::string original;
    size_t len = rng.Below(24);
    for (size_t i = 0; i < len; ++i) {
      // Full byte range: controls, '"', '\\', DEL, and high (UTF-8) bytes.
      original.push_back(static_cast<char>(rng.Below(256)));
    }
    std::string quoted = QuoteString(original);
    auto tokens = Lex(quoted);
    ASSERT_TRUE(tokens.ok())
        << tokens.status().ToString() << " quoting " << quoted;
    ASSERT_EQ(tokens->size(), 2u) << quoted;  // string + kEnd
    EXPECT_EQ((*tokens)[0].kind, TokenKind::kString) << quoted;
    EXPECT_EQ((*tokens)[0].text, original) << quoted;
  }
}

// The adversarial corner cases, pinned explicitly.
TEST(QuoteRoundTripTest, CornerCases) {
  for (const std::string& s :
       {std::string(""), std::string("\\"), std::string("\""),
        std::string("\\\""), std::string(1, '\0'), std::string("\n\t\r"),
        std::string("\x01\x7f"), std::string("ends with backslash\\"),
        std::string("\\x41 is not A")}) {
    auto tokens = Lex(QuoteString(s));
    ASSERT_TRUE(tokens.ok()) << tokens.status().ToString();
    ASSERT_EQ(tokens->size(), 2u);
    EXPECT_EQ((*tokens)[0].text, s) << QuoteString(s);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuoteRoundTrip,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace idl
