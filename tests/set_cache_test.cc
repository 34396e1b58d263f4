// Pages and equality indexes kept in each set's cache slot
// (Value::set_cache, src/object/set_cache.h).
//
// Pinned here:
//
//  1. Repeated identical queries on an unchanged session reuse the pages on
//     its sets — `columnar.pages_built` stays flat across re-queries — and a
//     base mutation makes the next query see the new data.
//
//  2. A relation that shrank (delete-and-rederive) is never served stale
//     index buckets: answers match a fresh session's.
//
//  3. Every mutable set accessor drops the set's page and indexes; a copy
//     shares them, and mutating one side leaves the other side's intact.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "idl/session.h"
#include "object/set_cache.h"
#include "relational/columnar.h"
#include "workload/stock_gen.h"

namespace idl {
namespace {

uint64_t PagesBuilt() {
  return MetricsRegistry::Global().counter("columnar.pages_built")->value();
}

Value FlatRow(int k) {
  Value t = Value::EmptyTuple();
  t.SetField("k", Value::Int(k));
  t.SetField("v", Value::String(k % 2 == 0 ? "even" : "odd"));
  return t;
}

Value MakeFlatSet(int n) {
  Value set = Value::EmptySet();
  for (int i = 0; i < n; ++i) set.Insert(FlatRow(i));
  return set;
}

// How many of its two caches `set` had to build just now: its page and its
// index over `k` (0 = both were already in its slot).
int Builds(const Value& set) {
  int builds = 0;
  set.set_cache().GetPage([&] {
    ++builds;
    return ColumnarRelation::FromSet(set);
  });
  bool built = false;
  set.set_cache().GetIndex(
      "k", [] { return SetCache::AttrIndex{}; }, &built);
  return builds + (built ? 1 : 0);
}

TEST(QueryCacheTest, RepeatedQueriesReusePages) {
  Session session;
  Value universe = BuildStockUniverse(
      GenerateStockWorkload({.num_stocks = 8, .num_days = 40, .seed = 3}));
  for (const auto& field : universe.fields()) {
    ASSERT_TRUE(session.RegisterDatabase(field.name, field.value).ok());
  }

  const std::string query = "?.euter.r(.stkCode=stk2, .clsPrice=P, .date=D)";
  auto first = session.Query(query);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const uint64_t after_first = PagesBuilt();

  // The regression: every re-query used to rebuild its pages from scratch
  // because the per-query cache died with the query. The pages now stay on
  // the session's sets.
  for (int i = 0; i < 5; ++i) {
    auto again = session.Query(query);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again->ToTable(), first->ToTable());
  }
  EXPECT_EQ(PagesBuilt(), after_first)
      << "re-querying an unchanged session rebuilt columnar pages";

  // A base mutation invalidates: the next query may rebuild, and must see
  // the new data.
  ASSERT_TRUE(
      session.Update("?.euter.r+(.date=3/5/1985,.stkCode=stk2,.clsPrice=7)")
          .ok());
  auto after_update = session.Query(query);
  ASSERT_TRUE(after_update.ok());
  EXPECT_NE(after_update->ToTable(), first->ToTable())
      << "a query served pre-update pages after an update";
}

TEST(QueryCacheTest, ShrinkThenRequeryDifferential) {
  // Delete-and-rederive shrinks relations in place; a session that has
  // already indexed them must answer exactly like a fresh session built
  // from the post-delete base.
  Session session;
  Value universe = BuildStockUniverse(
      GenerateStockWorkload({.num_stocks = 6, .num_days = 30, .seed = 9}));
  for (const auto& field : universe.fields()) {
    ASSERT_TRUE(session.RegisterDatabase(field.name, field.value).ok());
  }
  ASSERT_TRUE(
      session.DefineRule(".hi.p(.stk=S, .date=D) <- "
                         ".euter.r(.stkCode=S, .date=D, .clsPrice>150)")
          .ok());

  const std::string query = "?.hi.p(.stk=stk1, .date=D)";
  ASSERT_TRUE(session.Query(query).ok());  // materialize + warm the cache

  // Shrink the base: delete every stk1 row (delete-and-rederive path).
  auto del = session.Update("?.euter.r-(.stkCode=stk1)");
  ASSERT_TRUE(del.ok()) << del.status().ToString();

  auto warm = session.Query(query);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  Session fresh;
  auto base = session.universe();
  ASSERT_TRUE(base.ok());
  for (const auto& field : (*base)->fields()) {
    if (field.name == "hi") continue;  // derived; let fresh re-derive it
    ASSERT_TRUE(fresh.RegisterDatabase(field.name, field.value).ok());
  }
  ASSERT_TRUE(
      fresh
          .DefineRule(".hi.p(.stk=S, .date=D) <- "
                      ".euter.r(.stkCode=S, .date=D, .clsPrice>150)")
          .ok());
  auto cold = fresh.Query(query);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(warm->ToTable(), cold->ToTable())
      << "stale index state survived delete-and-rederive";
}

TEST(SetCacheTest, MutableAccessorsDropPageAndIndexes) {
  struct Case {
    const char* name;
    std::function<void(Value*)> mutate;
  };
  const std::vector<Case> cases = {
      {"Insert", [](Value* s) { s->Insert(FlatRow(100)); }},
      {"EraseIf",
       [](Value* s) {
         s->EraseIf([](const Value& e) {
           return e.FindField("k")->as_int() >= 8;
         });
       }},
      {"MutableElement", [](Value* s) { s->MutableElement(3); }},
      {"RehashSet", [](Value* s) { s->RehashSet(); }},
      {"RehashElement",
       [](Value* s) { s->RehashElement(3, s->elements()[3].Hash()); }},
      {"Assignment", [](Value* s) { *s = MakeFlatSet(16); }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Value set = MakeFlatSet(16);
    ASSERT_EQ(Builds(set), 2);
    ASSERT_EQ(Builds(set), 0) << "an unchanged set lost its cache";
    c.mutate(&set);
    EXPECT_EQ(Builds(set), 2) << "the mutated set kept its page or index";
  }

  // Calls that change nothing keep the cache.
  Value set = MakeFlatSet(16);
  ASSERT_EQ(Builds(set), 2);
  EXPECT_FALSE(set.Insert(FlatRow(3)));
  EXPECT_EQ(set.EraseIf([](const Value&) { return false; }), 0u);
  EXPECT_EQ(Builds(set), 0);
}

TEST(SetCacheTest, CopiesShareTheSlotUntilOneSideMutates) {
  Value set = MakeFlatSet(16);
  ASSERT_EQ(Builds(set), 2);

  Value copy = set;
  EXPECT_EQ(Builds(copy), 0) << "a copy did not share the page and index";
  EXPECT_EQ(ColumnarRelation::Of(copy).get(), ColumnarRelation::Of(set).get());

  // Mutating the copy leaves the original's cache intact...
  copy.Insert(FlatRow(100));
  EXPECT_EQ(Builds(copy), 2);
  EXPECT_EQ(Builds(set), 0);
  EXPECT_EQ(ColumnarRelation::Of(copy)->num_rows(), 17u);
  EXPECT_EQ(ColumnarRelation::Of(set)->num_rows(), 16u);

  // ...and mutating the original leaves an earlier copy's intact.
  Value before = set;
  set.MutableElement(0)->SetField("v", Value::String("changed"));
  set.RehashSet();
  EXPECT_EQ(Builds(before), 0);
  EXPECT_EQ(Builds(set), 2);

  // Copy-assignment shares too, and so does copying an enclosing tuple.
  Value assigned = MakeFlatSet(4);
  assigned = before;
  EXPECT_EQ(Builds(assigned), 0);
  Value db = Value::EmptyTuple();
  db.SetField("r", before);
  Value db_copy = db;
  EXPECT_EQ(Builds(*db_copy.FindField("r")), 0);
  EXPECT_EQ(ColumnarRelation::Of(*db_copy.FindField("r")).get(),
            ColumnarRelation::Of(before).get());
}

}  // namespace
}  // namespace idl
