// Integration tests: the full Figure-1 pipeline through the Session facade —
// substrate databases lifted into the universe, the two-level mapping
// (databases -> unified view -> customized views), queries, updates routed
// through view-update programs, and write-back to relational form.

#include "idl/session.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/metrics.h"
#include "relational/adapter.h"
#include "workload/paper_universe.h"
#include "workload/stock_gen.h"

namespace idl {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  void SetUpStockSession(Session* session, size_t stocks = 3,
                         size_t days = 4) {
    StockWorkload w =
        GenerateStockWorkload({.num_stocks = stocks, .num_days = days});
    ASSERT_TRUE(session->RegisterDatabase(BuildEuterDatabase(w)).ok());
    ASSERT_TRUE(session->RegisterDatabase(BuildChwabDatabase(w)).ok());
    ASSERT_TRUE(session->RegisterDatabase(BuildOurceDatabase(w)).ok());
  }
};

TEST_F(SessionTest, RegisterAndQuery) {
  Session session;
  SetUpStockSession(&session);
  auto a = session.Query("?.X");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a->rows.size(), 3u);
  EXPECT_EQ(session.RegisterDatabase("euter", Value::EmptyTuple()).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(session.RemoveDatabase("nosuch").code(), StatusCode::kNotFound);
}

TEST_F(SessionTest, Figure1_TwoLevelMapping) {
  Session session;
  SetUpStockSession(&session, 3, 4);
  ASSERT_TRUE(session.DefineRules(PaperViewRules()).ok());

  // The unified view U (database transparency): one relation over all three.
  auto unified = session.Query("?.dbI.p(.date=D, .stk=S, .clsPrice=P)");
  ASSERT_TRUE(unified.ok()) << unified.status().ToString();
  EXPECT_EQ(unified->rows.size(), 12u);

  // The customized views D'_i (integration transparency) equal the
  // originals.
  auto u = session.universe();
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(*(*u)->FindField("dbE")->FindField("r"),
            *(*u)->FindField("euter")->FindField("r"));
  EXPECT_EQ(*(*u)->FindField("dbC")->FindField("r"),
            *(*u)->FindField("chwab")->FindField("r"));
  EXPECT_EQ(*(*u)->FindField("dbO"), *(*u)->FindField("ource"));
}

TEST_F(SessionTest, UpdateInvalidatesViews) {
  Session session;
  SetUpStockSession(&session);
  ASSERT_TRUE(session.DefineRules(PaperViewRules()).ok());
  auto before = session.Query("?.dbI.p(.stk=stk0, .date=D)");
  ASSERT_TRUE(before.ok());
  size_t n = before->rows.size();

  auto r = session.Update("?.euter.r-(.stkCode=stk0)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->counts.set_deletes, 0u);

  // stk0 still reaches the unified view through chwab and ource...
  auto after = session.Query("?.dbI.p(.stk=stk0, .date=D)");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows.size(), n);

  // ...but deleting through the delStk program removes it everywhere.
  ASSERT_TRUE(session.DefinePrograms(PaperUpdatePrograms()).ok());
  auto call = session.CallProgram(
      "dbU.delStk", {{"stk", Value::String("stk0")}});
  ASSERT_TRUE(call.ok()) << call.status().ToString();
  auto gone = session.Query("?.dbI.p(.stk=stk0, .date=D)");
  ASSERT_TRUE(gone.ok());
  EXPECT_TRUE(gone->rows.empty());
}

TEST_F(SessionTest, ViewUpdateDispatchedThroughProgram) {
  Session session;
  SetUpStockSession(&session);
  ASSERT_TRUE(session.DefineRules(PaperViewRules()).ok());
  ASSERT_TRUE(session.DefinePrograms(PaperUpdatePrograms()).ok());

  // An update *request* against the dbE view is translated by the §7.2
  // program into updates of all three base databases.
  auto r = session.Update(
      "?.dbE.r+(.date=3/1/85, .stkCode=stk0, .clsPrice=777)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(session.Query("?.euter.r(.stkCode=stk0,.clsPrice=777)")
                  ->boolean());
  EXPECT_TRUE(session.Query("?.chwab.r(.stk0=777)")->boolean());
  EXPECT_TRUE(session.Query("?.ource.stk0(.clsPrice=777)")->boolean());
  // And the view reflects it (faithfulness).
  EXPECT_TRUE(session.Query("?.dbE.r(.stkCode=stk0,.clsPrice=777)")
                  ->boolean());
}

TEST_F(SessionTest, UpdatingViewWithoutProgramIsRejected) {
  Session session;
  SetUpStockSession(&session);
  ASSERT_TRUE(session.DefineRules(PaperViewRules()).ok());
  auto r = session.Update("?.dbO.stk0-(.date=3/1/85)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
}

TEST_F(SessionTest, QueryRejectsUpdateRequests) {
  Session session;
  SetUpStockSession(&session);
  EXPECT_FALSE(session.Query("?.euter.r-(.stkCode=stk0)").ok());
  // And Update handles pure queries gracefully by just binding.
  auto r = session.Update("?.euter.r(.stkCode=stk0, .date=D)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->bindings, 4u);
  EXPECT_EQ(r->counts.Total(), 0u);
}

TEST_F(SessionTest, ExecuteScript) {
  Session session;
  SetUpStockSession(&session);
  auto answers = session.ExecuteScript(
      ".dbI.p(.date=D, .stk=S, .clsPrice=P) <- "
      "  .euter.r(.date=D, .stkCode=S, .clsPrice=P);"
      "?.dbI.p(.stk=S);"
      "?.euter.r(.stkCode=stk1, .date=D);");
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  ASSERT_EQ(answers->size(), 2u);
  EXPECT_EQ((*answers)[0].rows.size(), 3u);  // 3 stocks
  EXPECT_EQ((*answers)[1].rows.size(), 4u);  // 4 days
}

TEST_F(SessionTest, ExportDatabaseWritesBack) {
  Session session;
  SetUpStockSession(&session);
  ASSERT_TRUE(session.DefineRules(PaperViewRules()).ok());
  // Export the derived dbE view as a relational database.
  auto db = session.ExportDatabase("dbE");
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const Table* r = db->FindTable("r");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->NumRows(), 12u);
  EXPECT_TRUE(r->schema().HasColumn("stkCode"));
  EXPECT_EQ(session.ExportDatabase("nosuch").status().code(),
            StatusCode::kNotFound);
}

TEST_F(SessionTest, PaperToyEndToEnd) {
  PaperUniverse paper = MakePaperUniverse();
  Session session;
  for (const auto& field : paper.universe.fields()) {
    ASSERT_TRUE(session.RegisterDatabase(field.name, field.value).ok());
  }
  ASSERT_TRUE(session.DefineRules(PaperViewRules()).ok());
  ASSERT_TRUE(session.DefinePrograms(PaperUpdatePrograms()).ok());

  // "Did any stock ever close above 200" — once, through the unified view.
  auto a = session.Query("?.dbI.p(.stk=S, .clsPrice>200)");
  ASSERT_TRUE(a.ok());
  ASSERT_EQ(a->rows.size(), 1u);
  EXPECT_EQ(a->Column("S")[0].as_string(), "sun");

  // Remove sun through rmStk; the unified view no longer mentions it, and
  // dbO loses the relation (data-dependent schema shrinks).
  ASSERT_TRUE(
      session.CallProgram("dbU.rmStk", {{"stk", Value::String("sun")}}).ok());
  EXPECT_FALSE(session.Query("?.dbI.p(.stk=sun)")->boolean());
  auto u = session.universe();
  ASSERT_TRUE(u.ok());
  EXPECT_FALSE((*u)->FindField("dbO")->HasField("sun"));
  EXPECT_EQ((*u)->FindField("dbO")->TupleSize(), 2u);
}

TEST_F(SessionTest, StatsAccumulate) {
  Session session;
  SetUpStockSession(&session);
  ASSERT_TRUE(session.Query("?.euter.r(.clsPrice>0, .stkCode=S)").ok());
  EXPECT_GT(session.stats().set_elements_scanned, 0u);
  session.ResetStats();
  EXPECT_EQ(session.stats().set_elements_scanned, 0u);
}

// A direct query rolls its own counters into the process metrics (eval.*),
// as a server reader's query does.
TEST_F(SessionTest, QueryReachesEvalMetrics) {
  Session session;
  SetUpStockSession(&session);
  ASSERT_TRUE(session.universe().ok());  // materialization counts apart
  session.ResetStats();
  Counter* scanned =
      MetricsRegistry::Global().counter("eval.set_elements_scanned");
  const uint64_t before = scanned->value();
  ASSERT_TRUE(session.Query("?.euter.r(.clsPrice>0, .stkCode=S)").ok());
  EXPECT_GT(session.stats().set_elements_scanned, 0u);
  EXPECT_EQ(scanned->value() - before, session.stats().set_elements_scanned);
}

}  // namespace
}  // namespace idl
