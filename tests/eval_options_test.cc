// EvalOptions behaviours: equality-index acceleration (identical answers,
// fewer elements scanned) and row caps; and negation deferral, which needs
// no option.

#include <gtest/gtest.h>

#include <algorithm>

#include "eval/query.h"
#include "syntax/parser.h"
#include "workload/stock_gen.h"

namespace idl {
namespace {

Query MustQuery(std::string_view text) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << text;
  return std::move(q).value();
}

std::vector<std::vector<Value>> SortedRows(Answer a) {
  std::sort(a.rows.begin(), a.rows.end(),
            [](const std::vector<Value>& x, const std::vector<Value>& y) {
              for (size_t i = 0; i < x.size(); ++i) {
                int c = Value::Compare(x[i], y[i]);
                if (c != 0) return c < 0;
              }
              return false;
            });
  return std::move(a.rows);
}

class IndexAblationTest : public ::testing::Test {
 protected:
  IndexAblationTest()
      : universe_(BuildStockUniverse(GenerateStockWorkload(
            {.num_stocks = 12, .num_days = 40, .seed = 5}))) {}

  void ExpectSameAnswers(const std::string& text) {
    Query q = MustQuery(text);
    EvalOptions with, without;
    with.use_indexes = true;
    with.index_min_set_size = 8;
    without.use_indexes = false;
    EvalStats stats_with, stats_without;
    auto a = EvaluateQuery(universe_, q, with, &stats_with);
    auto b = EvaluateQuery(universe_, q, without, &stats_without);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a->columns, b->columns);
    EXPECT_EQ(SortedRows(std::move(a).value()),
              SortedRows(std::move(b).value()))
        << text;
    last_with_ = stats_with;
    last_without_ = stats_without;
  }

  Value universe_;
  EvalStats last_with_, last_without_;
};

TEST_F(IndexAblationTest, SelectionEquivalentAndCheaper) {
  ExpectSameAnswers("?.euter.r(.stkCode=stk3, .clsPrice=P, .date=D)");
  EXPECT_GT(last_with_.index_probes, 0u);
  EXPECT_LT(last_with_.set_elements_scanned,
            last_without_.set_elements_scanned);
}

TEST_F(IndexAblationTest, JoinEquivalentAndCheaper) {
  ExpectSameAnswers(
      "?.euter.r(.stkCode=stk0,.clsPrice=P1,.date=D),"
      ".euter.r(.stkCode=stk1,.clsPrice=P2,.date=D)");
  EXPECT_GT(last_with_.index_probes, 0u);
  // The second conjunct probes on the bound D instead of rescanning.
  EXPECT_LT(last_with_.set_elements_scanned,
            last_without_.set_elements_scanned / 4);
}

TEST_F(IndexAblationTest, CrossKindNumericEqualityStillMatches) {
  // Prices are doubles; an integer probe must still find them through the
  // index (numeric hashing), same as the scan path.
  Value universe = Value::EmptyTuple();
  Value rel = Value::EmptySet();
  for (int i = 0; i < 64; ++i) {
    Value t = Value::EmptyTuple();
    t.SetField("k", Value::Real(static_cast<double>(i)));
    rel.Insert(std::move(t));
  }
  Value db = Value::EmptyTuple();
  db.SetField("r", std::move(rel));
  universe.SetField("d", std::move(db));

  Query q = MustQuery("?.d.r(.k=7)");
  EvalOptions with;
  with.index_min_set_size = 8;
  EvalStats stats;
  auto a = EvaluateQuery(universe, q, with, &stats);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(a->boolean());
  EXPECT_GT(stats.index_probes, 0u);
}

TEST_F(IndexAblationTest, HigherOrderQueriesUnaffected) {
  ExpectSameAnswers("?.chwab.r(.S>200)");
  ExpectSameAnswers("?.ource.S(.clsPrice>200)");
  ExpectSameAnswers("?.chwab.r(.date=D,.S=P), .ource.S(.date=D,.clsPrice=P)");
}

TEST_F(IndexAblationTest, NegationEquivalent) {
  ExpectSameAnswers(
      "?.euter.r(.stkCode=stk0,.clsPrice=P,.date=D),"
      ".euter.r!(.stkCode=stk0, .clsPrice>P)");
}

TEST(EvalOptionsTest, MaxRowsCapsAnswer) {
  Value universe = BuildStockUniverse(
      GenerateStockWorkload({.num_stocks = 5, .num_days = 10}));
  Query q = MustQuery("?.euter.r(.stkCode=S, .date=D)");
  EvalOptions options;
  options.max_rows = 7;
  auto a = EvaluateQuery(universe, q, options);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->rows.size(), 7u);
}

TEST(EvalOptionsTest, NegationWrittenFirstIsDeferred) {
  Value universe = BuildStockUniverse(
      GenerateStockWorkload({.num_stocks = 3, .num_days = 4}));
  // Negation written *before* the conjunct that binds P: it runs after
  // every positive conjunct, so P is bound when it does.
  Query q = MustQuery(
      "?.euter.r!(.stkCode=stk0, .clsPrice>P),"
      ".euter.r(.stkCode=stk0,.clsPrice=P,.date=D)");
  auto ok = EvaluateQuery(universe, q);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->rows.size(), 1u);
}

}  // namespace
}  // namespace idl
