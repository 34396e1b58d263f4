// Differential tests for incremental view maintenance: a session maintaining
// its materialization by delta propagation must stay bit-identical to the
// reference evaluator's from-scratch materialization of the session's base
// (tests/reference/reference.h) — at every step of an update trace, not
// just at the end.
//
// The traces mix the shapes the maintenance layer distinguishes:
//  * pure insertions (semi-naive propagation seeded from the delta),
//  * deletions and in-place rewrites (delete-and-rederive),
//  * updates to databases no rule reads (every stratum skipped),
//  * recursive rules (transitive closure) fed one edge at a time.

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "idl/session.h"
#include "reference/reference.h"
#include "workload/paper_universe.h"
#include "workload/stock_gen.h"

namespace idl {
namespace {

// A maintaining session paired with the reference, driven through a trace.
// Step() applies one request and asserts the session's merged universe
// agrees with the reference's materialization of the session's base.
struct SessionAndReference {
  Session inc;
  std::vector<Rule> rules;

  void Register(const RelationalDatabase& db) {
    ASSERT_TRUE(inc.RegisterDatabase(db).ok());
  }
  void Register(const std::string& name, const Value& object) {
    ASSERT_TRUE(inc.RegisterDatabase(name, object).ok());
  }
  void DefineRules(const std::vector<std::string>& texts) {
    ASSERT_TRUE(inc.DefineRules(texts).ok());
    auto parsed = ParseRuleTexts(texts);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    rules = std::move(parsed).value();
  }

  void Step(const std::string& request) {
    // A request may be rejected (a rewrite whose row is gone leaves C
    // unbound); the views must stay consistent with the base either way.
    auto r = inc.Update(request);
    (void)r;
    ExpectUniversesAgree(request);
  }

  void ExpectUniversesAgree(const std::string& context) {
    auto reference = ReferenceMaterialize(rules, inc.base_universe());
    auto u = inc.universe();
    ASSERT_TRUE(u.ok()) << u.status().ToString();
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ASSERT_EQ(**u, reference->universe)
        << "universes diverge after: " << context;
  }

  const MaintenanceStats& Maintenance() {
    const Materialized* m = inc.last_materialization();
    EXPECT_NE(m, nullptr);
    static const MaintenanceStats kEmpty;
    return m != nullptr ? m->maintenance : kEmpty;
  }
};

// ---- Randomized traces over the paper's toy instance -----------------------

// hp/ibm/sun over 3/1/85..3/4/85, viewed through the full two-level mapping
// (unified dbI.p plus the dbE / dbC / dbO customized views — the latter two
// with higher-order heads). Ops are drawn by a seeded PRNG so failures
// reproduce; every mix ends with deletions AND insertions exercised.
TEST(IncrementalDifferential, RandomizedPaperTraces) {
  const std::vector<std::string> stocks = {"hp", "ibm", "sun", "dec"};
  const std::vector<std::string> dates = {"3/1/85", "3/2/85", "3/3/85",
                                          "3/4/85", "3/5/85"};
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    PaperUniverse paper = MakePaperUniverse();
    SessionAndReference pair;
    for (const auto& field : paper.universe.fields()) {
      pair.Register(field.name, field.value);
    }
    pair.DefineRules(PaperViewRules());

    std::mt19937_64 rng(seed);
    for (int step = 0; step < 24; ++step) {
      const std::string& stk = stocks[rng() % stocks.size()];
      const std::string& date = dates[rng() % dates.size()];
      const int price = 10 + static_cast<int>(rng() % 300);
      std::string request;
      switch (rng() % 4) {
        case 0:  // insert (possibly a duplicate (date, stk): absorbed)
          request = "?.euter.r+(.date=" + date + ",.stkCode=" + stk +
                    ",.clsPrice=" + std::to_string(price) + ")";
          break;
        case 1:  // delete one row (possibly none matches)
          request = "?.euter.r-(.date=" + date + ",.stkCode=" + stk + ")";
          break;
        case 2:  // delete a whole stock from euter
          request = "?.euter.r-(.stkCode=" + stk + ")";
          break;
        default:  // in-place rewrite: re-price every row of a stock
          request = "?.euter.r-(.stkCode=" + stk + ",.date=" + date +
                    ",.clsPrice=C), .euter.r+(.stkCode=" + stk +
                    ",.date=" + date + ",.clsPrice=C+7)";
          break;
      }
      pair.Step(request);
    }
    EXPECT_GT(pair.Maintenance().deltas_applied, 0u);
  }
}

// Larger instance: a generated stock workload (bigger relations, so the
// delta-restricted waves run against sets worth indexing).
TEST(IncrementalDifferential, RandomizedStockWorkloadTrace) {
  StockWorkload w = GenerateStockWorkload(
      {.num_stocks = 8, .num_days = 12, .seed = 7, .discrepancy_rate = 0.1});
  SessionAndReference pair;
  pair.Register(BuildEuterDatabase(w));
  pair.Register(BuildChwabDatabase(w));
  pair.Register(BuildOurceDatabase(w));
  pair.DefineRules(PaperViewRules());

  std::mt19937_64 rng(99);
  for (int step = 0; step < 20; ++step) {
    const std::string& stk = w.stocks[rng() % w.stocks.size()];
    const std::string date = w.dates[rng() % w.dates.size()].ToString();
    std::string request;
    switch (rng() % 3) {
      case 0:
        request = "?.euter.r+(.date=" + date + ",.stkCode=" + stk +
                  ",.clsPrice=" + std::to_string(1 + rng() % 500) + ")";
        break;
      case 1:
        request = "?.euter.r-(.date=" + date + ",.stkCode=" + stk + ")";
        break;
      default:
        request = "?.euter.r-(.stkCode=" + stk + ")";
        break;
    }
    pair.Step(request);
  }
  EXPECT_GT(pair.Maintenance().deltas_applied, 0u);
}

// ---- The insertion fast path ------------------------------------------------

// A trace of brand-new rows only: monotone, so every delta takes the seeded
// semi-naive path and nothing ever falls back to full rematerialization.
TEST(IncrementalDifferential, InsertOnlyTraceNeverFallsBack) {
  PaperUniverse paper = MakePaperUniverse();
  SessionAndReference pair;
  for (const auto& field : paper.universe.fields()) {
    pair.Register(field.name, field.value);
  }
  pair.DefineRules(PaperViewRules());
  pair.ExpectUniversesAgree("initial materialization");

  for (int day = 5; day <= 12; ++day) {
    const std::string date = "3/" + std::to_string(day) + "/85";
    pair.Step("?.euter.r+(.date=" + date + ",.stkCode=hp,.clsPrice=" +
              std::to_string(40 + day) + ")");
    pair.Step("?.euter.r+(.date=" + date + ",.stkCode=dec,.clsPrice=" +
              std::to_string(100 + day) + ")");
  }
  const MaintenanceStats& m = pair.Maintenance();
  EXPECT_EQ(m.fallbacks, 0u);
  EXPECT_GT(m.deltas_applied, 0u);
}

// ---- Recursion --------------------------------------------------------------

// Transitive closure grown one edge at a time. Each insertion extends every
// path ending at the new edge's source — the seeded wave must chase the
// recursion to a new fixpoint, not just fire the base rule once.
TEST(IncrementalDifferential, TransitiveClosureEdgeByEdge) {
  Value d = Value::EmptyTuple();
  d.SetField("edge", Value::EmptySet());
  SessionAndReference pair;
  pair.Register("d", d);
  pair.DefineRules({
      ".d.tc(.from=X, .to=Y) <- .d.edge(.from=X, .to=Y)",
      ".d.tc(.from=X, .to=Z) <- .d.tc(.from=X, .to=Y), "
      ".d.edge(.from=Y, .to=Z)",
  });

  const int kNodes = 13;
  for (int i = 1; i < kNodes; ++i) {
    pair.Step("?.d.edge+(.from=" + std::to_string(i) +
              ", .to=" + std::to_string(i + 1) + ")");
  }
  auto tc = pair.inc.Query("?.d.tc(.from=F, .to=T)");
  ASSERT_TRUE(tc.ok()) << tc.status().ToString();
  EXPECT_EQ(tc->rows.size(),
            static_cast<size_t>(kNodes * (kNodes - 1) / 2));
  const MaintenanceStats& m = pair.Maintenance();
  EXPECT_EQ(m.fallbacks, 0u);
  EXPECT_GT(m.deltas_applied, 0u);
}

// Deleting a middle edge severs every path through it: the DRed path must
// un-derive the severed half without leaving ghosts.
TEST(IncrementalDifferential, TransitiveClosureEdgeDeletion) {
  Value edges = Value::EmptySet();
  for (int i = 1; i < 10; ++i) {
    Value e = Value::EmptyTuple();
    e.SetField("from", Value::Int(i));
    e.SetField("to", Value::Int(i + 1));
    edges.Insert(std::move(e));
  }
  Value d = Value::EmptyTuple();
  d.SetField("edge", std::move(edges));
  SessionAndReference pair;
  pair.Register("d", d);
  pair.DefineRules({
      ".d.tc(.from=X, .to=Y) <- .d.edge(.from=X, .to=Y)",
      ".d.tc(.from=X, .to=Z) <- .d.tc(.from=X, .to=Y), "
      ".d.edge(.from=Y, .to=Z)",
  });
  pair.ExpectUniversesAgree("initial closure");

  pair.Step("?.d.edge-(.from=5, .to=6)");
  auto crossing = pair.inc.Query("?.d.tc(.from=4, .to=7)");
  ASSERT_TRUE(crossing.ok());
  EXPECT_TRUE(crossing->rows.empty());
  pair.Step("?.d.edge+(.from=5, .to=6)");  // and re-derive it all
  EXPECT_GT(pair.Maintenance().deltas_applied, 0u);
}

// ---- Stratum skipping -------------------------------------------------------

// An update to a database no rule reads must not re-run any stratum: the
// maintenance pass sees that the delta's refs miss every rule body and skips
// straight through.
TEST(IncrementalDifferential, UnrelatedDatabaseSkipsEveryStratum) {
  PaperUniverse paper = MakePaperUniverse();
  SessionAndReference pair;
  for (const auto& field : paper.universe.fields()) {
    pair.Register(field.name, field.value);
  }
  Value scratch = Value::EmptyTuple();
  scratch.SetField("s", Value::EmptySet());
  pair.Register("scratch", scratch);
  pair.DefineRules(PaperViewRules());
  pair.ExpectUniversesAgree("initial materialization");

  pair.Step("?.scratch.s+(.k=1)");
  pair.Step("?.scratch.s+(.k=2)");
  const MaintenanceStats& m = pair.Maintenance();
  EXPECT_GT(m.strata_skipped, 0u);
  EXPECT_EQ(m.strata_rederived, 0u);
  EXPECT_EQ(m.fallbacks, 0u);
}

}  // namespace
}  // namespace idl
