// Differential harness for the view engine (views/engine.h): the reference
// evaluator's naive fixpoint (tests/reference/reference.h) is the oracle;
// the library's semi-naive engine, serial and parallel, must produce the
// same merged universe and the same derived paths on
//   - every paper view program (plain, name mappings, discrepancies +
//     reconciliation),
//   - recursive programs (transitive closure over chains and random graphs),
//   - ~50 seeded random stock universes across the workload knobs.
// It also pins down the *reason* semi-naive is interesting: on recursive
// workloads it records deltas and skips re-derivations the naive fixpoint
// performs.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "eval/query.h"
#include "object/value_io.h"
#include "reference/reference.h"
#include "syntax/parser.h"
#include "views/engine.h"
#include "workload/paper_universe.h"
#include "workload/stock_gen.h"

namespace idl {
namespace {

Rule MustRule(std::string_view text) {
  auto r = ParseRule(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
  return std::move(r).value();
}

ViewEngine BuildEngine(const std::vector<std::string>& rule_texts) {
  ViewEngine engine;
  for (const auto& text : rule_texts) {
    auto st = engine.AddRule(MustRule(text));
    EXPECT_TRUE(st.ok()) << text << ": " << st.ToString();
  }
  return engine;
}

Materialized MaterializeWith(const ViewEngine& engine, const Value& universe,
                             size_t parallelism) {
  EvalOptions options;
  options.materialize_parallelism = parallelism;
  auto m = engine.Materialize(universe, options);
  EXPECT_TRUE(m.ok()) << m.status().ToString();
  return std::move(m).value();
}

ReferenceMaterialization MaterializeReference(const ViewEngine& engine,
                                              const Value& universe) {
  auto m = ReferenceMaterialize(engine.rules(), universe);
  EXPECT_TRUE(m.ok()) << m.status().ToString();
  return std::move(m).value();
}

// The differential check: the reference is the oracle; semi-naive serial
// and semi-naive 4-way must agree with it on the universe and the derived
// relations. facts_derived is intentionally *not* compared — skipping
// re-derivations is the whole point of the delta strategy.
void ExpectStrategiesAgree(const ViewEngine& engine, const Value& universe,
                           const std::string& context) {
  ReferenceMaterialization reference = MaterializeReference(engine, universe);
  Materialized serial = MaterializeWith(engine, universe, 1);
  Materialized parallel = MaterializeWith(engine, universe, 4);

  EXPECT_EQ(reference.universe, serial.universe)
      << context << ": reference vs semi-naive universes differ";
  EXPECT_EQ(reference.derived_paths, serial.derived_paths)
      << context << ": reference vs semi-naive derived paths differ";
  // The batch absorber claims to absorb into exactly the element the
  // reference's scan picks, so not just the universe but the number of
  // universe-changing writes must match.
  EXPECT_EQ(reference.changes, serial.changes) << context;
  EXPECT_EQ(serial.universe, parallel.universe)
      << context << ": serial vs parallel semi-naive universes differ";
  EXPECT_EQ(serial.derived_paths, parallel.derived_paths)
      << context << ": serial vs parallel derived paths differ";
  // The write phase is sequential in rule order, so parallelism must not
  // even change the counters.
  EXPECT_EQ(serial.changes, parallel.changes) << context;
  EXPECT_EQ(serial.facts_derived, parallel.facts_derived) << context;
  EXPECT_EQ(serial.delta_size, parallel.delta_size) << context;
}

TEST(DifferentialEngine, PaperViewProgram) {
  PaperUniverse paper = MakePaperUniverse();
  ViewEngine engine = BuildEngine(PaperViewRules());
  ExpectStrategiesAgree(engine, paper.universe, "paper program");
}

TEST(DifferentialEngine, PaperViewProgramWithNameMappings) {
  PaperUniverse paper = MakePaperUniverse(/*with_name_mappings=*/true);
  ViewEngine engine = BuildEngine(PaperViewRules(/*with_name_mappings=*/true));
  ExpectStrategiesAgree(engine, paper.universe, "paper program + mappings");
}

TEST(DifferentialEngine, DiscrepancyAndReconciliation) {
  PaperUniverse paper = MakePaperUniverse();
  // chwab disagrees with euter about hp on 3/3/85 (as in views_test V4).
  Value* chwab_r =
      paper.universe.MutableField("chwab")->MutableField("r");
  ASSERT_NE(chwab_r, nullptr);
  Value* row = nullptr;
  for (size_t i = 0; i < chwab_r->SetSize(); ++i) {
    Value* e = chwab_r->MutableElement(i);
    const Value* hp = e->FindField("hp");
    if (hp != nullptr && *hp == Value::Int(50)) row = e;
  }
  ASSERT_NE(row, nullptr);
  row->SetField("hp", Value::Int(51));
  chwab_r->RehashSet();

  std::vector<std::string> rules = PaperViewRules();
  rules.push_back(
      ".dbI.pnew(.date=D, .stk=S, .clsPrice=P) <- "
      ".dbI.p(.date=D, .stk=S, .clsPrice=P), "
      ".dbI.p!(.date=D, .stk=S, .clsPrice<P)");
  ViewEngine engine = BuildEngine(rules);
  ExpectStrategiesAgree(engine, paper.universe, "discrepancy + pnew");
}

// The batch absorber keys a head relation on all of its constrained,
// constant-named attributes together. Each universe below seeds the head
// relation `db.p` with rows that fall outside the plain keyed bucket — a
// key field absent, null, a Real where the fact carries an Int, a tuple,
// a null element, rows with attributes the rules never write — and feeds it
// facts that include §6's discrepancy (one date and stock, two prices). The
// batch absorber must pick exactly the element the reference's scan picks.
TEST(DifferentialEngine, CompositeAbsorbKeyEdgeRows) {
  const std::vector<std::string> head_rows = {
      "(date: 1, stk: a)",                       // key field absent
      "(date: 1, stk: b, clsPrice: null)",       // key field null
      "(date: 2, stk: a, clsPrice: 5.0)",        // Real 5.0 vs Int 5
      "(date: (y: 2), stk: a, clsPrice: 5)",     // key field holds a tuple
      "null",                                    // null element
      "(date: 3, stk: c, clsPrice: 7, note: x)", // extra attribute
      "(date: 3, stk: d, note: y)",              // extra + absent key field
  };
  const std::string src =
      "{(date: 1, stk: a, px: 10), (date: 1, stk: b, px: 20),"
      " (date: 2, stk: a, px: 5), (date: 2, stk: a, px: 6),"
      " (date: 3, stk: c, px: 7), (date: 3, stk: d, px: 8),"
      " (date: 4, stk: e, px: null), (date: 4, stk: f, px: 9.5),"
      " (date: (y: 2), stk: g, px: 1)}";
  const std::vector<std::vector<std::string>> rule_sets = {
      // Writes into the base relation, keyed on (date, stk, clsPrice).
      {".db.p(.date=D, .stk=S, .clsPrice=P) <- .db.src(.date=D, .stk=S, "
       ".px=P)"},
      // Two rules with different key sets alternate on one relation.
      {".db.p(.date=D, .stk=S) <- .db.src(.date=D, .stk=S)",
       ".db.p(.date=D, .stk=S, .clsPrice=P) <- .db.src(.date=D, .stk=S, "
       ".px=P)"},
      // chwab's shape: keyed on `date` only, one attribute per stock.
      {".db.p(.date=D, .S=P) <- .db.src(.date=D, .stk=S, .px=P)"},
  };
  // No head rows, then every rotation of them: each edge row is met both
  // as the first candidate and behind the others.
  for (size_t start = 0; start <= head_rows.size(); ++start) {
    std::string p = "{";
    for (size_t i = 0; start > 0 && i < head_rows.size(); ++i) {
      if (i > 0) p += ", ";
      p += head_rows[(start + i) % head_rows.size()];
    }
    p += "}";
    auto universe = ParseValue("(db: (src: " + src + ", p: " + p + "))");
    ASSERT_TRUE(universe.ok()) << universe.status().ToString();
    for (size_t r = 0; r < rule_sets.size(); ++r) {
      ExpectStrategiesAgree(BuildEngine(rule_sets[r]), *universe,
                            "head rows " + p + ", rule set " +
                                std::to_string(r));
    }
  }
}

// Transitive closure over a chain: the classic workload where semi-naive
// evaluation pays off (the naive engine replays the whole closure each
// pass).
Value ChainUniverse(int length) {
  Value edges = Value::EmptySet();
  for (int i = 1; i < length; ++i) {
    Value e = Value::EmptyTuple();
    e.SetField("from", Value::Int(i));
    e.SetField("to", Value::Int(i + 1));
    edges.Insert(std::move(e));
  }
  Value d = Value::EmptyTuple();
  d.SetField("edge", std::move(edges));
  Value universe = Value::EmptyTuple();
  universe.SetField("d", std::move(d));
  return universe;
}

std::vector<std::string> TcRules() {
  return {
      ".d.tc(.from=X, .to=Y) <- .d.edge(.from=X, .to=Y)",
      ".d.tc(.from=X, .to=Z) <- .d.tc(.from=X, .to=Y), "
      ".d.edge(.from=Y, .to=Z)",
  };
}

TEST(DifferentialEngine, TransitiveClosureChain) {
  ViewEngine engine = BuildEngine(TcRules());
  for (int length : {2, 5, 12}) {
    Value universe = ChainUniverse(length);
    ExpectStrategiesAgree(engine, universe,
                          "tc chain length " + std::to_string(length));
    // Sanity: the closure really is the full triangle.
    Materialized m = MaterializeWith(engine, universe, 1);
    auto q = ParseQuery("?.d.tc(.from=X, .to=Y)");
    ASSERT_TRUE(q.ok());
    auto a = EvaluateQuery(m.universe, *q);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a->rows.size(),
              static_cast<size_t>(length * (length - 1) / 2));
  }
}

TEST(DifferentialEngine, TransitiveClosureRandomGraphs) {
  ViewEngine engine = BuildEngine(TcRules());
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    // Deterministic LCG so the graphs are stable across platforms.
    uint64_t state = seed * 0x9E3779B97F4A7C15ull + 1;
    auto next = [&state]() {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      return static_cast<uint32_t>(state >> 33);
    };
    const int nodes = 8;
    Value edges = Value::EmptySet();
    for (int i = 0; i < 14; ++i) {
      Value e = Value::EmptyTuple();
      e.SetField("from", Value::Int(static_cast<int>(next() % nodes)));
      e.SetField("to", Value::Int(static_cast<int>(next() % nodes)));
      edges.Insert(std::move(e));
    }
    Value d = Value::EmptyTuple();
    d.SetField("edge", std::move(edges));
    Value universe = Value::EmptyTuple();
    universe.SetField("d", std::move(d));
    ExpectStrategiesAgree(engine, universe,
                          "tc random graph seed " + std::to_string(seed));
  }
}

// ~50 seeded random stock universes sweeping the workload knobs: size,
// seed, value discrepancies, name discrepancies (which switch the rule set
// to the mapping joins).
TEST(DifferentialEngine, RandomStockUniverses) {
  int case_index = 0;
  for (uint64_t seed = 1; seed <= 13; ++seed) {
    for (bool name_discrepancies : {false, true}) {
      for (double discrepancy_rate : {0.0, 0.25}) {
        StockWorkloadConfig config;
        config.num_stocks = 1 + seed % 5;
        config.num_days = 2 + (seed * 3) % 4;
        config.seed = seed;
        config.discrepancy_rate = discrepancy_rate;
        config.name_discrepancies = name_discrepancies;
        StockWorkload w = GenerateStockWorkload(config);
        Value universe = BuildStockUniverse(w);
        ViewEngine engine = BuildEngine(PaperViewRules(name_discrepancies));
        ExpectStrategiesAgree(
            engine, universe,
            "stock universe case " + std::to_string(case_index));
        ++case_index;
      }
    }
  }
  EXPECT_GE(case_index, 50);
}

// The delta machinery is actually engaged: on a recursive workload the
// semi-naive engine records pass deltas and skips re-derivations the
// reference's naive fixpoint performs, and the per-stratum stats expose it.
TEST(DifferentialEngine, SemiNaiveSkipsReDerivations) {
  ViewEngine engine = BuildEngine(TcRules());
  Value universe = ChainUniverse(16);

  ReferenceMaterialization naive = MaterializeReference(engine, universe);
  Materialized semi = MaterializeWith(engine, universe, 1);

  EXPECT_EQ(naive.universe, semi.universe);
  EXPECT_GT(semi.delta_size, 0u);
  EXPECT_GT(semi.substitutions_skipped, 0u);
  // The oracle re-derives every closure fact every pass; the delta engine
  // must do strictly less total derivation work.
  EXPECT_LT(semi.facts_derived, naive.facts_derived);

  ASSERT_FALSE(semi.stratum_stats.empty());
  uint64_t total_subs = 0;
  for (const auto& row : semi.stratum_stats) total_subs += row.substitutions;
  EXPECT_EQ(total_subs, semi.facts_derived);
  std::string explain = semi.Explain();
  EXPECT_NE(explain.find("stratum"), std::string::npos) << explain;
  EXPECT_NE(explain.find("skipped"), std::string::npos) << explain;
}

// Parallelism must be invisible in the result, whatever the width.
TEST(DifferentialEngine, ParallelismWidthInvariance) {
  StockWorkloadConfig config;
  config.num_stocks = 6;
  config.num_days = 8;
  config.seed = 7;
  config.discrepancy_rate = 0.2;
  StockWorkload w = GenerateStockWorkload(config);
  Value universe = BuildStockUniverse(w);
  ViewEngine engine = BuildEngine(PaperViewRules());

  Materialized reference = MaterializeWith(engine, universe, 1);
  for (size_t parallelism : {0, 2, 3, 8}) {
    Materialized m = MaterializeWith(engine, universe, parallelism);
    EXPECT_EQ(reference.universe, m.universe) << "width " << parallelism;
    EXPECT_EQ(reference.derived_paths, m.derived_paths)
        << "width " << parallelism;
    EXPECT_EQ(reference.changes, m.changes) << "width " << parallelism;
  }
}

}  // namespace
}  // namespace idl
