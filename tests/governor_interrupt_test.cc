// Interrupt-injection harness for the resource governor (common/governor.h).
//
// Three layers of coverage:
//  * unit tests for the governor itself: deadline, cancel token, budget
//    charges, sticky aborts, parent chaining;
//  * injection sweeps: cancel a query / an update request at the Nth
//    governor checkpoint for growing N and assert after every abort that
//    the base universe is bit-identical (structural hash) to its
//    pre-request state — strong exception safety at every interrupt point;
//  * concurrent cancellation from another thread (exercised under TSan by
//    the `stress` CI leg) and divergent programs that must terminate with
//    kResourceExhausted / kDeadlineExceeded instead of hanging.

#include "common/governor.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/str_util.h"
#include "idl/session.h"
#include "object/builder.h"
#include "object/value.h"
#include "reference/reference.h"
#include "workload/paper_universe.h"

namespace idl {
namespace {

// ---------------------------------------------------------------------------
// Governor unit tests

TEST(GovernorTest, UnlimitedGovernorNeverAborts) {
  ResourceGovernor g;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(g.Checkpoint().ok());
  }
  EXPECT_TRUE(g.ChargePass().ok());
  EXPECT_TRUE(g.ChargeDerivations(1000).ok());
  EXPECT_TRUE(g.ChargeCells(1000).ok());
  EXPECT_FALSE(g.cancelled());
  EXPECT_EQ(g.RemainingMs(), -1);
  GovernorUsage usage = g.Usage();
  EXPECT_EQ(usage.checkpoints, 103u);  // each Charge* implies a checkpoint
  EXPECT_EQ(usage.passes, 1);
  EXPECT_EQ(usage.derivations, 1000u);
  EXPECT_EQ(usage.peak_cells, 1000u);
  EXPECT_EQ(usage.abort_reason, "");
}

TEST(GovernorTest, CancelFiresAtNextCheckpointAndIsSticky) {
  CancelHandle handle;
  ResourceGovernor g((GovernorLimits()), handle);
  EXPECT_TRUE(g.Checkpoint().ok());
  handle.Cancel();
  EXPECT_TRUE(g.cancelled());
  Status st = g.Checkpoint();
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  // Sticky: resetting the handle cannot resurrect an aborted request.
  handle.Reset();
  EXPECT_EQ(g.Checkpoint().code(), StatusCode::kCancelled);
  EXPECT_EQ(g.ChargePass().code(), StatusCode::kCancelled);
  EXPECT_NE(g.Usage().abort_reason.find("cancelled"), std::string::npos);
}

TEST(GovernorTest, InjectionSeamsReportCancelled) {
  GovernorLimits limits;
  limits.cancel_at_checkpoint = 3;
  ResourceGovernor g(limits);
  EXPECT_TRUE(g.Checkpoint().ok());
  EXPECT_TRUE(g.Checkpoint().ok());
  Status st = g.Checkpoint();
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_NE(st.message().find("injected at checkpoint 3"), std::string::npos);
}

TEST(GovernorTest, DeadlineFiresAndRemainingMsReachesZero) {
  GovernorLimits limits;
  limits.deadline_ms = 1;
  ResourceGovernor g(limits);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(g.RemainingMs(), 0);
  Status st = g.Checkpoint();  // checkpoint #1 always consults the clock
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(st.message().find("deadline_ms=1"), std::string::npos);
}

TEST(GovernorTest, BudgetsAbortWithResourceExhausted) {
  GovernorLimits limits;
  limits.max_passes = 2;
  ResourceGovernor passes(limits);
  EXPECT_TRUE(passes.ChargePass().ok());
  EXPECT_TRUE(passes.ChargePass().ok());
  Status st = passes.ChargePass();
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(st.message().find("max_passes=2"), std::string::npos);
  // Sticky across checkpoint kinds.
  EXPECT_EQ(passes.Checkpoint().code(), StatusCode::kResourceExhausted);

  GovernorLimits dlimits;
  dlimits.max_derivations = 10;
  ResourceGovernor derivations(dlimits);
  EXPECT_TRUE(derivations.ChargeDerivations(7).ok());
  EXPECT_EQ(derivations.ChargeDerivations(4).code(),
            StatusCode::kResourceExhausted);

  GovernorLimits climits;
  climits.max_universe_cells = 100;
  ResourceGovernor cells(climits);
  EXPECT_TRUE(cells.ChargeCells(100).ok());
  EXPECT_EQ(cells.ChargeCells(1).code(), StatusCode::kResourceExhausted);
}

TEST(GovernorTest, ParentChainPropagatesCancelAndDeadline) {
  CancelHandle handle;
  GovernorLimits parent_limits;
  parent_limits.deadline_ms = 10000;
  ResourceGovernor parent(parent_limits, handle);
  ResourceGovernor child((GovernorLimits()), CancelHandle(), &parent);

  // The child has no deadline of its own, but inherits the parent's
  // remaining headroom.
  int64_t remaining = child.RemainingMs();
  EXPECT_GE(remaining, 0);
  EXPECT_LE(remaining, 10000);

  EXPECT_TRUE(child.Checkpoint().ok());
  handle.Cancel();
  EXPECT_TRUE(child.cancelled());
  EXPECT_EQ(child.Checkpoint().code(), StatusCode::kCancelled);
  // Sticky on the child even after the parent's handle resets.
  handle.Reset();
  EXPECT_EQ(child.Checkpoint().code(), StatusCode::kCancelled);
}

// ---------------------------------------------------------------------------
// Session-level fixtures

// A per-stock next-day chain (succ.stkI holds edges d -> d+1) plus the
// higher-order transitive-closure rules: a recursive workload with a
// multi-pass fixpoint, so governor checkpoints fire in every layer.
Value ChainDatabase(int stocks, int edges) {
  Value succ = Value::EmptyTuple();
  for (int s = 0; s < stocks; ++s) {
    Value rel = Value::EmptySet();
    for (int d = 0; d < edges; ++d) {
      rel.Insert(
          MakeTuple({{"from", Value::Int(d)}, {"to", Value::Int(d + 1)}}));
    }
    succ.SetField(StrCat("stk", s), std::move(rel));
  }
  return succ;
}

const std::vector<std::string>& ReachRules() {
  static const auto& kRules = *new std::vector<std::string>{
      ".reach.S(.from=X, .to=Y) <- .succ.S(.from=X, .to=Y)",
      ".reach.S(.from=X, .to=Z) <- "
      ".reach.S(.from=X, .to=Y), .succ.S(.from=Y, .to=Z)",
  };
  return kRules;
}

void SetUpChainSession(Session* session, int stocks, int edges,
                       bool with_rules) {
  ASSERT_TRUE(
      session->RegisterDatabase("succ", ChainDatabase(stocks, edges)).ok());
  if (with_rules) {
    ASSERT_TRUE(session->DefineRules(ReachRules()).ok());
  }
}

// A session whose fixpoint never converges: every pass derives a counter
// fact one larger than the last.
void SetUpDivergentSession(Session* session, bool higher_order) {
  Value gen = Value::EmptyTuple();
  Value counter = Value::EmptySet();
  counter.Insert(MakeTuple({{"n", Value::Int(0)}}));
  gen.SetField("counter", std::move(counter));
  ASSERT_TRUE(session->RegisterDatabase("gen", std::move(gen)).ok());
  ASSERT_TRUE(
      session->DefineRule(".gen.counter(.n=N+1) <- .gen.counter(.n=N)").ok());
  if (higher_order) {
    // A higher-order head: the relation *name* comes from data, so every
    // counter value spreads into one relation per stock name — the
    // schema-diverging flavour the governor exists to stop.
    Value names = Value::EmptyTuple();
    Value rel = Value::EmptySet();
    for (const char* n : {"hp", "ibm", "key"}) {
      rel.Insert(MakeTuple({{"name", Value::String(n)}}));
    }
    names.SetField("r", std::move(rel));
    ASSERT_TRUE(session->RegisterDatabase("names", std::move(names)).ok());
    ASSERT_TRUE(
        session->DefineRule(".hi.S(.gen=N) <- .names.r(.name=S), "
                            ".gen.counter(.n=N)")
            .ok());
  }
}

// ---------------------------------------------------------------------------
// Injection sweeps: cancel at the Nth checkpoint, for growing N, and verify
// the base universe hash after every abort. The sweep walks every single
// checkpoint for the first 32, then strides geometrically until a run
// completes (i.e. the injection point lies beyond the request's total
// checkpoint count).

TEST(GovernorInterruptTest, QueryInjectionSweepLeavesBaseIntact) {
  Session session;
  SetUpChainSession(&session, /*stocks=*/2, /*edges=*/5, /*with_rules=*/true);
  const uint64_t base_hash = session.base_universe().Hash();

  EvalOptions options;
  bool completed = false;
  uint64_t cancelled_runs = 0;
  for (uint64_t k = 1; k < (1u << 24); k += 1 + k / 32) {
    // Re-materialize from scratch each attempt so the sweep covers the
    // fixpoint's checkpoints too, not only the final enumeration's.
    session.set_materialize_options(EvalOptions());
    options.cancel_at_checkpoint = k;
    auto r = session.Query("?.reach.S(.from=X, .to=Y)", options);
    if (r.ok()) {
      completed = true;
      EXPECT_GT(r->rows.size(), 0u);
      break;
    }
    ++cancelled_runs;
    ASSERT_EQ(r.status().code(), StatusCode::kCancelled)
        << r.status().ToString();
    ASSERT_EQ(session.base_universe().Hash(), base_hash)
        << "base universe mutated by a query cancelled at checkpoint " << k;
  }
  ASSERT_TRUE(completed) << "sweep never out-ran the request's checkpoints";
  EXPECT_GT(cancelled_runs, 10u);  // the sweep actually injected
  EXPECT_NE(session.last_governor().find("status=completed"),
            std::string::npos)
      << session.last_governor();
}

// The same sweep over the paper's own workload: the Figure-1 universe with
// the two-level dbI/dbE/dbC/dbO mapping exercises higher-order heads and
// name mappings, so the injected cancels land inside checkpoints the chain
// fixture never reaches.
TEST(GovernorInterruptTest, PaperCorpusInjectionSweepLeavesBaseIntact) {
  PaperUniverse paper = MakePaperUniverse(/*with_name_mappings=*/true);
  Session session;
  for (const auto& field : paper.universe.fields()) {
    ASSERT_TRUE(session.RegisterDatabase(field.name, field.value).ok());
  }
  ASSERT_TRUE(
      session.DefineRules(PaperViewRules(/*with_name_mappings=*/true)).ok());
  const uint64_t base_hash = session.base_universe().Hash();

  EvalOptions options;
  bool completed = false;
  uint64_t cancelled_runs = 0;
  for (uint64_t k = 1; k < (1u << 24); k += 1 + k / 32) {
    session.set_materialize_options(EvalOptions());
    options.cancel_at_checkpoint = k;
    auto r = session.Query("?.dbI.p(.stk=S, .clsPrice=P)", options);
    if (r.ok()) {
      completed = true;
      EXPECT_GT(r->rows.size(), 0u);
      break;
    }
    ++cancelled_runs;
    ASSERT_EQ(r.status().code(), StatusCode::kCancelled)
        << r.status().ToString();
    ASSERT_EQ(session.base_universe().Hash(), base_hash)
        << "paper universe mutated by a query cancelled at checkpoint " << k;
  }
  ASSERT_TRUE(completed) << "sweep never out-ran the request's checkpoints";
  EXPECT_GT(cancelled_runs, 10u);
}

TEST(GovernorInterruptTest, UpdateInjectionSweepRollsBack) {
  Session session;
  SetUpChainSession(&session, /*stocks=*/2, /*edges=*/5, /*with_rules=*/false);
  const uint64_t base_hash = session.base_universe().Hash();

  // Reads then writes: the pure-query conjunct binds F over stk0's edges,
  // the update conjunct inserts a shifted edge per binding, so an injected
  // cancel can land between individual writes — exactly where atomicity
  // matters.
  const std::string request =
      "?.succ.stk0(.from=F, .to=T), .succ.stk1+(.from=F+100, .to=T+100)";
  EvalOptions options;
  bool completed = false;
  uint64_t cancelled_runs = 0;
  for (uint64_t k = 1; k < (1u << 24); k += 1 + k / 32) {
    options.cancel_at_checkpoint = k;
    auto r = session.Update(request, options);
    if (r.ok()) {
      completed = true;
      EXPECT_EQ(r->counts.set_inserts, 5u);
      EXPECT_NE(session.base_universe().Hash(), base_hash);
      break;
    }
    ++cancelled_runs;
    ASSERT_EQ(r.status().code(), StatusCode::kCancelled)
        << r.status().ToString();
    ASSERT_EQ(session.base_universe().Hash(), base_hash)
        << "update cancelled at checkpoint " << k << " left partial writes";
  }
  ASSERT_TRUE(completed);
  EXPECT_GT(cancelled_runs, 5u);
}

// ---------------------------------------------------------------------------
// Concurrent cancellation (the `stress` leg runs this under TSan): a second
// thread flips the session's cancel token at staggered offsets while a
// governed query materializes a multi-pass fixpoint on pool workers.

TEST(GovernorInterruptTest, ConcurrentCancelIsCleanAndRollsBack) {
  Session session;
  SetUpChainSession(&session, /*stocks=*/16, /*edges=*/24,
                    /*with_rules=*/true);
  CancelHandle handle = session.cancel_handle();
  const uint64_t base_hash = session.base_universe().Hash();

  for (int round = 0; round < 6; ++round) {
    handle.Reset();
    session.set_materialize_options(EvalOptions());  // force rematerialize
    std::thread canceller([&handle, round] {
      std::this_thread::sleep_for(std::chrono::microseconds(150 * round));
      handle.Cancel();
    });
    auto r = session.Query("?.reach.S(.from=X, .to=Y)");
    canceller.join();
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kCancelled)
          << r.status().ToString();
    }
    EXPECT_EQ(session.base_universe().Hash(), base_hash);
  }

  // A reset handle re-arms the session: the next request completes.
  handle.Reset();
  auto r = session.Query("?.reach.S(.from=X, .to=Y)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->rows.size(), 0u);
}

// ---------------------------------------------------------------------------
// Divergent programs terminate instead of hanging.

TEST(GovernorInterruptTest, DivergentFixpointExhaustsPassBudget) {
  Session session;
  SetUpDivergentSession(&session, /*higher_order=*/false);
  const uint64_t base_hash = session.base_universe().Hash();

  EvalOptions options;
  options.max_passes = 5;
  auto r = session.Query("?.gen.counter(.n=N)", options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("max_passes=5"), std::string::npos)
      << r.status().ToString();
  EXPECT_EQ(session.base_universe().Hash(), base_hash);
  EXPECT_NE(session.last_governor().find("status=resource exhausted"),
            std::string::npos)
      << session.last_governor();
}

TEST(GovernorInterruptTest, DivergentHigherOrderExhaustsDerivationBudget) {
  Session session;
  SetUpDivergentSession(&session, /*higher_order=*/true);

  EvalOptions options;
  options.max_derivations = 200;
  auto r = session.Query("?.hi.S(.gen=N)", options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("max_derivations=200"),
            std::string::npos)
      << r.status().ToString();
}

TEST(GovernorInterruptTest, DivergentFixpointExhaustsCellBudget) {
  Session session;
  SetUpDivergentSession(&session, /*higher_order=*/false);

  EvalOptions options;
  options.max_universe_cells = CountCells(session.base_universe()) + 64;
  auto r = session.Query("?.gen.counter(.n=N)", options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("max_universe_cells="),
            std::string::npos)
      << r.status().ToString();
}

TEST(GovernorInterruptTest, DivergentFixpointHitsDeadline) {
  Session session;
  SetUpDivergentSession(&session, /*higher_order=*/false);

  EvalOptions options;
  options.deadline_ms = 50;
  auto start = std::chrono::steady_clock::now();
  auto r = session.Query("?.gen.counter(.n=N)", options);
  auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
      << r.status().ToString();
  // Terminated promptly, not after minutes of divergence.
  EXPECT_LT(elapsed.count(), 30);
}

// The library's semi-naive fixpoint and the reference evaluator's naive one
// abort a divergent program with the *same* status text (messages carry
// configured limits, never live counters), which is what lets the golden
// corpus check a divergent demo script against the reference.
TEST(GovernorInterruptTest, AbortMessageIsStrategyIndependent) {
  Session session;
  SetUpDivergentSession(&session, /*higher_order=*/false);
  EvalOptions options;
  options.max_passes = 4;
  auto r = session.Query("?.gen.counter(.n=N)", options);
  ASSERT_FALSE(r.ok());

  auto rules = ParseRuleTexts(session.rule_texts());
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  ResourceGovernor governor(GovernorLimitsFrom(options));
  auto reference =
      ReferenceMaterialize(*rules, session.base_universe(), &governor);
  ASSERT_FALSE(reference.ok());
  EXPECT_EQ(r.status().ToString(), reference.status().ToString());
}

// A successful governed request reports its usage through both surfaces:
// Session::last_governor() and the materialization's Explain().
TEST(GovernorInterruptTest, GovernedSuccessReportsUsage) {
  Session session;
  SetUpChainSession(&session, /*stocks=*/2, /*edges=*/4, /*with_rules=*/true);

  EvalOptions options;
  options.max_passes = 100;
  auto r = session.Query("?.reach.S(.from=X, .to=Y)", options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  const std::string& line = session.last_governor();
  EXPECT_EQ(line.rfind("governor: passes=", 0), 0u) << line;
  EXPECT_NE(line.find("status=completed"), std::string::npos) << line;

  ASSERT_NE(session.last_materialization(), nullptr);
  std::string explain = session.last_materialization()->Explain();
  EXPECT_NE(explain.find("governor: passes="), std::string::npos) << explain;
  // The materialization inherited the request's unset-by-the-session pass
  // budget, ran the multi-pass fixpoint, and completed inside it.
  EXPECT_NE(explain.find("/100"), std::string::npos) << explain;
}

}  // namespace
}  // namespace idl
