// Incremental view maintenance vs full rematerialization (views/engine.h
// ApplyDelta, docs/INCREMENTAL.md) on interleaved update/query traces.
//
// Each iteration is one trace step against a live Session: an update
// request lands in euter, then a query reads the unified view. The
// _Incremental legs let the session propagate the update's delta into its
// retained materialization (insertions semi-naively, deletions by
// delete-and-rederive); the _Rematerialize legs keep the rules out of the
// session and run a from-scratch ViewEngine::Materialize of its base per
// request — so the ratio of the two /N timings is the maintenance speedup
// at N stocks.
//
// Two trace shapes:
//  - AppendTrace/*: fresh quotes only (the stock-ticker workload) — the
//    pure-insertion fast path, where maintenance cost tracks the delta,
//    not the universe.
//  - ChurnTrace/*: three appends, then a deletion — the deletion routes
//    through delete-and-rederive, which for this rule stack re-derives
//    every affected stratum, so churn measures the blended win.
//
// The rule stack is the paper's unified view dbI.p plus the dbE and dbO
// customized views (dbO with a higher-order relation-name head). dbC's
// higher-order *attribute* head is deliberately absent: its absorb-fold is
// order-dependent, so insertions beneath it reroute through
// delete-and-rederive (see docs/INCREMENTAL.md) and would measure DRed
// twice.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "idl/session.h"
#include "object/date.h"
#include "views/engine.h"

namespace {

using idl::StockWorkload;

std::vector<std::string> BenchViewRules() {
  return {
      ".dbI.p(.date=D, .stk=S, .clsPrice=P) <- "
      ".euter.r(.date=D, .stkCode=S, .clsPrice=P)",
      ".dbI.p(.date=D, .stk=S, .clsPrice=P) <- "
      ".chwab.r(.date=D, .S=P), S != date",
      ".dbI.p(.date=D, .stk=S, .clsPrice=P) <- "
      ".ource.S(.date=D, .clsPrice=P)",
      ".dbE.r(.date=D, .stkCode=S, .clsPrice=P) <- "
      ".dbI.p(.date=D, .stk=S, .clsPrice=P)",
      ".dbO.S(.date=D, .clsPrice=P) <- .dbI.p(.date=D, .stk=S, .clsPrice=P)",
  };
}

constexpr char kUnifiedQuery[] = "?.dbI.p(.stk=S, .clsPrice>450)";

struct TraceSession {
  idl::Session session;
  // With `rebuild`, the rules live here instead of in the session, and
  // every query first materializes the session's base from scratch.
  bool rebuild = false;
  idl::ViewEngine engine;
  const idl::Query unified_query = idl_bench::MustQuery(kUnifiedQuery);
  std::vector<std::string> stocks;
  int64_t next_day = 0;
  uint64_t step = 0;

  void SetUp(size_t stocks_count, bool rebuild_views) {
    rebuild = rebuild_views;
    StockWorkload w = idl_bench::MakeWorkload(stocks_count, 30);
    IDL_BENCH_CHECK(session.RegisterDatabase(BuildEuterDatabase(w)).ok());
    IDL_BENCH_CHECK(session.RegisterDatabase(BuildChwabDatabase(w)).ok());
    IDL_BENCH_CHECK(session.RegisterDatabase(BuildOurceDatabase(w)).ok());
    if (rebuild) {
      for (const std::string& text : BenchViewRules()) {
        auto rule = idl::ParseRule(text);
        IDL_BENCH_CHECK(rule.ok());
        IDL_BENCH_CHECK(engine.AddRule(std::move(rule).value()).ok());
      }
    } else {
      IDL_BENCH_CHECK(session.DefineRules(BenchViewRules()).ok());
      IDL_BENCH_CHECK(session.universe().ok());  // initial materialization
    }
    stocks = w.stocks;
    next_day = w.dates.back().DayNumber() + 1;
  }

  // One fresh quote: a brand-new trading day for a round-robin stock.
  std::string AppendRequest() {
    const std::string& stk = stocks[step % stocks.size()];
    std::string date = idl::Date::FromDayNumber(next_day++).ToString();
    return "?.euter.r+(.date=" + date + ",.stkCode=" + stk +
           ",.clsPrice=" + std::to_string(100 + step % 400) + ")";
  }

  // Retract the oldest remaining appended quote (one row: appended days
  // carry exactly one stock each).
  std::string DeleteRequest(int64_t day) {
    return "?.euter.r-(.date=" + idl::Date::FromDayNumber(day).ToString() +
           ")";
  }

  void Apply(const std::string& request) {
    auto r = session.Update(request);
    IDL_BENCH_CHECK(r.ok());
  }

  size_t QueryUnifiedView() {
    ++step;
    if (rebuild) {
      auto m = engine.Materialize(session.base_universe());
      IDL_BENCH_CHECK(m.ok());
      auto a = idl::EvaluateQuery(m->universe, unified_query);
      IDL_BENCH_CHECK(a.ok());
      return a->rows.size();
    }
    auto a = session.Query(kUnifiedQuery);
    IDL_BENCH_CHECK(a.ok());
    return a->rows.size();
  }

  void ReportMaintenance(benchmark::State& state) const {
    if (rebuild) return;
    const idl::Materialized* m = session.last_materialization();
    IDL_BENCH_CHECK(m != nullptr);
    state.counters["deltas"] =
        static_cast<double>(m->maintenance.deltas_applied);
    state.counters["fallbacks"] =
        static_cast<double>(m->maintenance.fallbacks);
    state.counters["strata_skipped"] =
        static_cast<double>(m->maintenance.strata_skipped);
  }
};

void AppendTrace(benchmark::State& state, bool rebuild) {
  TraceSession t;
  t.SetUp(static_cast<size_t>(state.range(0)), rebuild);
  size_t rows = 0;
  for (auto _ : state) {
    t.Apply(t.AppendRequest());
    rows += t.QueryUnifiedView();
  }
  benchmark::DoNotOptimize(rows);
  t.ReportMaintenance(state);
}

void BM_AppendTrace_Incremental(benchmark::State& state) {
  AppendTrace(state, /*rebuild=*/false);
}
void BM_AppendTrace_Rematerialize(benchmark::State& state) {
  AppendTrace(state, /*rebuild=*/true);
}
BENCHMARK(BM_AppendTrace_Incremental)->Arg(100)->Arg(1000);
BENCHMARK(BM_AppendTrace_Rematerialize)->Arg(100)->Arg(1000);

void ChurnTrace(benchmark::State& state, bool rebuild) {
  TraceSession t;
  t.SetUp(static_cast<size_t>(state.range(0)), rebuild);
  int64_t oldest_appended = t.next_day;
  size_t rows = 0;
  for (auto _ : state) {
    if (t.step % 4 == 3 && oldest_appended < t.next_day) {
      t.Apply(t.DeleteRequest(oldest_appended++));
    } else {
      t.Apply(t.AppendRequest());
    }
    rows += t.QueryUnifiedView();
  }
  benchmark::DoNotOptimize(rows);
  t.ReportMaintenance(state);
}

void BM_ChurnTrace_Incremental(benchmark::State& state) {
  ChurnTrace(state, /*rebuild=*/false);
}
void BM_ChurnTrace_Rematerialize(benchmark::State& state) {
  ChurnTrace(state, /*rebuild=*/true);
}
BENCHMARK(BM_ChurnTrace_Incremental)->Arg(100)->Arg(1000);
BENCHMARK(BM_ChurnTrace_Rematerialize)->Arg(100)->Arg(1000);

}  // namespace

IDL_BENCH_MAIN()
