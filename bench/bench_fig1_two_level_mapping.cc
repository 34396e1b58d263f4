// F1 — Figure 1 end to end: lift the three substrate relational databases
// into the universe, define the unified view U and the customized views
// D'_i, materialize, and verify the round-trip equivalences (dbE == euter,
// dbC == chwab, dbO == ource). This is the paper's architecture diagram as
// a single measured pipeline.

#include <benchmark/benchmark.h>

#include <string>
#include <utility>

#include "bench/bench_util.h"
#include "reference/reference.h"
#include "views/engine.h"

namespace {

using idl_bench::MakeWorkload;

// The round-trip equivalences of Figure 1's customized views.
void CheckRoundTrips(const idl::Value& universe) {
  IDL_BENCH_CHECK(*universe.FindField("dbE")->FindField("r") ==
                  *universe.FindField("euter")->FindField("r"));
  IDL_BENCH_CHECK(*universe.FindField("dbC")->FindField("r") ==
                  *universe.FindField("chwab")->FindField("r"));
  IDL_BENCH_CHECK(*universe.FindField("dbO") == *universe.FindField("ource"));
}

// `nested` materializes with the test-only reference evaluator
// (tests/reference/reference.h) instead of the session's engine: the naive
// fixpoint, tuple-at-a-time matching with the matcher's equality indexes at
// the library's 32-element threshold, and scan-only head writes.
void RunPipeline(benchmark::State& state, bool nested) {
  size_t stocks = state.range(0);
  size_t days = state.range(1);
  idl::StockWorkload w = MakeWorkload(stocks, days);
  idl::RelationalDatabase euter = BuildEuterDatabase(w);
  idl::RelationalDatabase chwab = BuildChwabDatabase(w);
  idl::RelationalDatabase ource = BuildOurceDatabase(w);

  for (auto _ : state) {
    idl::Session session;
    IDL_BENCH_CHECK(session.RegisterDatabase(euter).ok());
    IDL_BENCH_CHECK(session.RegisterDatabase(chwab).ok());
    IDL_BENCH_CHECK(session.RegisterDatabase(ource).ok());
    if (nested) {
      auto rules = idl::ParseRuleTexts(idl::PaperViewRules());
      IDL_BENCH_CHECK(rules.ok());
      auto m = idl::ReferenceMaterialize(*rules, session.base_universe(),
                                         nullptr,
                                         idl::EvalOptions().index_min_set_size);
      IDL_BENCH_CHECK(m.ok());
      CheckRoundTrips(m->universe);
      continue;
    }
    IDL_BENCH_CHECK(session.DefineRules(idl::PaperViewRules()).ok());
    auto u = session.universe();
    IDL_BENCH_CHECK(u.ok());
    CheckRoundTrips(**u);
  }
  state.counters["base_facts"] = static_cast<double>(stocks * days);
  state.counters["facts_per_sec"] = benchmark::Counter(
      static_cast<double>(stocks * days),
      benchmark::Counter::kIsIterationInvariantRate);
}

void BM_Fig1_Pipeline(benchmark::State& state) {
  RunPipeline(state, /*nested=*/false);
}
BENCHMARK(BM_Fig1_Pipeline)
    ->Args({3, 4})    // the paper's toy scale
    ->Args({8, 20})
    ->Args({16, 40})
    ->Unit(benchmark::kMillisecond);

// The same pipeline on the tuple-at-a-time reference. CI's release bench
// smoke asserts the library's 16/40 point is >= 3.25x faster
// (docs/COLUMNAR.md).
void BM_Fig1_Pipeline_Nested(benchmark::State& state) {
  RunPipeline(state, /*nested=*/true);
}
BENCHMARK(BM_Fig1_Pipeline_Nested)
    ->Args({3, 4})
    ->Args({8, 20})
    ->Args({16, 40})
    ->Unit(benchmark::kMillisecond);

// Materialization alone — the six views over an already-built universe,
// serial — at two sizes 8x apart in facts. Head
// writes dominate it, so the size pair shows how the batch absorber scales:
// CI's release bench smoke asserts time(128/250) <= 15x time(16/250).
void BM_Fig1_Materialize(benchmark::State& state) {
  idl::StockWorkload w = MakeWorkload(state.range(0), state.range(1));
  idl::Value universe = idl::BuildStockUniverse(w);
  idl::ViewEngine engine;
  for (const std::string& text : idl::PaperViewRules()) {
    auto rule = idl::ParseRule(text);
    IDL_BENCH_CHECK(rule.ok());
    IDL_BENCH_CHECK(engine.AddRule(std::move(rule).value()).ok());
  }
  idl::EvalOptions options;
  options.materialize_parallelism = 1;
  for (auto _ : state) {
    auto m = engine.Materialize(universe, options);
    IDL_BENCH_CHECK(m.ok());
    benchmark::DoNotOptimize(m->universe);
    state.PauseTiming();  // freeing the result is not materialization
    m = idl::Materialized();
    state.ResumeTiming();
  }
  state.counters["base_facts"] =
      static_cast<double>(state.range(0) * state.range(1));
}
BENCHMARK(BM_Fig1_Materialize)
    ->Args({16, 250})   // 4 000 base facts
    ->Args({128, 250})  // 32 000 base facts
    ->Unit(benchmark::kMillisecond);

}  // namespace

IDL_BENCH_MAIN()
