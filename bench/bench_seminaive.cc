// Naive vs semi-naive fixpoint evaluation. The _Naive legs run the test-only
// reference evaluator's stratified naive fixpoint
// (tests/reference/reference.h); the _SemiNaive legs run the library's view
// engine (views/engine.h).
//
// Two workload families:
//  - PaperPipeline/*: the full Figure-1 rule stack (non-recursive) on
//    growing stock universes — both do one derivation pass per stratum, so
//    this measures the delta bookkeeping and absorb indexes against the
//    reference's scan-only writes on the workload where semi-naive
//    evaluation itself cannot win.
//  - DateChainTC/*: per-stock transitive closure over next-trading-day
//    chains (recursive) — the naive fixpoint re-derives the whole closure
//    every pass, the semi-naive engine only extends the frontier. This is
//    where the delta strategy earns its keep.
//
// The /parallel variants use materialize_parallelism=0 (auto); on a
// single-core host they measure the thread-pool overhead, not a speedup.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "reference/reference.h"
#include "views/engine.h"

namespace {

using idl::EvalOptions;
using idl::ParseRule;
using idl::Value;
using idl::ViewEngine;

ViewEngine EngineFor(const std::vector<std::string>& rule_texts) {
  ViewEngine engine;
  for (const auto& text : rule_texts) {
    auto r = ParseRule(text);
    IDL_BENCH_CHECK(r.ok());
    IDL_BENCH_CHECK(engine.AddRule(std::move(r).value()).ok());
  }
  return engine;
}

// Which evaluator a leg runs.
enum class Leg { kNaive, kSemiNaive, kSemiNaiveParallel };

void RunMaterialize(benchmark::State& state, const ViewEngine& engine,
                    const Value& universe, Leg leg) {
  EvalOptions options;
  options.materialize_parallelism = leg == Leg::kSemiNaiveParallel ? 0 : 1;
  uint64_t facts = 0;
  uint64_t skipped = 0;
  for (auto _ : state) {
    if (leg == Leg::kNaive) {
      auto m = idl::ReferenceMaterialize(engine.rules(), universe);
      IDL_BENCH_CHECK(m.ok());
      facts = m->facts_derived;
      benchmark::DoNotOptimize(m->universe);
      continue;
    }
    auto m = engine.Materialize(universe, options);
    IDL_BENCH_CHECK(m.ok());
    facts = m->facts_derived;
    skipped = m->substitutions_skipped;
    benchmark::DoNotOptimize(m->universe);
  }
  state.counters["facts"] = static_cast<double>(facts);
  state.counters["skipped"] = static_cast<double>(skipped);
}

// ---- Non-recursive: the paper pipeline on growing universes ----------------

void PaperPipeline(benchmark::State& state, Leg leg) {
  size_t stocks = static_cast<size_t>(state.range(0));
  idl::StockWorkload w = idl_bench::MakeWorkload(stocks, 30);
  Value universe = idl::BuildStockUniverse(w);
  ViewEngine engine = EngineFor(idl::PaperViewRules());
  RunMaterialize(state, engine, universe, leg);
}

void BM_PaperPipeline_Naive(benchmark::State& state) {
  PaperPipeline(state, Leg::kNaive);
}
void BM_PaperPipeline_SemiNaive(benchmark::State& state) {
  PaperPipeline(state, Leg::kSemiNaive);
}
void BM_PaperPipeline_SemiNaiveParallel(benchmark::State& state) {
  PaperPipeline(state, Leg::kSemiNaiveParallel);
}
BENCHMARK(BM_PaperPipeline_Naive)->Arg(10)->Arg(100)->Arg(400);
BENCHMARK(BM_PaperPipeline_SemiNaive)->Arg(10)->Arg(100)->Arg(400);
BENCHMARK(BM_PaperPipeline_SemiNaiveParallel)->Arg(10)->Arg(100)->Arg(400);

// ---- Recursive: reachability along each stock's trading-day chain ----------
//
// ource-style schematic shape: one base relation per stock (succ.<stk>)
// holding that stock's next-trading-day edges, and a higher-order closure
// rule deriving one reach.<stk> relation per stock. The fixpoint runs
// chain-length passes; the naive fixpoint re-derives every closure fact on
// every pass, the semi-naive engine only extends each stock's frontier.

Value ChainUniverse(size_t stocks, size_t days) {
  idl::StockWorkload w = idl_bench::MakeWorkload(stocks, days);
  Value succ = Value::EmptyTuple();
  for (size_t s = 0; s < w.stocks.size(); ++s) {
    Value rel = Value::EmptySet();
    for (size_t d = 0; d + 1 < w.dates.size(); ++d) {
      Value e = Value::EmptyTuple();
      e.SetField("from", Value::Of(w.dates[d]));
      e.SetField("to", Value::Of(w.dates[d + 1]));
      rel.Insert(std::move(e));
    }
    succ.SetField(w.stocks[s], std::move(rel));
  }
  Value universe = Value::EmptyTuple();
  universe.SetField("succ", std::move(succ));
  return universe;
}

const std::vector<std::string>& ReachRules() {
  static const auto& kRules = *new std::vector<std::string>{
      ".reach.S(.from=X, .to=Y) <- .succ.S(.from=X, .to=Y)",
      ".reach.S(.from=X, .to=Z) <- "
      ".reach.S(.from=X, .to=Y), .succ.S(.from=Y, .to=Z)",
  };
  return kRules;
}

void DateChainTC(benchmark::State& state, Leg leg) {
  size_t stocks = static_cast<size_t>(state.range(0));
  size_t days = static_cast<size_t>(state.range(1));
  Value universe = ChainUniverse(stocks, days);
  ViewEngine engine = EngineFor(ReachRules());
  RunMaterialize(state, engine, universe, leg);
}

void BM_DateChainTC_Naive(benchmark::State& state) {
  DateChainTC(state, Leg::kNaive);
}
void BM_DateChainTC_SemiNaive(benchmark::State& state) {
  DateChainTC(state, Leg::kSemiNaive);
}
void BM_DateChainTC_SemiNaiveParallel(benchmark::State& state) {
  DateChainTC(state, Leg::kSemiNaiveParallel);
}
#define TC_ARGS \
  Args({10, 16})->Args({100, 16})->Args({1000, 16})->Args({10, 64})
BENCHMARK(BM_DateChainTC_Naive)->TC_ARGS->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DateChainTC_SemiNaive)->TC_ARGS->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DateChainTC_SemiNaiveParallel)
    ->TC_ARGS->Unit(benchmark::kMillisecond);

}  // namespace

IDL_BENCH_MAIN()
