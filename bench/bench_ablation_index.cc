// Ablation: equality-index acceleration. Selections and joins over large
// relations probe a lazily-built hash index instead of scanning;
// higher-order enumeration is unaffected. Expected shape: the indexed join
// is ~O(rows) while the scan join is ~O(rows^2).

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "reference/reference.h"

namespace {

using idl_bench::MakeWorkload;
using idl_bench::MustQuery;

// `nested` runs the query on the test-only reference evaluator
// (tests/reference/reference.h) instead of the library: tuple-at-a-time
// matching with the matcher's per-attribute equality indexes at the
// library's 32-element threshold, and no vector kernels.
void RunWith(benchmark::State& state, const char* query_text,
             bool use_indexes, bool nested = false) {
  idl::StockWorkload w = MakeWorkload(10, state.range(0));
  idl::Value universe = BuildStockUniverse(w);
  idl::Query q = MustQuery(query_text);
  idl::EvalOptions options;
  options.use_indexes = use_indexes;
  idl::EvalStats stats;
  size_t result_rows = 0;
  for (auto _ : state) {
    auto a = nested ? idl::ReferenceQuery(universe, q, nullptr,
                                          options.index_min_set_size)
                    : EvaluateQuery(universe, q, options, &stats);
    IDL_BENCH_CHECK(a.ok());
    result_rows = a->rows.size();
    benchmark::DoNotOptimize(result_rows);
  }
  state.counters["rows"] = static_cast<double>(10 * state.range(0));
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(10 * state.range(0)),
      benchmark::Counter::kIsIterationInvariantRate);
  state.counters["scanned_per_iter"] =
      static_cast<double>(stats.set_elements_scanned) / state.iterations();
}

constexpr const char* kJoin =
    "?.euter.r(.stkCode=stk0,.clsPrice=P1,.date=D),"
    ".euter.r(.stkCode=stk1,.clsPrice=P2,.date=D)";

void BM_Join_Indexed(benchmark::State& state) { RunWith(state, kJoin, true); }
BENCHMARK(BM_Join_Indexed)->Arg(20)->Arg(60)->Arg(180)
    ->Unit(benchmark::kMicrosecond);

// The columnar ablation: the identical indexed join on the tuple-at-a-time
// reference. CI's release bench smoke asserts BM_Join_Indexed/180 is >= 3x
// faster than this leg (docs/COLUMNAR.md).
void BM_Join_Indexed_Nested(benchmark::State& state) {
  RunWith(state, kJoin, true, /*nested=*/true);
}
BENCHMARK(BM_Join_Indexed_Nested)->Arg(20)->Arg(60)->Arg(180)
    ->Unit(benchmark::kMicrosecond);

void BM_Join_Scan(benchmark::State& state) { RunWith(state, kJoin, false); }
BENCHMARK(BM_Join_Scan)->Arg(20)->Arg(60)->Arg(180)
    ->Unit(benchmark::kMicrosecond);

constexpr const char* kSelect =
    "?.euter.r(.stkCode=stk7, .clsPrice=P, .date=D)";

void BM_Select_Indexed(benchmark::State& state) {
  RunWith(state, kSelect, true);
}
BENCHMARK(BM_Select_Indexed)->Arg(20)->Arg(60)->Arg(180)
    ->Unit(benchmark::kMicrosecond);

void BM_Select_Indexed_Nested(benchmark::State& state) {
  RunWith(state, kSelect, true, /*nested=*/true);
}
BENCHMARK(BM_Select_Indexed_Nested)->Arg(20)->Arg(60)->Arg(180)
    ->Unit(benchmark::kMicrosecond);

void BM_Select_Scan(benchmark::State& state) {
  RunWith(state, kSelect, false);
}
BENCHMARK(BM_Select_Scan)->Arg(20)->Arg(60)->Arg(180)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

IDL_BENCH_MAIN()
