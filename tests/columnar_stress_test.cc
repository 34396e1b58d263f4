// Concurrency stressors for the columnar substrate (re-run by the TSan CI
// leg via the `stress` label):
//  - many reader threads share one ColumnarRelation and race the lazy
//    ProbeEq index build while others Filter / CellValue / ToNested;
//  - concurrent readers evaluate columnar-substrate queries against one
//    shared epoch store while further epochs are published, sharing pages;
//  - readers race the first page and equality-index build in one epoch
//    set's cache slot while a commit publishes copies that share the slot.
// Every thread checks its answers against a serially precomputed oracle, so
// this is a correctness test too, not just a data-race canary.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "eval/query.h"
#include "object/value.h"
#include "relational/columnar.h"
#include "syntax/parser.h"

namespace idl {
namespace {

Value Row(std::initializer_list<std::pair<std::string, Value>> fields) {
  Value t = Value::EmptyTuple();
  for (const auto& [name, value] : fields) t.SetField(name, value);
  return t;
}

Value BigRelation(int rows) {
  Value set = Value::EmptySet();
  for (int i = 0; i < rows; ++i) {
    set.Insert(Row({{"k", Value::Int(i % 17)},
                    {"s", Value::String("sym" + std::to_string(i % 7))},
                    {"x", Value::Real(double(i) / 4.0)},
                    {"row", Value::Int(i)}}));
  }
  return set;
}

TEST(ColumnarStress, ConcurrentReadersShareOnePage) {
  const int kRows = 800;
  const int kThreads = 8;
  const int kIters = 60;
  Value set = BigRelation(kRows);
  auto rel = ColumnarRelation::FromSet(set);
  ASSERT_NE(rel, nullptr);
  const int k = rel->FindColumn("k");
  const int s = rel->FindColumn("s");
  const int x = rel->FindColumn("x");
  ASSERT_TRUE(k >= 0 && s >= 0 && x >= 0);

  // Serial oracle answers, computed before any thread touches the page.
  // (Filter on a fresh relation so the probe index of `rel` is still unbuilt
  // when the threads race EnsureIndex.)
  auto oracle_rel = ColumnarRelation::FromSet(set);
  std::vector<std::vector<uint32_t>> probe_oracle(17);
  for (int key = 0; key < 17; ++key) {
    std::vector<uint32_t> sel;
    oracle_rel->AllRows(&sel);
    oracle_rel->Filter(size_t(k), RelOp::kEq, Value::Int(key), &sel);
    probe_oracle[key] = std::move(sel);
  }
  std::vector<uint32_t> x_oracle;
  oracle_rel->AllRows(&x_oracle);
  oracle_rel->Filter(size_t(x), RelOp::kGt, Value::Real(100.0), &x_oracle);
  const Value nested_oracle = oracle_rel->ToNested();

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int iter = 0; iter < kIters; ++iter) {
        switch ((t + iter) % 4) {
          case 0: {  // races the lazy index build
            int key = (t * 31 + iter) % 17;
            std::vector<uint32_t> rows;
            rel->ProbeEq(size_t(k), Value::Int(key), &rows);
            if (rows != probe_oracle[key]) ++failures;
            break;
          }
          case 1: {  // string probe (second index column, same race)
            std::vector<uint32_t> rows;
            rel->ProbeEq(size_t(s), Value::String("sym3"), &rows);
            std::vector<uint32_t> scan;
            rel->AllRows(&scan);
            rel->Filter(size_t(s), RelOp::kEq, Value::String("sym3"), &scan);
            if (rows != scan) ++failures;
            break;
          }
          case 2: {  // pure scans next to index builds
            std::vector<uint32_t> sel;
            rel->AllRows(&sel);
            rel->Filter(size_t(x), RelOp::kGt, Value::Real(100.0), &sel);
            if (sel != x_oracle) ++failures;
            break;
          }
          case 3: {  // materialization next to everything else
            if (!(rel->CellValue(size_t(s), uint32_t(t * 13 % kRows))
                      .is_string())) {
              ++failures;
            }
            if (iter % 20 == 0 && !(rel->ToNested() == nested_oracle)) {
              ++failures;
            }
            break;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ColumnarStress, ConcurrentQueriesOverSharedStorePages) {
  // One universe, one store; readers run columnar-substrate queries on the
  // pages the store attached to the universe's sets, concurrently with new
  // stores building against it (the epoch publication pattern: pages
  // shared, never copied).
  Value universe = Value::EmptyTuple();
  Value db = Value::EmptyTuple();
  db.SetField("p", BigRelation(400));
  universe.SetField("d", std::move(db));

  auto store = ColumnarStore::Build(universe, nullptr);
  ASSERT_NE(store, nullptr);
  ASSERT_EQ(store->pages(), 1u);

  auto query = ParseQuery("?.d.p(.k=3, .s=S, .row=R)");
  ASSERT_TRUE(query.ok());
  EvalOptions options;
  auto oracle = EvaluateQuery(universe, *query, options, nullptr, nullptr);
  ASSERT_TRUE(oracle.ok());
  ASSERT_GT(oracle->rows.size(), 0u);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      for (int iter = 0; iter < 25; ++iter) {
        auto answer = EvaluateQuery(universe, *query, options, nullptr,
                                    nullptr);
        if (!answer.ok() || answer->rows != oracle->rows) ++failures;
      }
    });
  }
  // Publisher thread: keeps building next-epoch stores that share the
  // unchanged page with `store` (refcount churn under the readers).
  threads.emplace_back([&] {
    for (int iter = 0; iter < 25; ++iter) {
      auto next = ColumnarStore::Build(universe, store.get());
      if (next == nullptr || next->shared_with_previous() != 1u) ++failures;
    }
  });
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ColumnarStress, ReadersRaceFirstPageAndIndexBuildWhileCommitPublishes) {
  // The epoch's relation `d.p` has neither a page nor an index yet. Eight
  // readers race to build both in its cache slot: a columnar query builds
  // the page (then its column index over `k`), and a query with an
  // element-level attribute variable keeps the matcher, which builds the
  // slot's index over `k`. Meanwhile a publisher does what every commit
  // does: copies the universe (the copy shares `d.p`'s slot), changes
  // another relation, caches the hashes and attaches pages
  // (ColumnarStore::Build), epoch after epoch.
  auto make_universe = [] {
    Value universe = Value::EmptyTuple();
    Value db = Value::EmptyTuple();
    db.SetField("p", BigRelation(400));
    db.SetField("w", BigRelation(40));
    universe.SetField("d", std::move(db));
    return universe;
  };
  auto epoch = std::make_shared<const Value>(make_universe());
  epoch->Hash();
  // An empty slot, so the publisher's copies share it with the readers.
  epoch->FindField("d")->FindField("p")->set_cache();

  auto vectorized = ParseQuery("?.d.p(.k=3, .s=S, .row=R)");
  auto matched = ParseQuery("?.d.p(.k=5, .A=V)");
  ASSERT_TRUE(vectorized.ok() && matched.ok());
  // Oracles from an equal universe with its own slots, so the race below
  // still finds `d.p`'s slot empty.
  const Value oracle_universe = make_universe();
  auto vectorized_oracle = EvaluateQuery(oracle_universe, *vectorized);
  auto matched_oracle = EvaluateQuery(oracle_universe, *matched);
  ASSERT_TRUE(vectorized_oracle.ok() && matched_oracle.ok());
  ASSERT_GT(vectorized_oracle->rows.size(), 0u);
  ASSERT_GT(matched_oracle->rows.size(), 0u);

  constexpr int kReaders = 8;
  std::atomic<int> failures{0};
  std::atomic<int> ready{0};
  std::vector<EvalStats> stats(kReaders);
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      ++ready;
      while (ready.load() < kReaders + 1) std::this_thread::yield();
      for (int iter = 0; iter < 20; ++iter) {
        const bool vector_first = (t + iter) % 2 == 0;
        for (int q = 0; q < 2; ++q) {
          const bool vector = (q == 0) == vector_first;
          auto answer = EvaluateQuery(*epoch, vector ? *vectorized : *matched,
                                      EvalOptions(), &stats[t]);
          const Answer& oracle = vector ? *vectorized_oracle : *matched_oracle;
          if (!answer.ok() || answer->rows != oracle.rows) ++failures;
        }
      }
    });
  }
  threads.emplace_back([&] {
    ++ready;
    while (ready.load() < kReaders + 1) std::this_thread::yield();
    std::shared_ptr<const Value> current = epoch;
    std::shared_ptr<const ColumnarStore> store;
    for (int i = 0; i < 20; ++i) {
      auto next = std::make_shared<Value>(*current);
      next->MutableField("d")->MutableField("w")->Insert(
          Row({{"k", Value::Int(1000 + i)},
               {"s", Value::String("new")},
               {"x", Value::Real(0.5)},
               {"row", Value::Int(1000 + i)}}));
      next->Hash();
      auto next_store = ColumnarStore::Build(*next, store.get());
      if (next_store->pages() != 2u) ++failures;
      if (i > 0 && next_store->shared_with_previous() != 1u) ++failures;
      current = std::move(next);
      store = std::move(next_store);
    }
  });
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  // One slot, so each index was built exactly once across all readers: the
  // matcher's over `k` and the page's column index over `k`.
  uint64_t indexes_built = 0;
  for (const EvalStats& s : stats) indexes_built += s.indexes_built;
  EXPECT_EQ(indexes_built, 2u);
}

}  // namespace
}  // namespace idl
