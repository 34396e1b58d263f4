#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "durability/wal.h"
#include "idl/session.h"
#include "relational/adapter.h"
#include "workload/discrepancy_gen.h"
#include "workload/paper_universe.h"
#include "workload/stock_gen.h"

namespace perfbench {

using idl::Value;

// ---- Digests ----------------------------------------------------------------

namespace {

uint64_t RowsDigest(const std::vector<std::string>& columns,
                    const std::vector<std::vector<Value>>& rows) {
  Value set = Value::EmptySet();
  for (const auto& row : rows) {
    Value tuple = Value::EmptyTuple();
    for (size_t c = 0; c < columns.size() && c < row.size(); ++c) {
      tuple.SetField(columns[c], row[c]);
    }
    set.Insert(std::move(tuple));
  }
  return set.Hash();
}

// Writes a price in whole cents so that the query parser reads it back as
// the same Real (a fraction part keeps it from parsing as an Int).
std::string RealLiteral(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

}  // namespace

uint64_t AnswerDigest(const idl::Answer& answer) {
  return RowsDigest(answer.columns, answer.rows);
}

void RunResult::Fail(std::string what) {
  ++failed;
  if (errors.size() < 8) errors.push_back(std::move(what));
}

// ---- Generation ---------------------------------------------------------------

namespace {

Databases StockDatabases(const idl::StockWorkload& w) {
  Databases dbs;
  dbs.emplace_back("euter", idl::LiftDatabase(idl::BuildEuterDatabase(w)));
  dbs.emplace_back("chwab", idl::LiftDatabase(idl::BuildChwabDatabase(w)));
  dbs.emplace_back("ource", idl::LiftDatabase(idl::BuildOurceDatabase(w)));
  return dbs;
}

// fig1-query: Figure 1 at one trading year, read through the unified view
// dbI, the customized views dbE/dbC/dbO, and the component schemas.
Inputs Fig1Query(const Args& args) {
  Inputs in;
  in.name = "fig1-query";
  idl::StockWorkloadConfig config;
  config.num_stocks = 64;
  config.num_days = 250;
  config.seed = args.seed;
  auto w = std::make_shared<idl::StockWorkload>(
      idl::GenerateStockWorkload(config));
  in.build_databases = [w] { return StockDatabases(*w); };
  in.rules = idl::PaperViewRules();
  in.closed_readers = 3;
  in.setup_repetitions = 3;

  idl::Rng rng(args.seed * 0x9e3779b97f4a7c15ULL + 11);
  const size_t stocks = w->stocks.size(), days = w->dates.size();
  constexpr size_t kPool = 2048;
  for (size_t i = 0; i < kPool; ++i) {
    const size_t d = rng.Below(days);
    const std::string date = w->dates[d].ToString();
    const uint64_t kind = rng.Below(100);
    std::string text;
    std::vector<std::string> cols;
    std::vector<std::vector<Value>> rows;
    if (kind < 50) {
      // Point lookup of one closing price through one of three views.
      const size_t s = rng.Below(stocks);
      const std::string& stk = w->stocks[s];
      switch (rng.Below(3)) {
        case 0:
          text = idl::StrCat("?.dbI.p(.date=", date, ", .stk=", stk,
                             ", .clsPrice=P)");
          break;
        case 1:
          text = idl::StrCat("?.dbE.r(.date=", date, ", .stkCode=", stk,
                             ", .clsPrice=P)");
          break;
        default:
          text = idl::StrCat("?.dbC.r(.date=", date, ", .", stk, "=P)");
          break;
      }
      cols = {"P"};
      rows.push_back({Value::Real(w->price[s][d])});
    } else {
      // Scans bind stock names from metadata: chwab's attribute names,
      // dbO's or ource's relation names, or (the join) euter's data values
      // used as chwab attribute names.
      const double threshold =
          std::floor(w->price[rng.Below(stocks)][d]);
      const std::string x = idl::StrCat(static_cast<int64_t>(threshold));
      if (kind < 70) {
        text = idl::StrCat("?.chwab.r(.date=", date,
                           ", .S=P), S != date, P > ", x);
      } else if (kind < 85) {
        const char* db = rng.Below(2) == 0 ? "dbO" : "ource";
        text = idl::StrCat("?.", db, ".S(.date=", date,
                           ", .clsPrice=P), P > ", x);
      } else {
        text = idl::StrCat("?.euter.r(.date=", date,
                           ", .stkCode=S, .clsPrice=P), .chwab.r(.date=",
                           date, ", .S=P), P > ", x);
      }
      cols = {"S", "P"};
      for (size_t s = 0; s < stocks; ++s) {
        if (w->price[s][d] > threshold) {
          rows.push_back(
              {Value::String(w->stocks[s]), Value::Real(w->price[s][d])});
        }
      }
    }
    in.query_pool.push_back(std::move(text));
    in.query_digests.push_back(RowsDigest(cols, rows));
  }
  return in;
}

// fig1-ingest: a small Figure 1; three writers each correct the prices of
// their own stocks through the §7.1 programs (delete, then insert).
Inputs Fig1Ingest(const Args& args) {
  Inputs in;
  in.name = "fig1-ingest";
  idl::StockWorkloadConfig config;
  config.num_stocks = 8;
  config.num_days = 20;
  config.seed = args.seed;
  auto w = std::make_shared<idl::StockWorkload>(
      idl::GenerateStockWorkload(config));
  in.build_databases = [w] { return StockDatabases(*w); };
  in.rules = idl::PaperViewRules();
  in.programs = idl::PaperUpdatePrograms();
  in.setup_repetitions = 21;

  constexpr size_t kWriters = 3;
  // Far more than a run can commit: closed-loop writers never run dry.
  const size_t per_writer =
      static_cast<size_t>(args.seconds * 800.0 / kWriters) + 4 * kCheckpointEvery;
  idl::Rng rng(args.seed * 0x9e3779b97f4a7c15ULL + 23);
  in.writer_streams.resize(kWriters);
  for (size_t wr = 0; wr < kWriters; ++wr) {
    std::vector<size_t> owned;
    for (size_t s = wr; s < w->stocks.size(); s += kWriters) owned.push_back(s);
    auto& stream = in.writer_streams[wr];
    while (stream.size() < per_writer) {
      const size_t s = owned[rng.Below(owned.size())];
      const size_t d = rng.Below(w->dates.size());
      const std::string& stk = w->stocks[s];
      const std::string date = w->dates[d].ToString();
      const double price =
          std::round(w->price[s][d] * (0.9 + 0.2 * rng.NextDouble()) * 100.0) /
          100.0;
      stream.push_back(
          idl::StrCat("?.dbU.delStk(.stk=", stk, ", .date=", date, ")"));
      stream.push_back(idl::StrCat("?.dbU.insStk(.stk=", stk, ", .date=",
                                   date, ", .price=", RealLiteral(price),
                                   ")"));
    }
  }
  return in;
}

// The tenants-evolve read pool: .u.p per (tenant, entity), .roll per
// entity, .wide per tenant; kinds[q] says which.
enum class ReadKind { kUnified, kRoll, kWide };
struct ReadPool {
  std::vector<std::string> texts;
  std::vector<ReadKind> kinds;
  std::vector<std::string> tenant, entity;
};

ReadPool TenantReadPool(const idl::DiscrepancyUniverse& u) {
  ReadPool pool;
  auto add = [&](std::string text, ReadKind kind, std::string t,
                 std::string e) {
    pool.texts.push_back(std::move(text));
    pool.kinds.push_back(kind);
    pool.tenant.push_back(std::move(t));
    pool.entity.push_back(std::move(e));
  };
  for (const auto& t : u.tenants) {
    for (const auto& e : u.entities) {
      add(idl::StrCat("?.u.p(.tn=", t.name, ", .ent=", e,
                      ", .key=K, .val=V)"),
          ReadKind::kUnified, t.name, e);
    }
  }
  for (const auto& e : u.entities) {
    add(idl::StrCat("?.roll.", e, "(.tn=T, .key=K, .val=V)"), ReadKind::kRoll,
        "", e);
  }
  for (const auto& t : u.tenants) {
    add(idl::StrCat("?.wide.", t.name, "(.key=K, .E=V), E != key"),
        ReadKind::kWide, t.name, "");
  }
  return pool;
}

// Expected digest of every pool query against the generator's oracle
// relations (ExpectedUnified/Roll/Wide) of one state.
std::vector<uint64_t> PoolDigests(const ReadPool& pool, const Value& unified,
                                  const Value& roll, const Value& wide) {
  std::map<std::pair<std::string, std::string>,
           std::vector<std::vector<Value>>>
      by_cell;
  for (const Value& fact : unified.elements()) {
    by_cell[{fact.FindField("tn")->as_string(),
             fact.FindField("ent")->as_string()}]
        .push_back({*fact.FindField("key"), *fact.FindField("val")});
  }
  std::vector<uint64_t> digests;
  digests.reserve(pool.texts.size());
  for (size_t q = 0; q < pool.texts.size(); ++q) {
    std::vector<std::vector<Value>> rows;
    switch (pool.kinds[q]) {
      case ReadKind::kUnified: {
        auto it = by_cell.find({pool.tenant[q], pool.entity[q]});
        if (it != by_cell.end()) rows = it->second;
        digests.push_back(RowsDigest({"K", "V"}, rows));
        break;
      }
      case ReadKind::kRoll: {
        if (const Value* rel = roll.FindField(pool.entity[q])) {
          for (const Value& r : rel->elements()) {
            rows.push_back({*r.FindField("tn"), *r.FindField("key"),
                            *r.FindField("val")});
          }
        }
        digests.push_back(RowsDigest({"T", "K", "V"}, rows));
        break;
      }
      case ReadKind::kWide: {
        if (const Value* rel = wide.FindField(pool.tenant[q])) {
          for (const Value& r : rel->elements()) {
            const Value* key = r.FindField("key");
            for (const auto& field : r.fields()) {
              if (field.name == "key") continue;
              rows.push_back(
                  {*key, Value::String(field.name), field.value});
            }
          }
        }
        digests.push_back(RowsDigest({"K", "E", "V"}, rows));
        break;
      }
    }
  }
  return digests;
}

// tenants-evolve: 16 tenants whose schemas restyle mid-stream, replayed by
// one open-loop writer beside two open-loop readers on fresh epochs.
Inputs TenantsEvolve(const Args& args) {
  Inputs in;
  in.name = "tenants-evolve";
  idl::DiscrepancyConfig config;
  config.num_tenants = 16;
  config.num_entities = 8;
  config.num_keys = 8;
  config.seed = args.seed;
  config.customized_views = true;
  // Every style on the same number of tenants in every run, so that seeds
  // vary the facts and the trace but not the mix of rule shapes.
  config.mangle_rate = 0.0;
  config.pinned_styles = {
      idl::DiscrepancyStyle::kValue, idl::DiscrepancyStyle::kAttribute,
      idl::DiscrepancyStyle::kRelation, idl::DiscrepancyStyle::kNested};
  idl::DiscrepancyUniverse u = idl::GenerateDiscrepancyUniverse(config);
  auto initial = std::make_shared<idl::DiscrepancyUniverse>(u);
  in.build_databases = [initial] {
    Databases dbs;
    for (const auto& t : initial->tenants) {
      dbs.emplace_back(t.name, initial->BuildTenantDatabase(t));
    }
    return dbs;
  };
  in.rules = u.UnificationRules();
  in.setup_repetitions = 15;
  in.commit_rate = 12.0;
  in.open_readers = 2;
  in.read_rate = 100.0;

  ReadPool pool = TenantReadPool(u);
  in.read_pool = pool.texts;
  in.boundary_digests.push_back(PoolDigests(
      pool, u.ExpectedUnified(), u.ExpectedRoll(), u.ExpectedWide()));
  // One step at a time, so that only one step's oracle values are alive.
  // The window sends the requests due in it; the rest pads the WAL.
  const size_t window =
      static_cast<size_t>(std::ceil(in.commit_rate * args.seconds));
  uint64_t salt = 1;
  for (; in.trace_requests.size() < window; ++salt) {
    idl::EvolutionTrace trace = idl::GenerateEvolutionTrace(u, 1, salt);
    idl::EvolutionStep& step = trace.steps.front();
    in.boundary_digests.push_back(PoolDigests(
        pool, step.expected_unified, step.expected_roll, step.expected_wide));
    for (std::string& request : step.requests) {
      in.trace_requests.push_back(std::move(request));
      in.boundary_after.push_back(-1);
    }
    if (!step.requests.empty()) {
      in.boundary_after.back() =
          static_cast<int>(in.boundary_digests.size() - 1);
    }
  }
  // The WAL tail: single-fact upserts only (other drawn steps are undone),
  // so that recover_s replays requests of one kind in every run.
  in.tail_from = in.trace_requests.size();
  while (in.trace_requests.size() <
         in.tail_from + kCheckpointEvery + kWalTail) {
    idl::DiscrepancyUniverse before = u;
    idl::EvolutionTrace trace = idl::GenerateEvolutionTrace(u, 1, salt++);
    idl::EvolutionStep& step = trace.steps.front();
    if (step.description.find(": upsert ") == std::string::npos) {
      u = std::move(before);
      continue;
    }
    for (std::string& request : step.requests) {
      in.trace_requests.push_back(std::move(request));
      in.boundary_after.push_back(-1);
    }
  }
  return in;
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"fig1-query", "fig1-ingest", "tenants-evolve"};
}

Inputs GenerateInputs(const Args& args) {
  if (args.workload == "fig1-query") return Fig1Query(args);
  if (args.workload == "fig1-ingest") return Fig1Ingest(args);
  return TenantsEvolve(args);
}

namespace {

// Every server of a run: durable in `dir`, default EvalOptions apart from
// the worker count.
idl::ServerOptions BenchServerOptions(const std::string& dir) {
  idl::ServerOptions options;
  options.materialize.materialize_parallelism = kMaterializeParallelism;
  options.durability.dir = dir;
  options.durability.fsync = true;
  options.durability.checkpoint_every = kCheckpointEvery;
  return options;
}

// ---- The untraced run ---------------------------------------------------------

uint64_t CounterValue(const char* name) {
  return idl::MetricsRegistry::Global().counter(name)->value();
}

double HistogramMean(const char* name) {
  const idl::Histogram* h = idl::MetricsRegistry::Global().histogram(name);
  return h->count() == 0 ? 0.0 : h->sum() / static_cast<double>(h->count());
}

// Registers, defines and publishes; returns the server or null (after
// recording the failure).
std::unique_ptr<idl::Server> SetUp(const Inputs& inputs,
                                   const std::string& dir, double* seconds,
                                   RunResult* result) {
  RemoveTree(dir);
  if (!MakeDirs(dir)) {
    result->Fail("cannot create " + dir);
    return nullptr;
  }
  Databases dbs = inputs.build_databases();
  const Clock::time_point t0 = Clock::now();
  auto created = idl::Server::Create(BenchServerOptions(dir));
  if (!created.ok()) {
    result->Fail("create: " + created.status().ToString());
    return nullptr;
  }
  std::unique_ptr<idl::Server> server = std::move(created).value();
  idl::Status st;
  for (auto& [name, db] : dbs) {
    if (st.ok()) st = server->RegisterDatabase(name, std::move(db));
  }
  if (st.ok()) st = server->DefineRules(inputs.rules);
  for (const std::string& program : inputs.programs) {
    if (st.ok()) st = server->DefineProgram(program);
  }
  if (st.ok()) st = server->PublishedEpoch().status();
  *seconds = MsSince(t0) / 1000.0;
  if (!st.ok()) {
    result->Fail("setup: " + st.ToString());
    return nullptr;
  }
  return server;
}

Clock::time_point After(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

// What one client thread saw; merged into the RunResult after the join.
struct ClientLog {
  Samples latency;   // measured requests only
  Samples lateness;  // open loop: call time minus due time
  std::vector<Read> reads;
  std::vector<Ack> acks;
  uint64_t issued = 0;
  uint64_t reads_during_commit = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  Clock::time_point finished;

  void Fail(std::string what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(what));
  }
  void MergeInto(Samples* latencies, RunResult* result) {
    latencies->Append(latency);
    result->lateness.Append(lateness);
    result->reads.insert(result->reads.end(), reads.begin(), reads.end());
    result->acks.insert(result->acks.end(), acks.begin(), acks.end());
    result->attempted += issued;
    result->reads_during_commit += reads_during_commit;
    result->failed += failed;
    for (std::string& e : errors) {
      if (result->errors.size() < 8) result->errors.push_back(std::move(e));
    }
  }
};

// fig1-query: closed-loop readers, all pinned to the one published epoch.
// Each reader keeps its first kReplayReadsPerReader measured reads for the
// traced replay.
constexpr size_t kReplayReadsPerReader = 1000;

void RunClosedReaders(const Args& args, const Inputs& in, idl::Server* server,
                      RunResult* result) {
  const Clock::time_point warm_end =
      After(Clock::now(), std::min(1.0, 0.1 * args.seconds));
  const Clock::time_point end = After(warm_end, args.seconds);
  std::vector<ClientLog> logs(in.closed_readers);
  std::vector<std::thread> threads;
  for (size_t r = 0; r < logs.size(); ++r) {
    threads.emplace_back([&, r] {
      ClientLog& log = logs[r];
      auto session = server->Connect();
      if (!session.ok()) {
        log.Fail("connect: " + session.status().ToString());
        return;
      }
      const size_t pool = in.query_pool.size();
      for (size_t q = r * pool / logs.size();; q = (q + 1) % pool) {
        const Clock::time_point t0 = Clock::now();
        if (t0 >= end) break;
        auto answer = session->Query(in.query_pool[q]);
        const Clock::time_point t1 = Clock::now();
        ++log.issued;
        if (!answer.ok()) {
          log.Fail(in.query_pool[q] + ": " + answer.status().ToString());
          continue;
        }
        const uint64_t digest = AnswerDigest(*answer);
        if (digest != in.query_digests[q]) {
          log.Fail("wrong answer: " + in.query_pool[q]);
        }
        if (t0 < warm_end) continue;
        log.latency.Add(MsBetween(t0, t1));
        if (log.reads.size() < kReplayReadsPerReader) {
          log.reads.push_back(
              {session->epoch_id(), static_cast<uint32_t>(q), digest});
        }
      }
      log.finished = Clock::now();
    });
  }
  for (auto& t : threads) t.join();
  Clock::time_point last = end;
  for (ClientLog& log : logs) {
    log.MergeInto(&result->queries, result);
    last = std::max(last, log.finished);
  }
  result->window_s = MsBetween(warm_end, last) / 1000.0;
}

// fig1-ingest: closed-loop writers over disjoint stocks. next[w] ends as
// the index of writer w's first unsent request.
void RunClosedWriters(const Args& args, const Inputs& in, idl::Server* server,
                      RunResult* result, std::vector<size_t>* next) {
  const Clock::time_point warm_end =
      After(Clock::now(), std::min(1.0, 0.1 * args.seconds));
  const Clock::time_point end = After(warm_end, args.seconds);
  std::vector<ClientLog> logs(in.writer_streams.size());
  next->assign(logs.size(), 0);
  std::vector<std::thread> threads;
  for (size_t w = 0; w < logs.size(); ++w) {
    threads.emplace_back([&, w] {
      ClientLog& log = logs[w];
      const auto& stream = in.writer_streams[w];
      for (size_t& i = (*next)[w]; i < stream.size(); ++i) {
        const Clock::time_point t0 = Clock::now();
        if (t0 >= end) break;
        auto committed = server->Commit(stream[i]);
        const Clock::time_point t1 = Clock::now();
        ++log.issued;
        if (!committed.ok()) {
          log.Fail(stream[i] + ": " + committed.status().ToString());
          continue;
        }
        log.acks.push_back(
            {committed->epoch->id, &stream[i], static_cast<int>(w)});
        if (t0 >= warm_end) log.latency.Add(MsBetween(t0, t1));
      }
      log.finished = Clock::now();
    });
  }
  // The write-byte count covers the measured window only.
  std::this_thread::sleep_until(warm_end);
  const uint64_t bytes_before = ProcessWriteBytes();
  for (auto& t : threads) t.join();
  const uint64_t bytes_after = ProcessWriteBytes();
  Clock::time_point last = end;
  for (ClientLog& log : logs) {
    log.MergeInto(&result->commits, result);
    last = std::max(last, log.finished);
  }
  result->window_s = MsBetween(warm_end, last) / 1000.0;
  if (result->commits.count() > 0) {
    result->write_bytes_per_commit =
        static_cast<double>(bytes_after - bytes_before) /
        static_cast<double>(result->commits.count());
  }
}

// tenants-evolve: one open-loop writer replaying the evolution trace and
// open-loop readers that refresh to the newest epoch before every read.
// Latencies are timed from each request's due time. *next_request ends as
// the index of the first unsent trace request.
void RunOpenLoop(const Args& args, const Inputs& in, idl::Server* server,
                 RunResult* result, size_t* next_request) {
  const Clock::time_point start = After(Clock::now(), 0.005);
  const Clock::time_point end = After(start, args.seconds);
  std::atomic<bool> in_commit{false};
  ClientLog writer_log;
  const uint64_t bytes_before = ProcessWriteBytes();
  std::thread writer([&] {
    size_t& i = *next_request;
    for (i = 0; i < in.tail_from; ++i) {
      const Clock::time_point due =
          After(start, static_cast<double>(i) / in.commit_rate);
      if (due >= end) break;
      std::this_thread::sleep_until(due);
      in_commit = true;
      writer_log.lateness.Add(MsSince(due));
      ++writer_log.issued;
      auto committed = server->Commit(in.trace_requests[i]);
      const Clock::time_point done = Clock::now();
      in_commit = false;
      if (!committed.ok()) {
        writer_log.Fail(in.trace_requests[i] + ": " +
                        committed.status().ToString());
        continue;
      }
      writer_log.acks.push_back(
          {committed->epoch->id, &in.trace_requests[i], 0});
      writer_log.latency.Add(MsBetween(due, done));
    }
    writer_log.finished = Clock::now();
  });

  std::vector<ClientLog> logs(in.open_readers);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < logs.size(); ++r) {
    readers.emplace_back([&, r] {
      ClientLog& log = logs[r];
      auto session = server->Connect();
      if (!session.ok()) {
        log.Fail("connect: " + session.status().ToString());
        return;
      }
      // Readers interleave: reader r is due at (k + (r + 1/2) / n) / rate.
      const double phase =
          (static_cast<double>(r) + 0.5) / static_cast<double>(logs.size());
      idl::Rng rng(args.seed * 1000003 + r);
      for (uint64_t k = 0;; ++k) {
        const Clock::time_point due =
            After(start, (static_cast<double>(k) + phase) / in.read_rate);
        if (due >= end) break;
        const auto q = static_cast<uint32_t>(rng.Below(in.read_pool.size()));
        std::this_thread::sleep_until(due);
        if (in_commit.load()) ++log.reads_during_commit;
        log.lateness.Add(MsSince(due));
        ++log.issued;
        idl::Status refreshed = session->Refresh();
        if (!refreshed.ok()) {
          log.Fail("refresh: " + refreshed.ToString());
          continue;
        }
        auto answer = session->Query(in.read_pool[q]);
        const Clock::time_point done = Clock::now();
        if (!answer.ok()) {
          log.Fail(in.read_pool[q] + ": " + answer.status().ToString());
          continue;
        }
        log.latency.Add(MsBetween(due, done));
        log.reads.push_back({session->epoch_id(), q, AnswerDigest(*answer)});
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  writer_log.MergeInto(&result->commits, result);
  for (ClientLog& log : logs) log.MergeInto(&result->queries, result);
  if (result->commits.count() > 0) {
    result->write_bytes_per_commit =
        static_cast<double>(ProcessWriteBytes() - bytes_before) /
        static_cast<double>(result->commits.count());
  }
  // From the first request's due time to the last commit's completion, so
  // that a writer falling behind its schedule lowers per_s.
  result->window_s = MsBetween(start, writer_log.finished) / 1000.0;
}

// Oracle check of open-loop reads that ran on an epoch at a step boundary.
void CheckBoundaryReads(const Inputs& in, RunResult* result) {
  for (const Read& rd : result->reads) {
    int boundary = -1;
    if (rd.epoch == result->base_epoch) {
      boundary = 0;
    } else {
      const uint64_t i = rd.epoch - result->base_epoch - 1;
      if (i < in.boundary_after.size()) boundary = in.boundary_after[i];
    }
    if (boundary < 0) continue;
    if (rd.digest != in.boundary_digests[boundary][rd.query]) {
      result->Fail(idl::StrCat("wrong answer at epoch ", rd.epoch, ": ",
                               in.read_pool[rd.query]));
    }
  }
}

size_t WalRecords(const std::string& dir) {
  auto wal = idl::ReadWal(dir + "/wal.log", /*repair_torn_tail=*/false);
  return wal.ok() ? wal->records.size() : 0;
}

// Ends a writing run on a fixed WAL tail: commits the stream up to
// `tail_from`, on to the next checkpoint, and then exactly kWalTail more
// records, so that recovery replays kWalTail requests of one kind.
bool PadWalTail(const std::string& dir, idl::Server* server,
                const std::vector<std::string>& stream, size_t tail_from,
                size_t* next, int writer, RunResult* result) {
  auto commit = [&]() {
    if (*next >= stream.size()) {
      result->Fail("request stream exhausted while padding the WAL");
      return false;
    }
    ++result->attempted;
    auto committed = server->Commit(stream[*next]);
    if (!committed.ok()) {
      result->Fail(stream[*next] + ": " + committed.status().ToString());
      return false;
    }
    result->acks.push_back({committed->epoch->id, &stream[*next], writer});
    ++*next;
    return true;
  };
  while (*next < tail_from) {
    if (!commit()) return false;
  }
  const size_t records = WalRecords(dir) % kCheckpointEvery;
  size_t need = (kCheckpointEvery - records) % kCheckpointEvery + kWalTail;
  for (; need > 0; --need) {
    if (!commit()) return false;
  }
  return true;
}

// A serial session that applies every acknowledged request — each
// writer's in its own order, writer after writer — with the rules defined
// afterwards, so that the views are materialized once from scratch.
void CheckSerial(const Inputs& in, RunResult* result) {
  idl::Session session;
  idl::EvalOptions options;
  options.materialize_parallelism = kMaterializeParallelism;
  session.set_materialize_options(options);
  idl::Status st;
  for (auto& [name, db] : in.build_databases()) {
    if (st.ok()) st = session.RegisterDatabase(name, std::move(db));
  }
  for (const std::string& program : in.programs) {
    if (st.ok()) st = session.DefineProgram(program);
  }
  std::vector<const Ack*> order;
  for (const Ack& a : result->acks) order.push_back(&a);
  std::stable_sort(order.begin(), order.end(), [](const Ack* a, const Ack* b) {
    return a->writer != b->writer ? a->writer < b->writer : a->epoch < b->epoch;
  });
  for (const Ack* a : order) {
    if (st.ok()) st = session.Update(*a->request).status();
  }
  if (st.ok()) st = session.DefineRules(in.rules);
  if (!st.ok()) {
    result->Fail("serial session: " + st.ToString());
    return;
  }
  auto serial = session.SnapshotUniverse();
  if (!serial.ok() || !(*serial == result->final_epoch->universe)) {
    result->Fail("final epoch differs from the serial session");
  }
}

// Runs `f` on a thread of its own and waits for it. Setups and recoveries
// run this way, so that like a freshly started server process they do not
// allocate from the heap arena that input generation and earlier
// repetitions fragmented.
template <typename F>
void OnOwnThread(F&& f) {
  std::thread(std::forward<F>(f)).join();
}

// Recovers the run's WAL directory; recovery must publish the final
// epoch's universe again.
void Recover(const std::string& dir, RunResult* result) {
  idl::RecoveryReport report;
  std::unique_ptr<idl::Server> recovered_server;
  idl::Status st;
  double s = 0.0;
  OnOwnThread([&] {
    const Clock::time_point t0 = Clock::now();
    auto recovered =
        idl::Server::Recover(BenchServerOptions(dir), &report);
    s = MsSince(t0) / 1000.0;
    if (recovered.ok()) {
      recovered_server = std::move(recovered).value();
    } else {
      st = recovered.status();
    }
  });
  ++result->attempted;
  if (!st.ok()) {
    result->Fail("recover: " + st.ToString());
    return;
  }
  result->recover_s = s;
  if (report.replayed_records > 0) {
    result->replay_ms_per_record =
        report.wall_ms / static_cast<double>(report.replayed_records);
  }
  // Recovery republishes, so its epoch id may run past the final
  // epoch's; its universe must be the final epoch's.
  auto epoch = recovered_server->PublishedEpoch();
  if (!epoch.ok() || (*epoch)->id < result->final_epoch->id) {
    result->Fail("recovery did not resume epoch numbering");
  } else if (!((*epoch)->universe == result->final_epoch->universe)) {
    result->Fail("recovered universe differs from the final epoch");
  }
}

}  // namespace

RunResult RunWorkload(const Args& args, const Inputs& in) {
  RunResult result;
  const std::string dir = args.work_dir + "/server";
  std::unique_ptr<idl::Server> server;
  for (int rep = 0; rep < in.setup_repetitions; ++rep) {
    server.reset();
    double seconds = 0.0;
    OnOwnThread([&] { server = SetUp(in, dir, &seconds, &result); });
    if (server == nullptr) return result;
    result.setup_s.push_back(seconds);
  }
  auto base = server->PublishedEpoch();
  result.base_epoch = (*base)->id;
  result.setup_tail = WalRecords(dir);

  idl::MetricsRegistry::Global().Reset();
  const uint64_t materializations = CounterValue("engine.materializations");
  std::vector<size_t> next;
  size_t next_request = 0;
  if (in.closed_readers > 0) {
    RunClosedReaders(args, in, server.get(), &result);
  } else if (!in.writer_streams.empty()) {
    RunClosedWriters(args, in, server.get(), &result, &next);
  } else {
    RunOpenLoop(args, in, server.get(), &result, &next_request);
  }
  result.commit_service_ms = HistogramMean("server.commit_ms");
  result.queue_wait_ms = HistogramMean("server.commit_queue_ms");
  result.dred = CounterValue("engine.deltas.delete_and_rederive");
  result.insert_propagated = CounterValue("engine.deltas.insert_propagated");

  if (!in.writer_streams.empty()) {
    PadWalTail(dir, server.get(), in.writer_streams[0], 0, &next[0], 0,
               &result);
  } else if (!in.trace_requests.empty()) {
    PadWalTail(dir, server.get(), in.trace_requests, in.tail_from,
               &next_request, 0, &result);
  }
  // A read-only run's tail is its setup records, the same in every run.
  result.wal_tail = WalRecords(dir);
  if (in.writes() && result.wal_tail != kWalTail) {
    result.Fail(idl::StrCat("wal tail is ", result.wal_tail, " records"));
  }
  result.fallbacks =
      CounterValue("engine.materializations") - materializations;
  result.peak_rss_mb = PeakRssMb();
  std::sort(result.acks.begin(), result.acks.end(),
            [](const Ack& a, const Ack& b) { return a.epoch < b.epoch; });

  auto final_epoch = server->PublishedEpoch();
  if (!final_epoch.ok()) {
    result.Fail("final epoch: " + final_epoch.status().ToString());
    return result;
  }
  result.final_epoch = *final_epoch;
  const uint64_t expected_final = result.base_epoch + result.acks.size();
  if (result.final_epoch->id != expected_final) {
    result.Fail(idl::StrCat("final epoch ", result.final_epoch->id,
                            " after ", result.acks.size(), " commits"));
  }
  server.reset();  // closes the WAL before recovery reads it

  ++result.attempted;
  if (result.fallbacks != 0) {
    result.Fail(idl::StrCat(result.fallbacks, " maintenance fallbacks"));
  }
  if (!in.trace_requests.empty()) CheckBoundaryReads(in, &result);
  if (in.writes()) {
    ++result.attempted;
    CheckSerial(in, &result);
  }
  Recover(dir, &result);
  return result;
}

}  // namespace perfbench
