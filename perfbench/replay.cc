#include "replay.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

#include "common/governor.h"
#include "common/metrics.h"
#include "common/str_util.h"
#include "common/trace.h"
#include "durability/snapshot.h"
#include "durability/wal.h"
#include "eval/query.h"
#include "idl/session.h"
#include "object/value_io.h"
#include "relational/columnar.h"
#include "syntax/parser.h"

namespace perfbench {

namespace {

// The benchmark's spans: one root per replayed request, one child per call
// into a layer. Library spans nest under them when program tracing is on.
enum Layer {
  kUpdate,
  kWalAppend,
  kIvm,
  kSnapshot,
  kStoreBuild,
  kCheckpoint,
  kParse,
  kEval,
  kNumLayers
};
constexpr const char* kLayerSpan[kNumLayers] = {
    "bench.update",   "bench.wal_append",  "bench.ivm",
    "bench.snapshot", "bench.store_build", "bench.checkpoint",
    "bench.parse",    "bench.eval"};

struct OpRecord {
  bool commit = false;
  uint64_t root_span = 0;  // program-trace id of the root span (0: off)
  double total_ms = 0.0;
  double layer_ms[kNumLayers] = {};
};

// Times requests and their layer calls; with program tracing on, every
// span is also an idl::TraceSpan, so the program's own spans nest below.
class Recorder {
 public:
  explicit Recorder(bool tracing) : tracing_(tracing) {}

  void BeginOp(bool commit) {
    op_ = OpRecord();
    op_.commit = commit;
    if (tracing_) {
      root_.emplace(commit ? "bench.commit" : "bench.read");
      op_.root_span = idl::Trace::CurrentSpan();
    }
    start_ = Clock::now();
  }
  void EndOp() {
    op_.total_ms = MsSince(start_);
    root_.reset();
    ops_.push_back(op_);
  }
  template <typename F>
  auto Call(Layer layer, F&& f) {
    std::optional<idl::TraceSpan> span;
    if (tracing_) span.emplace(kLayerSpan[layer]);
    const Clock::time_point t0 = Clock::now();
    auto result = f();
    op_.layer_ms[layer] += MsSince(t0);
    return result;
  }
  const std::vector<OpRecord>& ops() const { return ops_; }

 private:
  bool tracing_;
  OpRecord op_;
  std::optional<idl::TraceSpan> root_;
  Clock::time_point start_;
  std::vector<OpRecord> ops_;
};

// What one replay pass measured.
struct Pass {
  std::vector<OpRecord> ops;
  double materialize_ms = 0.0;
  uint64_t commits = 0, reads = 0, checkpoints = 0;
  double snapshot_bytes = 0.0;  // summed over checkpoints
  uint64_t wal_bytes = 0;       // commit records only
  uint64_t writes = 0;          // UpdateCounts::Total over commits
  uint64_t cells = 0;           // CountCells over published snapshots
  uint64_t pages = 0, shared_pages = 0;
  idl::EvalStats read_stats;
  uint64_t answer_rows = 0;
  uint64_t dred = 0, insert_propagated = 0, rederived = 0;
  uint64_t fallbacks = 0;

  double Total(bool commit) const {
    double sum = 0.0;
    for (const OpRecord& op : ops) {
      if (op.commit == commit) sum += op.total_ms;
    }
    return sum;
  }
  double LayerTotal(Layer layer) const {
    double sum = 0.0;
    for (const OpRecord& op : ops) sum += op.layer_ms[layer];
    return sum;
  }
};

uint64_t CounterValue(const char* name) {
  return idl::MetricsRegistry::Global().counter(name)->value();
}

double Div(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

Pass RunPass(const Args& args, const Inputs& in, RunResult* run,
             bool tracing) {
  Pass pass;
  Recorder rec(tracing);
  const std::string dir =
      args.work_dir + (tracing ? "/replay-traced" : "/replay");
  RemoveTree(dir);
  MakeDirs(dir);
  auto fail = [&](std::string what) {
    run->Fail(idl::StrCat(tracing ? "traced " : "", "replay: ", what));
  };

  idl::WalOptions wal_options;
  wal_options.fsync = true;
  auto created = idl::Wal::Create(dir + "/wal.log", 1, wal_options);
  if (!created.ok()) {
    fail(created.status().ToString());
    return pass;
  }
  std::unique_ptr<idl::Wal> wal = std::move(created).value();
  idl::Session session;
  idl::EvalOptions materialize;
  materialize.materialize_parallelism = kMaterializeParallelism;
  session.set_materialize_options(materialize);

  // Checkpoint bookkeeping mirrors the server's: records count from the
  // first setup call, a due checkpoint runs after the call that filled it.
  size_t since_checkpoint = 0;
  uint64_t next_epoch = run->base_epoch;
  auto checkpoint = [&]() -> idl::Status {
    idl::SnapshotData data;
    data.last_lsn = wal->last_lsn();
    data.next_epoch_id = next_epoch;
    for (const std::string& name : session.database_names()) {
      const idl::Value* db = session.base_universe().FindField(name);
      if (db != nullptr) data.databases.emplace_back(name, idl::ToString(*db));
    }
    data.rules = session.rule_texts();
    data.programs = session.program_texts();
    idl::Status written = idl::WriteSnapshot(dir, data, wal_options);
    if (!written.ok()) return written;
    return wal->Reset();
  };
  idl::Status st;
  auto setup_call = [&](idl::Status s, idl::WalRecordType type,
                        std::string_view name, std::string_view body) {
    if (st.ok()) st = s;
    if (st.ok()) st = wal->Append(type, name, body, 0);
    if (st.ok()) ++since_checkpoint;
  };
  auto maybe_checkpoint = [&] {
    if (st.ok() && since_checkpoint >= kCheckpointEvery) {
      st = checkpoint();
      since_checkpoint = 0;
    }
  };
  for (auto& [name, db] : in.build_databases()) {
    const std::string literal = idl::ToString(db);
    setup_call(session.RegisterDatabase(name, std::move(db)),
               idl::WalRecordType::kRegisterDatabase, name, literal);
    maybe_checkpoint();
  }
  for (const std::string& rule : in.rules) {
    setup_call(session.DefineRule(rule), idl::WalRecordType::kDefineRule, "",
               rule);
  }
  maybe_checkpoint();
  for (const std::string& program : in.programs) {
    setup_call(session.DefineProgram(program),
               idl::WalRecordType::kDefineProgram, "", program);
    maybe_checkpoint();
  }
  if (!st.ok()) {
    fail("setup: " + st.ToString());
    return pass;
  }
  {
    std::optional<idl::TraceSpan> span;
    if (tracing) span.emplace("bench.materialize");
    const Clock::time_point t0 = Clock::now();
    auto u = session.universe();
    pass.materialize_ms = MsSince(t0);
    if (!u.ok()) {
      fail("materialize: " + u.status().ToString());
      return pass;
    }
  }
  auto first = session.SnapshotUniverse();
  if (!first.ok()) {
    fail("snapshot: " + first.status().ToString());
    return pass;
  }
  // Each epoch's store points into its universe, so both live on the heap
  // and the previous pair stays alive while the next store is built.
  auto universe = std::make_shared<const idl::Value>(std::move(first).value());
  auto store = idl::ColumnarStore::Build(*universe, nullptr);
  ++next_epoch;

  const uint64_t dred0 = CounterValue("engine.deltas.delete_and_rederive");
  const uint64_t ip0 = CounterValue("engine.deltas.insert_propagated");
  const uint64_t rederived0 = CounterValue("engine.maintenance_rederived");
  idl::Counter* wal_bytes = idl::MetricsRegistry::Global().counter("wal.bytes");

  // The recorded reads, in epoch order.
  std::vector<const Read*> reads;
  for (const Read& rd : run->reads) reads.push_back(&rd);
  std::stable_sort(reads.begin(), reads.end(), [](const Read* a, const Read* b) {
    return a->epoch < b->epoch;
  });
  const std::vector<std::string>& pool =
      in.query_pool.empty() ? in.read_pool : in.query_pool;

  size_t next_read = 0;
  auto replay_reads = [&](uint64_t epoch) {
    for (; next_read < reads.size() && reads[next_read]->epoch <= epoch;
         ++next_read) {
      const Read& rd = *reads[next_read];
      const std::string& text = pool[rd.query];
      rec.BeginOp(false);
      auto query = rec.Call(kParse, [&] { return idl::ParseQuery(text); });
      idl::Result<idl::Answer> answer = idl::Internal("not parsed");
      if (query.ok()) {
        answer = rec.Call(kEval, [&] {
          idl::EvalOptions options;
          options.columnar_store = store.get();
          idl::ResourceGovernor governor(idl::GovernorLimitsFrom(options));
          return idl::EvaluateQuery(*universe, *query, options,
                                    &pass.read_stats, &governor);
        });
      }
      rec.EndOp();
      ++pass.reads;
      if (!answer.ok()) {
        fail(text + ": " + answer.status().ToString());
      } else {
        pass.answer_rows += answer->rows.size();
        if (AnswerDigest(*answer) != rd.digest) {
          fail(idl::StrCat("answer differs from the server's at epoch ",
                           rd.epoch, ": ", text));
        }
      }
    }
  };

  // The closed-loop readers measured after a warm-up on their pinned epoch
  // (lazy column indexes built); the replay warms the same way.
  if (in.closed_readers > 0) {
    idl::EvalStats warm_stats;
    for (const Read* rd : reads) {
      auto query = idl::ParseQuery(pool[rd->query]);
      if (!query.ok()) continue;
      idl::EvalOptions options;
      options.columnar_store = store.get();
      (void)idl::EvaluateQuery(*universe, *query, options, &warm_stats);
    }
  }
  replay_reads(run->base_epoch);
  for (const Ack& ack : run->acks) {
    const std::string& text = *ack.request;
    rec.BeginOp(true);
    auto updated = rec.Call(kUpdate, [&] { return session.Update(text); });
    if (!updated.ok()) {
      rec.EndOp();
      fail(text + ": " + updated.status().ToString());
      return pass;
    }
    pass.writes += updated->counts.Total();
    const uint64_t bytes_before = wal_bytes->value();
    idl::Status appended = rec.Call(kWalAppend, [&] {
      return wal->Append(idl::WalRecordType::kCommit, "", text, next_epoch);
    });
    pass.wal_bytes += wal_bytes->value() - bytes_before;
    ++since_checkpoint;
    auto maintained = rec.Call(kIvm, [&] { return session.universe(); });
    auto snapshot =
        rec.Call(kSnapshot, [&] { return session.SnapshotUniverse(); });
    if (!appended.ok() || !maintained.ok() || !snapshot.ok()) {
      rec.EndOp();
      fail("commit failed after apply: " + text);
      return pass;
    }
    auto next_universe =
        std::make_shared<const idl::Value>(std::move(snapshot).value());
    auto next_store = rec.Call(kStoreBuild, [&] {
      return idl::ColumnarStore::Build(*next_universe, store.get());
    });
    if (since_checkpoint >= kCheckpointEvery) {
      idl::Status written =
          rec.Call(kCheckpoint, [&] { return checkpoint(); });
      since_checkpoint = 0;
      ++pass.checkpoints;
      if (!written.ok()) {
        rec.EndOp();
        fail("checkpoint: " + written.ToString());
        return pass;
      }
      auto latest = idl::FindLatestSnapshot(dir);
      if (latest.ok()) {
        pass.snapshot_bytes += static_cast<double>(FileSize(latest->path));
      }
    }
    rec.EndOp();
    ++pass.commits;
    ++next_epoch;
    pass.pages += next_store->pages();
    pass.shared_pages += next_store->shared_with_previous();
    pass.cells += idl::CountCells(*next_universe);
    universe = std::move(next_universe);
    store = std::move(next_store);
    replay_reads(ack.epoch);
  }

  pass.dred = CounterValue("engine.deltas.delete_and_rederive") - dred0;
  pass.insert_propagated =
      CounterValue("engine.deltas.insert_propagated") - ip0;
  pass.rederived = CounterValue("engine.maintenance_rederived") - rederived0;
  if (const idl::Materialized* m = session.last_materialization()) {
    pass.fallbacks = m->maintenance.fallbacks;
  }
  if (pass.fallbacks != 0) {
    fail(idl::StrCat(pass.fallbacks, " maintenance fallbacks"));
  }
  if (!(*universe == run->final_epoch->universe)) {
    fail("final universe differs from the server's final epoch");
  }
  pass.ops = rec.ops();
  RemoveTree(dir);
  return pass;
}

// From the program trace of the traced pass: the `parse` time inside
// Session::Update, program calls, and each commit's maintenance path.
struct TraceFacts {
  double update_parse_ms = 0.0;
  uint64_t program_calls = 0;
  std::unordered_map<uint64_t, std::string> path_of_root;
};

TraceFacts ReadTrace(const std::vector<idl::TraceSpanRecord>& spans) {
  TraceFacts facts;
  auto parent_of = [&](uint64_t id) {
    return id == 0 || id > spans.size() ? 0 : spans[id - 1].parent;
  };
  auto ancestor_named = [&](uint64_t id, const char* name) -> uint64_t {
    for (uint64_t p = parent_of(id); p != 0; p = parent_of(p)) {
      if (spans[p - 1].name == name) return p;
    }
    return 0;
  };
  for (const idl::TraceSpanRecord& s : spans) {
    if (s.name == "parse" && ancestor_named(s.id, "bench.update") != 0) {
      facts.update_parse_ms += s.wall_ms;
    } else if (s.name == "program.call") {
      ++facts.program_calls;
    } else if (s.name == "apply_delta") {
      uint64_t root = ancestor_named(s.id, "bench.commit");
      if (root != 0) facts.path_of_root[root] = s.detail;
    }
  }
  return facts;
}

// Tracing overhead as the median over requests of the traced pass's time
// relative to the same request untraced. Log appends and checkpoints are
// left out: their fsync time varies far more than tracing costs.
double OverheadPct(const Pass& off, const Pass& on) {
  std::vector<double> ratios;
  for (size_t i = 0; i < off.ops.size() && i < on.ops.size(); ++i) {
    auto cpu = [](const OpRecord& op) {
      return op.total_ms - op.layer_ms[kWalAppend] - op.layer_ms[kCheckpoint];
    };
    if (cpu(off.ops[i]) > 0.0) {
      ratios.push_back(cpu(on.ops[i]) / cpu(off.ops[i]) - 1.0);
    }
  }
  return 100.0 * MedianOf(ratios);
}

void PrintLine(const std::string& line) {
  std::printf("%s\n", line.c_str());
}

std::string Ms(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& LayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"syntax.parse_ms", "ms"},
      {"syntax.update_parse_ms", "ms"},
      {"eval.query_ms", "ms"},
      {"eval.scanned_per_row", "count"},
      {"eval.index_builds_per_query", "count"},
      {"eval.index_reuse_ratio", "ratio"},
      {"relational.store_build_ms", "ms"},
      {"relational.pages_shared_ratio", "ratio"},
      {"views.ivm_ms", "ms"},
      {"views.rederived_per_commit", "count"},
      {"views.dred_share", "ratio"},
      {"views.fallbacks", "count"},
      {"views.materialize_ms", "ms"},
      {"update.apply_ms", "ms"},
      {"update.writes_per_commit", "count"},
      {"programs.calls_per_commit", "count"},
      {"object.snapshot_ms", "ms"},
      {"object.cells_per_publish", "count"},
      {"durability.append_ms", "ms"},
      {"durability.checkpoint_ms", "ms"},
      {"durability.checkpoint_share", "ratio"},
      {"durability.snapshot_bytes", "B"},
      {"durability.wal_bytes_per_commit", "B"},
      {"durability.write_bytes_per_commit", "B"},
      {"durability.replay_ms_per_record", "ms"},
      {"server.queue_wait_ms", "ms"},
      {"server.commit_residual_ms", "ms"},
      {"server.query_residual_ms", "ms"},
      {"server.reads_during_commit_share", "ratio"},
      {"server.generator_late_ms", "ms"},
      {"replay.commit_ms", "ms"},
      {"replay.read_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return names;
}

void ReplayLayers(const Args& args, const Inputs& in, RunResult* run,
                  const std::string& trace_path,
                  std::map<std::string, Metric>* metrics) {
  // Each pass runs on a thread of its own, as the server's commit thread
  // and reader sessions do, rather than on the thread that generated the
  // inputs and ran the untraced workload.
  Pass off, on;
  idl::Trace::Disable();
  std::thread([&] { off = RunPass(args, in, run, /*tracing=*/false); }).join();
  idl::Trace::Enable();
  std::thread([&] { on = RunPass(args, in, run, /*tracing=*/true); }).join();
  idl::Trace::Disable();
  const std::vector<idl::TraceSpanRecord> spans = idl::Trace::Snapshot();
  {
    std::ofstream out(trace_path);
    out << idl::Trace::RenderJson();
  }
  idl::Trace::Clear();
  const TraceFacts facts = ReadTrace(spans);

  const double commits = static_cast<double>(on.commits);
  const double reads = static_cast<double>(on.reads);
  const double commit_total = on.Total(true), read_total = on.Total(false);
  auto per_commit = [&](Layer l) { return Div(on.LayerTotal(l), commits); };
  auto per_read = [&](Layer l) { return Div(on.LayerTotal(l), reads); };
  const uint64_t built = on.read_stats.indexes_built;
  const uint64_t reused = on.read_stats.indexes_reused;
  const double off_total = off.Total(true) + off.Total(false);
  const double on_total = commit_total + read_total;
  const double off_commit = Div(off.Total(true), commits);
  const double off_read = Div(off.Total(false), reads);

  std::map<std::string, double> v;
  v["syntax.parse_ms"] = per_read(kParse);
  v["syntax.update_parse_ms"] = Div(facts.update_parse_ms, commits);
  v["eval.query_ms"] = per_read(kEval);
  v["eval.scanned_per_row"] =
      Div(static_cast<double>(on.read_stats.set_elements_scanned),
          static_cast<double>(on.answer_rows));
  v["eval.index_builds_per_query"] = Div(static_cast<double>(built), reads);
  v["eval.index_reuse_ratio"] =
      Div(static_cast<double>(reused), static_cast<double>(built + reused));
  v["relational.store_build_ms"] = per_commit(kStoreBuild);
  v["relational.pages_shared_ratio"] =
      Div(static_cast<double>(on.shared_pages), static_cast<double>(on.pages));
  v["views.ivm_ms"] = per_commit(kIvm);
  v["views.rederived_per_commit"] =
      Div(static_cast<double>(on.rederived), commits);
  v["views.dred_share"] =
      Div(static_cast<double>(on.dred),
          static_cast<double>(on.dred + on.insert_propagated));
  v["views.fallbacks"] = static_cast<double>(on.fallbacks + run->fallbacks);
  v["views.materialize_ms"] = on.materialize_ms;
  v["update.apply_ms"] =
      Div(on.LayerTotal(kUpdate) - facts.update_parse_ms, commits);
  v["update.writes_per_commit"] = Div(static_cast<double>(on.writes), commits);
  v["programs.calls_per_commit"] =
      Div(static_cast<double>(facts.program_calls), commits);
  v["object.snapshot_ms"] = per_commit(kSnapshot);
  v["object.cells_per_publish"] = Div(static_cast<double>(on.cells), commits);
  v["durability.append_ms"] = per_commit(kWalAppend);
  v["durability.checkpoint_ms"] =
      Div(on.LayerTotal(kCheckpoint), static_cast<double>(on.checkpoints));
  v["durability.checkpoint_share"] =
      Div(static_cast<double>(on.checkpoints), commits);
  v["durability.snapshot_bytes"] =
      Div(on.snapshot_bytes, static_cast<double>(on.checkpoints));
  v["durability.wal_bytes_per_commit"] =
      Div(static_cast<double>(on.wal_bytes), commits);
  v["durability.write_bytes_per_commit"] = run->write_bytes_per_commit;
  v["durability.replay_ms_per_record"] = run->replay_ms_per_record;
  v["server.queue_wait_ms"] = run->queue_wait_ms;
  const double replay_commit = Div(commit_total, commits);
  const double replay_read = Div(read_total, reads);
  // Residuals are taken against the replay without program tracing, the
  // condition the untraced server ran in.
  v["server.commit_residual_ms"] =
      commits > 0 ? run->commit_service_ms - off_commit : 0.0;
  v["server.query_residual_ms"] =
      reads > 0 ? run->queries.Mean() - off_read : 0.0;
  v["server.reads_during_commit_share"] =
      Div(static_cast<double>(run->reads_during_commit),
          static_cast<double>(run->queries.count()));
  v["server.generator_late_ms"] =
      run->lateness.count() == 0
          ? 0.0
          : run->lateness.Percentile(run->lateness.Supports(0.99) ? 0.99
                                                                  : 1.0);
  v["replay.commit_ms"] = replay_commit;
  v["replay.read_ms"] = replay_read;
  v["trace.overhead_pct"] = OverheadPct(off, on);

  for (const auto& [name, unit] : LayerMetricNames()) {
    (*metrics)[name] = Metric{v[name], unit};
  }

  // The breakdown: layer self times add up to the replay's per-request
  // total; the remainder is the replay's own bookkeeping between calls.
  if (commits > 0) {
    double layers = 0.0;
    for (Layer l : {kUpdate, kWalAppend, kIvm, kSnapshot, kStoreBuild,
                    kCheckpoint}) {
      layers += per_commit(l);
    }
    PrintLine(idl::StrCat(
        "replay commit (", on.commits, "): parse ", Ms(v["syntax.update_parse_ms"]),
        " + update ", Ms(v["update.apply_ms"]), " + wal.append ",
        Ms(v["durability.append_ms"]), " + ivm ", Ms(v["views.ivm_ms"]),
        " + snapshot ", Ms(v["object.snapshot_ms"]), " + store_build ",
        Ms(v["relational.store_build_ms"]), " + checkpoint ",
        Ms(per_commit(kCheckpoint)), " + unattributed ",
        Ms(replay_commit - layers), " = ", Ms(replay_commit), " ms"));
    PrintLine(idl::StrCat("server commit service ", Ms(run->commit_service_ms),
                          " ms = replay without tracing ", Ms(off_commit),
                          " + residual ", Ms(v["server.commit_residual_ms"]),
                          "; queue wait ", Ms(run->queue_wait_ms), " ms"));
    std::map<std::string, std::pair<uint64_t, double>> by_path;
    for (const OpRecord& op : on.ops) {
      if (!op.commit) continue;
      auto it = facts.path_of_root.find(op.root_span);
      auto& slot = by_path[it == facts.path_of_root.end() ? "path=none"
                                                          : it->second];
      ++slot.first;
      slot.second += op.total_ms;
    }
    for (const auto& [path, slot] : by_path) {
      PrintLine(idl::StrCat("replay commits ", path, ": ", slot.first, " (",
                            Ms(100.0 * Div(slot.first, commits)),
                            "%), mean ", Ms(Div(slot.second, slot.first)),
                            " ms"));
    }
  }
  if (reads > 0) {
    PrintLine(idl::StrCat("replay read (", on.reads, "): parse ",
                          Ms(v["syntax.parse_ms"]), " + eval ",
                          Ms(v["eval.query_ms"]), " + unattributed ",
                          Ms(replay_read - v["syntax.parse_ms"] -
                             v["eval.query_ms"]),
                          " = ", Ms(replay_read), " ms"));
    PrintLine(idl::StrCat("client query latency mean ", Ms(run->queries.Mean()),
                          " ms = replay without tracing ", Ms(off_read),
                          " + residual ", Ms(v["server.query_residual_ms"])));
  }
  PrintLine(idl::StrCat("trace overhead: replay ", Ms(on_total),
                        " ms with program tracing vs ", Ms(off_total),
                        " ms without; median per-request CPU-layer overhead ",
                        Ms(v["trace.overhead_pct"]), "%; ", spans.size(),
                        " spans written to ", trace_path));
}

}  // namespace perfbench
