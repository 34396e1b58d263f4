// Crash-injection differential for the durable commit log (the robustness
// proof this subsystem exists for): drive PR 6 schema-evolution traces
// through a durable server, kill it at every injected crash point, recover
// from nothing but the directory's bytes, and assert the recovered state is
// identical to an uncrashed shadow session that applied exactly the durable
// prefix. The crash-point taxonomy (durability/crash_point.h) tells the
// test what that prefix is:
//
//   * before-append / mid-append  — the crashed change's record never
//     completed, so the durable prefix is the k-1 acknowledged changes;
//   * everywhere else             — the record's bytes are in the file (a
//     simulated kill loses memory, not written bytes), so replay restores
//     the crashed change too: prefix k.
//
// After the equality check the test *continues* the trace on the recovered
// server and asserts the final state still matches the shadow and the
// generator's fact oracle — recovery composes with normal operation.
//
// The last leg flips every byte of a real trace's log and requires
// positioned kDataLoss out of both ReadWal and Server::Recover: zero
// undetected corruptions.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/str_util.h"
#include "idl/idl.h"
#include "reference/reference.h"

namespace idl {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/idl_crash_XXXXXX";
    path_ = ::mkdtemp(tmpl);
  }
  ~TempDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// One durable state change — the unit a WAL record corresponds to. Traces
// are flattened to these so "k changes acknowledged" maps 1:1 to "k records
// logged" (rules are defined one by one, not via DefineRules).
struct Op {
  WalRecordType type;
  std::string name;  // kRegisterDatabase only
  std::string body;
};

struct Trace {
  std::vector<Op> ops;
  Value final_unified;  // generator oracle after the last step
};

Trace BuildTrace(const DiscrepancyConfig& config, size_t steps,
                 uint64_t salt) {
  DiscrepancyUniverse universe = GenerateDiscrepancyUniverse(config);
  Trace out;
  for (const auto& tenant : universe.tenants) {
    out.ops.push_back({WalRecordType::kRegisterDatabase, tenant.name,
                       ToString(universe.BuildTenantDatabase(tenant))});
  }
  for (const std::string& rule : universe.UnificationRules()) {
    out.ops.push_back({WalRecordType::kDefineRule, "", rule});
  }
  EvolutionTrace trace = GenerateEvolutionTrace(universe, steps, salt);
  for (const auto& step : trace.steps) {
    for (const std::string& request : step.requests) {
      out.ops.push_back({WalRecordType::kCommit, "", request});
    }
  }
  out.final_unified = trace.steps.empty() ? universe.ExpectedUnified()
                                          : trace.steps.back().expected_unified;
  return out;
}

Status ApplyToServer(Server* server, ServerSession* session, const Op& op) {
  switch (op.type) {
    case WalRecordType::kRegisterDatabase: {
      IDL_ASSIGN_OR_RETURN(Value db, ParseValue(op.body));
      return server->RegisterDatabase(op.name, std::move(db));
    }
    case WalRecordType::kDefineRule:
      return server->DefineRule(op.body);
    case WalRecordType::kDefineProgram:
      return server->DefineProgram(op.body);
    case WalRecordType::kCommit:
      return session->Update(op.body).status();
  }
  return Internal("unreachable");
}

Status ApplyToSession(Session* session, const Op& op) {
  switch (op.type) {
    case WalRecordType::kRegisterDatabase: {
      IDL_ASSIGN_OR_RETURN(Value db, ParseValue(op.body));
      return session->RegisterDatabase(op.name, std::move(db));
    }
    case WalRecordType::kDefineRule:
      return session->DefineRule(op.body);
    case WalRecordType::kDefineProgram:
      return session->DefineProgram(op.body);
    case WalRecordType::kCommit:
      return session->Update(op.body).status();
  }
  return Internal("unreachable");
}

// The shadow: merged-universe snapshots after each op prefix.
// shadow[k] = state with ops[0..k) applied. Each snapshot must also equal
// the reference evaluator's materialization of the shadow's base.
std::vector<std::string> ShadowPrefixes(const Trace& trace) {
  Session session;
  std::vector<std::string> shadows;
  auto snapshot = [&]() {
    auto u = session.SnapshotUniverse();
    EXPECT_TRUE(u.ok()) << u.status().ToString();
    if (!u.ok()) return std::string();
    auto rules = ParseRuleTexts(session.rule_texts());
    EXPECT_TRUE(rules.ok()) << rules.status().ToString();
    if (rules.ok()) {
      auto reference = ReferenceMaterialize(*rules, session.base_universe());
      EXPECT_TRUE(reference.ok()) << reference.status().ToString();
      if (reference.ok()) {
        EXPECT_EQ(*u, reference->universe)
            << "shadow diverges from the reference after "
            << shadows.size() << " ops";
      }
    }
    return ToString(*u);
  };
  shadows.push_back(snapshot());
  for (const Op& op : trace.ops) {
    Status st = ApplyToSession(&session, op);
    EXPECT_TRUE(st.ok()) << op.body << ": " << st.ToString();
    shadows.push_back(snapshot());
  }
  return shadows;
}

std::string PublishedUniverse(Server* server) {
  auto epoch = server->PublishedEpoch();
  EXPECT_TRUE(epoch.ok()) << epoch.status().ToString();
  return epoch.ok() ? ToString((*epoch)->universe) : std::string();
}

Value RelOrEmpty(const Value& universe, const char* db, const char* rel) {
  const Value* d = universe.FindField(db);
  const Value* r = d == nullptr ? nullptr : d->FindField(rel);
  return r == nullptr ? Value::EmptySet() : *r;
}

bool IsInjectedCrash(const Status& status) {
  return !status.ok() &&
         status.ToString().find("crash injected") != std::string::npos;
}

// Runs the trace against a durable server in `dir`, crashing at the
// `firing`-th arrival at `point`. Returns the 1-based index of the op that
// crashed (0 = the whole trace ran without the point firing `firing`
// times). EXPECTs that every op before the crash succeeded.
size_t RunUntilCrash(const std::string& dir, const Trace& trace,
                     CrashPoint point, size_t firing,
                     size_t checkpoint_every) {
  ServerOptions options;
  options.durability.dir = dir;
  options.durability.checkpoint_every = checkpoint_every;
  size_t fired = 0;
  options.durability.crash_hook = [&fired, point, firing](CrashPoint p) {
    return p == point && ++fired == firing;
  };
  auto server = Server::Open(options, nullptr);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  if (!server.ok()) return 0;
  auto session = (*server)->Connect();
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  if (!session.ok()) return 0;

  for (size_t i = 0; i < trace.ops.size(); ++i) {
    Status st = ApplyToServer(server->get(), &*session, trace.ops[i]);
    if (st.ok()) continue;
    EXPECT_TRUE(IsInjectedCrash(st))
        << "op " << i + 1 << " failed for a non-injected reason: "
        << st.ToString();
    // Once crashed, durability is poisoned fail-stop: later changes must
    // be refused rather than silently applied without a log.
    if (i + 1 < trace.ops.size()) {
      Status next = ApplyToServer(server->get(), &*session, trace.ops[i + 1]);
      EXPECT_FALSE(next.ok()) << "op after a crash was accepted";
    }
    return i + 1;
  }
  return 0;
}

// Recovers `dir`, checks the recovered state equals shadow[durable], then
// finishes the trace (ops[durable..]) and checks the final state against
// both the shadow and the generator's fact oracle.
void RecoverCheckAndFinish(const std::string& dir, const Trace& trace,
                           const std::vector<std::string>& shadow,
                           size_t durable, size_t checkpoint_every,
                           const std::string& diag) {
  ServerOptions options;
  options.durability.dir = dir;
  options.durability.checkpoint_every = checkpoint_every;
  RecoveryReport report;
  auto server = Server::Recover(options, &report);
  ASSERT_TRUE(server.ok()) << diag << ": " << server.status().ToString();
  EXPECT_LE(report.torn_tail_truncations, 1u) << diag;
  ASSERT_EQ(PublishedUniverse(server->get()), shadow[durable])
      << diag << ": recovered state is not the durable prefix (durable="
      << durable << ", replayed=" << report.replayed_records
      << ", snapshot-lsn=" << report.snapshot_lsn << ")";

  auto session = (*server)->Connect();
  ASSERT_TRUE(session.ok()) << diag;
  for (size_t i = durable; i < trace.ops.size(); ++i) {
    Status st = ApplyToServer(server->get(), &*session, trace.ops[i]);
    ASSERT_TRUE(st.ok()) << diag << ": resumed op " << i + 1 << ": "
                         << st.ToString();
  }
  EXPECT_EQ(PublishedUniverse(server->get()), shadow[trace.ops.size()])
      << diag << ": finished trace diverges from shadow";
  auto epoch = (*server)->PublishedEpoch();
  ASSERT_TRUE(epoch.ok()) << diag;
  EXPECT_TRUE(RelOrEmpty((*epoch)->universe, "u", "p") == trace.final_unified)
      << diag << ": unified view disagrees with the generator oracle";
}

// Counts how often each crash point is reached by a clean run of the trace
// (hook observes, never fires).
std::map<CrashPoint, size_t> CleanRunFirings(const Trace& trace,
                                             size_t checkpoint_every) {
  TempDir dir;
  ServerOptions options;
  options.durability.dir = dir.path();
  options.durability.checkpoint_every = checkpoint_every;
  std::map<CrashPoint, size_t> counts;
  options.durability.crash_hook = [&counts](CrashPoint p) {
    ++counts[p];
    return false;
  };
  auto server = Server::Open(options, nullptr);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  auto session = (*server)->Connect();
  EXPECT_TRUE(session.ok());
  for (const Op& op : trace.ops) {
    Status st = ApplyToServer(server->get(), &*session, op);
    EXPECT_TRUE(st.ok()) << op.body << ": " << st.ToString();
  }
  return counts;
}

TEST(DurabilityCrash, EveryPointEveryFiring) {
  DiscrepancyConfig config;
  config.seed = 901;
  config.num_tenants = 2;
  config.num_entities = 3;
  config.num_keys = 2;
  config.fact_density = 0.6;
  config.mangle_rate = 0.5;
  const size_t kCheckpointEvery = 5;
  Trace trace = BuildTrace(config, /*steps=*/3, /*salt=*/11);
  ASSERT_GE(trace.ops.size(), 15u) << "trace too small to be interesting";
  std::vector<std::string> shadow = ShadowPrefixes(trace);
  std::map<CrashPoint, size_t> firings =
      CleanRunFirings(trace, kCheckpointEvery);

  size_t runs = 0;
  for (CrashPoint point : AllCrashPoints()) {
    const size_t total = firings[point];
    ASSERT_GT(total, 0u) << CrashPointName(point)
                         << " never reached — the trace must exercise every "
                            "crash point (tune checkpoint_every)";
    // Append-path points fire once per record; cap the sweep per point so
    // the quadratic (run-prefix × points) stays fast, spreading the picks
    // across the trace (always including the first and last firing).
    const size_t kMaxPerPoint = 5;
    std::vector<size_t> picks;
    if (total <= kMaxPerPoint) {
      for (size_t n = 1; n <= total; ++n) picks.push_back(n);
    } else {
      for (size_t i = 0; i < kMaxPerPoint; ++i) {
        picks.push_back(1 + i * (total - 1) / (kMaxPerPoint - 1));
      }
    }
    for (size_t firing : picks) {
      SCOPED_TRACE(StrCat(CrashPointName(point), " firing ", firing, "/",
                          total));
      TempDir dir;
      size_t crashed_op =
          RunUntilCrash(dir.path(), trace, point, firing, kCheckpointEvery);
      ASSERT_GT(crashed_op, 0u) << "the armed crash never fired";
      const size_t durable =
          crashed_op - 1 + (CrashPointRecordDurable(point) ? 1 : 0);
      RecoverCheckAndFinish(
          dir.path(), trace, shadow, durable, kCheckpointEvery,
          StrCat(CrashPointName(point), " firing ", firing, " (op ",
                 crashed_op, ")"));
      ++runs;
    }
  }
  // 10 points × up to 5 firings each.
  EXPECT_GE(runs, 30u);
}

TEST(DurabilityCrash, TwentyTracesSurviveMidTraceKills) {
  const std::vector<CrashPoint>& points = AllCrashPoints();
  for (size_t i = 0; i < 20; ++i) {
    DiscrepancyConfig config;
    config.seed = 1201 + i;
    config.num_tenants = 2 + i % 3;
    config.num_entities = 3 + i % 2;
    config.num_keys = 2 + i % 2;
    config.fact_density = 0.45 + 0.1 * static_cast<double>(i % 4);
    config.mangle_rate = (i % 3) * 0.5;
    config.customized_views = i % 4 != 3;
    const size_t checkpoint_every = 3 + i % 5;
    Trace trace = BuildTrace(config, /*steps=*/3, /*salt=*/29 + i);
    std::vector<std::string> shadow = ShadowPrefixes(trace);

    CrashPoint point = points[i % points.size()];
    // Kill somewhere in the middle of the trace, at a different spot per
    // universe. Checkpoint-phase points fire far less often than
    // append-phase ones; the clean-run census says what's valid.
    std::map<CrashPoint, size_t> firings =
        CleanRunFirings(trace, checkpoint_every);
    ASSERT_GT(firings[point], 0u)
        << "universe " << i << ": " << CrashPointName(point)
        << " never reached";
    const size_t firing = 1 + (7 * i) % firings[point];

    SCOPED_TRACE(StrCat("universe ", i, " (", CrashPointName(point),
                        " firing ", firing, ")"));
    TempDir dir;
    size_t crashed_op =
        RunUntilCrash(dir.path(), trace, point, firing, checkpoint_every);
    ASSERT_GT(crashed_op, 0u);
    const size_t durable =
        crashed_op - 1 + (CrashPointRecordDurable(point) ? 1 : 0);
    RecoverCheckAndFinish(dir.path(), trace, shadow, durable,
                          checkpoint_every,
                          StrCat("universe ", i, " op ", crashed_op));
  }
}

TEST(DurabilityCrash, DoubleCrashCrashDuringRecoveryRetriesClean) {
  // Kill once mid-trace, then kill the *recovered* server again a few
  // records later — the second recovery must still land on the shadow.
  DiscrepancyConfig config;
  config.seed = 77;
  config.num_tenants = 2;
  config.num_entities = 3;
  config.num_keys = 2;
  const size_t kCheckpointEvery = 4;
  Trace trace = BuildTrace(config, /*steps=*/2, /*salt=*/5);
  std::vector<std::string> shadow = ShadowPrefixes(trace);
  TempDir dir;

  size_t first_crash = RunUntilCrash(dir.path(), trace,
                                     CrashPoint::kMidAppend, /*firing=*/6,
                                     kCheckpointEvery);
  ASSERT_GT(first_crash, 0u);
  size_t durable = first_crash - 1;  // mid-append: record lost

  // Recover and continue with a *new* armed crash (after-append now, so
  // the second lost server keeps its last record).
  ServerOptions options;
  options.durability.dir = dir.path();
  options.durability.checkpoint_every = kCheckpointEvery;
  size_t fired = 0;
  options.durability.crash_hook = [&fired](CrashPoint p) {
    return p == CrashPoint::kAfterAppend && ++fired == 3;
  };
  auto server = Server::Recover(options, nullptr);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_EQ(PublishedUniverse(server->get()), shadow[durable]);
  size_t second_crash = 0;
  {
    auto session = (*server)->Connect();
    ASSERT_TRUE(session.ok());
    for (size_t i = durable; i < trace.ops.size(); ++i) {
      Status st = ApplyToServer(server->get(), &*session, trace.ops[i]);
      if (!st.ok()) {
        ASSERT_TRUE(IsInjectedCrash(st)) << st.ToString();
        second_crash = i + 1;
        break;
      }
    }
  }
  ASSERT_GT(second_crash, 0u) << "second crash never fired";
  server->reset();

  RecoverCheckAndFinish(dir.path(), trace, shadow, /*durable=*/second_crash,
                        kCheckpointEvery, "second recovery");
}

TEST(DurabilityCrash, EveryByteFlipInTraceLogIsDetected) {
  // A real (small) trace's log, checkpointing disabled so all records are
  // in the file; then flip each byte and require kDataLoss out of ReadWal
  // and a refused (never wrong) Server::Recover.
  DiscrepancyConfig config;
  config.seed = 31;
  config.num_tenants = 2;
  config.num_entities = 2;
  config.num_keys = 2;
  Trace trace = BuildTrace(config, /*steps=*/1, /*salt=*/3);
  TempDir dir;
  {
    ServerOptions options;
    options.durability.dir = dir.path();
    options.durability.checkpoint_every = 100000;
    auto server = Server::Open(options, nullptr);
    ASSERT_TRUE(server.ok());
    auto session = (*server)->Connect();
    ASSERT_TRUE(session.ok());
    for (const Op& op : trace.ops) {
      ASSERT_TRUE(ApplyToServer(server->get(), &*session, op).ok());
    }
  }
  const std::string wal_path = dir.path() + "/wal.log";
  std::string intact;
  {
    std::ifstream in(wal_path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    intact = buffer.str();
  }
  ASSERT_GT(intact.size(), 500u) << "trace log suspiciously small";

  size_t undetected = 0;
  for (size_t at = 0; at < intact.size(); ++at) {
    std::string corrupt = intact;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0xFF);
    {
      std::ofstream out(wal_path, std::ios::binary | std::ios::trunc);
      out << corrupt;
    }
    auto read = ReadWal(wal_path, /*repair_torn_tail=*/false);
    if (read.ok()) {
      ++undetected;
      ADD_FAILURE() << "byte " << at << " flipped undetected";
      continue;
    }
    EXPECT_EQ(read.status().code(), StatusCode::kDataLoss)
        << "byte " << at << ": " << read.status().ToString();
    EXPECT_NE(read.status().ToString().find("wal.log:"), std::string::npos)
        << "unpositioned error at byte " << at << ": "
        << read.status().ToString();
  }
  EXPECT_EQ(undetected, 0u);

  // Recovery refuses a corrupted log outright (sampled — Recover replays
  // sessions, so the full sweep would be slow).
  for (size_t at : {size_t{0}, size_t{20}, intact.size() / 2,
                    intact.size() - 2}) {
    std::string corrupt = intact;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0xFF);
    {
      std::ofstream out(wal_path, std::ios::binary | std::ios::trunc);
      out << corrupt;
    }
    ServerOptions options;
    options.durability.dir = dir.path();
    auto recovered = Server::Recover(options, nullptr);
    ASSERT_FALSE(recovered.ok()) << "byte " << at;
    EXPECT_EQ(recovered.status().code(), StatusCode::kDataLoss)
        << recovered.status().ToString();
  }
}

}  // namespace
}  // namespace idl
