// Unit tests for the multi-session server (src/server/server.h): epoch
// pinning and immutability, read-your-writes, online schema changes,
// admission control and deadline rejection, shutdown semantics.

#include "server/server.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "idl/idl.h"

namespace idl {
namespace {

// Registers the three paper databases (euter/chwab/ource) on the server.
void PopulatePaper(Server* server) {
  PaperUniverse paper = MakePaperUniverse(/*name_mappings=*/false);
  for (const auto& field : paper.universe.fields()) {
    Status st = server->RegisterDatabase(field.name, field.value);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
}

constexpr char kAllEuter[] = "?.euter.r(.date=D, .stkCode=S, .clsPrice=P)";
constexpr char kInsertEuter[] =
    "?.euter.r+(.date=3/5/85, .stkCode=hp, .clsPrice=75)";

TEST(Server, FirstEpochPublishesOnConnect) {
  Server server;
  PopulatePaper(&server);
  auto session = server.Connect();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(session->epoch_id(), 1u);
  // The published epoch is the very object the session pinned.
  auto published = server.PublishedEpoch();
  ASSERT_TRUE(published.ok());
  EXPECT_EQ(published->get(), session->epoch().get());
}

TEST(Server, PinnedEpochIsImmutableAcrossCommits) {
  Server server;
  PopulatePaper(&server);
  auto reader = server.Connect();
  auto writer = server.Connect();
  ASSERT_TRUE(reader.ok() && writer.ok());

  auto before = reader->Query(kAllEuter);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_EQ(before->rows.size(), 12u);  // 3 stocks x 4 days

  auto committed = writer->Update(kInsertEuter);
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  EXPECT_EQ(committed->epoch->id, 2u);
  EXPECT_GT(committed->counts.Total(), 0u);

  // The reader is still pinned to epoch 1: same id, byte-identical answer,
  // however many commits happened meanwhile.
  EXPECT_EQ(reader->epoch_id(), 1u);
  auto still = reader->Query(kAllEuter);
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(still->ToTable(), before->ToTable());

  // Refresh re-pins to the committed epoch and the new row appears.
  ASSERT_TRUE(reader->Refresh().ok());
  EXPECT_EQ(reader->epoch_id(), 2u);
  auto after = reader->Query(kAllEuter);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows.size(), 13u);
}

TEST(Server, UpdateIsReadYourWrites) {
  Server server;
  PopulatePaper(&server);
  auto session = server.Connect();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->Update(kInsertEuter).ok());
  // The session re-pinned to the epoch its own commit published.
  EXPECT_EQ(session->epoch_id(), 2u);
  auto read = session->Query("?.euter.r(.date=3/5/85, .stkCode=S)");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->rows.size(), 1u);
}

TEST(Server, ReaderSessionRejectsUpdateRequests) {
  Server server;
  PopulatePaper(&server);
  auto session = server.Connect();
  ASSERT_TRUE(session.ok());
  auto answer = session->Query(kInsertEuter);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kInvalidArgument);
  // Nothing committed, nothing published.
  EXPECT_EQ(session->epoch_id(), 1u);
}

TEST(Server, FailedCommitLeavesEpochUntouched) {
  Server server;
  PopulatePaper(&server);
  auto session = server.Connect();
  ASSERT_TRUE(session.ok());
  // Inserting into an unregistered database is an update error (kNotFound);
  // the epoch stays.
  auto failed = session->Update("?.nosuch.r+(.a=1)");
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(session->epoch_id(), 1u);
  auto published = server.PublishedEpoch();
  ASSERT_TRUE(published.ok());
  EXPECT_EQ((*published)->id, 1u);
}

TEST(Server, RuleDefinitionRepublishes) {
  Server server;
  PopulatePaper(&server);
  auto session = server.Connect();
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session->epoch_id(), 1u);

  Status st = server.DefineRule(
      ".dbI.p(.date=D, .stk=S, .clsPrice=P) <- "
      ".euter.r(.date=D, .stkCode=S, .clsPrice=P)");
  ASSERT_TRUE(st.ok()) << st.ToString();

  // The pinned epoch has no derived relation; the republished one does.
  auto stale = session->Query("?.dbI.p(.stk=S)");
  ASSERT_TRUE(stale.ok());
  EXPECT_TRUE(stale->rows.empty());
  ASSERT_TRUE(session->Refresh().ok());
  EXPECT_EQ(session->epoch_id(), 2u);
  EXPECT_EQ(session->epoch()->derived_paths,
            std::vector<std::string>{"dbI.p"});
  auto derived = session->Query("?.dbI.p(.date=D, .stk=S, .clsPrice=P)");
  ASSERT_TRUE(derived.ok());
  EXPECT_EQ(derived->rows.size(), 12u);
}

TEST(Server, ProgramDefinitionDoesNotRepublish) {
  Server server;
  PopulatePaper(&server);
  auto session = server.Connect();
  ASSERT_TRUE(session.ok());
  Status st = server.DefineProgram(
      ".dbU.addQuote(.date=D, .stk=S, .price=P) -> "
      ".euter.r+(.date=D, .stkCode=S, .clsPrice=P)");
  ASSERT_TRUE(st.ok()) << st.ToString();
  auto published = server.PublishedEpoch();
  ASSERT_TRUE(published.ok());
  EXPECT_EQ((*published)->id, 1u);  // programs don't change the universe
  // But the program is callable through the commit path.
  auto committed = session->Update("?.dbU.addQuote(.date=3/5/85, .stk=hp, .price=75)");
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  EXPECT_EQ(session->epoch_id(), 2u);
  auto read = session->Query("?.euter.r(.date=3/5/85, .stkCode=S)");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->rows.size(), 1u);
}

TEST(Server, ZeroCapacityQueueRejectsEveryCommit) {
  // max_pending_commits=0 makes every admission decision deterministic:
  // the queue can never hold a commit, so Commit() is rejected at the door.
  ServerOptions options;
  options.max_pending_commits = 0;
  Server server(options);
  PopulatePaper(&server);
  auto committed = server.Commit(kInsertEuter);
  ASSERT_FALSE(committed.ok());
  EXPECT_EQ(committed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(committed.status().ToString().find("server overloaded"),
            std::string::npos)
      << committed.status().ToString();
}

TEST(Server, DeadlineExpiredInQueueRejectsBeforeApplying) {
  Server server;
  PopulatePaper(&server);
  // A 1ms deadline always expires during the queue handoff (the policy
  // rejects when less than 1ms of budget remains), so the request must be
  // rejected *before* it is applied.
  EvalOptions options;
  options.deadline_ms = 1;
  auto committed = server.Commit(kInsertEuter, options);
  ASSERT_FALSE(committed.ok());
  EXPECT_EQ(committed.status().code(), StatusCode::kDeadlineExceeded);
  // The universe is untouched: the row never appeared.
  auto session = server.Connect();
  ASSERT_TRUE(session.ok());
  auto read = session->Query("?.euter.r(.date=3/5/85, .stkCode=S)");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->rows.empty());
}

TEST(Server, ShutdownRejectsCommitsButReadersKeepWorking) {
  Server server;
  PopulatePaper(&server);
  auto session = server.Connect();
  ASSERT_TRUE(session.ok());
  server.Shutdown();
  auto committed = server.Commit(kInsertEuter);
  ASSERT_FALSE(committed.ok());
  EXPECT_EQ(committed.status().code(), StatusCode::kFailedPrecondition);
  // Epochs are plain immutable values — reads survive shutdown.
  auto answer = session->Query(kAllEuter);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->rows.size(), 12u);
  server.Shutdown();  // idempotent
}

TEST(Server, CopiedSessionIsIndependent) {
  Server server;
  PopulatePaper(&server);
  auto session = server.Connect();
  ASSERT_TRUE(session.ok());
  ServerSession copy = *session;
  ASSERT_TRUE(copy.Update(kInsertEuter).ok());
  // The copy moved to epoch 2; the original stayed pinned at epoch 1.
  EXPECT_EQ(copy.epoch_id(), 2u);
  EXPECT_EQ(session->epoch_id(), 1u);
}

TEST(Server, RegisterDatabaseAfterPublishRepublishes) {
  Server server;
  PopulatePaper(&server);
  auto session = server.Connect();
  ASSERT_TRUE(session.ok());
  PaperUniverse paper = MakePaperUniverse(/*name_mappings=*/false);
  const Value* euter = paper.universe.FindField("euter");
  ASSERT_NE(euter, nullptr);
  Status st = server.RegisterDatabase("mirror", *euter);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_TRUE(session->Refresh().ok());
  EXPECT_EQ(session->epoch_id(), 2u);
  auto read = session->Query("?.mirror.r(.date=D, .stkCode=S, .clsPrice=P)");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->rows.size(), 12u);
}

// A relation-name scan (§4.3, `.ource.S(…)`) reads the epoch's shared
// column pages: repeating it on one epoch builds no index at all and runs
// vectorized.
TEST(Server, RelationVariableScanReusesEpochPages) {
  StockWorkload w = GenerateStockWorkload(
      {.num_stocks = 16, .num_days = 40, .seed = 7});
  Server server;
  Value universe = BuildStockUniverse(w);
  for (const auto& field : universe.fields()) {
    Status st = server.RegisterDatabase(field.name, field.value);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  auto session = server.Connect();
  ASSERT_TRUE(session.ok());
  const std::string text =
      "?.ource.S(.date=" + w.dates[3].ToString() + ", .clsPrice=P)";
  auto first = session->Query(text);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->rows.size(), 16u);

  Counter* activations =
      MetricsRegistry::Global().counter("columnar.vector_activations");
  const uint64_t built = session->stats().indexes_built;
  const uint64_t vectorized = activations->value();
  auto second = session->Query(text);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->ToTable(), first->ToTable());
  EXPECT_EQ(session->stats().indexes_built - built, 0u);
  EXPECT_GT(activations->value() - vectorized, 0u);
}

// Each server read adds its own evaluation counts to the global eval.*
// counters: exactly its own, not the session's running total.
TEST(Server, ReadAddsItsOwnCountsToEvalMetrics) {
  Server server;
  PopulatePaper(&server);
  auto session = server.Connect();
  ASSERT_TRUE(session.ok());
  Counter* scanned =
      MetricsRegistry::Global().counter("eval.set_elements_scanned");
  for (int i = 0; i < 2; ++i) {
    const uint64_t global_before = scanned->value();
    const uint64_t session_before = session->stats().set_elements_scanned;
    auto read = session->Query("?.euter.r(.stkCode=S, .clsPrice>150)");
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    const uint64_t own = session->stats().set_elements_scanned - session_before;
    EXPECT_GT(own, 0u);
    EXPECT_EQ(scanned->value() - global_before, own) << "read " << i;
  }
}

// `.chwab.r(.date=…, .S=P)` binds a stock name per element, so it keeps the
// matcher; its probe on `date` reads the index kept in the epoch set's
// cache slot, so only the first such read on an epoch builds it.
TEST(Server, AttributeVariableScanBuildsItsIndexOncePerEpoch) {
  StockWorkload w = GenerateStockWorkload(
      {.num_stocks = 16, .num_days = 40, .seed = 7});
  Server server;
  Value universe = BuildStockUniverse(w);
  for (const auto& field : universe.fields()) {
    Status st = server.RegisterDatabase(field.name, field.value);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  auto session = server.Connect();
  ASSERT_TRUE(session.ok());
  const std::string text =
      "?.chwab.r(.date=" + w.dates[3].ToString() + ", .S=P), P > 0";
  Counter* built = MetricsRegistry::Global().counter("eval.indexes_built");
  Counter* probes = MetricsRegistry::Global().counter("eval.index_probes");

  uint64_t built_before = built->value();
  auto first = session->Query(text);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->rows.size(), 16u);
  EXPECT_EQ(built->value() - built_before, 1u);

  built_before = built->value();
  const uint64_t probes_before = probes->value();
  const uint64_t session_built = session->stats().indexes_built;
  auto second = session->Query(text);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->ToTable(), first->ToTable());
  EXPECT_EQ(built->value() - built_before, 0u);
  EXPECT_EQ(session->stats().indexes_built - session_built, 0u);
  EXPECT_GT(probes->value() - probes_before, 0u);
}

}  // namespace
}  // namespace idl
