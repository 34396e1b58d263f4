// Concurrency stressors for the durable server, re-run under TSan by the
// CI `stress` leg: readers refreshing and querying while writers push
// commits through the WAL append + checkpoint-truncation path, and
// Shutdown racing a durable backlog. Assertions are coarse (no acknowledged
// commit may be missing after recovery, no phantom rows may appear); the
// byte-level crash differential lives in tests/durability_crash_test.cc —
// this file exists to let the race detector chew on the durability paths.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <future>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/str_util.h"
#include "idl/idl.h"

namespace idl {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/idl_dstress_XXXXXX";
    path_ = ::mkdtemp(tmpl);
  }
  ~TempDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(DurabilityStress, ReadersRaceDurableCommitsAndCheckpoints) {
  TempDir dir;
  ServerOptions options;
  options.durability.dir = dir.path();
  // Aggressive checkpointing: every few commits the WAL is folded into a
  // snapshot and truncated while readers hold and query older epochs.
  options.durability.checkpoint_every = 3;
  std::set<std::string> acked;
  std::mutex acked_mu;
  {
    auto server = Server::Open(options, nullptr);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    ASSERT_TRUE(
        (*server)
            ->RegisterDatabase("db", *ParseValue("(r: {(k: seed, v: 0)})"))
            .ok());
    ASSERT_TRUE((*server)
                    ->DefineRule(".view.big(.k=K, .v=V) <- .db.r(.k=K, .v=V)")
                    .ok());

    constexpr int kWriters = 4;
    constexpr int kReaders = 4;
    constexpr int kPerWriter = 25;
    std::vector<std::thread> threads;
    std::atomic<bool> done{false};
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        auto session = (*server)->Connect();
        ASSERT_TRUE(session.ok());
        for (int i = 0; i < kPerWriter; ++i) {
          std::string key = StrCat("w", w, "x", i);
          auto committed =
              session->Update(StrCat("?.db.r+(.k=", key, ", .v=", i, ")"));
          ASSERT_TRUE(committed.ok()) << committed.status().ToString();
          std::lock_guard<std::mutex> lock(acked_mu);
          acked.insert(key);
        }
      });
    }
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&] {
        auto session = (*server)->Connect();
        ASSERT_TRUE(session.ok());
        while (!done.load(std::memory_order_relaxed)) {
          ASSERT_TRUE(session->Refresh().ok());
          auto answer = session->Query("?.view.big(.k=K, .v=V)");
          ASSERT_TRUE(answer.ok()) << answer.status().ToString();
          ASSERT_GE(answer->rows.size(), 1u);  // the seed row never leaves
        }
      });
    }
    for (int i = 0; i < kWriters; ++i) threads[i].join();
    done.store(true, std::memory_order_relaxed);
    for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();
  }  // clean shutdown (destructor drains the queue)

  // Recovery must land on exactly the acknowledged set — concurrency and
  // checkpoint truncation change nothing about what the log promises.
  RecoveryReport report;
  auto recovered = Server::Recover(options, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  auto session = (*recovered)->Connect();
  ASSERT_TRUE(session.ok());
  auto answer = session->Query("?.db.r(.k=K, .v=V)");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->rows.size(), acked.size() + 1);  // + the seed row
}

TEST(DurabilityStress, ShutdownRacesDurableBacklog) {
  TempDir dir;
  ServerOptions options;
  options.durability.dir = dir.path();
  options.durability.checkpoint_every = 4;
  options.max_pending_commits = 64;
  std::set<std::string> acked;
  std::mutex acked_mu;
  std::atomic<int> rejected{0};
  {
    auto server = Server::Open(options, nullptr);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    ASSERT_TRUE((*server)->RegisterDatabase("db", *ParseValue("(r: {})")).ok());
    ASSERT_TRUE((*server)->PublishedEpoch().ok());

    constexpr int kWriters = 6;
    constexpr int kPerWriter = 20;
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        for (int i = 0; i < kPerWriter; ++i) {
          std::string key = StrCat("w", w, "x", i);
          auto committed = (*server)->Commit(
              StrCat("?.db.r+(.k=", key, ", .v=", i, ")"));
          if (committed.ok()) {
            std::lock_guard<std::mutex> lock(acked_mu);
            acked.insert(key);
          } else {
            ++rejected;  // kFailedPrecondition after shutdown, or queue-full
          }
        }
      });
    }
    // Shutdown races the backlog: queued commits drain (and append), later
    // ones are refused — never half-applied, never applied-but-unlogged.
    std::thread killer([&] { (*server)->Shutdown(); });
    for (auto& writer : writers) writer.join();
    killer.join();
  }

  RecoveryReport report;
  auto recovered = Server::Recover(options, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  auto session = (*recovered)->Connect();
  ASSERT_TRUE(session.ok());
  auto answer = session->Query("?.db.r(.k=K, .v=V)");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  // Every acknowledged commit survived; nothing unacknowledged appeared.
  EXPECT_EQ(answer->rows.size(), acked.size())
      << "acked=" << acked.size() << " rejected=" << rejected.load();
}

// Readers never wait for the writer: while a commit is held inside its WAL
// append (the crash hook blocks there, then lets it go on uncrashed), a
// reader on another session still refreshes, queries, and has a program
// call classified as an update.
TEST(DurabilityStress, ReadersProceedWhileCommitIsHeld) {
  TempDir dir;
  std::mutex hook_mu;
  std::condition_variable hook_cv;
  bool armed = false, held = false, released = false;
  ServerOptions options;
  options.durability.dir = dir.path();
  options.durability.crash_hook = [&](CrashPoint point) {
    std::unique_lock<std::mutex> lock(hook_mu);
    if (!armed || point != CrashPoint::kBeforeAppend) return false;
    armed = false;
    held = true;
    hook_cv.notify_all();
    hook_cv.wait(lock, [&] { return released; });
    return false;
  };
  auto server = Server::Create(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE(
      (*server)->RegisterDatabase("db", *ParseValue("(r: {(k: seed, v: 0)})"))
          .ok());
  ASSERT_TRUE((*server)
                  ->DefineRule(".view.big(.k=K, .v=V) <- .db.r(.k=K, .v=V)")
                  .ok());
  ASSERT_TRUE(
      (*server)->DefineProgram(".db.add(.k=K) -> .db.r+(.k=K, .v=1)").ok());
  auto reader = (*server)->Connect();
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const uint64_t before = reader->epoch_id();

  {
    std::lock_guard<std::mutex> lock(hook_mu);
    armed = true;
  }
  Result<CommitResult> committed = Internal("not run");
  std::thread writer(
      [&] { committed = (*server)->Commit("?.db.r+(.k=held, .v=2)"); });
  bool reached = false;
  {
    std::unique_lock<std::mutex> lock(hook_mu);
    reached = hook_cv.wait_for(lock, std::chrono::seconds(20),
                               [&] { return held; });
  }
  struct Read {
    Status refreshed = Internal("not run");
    Result<Answer> rows = Internal("not run");
    Result<Answer> call = Internal("not run");
  };
  std::future<Read> read = std::async(std::launch::async, [&] {
    Read r;
    r.refreshed = reader->Refresh();
    r.rows = reader->Query("?.view.big(.k=K, .v=V)");
    r.call = reader->Query("?.db.add(.k=x)");
    return r;
  });
  const bool finished =
      read.wait_for(std::chrono::seconds(20)) == std::future_status::ready;
  {
    std::lock_guard<std::mutex> lock(hook_mu);
    released = true;
  }
  hook_cv.notify_all();
  writer.join();
  Read r = read.get();
  ASSERT_TRUE(reached) << "the commit never reached its WAL append";
  ASSERT_TRUE(finished) << "a reader waited for the held commit";

  ASSERT_TRUE(r.refreshed.ok()) << r.refreshed.ToString();
  EXPECT_EQ(reader->epoch_id(), before);  // the held commit is unpublished
  ASSERT_TRUE(r.rows.ok()) << r.rows.status().ToString();
  EXPECT_EQ(r.rows->rows.size(), 1u);
  EXPECT_EQ(r.call.status().code(), StatusCode::kInvalidArgument)
      << r.call.status().ToString();

  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  ASSERT_TRUE(reader->Refresh().ok());
  auto after = reader->Query("?.view.big(.k=K, .v=V)");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->rows.size(), 2u);
}

}  // namespace
}  // namespace idl
