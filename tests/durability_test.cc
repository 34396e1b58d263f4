// Format and protocol lock for src/durability: CRC-32 vectors, WAL and
// snapshot round-trips, the read-time corruption taxonomy (torn tail
// tolerated and repaired; any complete-record corruption is kDataLoss
// positioned at the failing byte offset), crash-point metadata, and the
// durable Server factory surface (Create / Recover / Open).
//
// The byte formats asserted here are pinned by docs/DURABILITY.md — a
// failure in this file means recovery of logs written by *previous* builds
// breaks, so change the version numbers, not the expectations.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/str_util.h"
#include "idl/idl.h"

namespace idl {
namespace {

namespace fs = std::filesystem;

// Fresh temp directory, removed on scope exit.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/idl_durability_XXXXXX";
    path_ = ::mkdtemp(tmpl);
  }
  ~TempDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(Crc32Test, KnownVectors) {
  // The CRC-32 check value: CRC of "123456789" is 0xCBF43926 for the
  // reflected 0xEDB88320 polynomial every tool agrees on.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32("a"), 0xE8B7BE43u);
  // Seed chaining: CRC of a concatenation equals CRC of the tail seeded
  // with the head's CRC.
  EXPECT_EQ(Crc32("6789", Crc32("12345")), Crc32("123456789"));
  EXPECT_NE(Crc32("hello"), Crc32("hellp"));
}

TEST(CrashPointTest, NamesRoundTripAndDurabilityTaxonomy) {
  EXPECT_EQ(AllCrashPoints().size(), 10u);
  for (CrashPoint p : AllCrashPoints()) {
    CrashPoint parsed;
    ASSERT_TRUE(ParseCrashPointName(CrashPointName(p), &parsed))
        << CrashPointName(p);
    EXPECT_EQ(parsed, p);
  }
  CrashPoint ignored;
  EXPECT_FALSE(ParseCrashPointName("after-lunch", &ignored));
  EXPECT_FALSE(ParseCrashPointName("", &ignored));

  // The record-durability line: a kill before the record's bytes are fully
  // written loses the change; everywhere else (fsync pending included — a
  // simulated kill loses memory, not written bytes) replay restores it.
  EXPECT_FALSE(CrashPointRecordDurable(CrashPoint::kBeforeAppend));
  EXPECT_FALSE(CrashPointRecordDurable(CrashPoint::kMidAppend));
  EXPECT_TRUE(CrashPointRecordDurable(CrashPoint::kAfterAppend));
  EXPECT_TRUE(CrashPointRecordDurable(CrashPoint::kMidFsync));
  EXPECT_TRUE(CrashPointRecordDurable(CrashPoint::kAfterFsync));
  EXPECT_TRUE(CrashPointRecordDurable(CrashPoint::kAfterWalReset));
}

TEST(WalTest, AppendReadRoundTrip) {
  TempDir dir;
  const std::string path = dir.file("wal.log");
  WalOptions options;
  auto wal = Wal::Create(path, 1, options);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ((*wal)->next_lsn(), 1u);
  EXPECT_EQ((*wal)->last_lsn(), 0u);

  // Bodies deliberately cover the payload edge cases: empty, embedded NUL,
  // newlines, bytes that look like our own framing.
  ASSERT_TRUE((*wal)
                  ->Append(WalRecordType::kRegisterDatabase, "euter",
                           "(.r={})", 0)
                  .ok());
  ASSERT_TRUE((*wal)
                  ->Append(WalRecordType::kDefineRule, "",
                           ".a.b(.x=X) <- .c.d(.x=X)", 2)
                  .ok());
  std::string nasty("IDLWAL1\n\0\r\n\xff\x01", 13);
  ASSERT_TRUE((*wal)->Append(WalRecordType::kCommit, "", nasty, 3).ok());
  ASSERT_TRUE((*wal)->Append(WalRecordType::kDefineProgram, "", "", 0).ok());
  EXPECT_EQ((*wal)->next_lsn(), 5u);
  EXPECT_EQ((*wal)->last_lsn(), 4u);
  wal->reset();  // close before reading

  auto read = ReadWal(path, /*repair_torn_tail=*/false);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->torn_tail_truncations, 0u);
  EXPECT_EQ(read->next_lsn, 5u);
  ASSERT_EQ(read->records.size(), 4u);
  EXPECT_EQ(read->records[0].lsn, 1u);
  EXPECT_EQ(read->records[0].type, WalRecordType::kRegisterDatabase);
  EXPECT_EQ(read->records[0].name, "euter");
  EXPECT_EQ(read->records[0].body, "(.r={})");
  EXPECT_EQ(read->records[0].epoch, 0u);
  EXPECT_EQ(read->records[1].type, WalRecordType::kDefineRule);
  EXPECT_EQ(read->records[1].epoch, 2u);
  EXPECT_EQ(read->records[2].body, nasty);
  EXPECT_EQ(read->records[3].body, "");

  // OpenForAppend continues the LSN sequence where the reader stopped.
  auto reopened = Wal::OpenForAppend(path, read->next_lsn, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_TRUE(
      (*reopened)->Append(WalRecordType::kCommit, "", "?.x.y+(.z=1)", 5).ok());
  reopened->reset();
  read = ReadWal(path, false);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), 5u);
  EXPECT_EQ(read->records[4].lsn, 5u);
}

TEST(WalTest, TornTailDroppedAndRepaired) {
  TempDir dir;
  const std::string path = dir.file("wal.log");
  WalOptions options;
  {
    auto wal = Wal::Create(path, 1, options);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(WalRecordType::kCommit, "", "first", 1).ok());
    ASSERT_TRUE((*wal)->Append(WalRecordType::kCommit, "", "second", 2).ok());
  }
  const std::string intact = ReadFileBytes(path);

  // Every strict prefix that ends inside the final record must read as the
  // first record plus one torn-tail truncation — never an error, never a
  // phantom second record. First record: 16-byte file header + 25-byte
  // record header + 4-byte name_len + len("first") + 4-byte payload crc.
  const size_t first_end = 16 + 25 + 4 + 5 + 4;
  for (size_t cut = first_end + 1; cut < intact.size(); ++cut) {
    WriteFileBytes(path, intact.substr(0, cut));
    auto read = ReadWal(path, /*repair_torn_tail=*/false);
    ASSERT_TRUE(read.ok()) << "cut at " << cut << ": "
                           << read.status().ToString();
    EXPECT_EQ(read->records.size(), 1u) << "cut at " << cut;
    EXPECT_EQ(read->torn_tail_truncations, 1u) << "cut at " << cut;
    EXPECT_EQ(read->next_lsn, 2u);
  }

  // With repair the torn bytes are truncated away and the log is
  // append-able again; the re-read is clean.
  WriteFileBytes(path, intact.substr(0, intact.size() - 3));
  auto repaired = ReadWal(path, /*repair_torn_tail=*/true);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired->torn_tail_truncations, 1u);
  EXPECT_EQ(fs::file_size(path), first_end);
  auto wal = Wal::OpenForAppend(path, repaired->next_lsn, options);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append(WalRecordType::kCommit, "", "third", 2).ok());
  wal->reset();
  auto read = ReadWal(path, false);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), 2u);
  EXPECT_EQ(read->records[1].body, "third");
  EXPECT_EQ(read->records[1].lsn, 2u);
  EXPECT_EQ(read->torn_tail_truncations, 0u);
}

TEST(WalTest, MidLogCorruptionIsPositionedDataLoss) {
  TempDir dir;
  const std::string path = dir.file("wal.log");
  {
    WalOptions options;
    auto wal = Wal::Create(path, 1, options);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(WalRecordType::kCommit, "", "payload-a", 1).ok());
    ASSERT_TRUE((*wal)->Append(WalRecordType::kCommit, "", "payload-b", 2).ok());
  }
  const std::string intact = ReadFileBytes(path);
  const size_t first_record_at = 16;

  // Flip one payload byte of the *first* record: complete record, bad CRC.
  // That must hard-fail with the record's byte offset even under
  // repair_torn_tail — mid-log corruption is data loss, not a torn tail.
  std::string corrupt = intact;
  corrupt[first_record_at + 25 + 4] ^= 0x01;
  WriteFileBytes(path, corrupt);
  auto read = ReadWal(path, /*repair_torn_tail=*/true);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(read.status().ToString().find(
                StrCat("wal.log:", first_record_at, ": checksum mismatch")),
            std::string::npos)
      << read.status().ToString();
  // Repair must not have touched the file: the error is surfaced, not
  // silently truncated away.
  EXPECT_EQ(ReadFileBytes(path), corrupt);

  // A flipped length field is caught by the header CRC *before* the reader
  // trusts it, so it cannot send the parse off the rails.
  corrupt = intact;
  corrupt[first_record_at + 17] ^= 0x40;  // payload_len low byte
  WriteFileBytes(path, corrupt);
  read = ReadWal(path, true);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(read.status().ToString().find("record header checksum mismatch"),
            std::string::npos)
      << read.status().ToString();

  // Bad file magic.
  corrupt = intact;
  corrupt[0] = 'X';
  WriteFileBytes(path, corrupt);
  read = ReadWal(path, true);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(read.status().ToString().find("wal.log:0: bad magic"),
            std::string::npos);
}

TEST(WalTest, EveryPossibleBitFlipIsDetected) {
  TempDir dir;
  const std::string path = dir.file("wal.log");
  {
    WalOptions options;
    auto wal = Wal::Create(path, 1, options);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)
                    ->Append(WalRecordType::kRegisterDatabase, "db",
                             "(.r={(.k=1)})", 0)
                    .ok());
    ASSERT_TRUE((*wal)->Append(WalRecordType::kCommit, "", "?.db.r+(.k=2)", 2)
                    .ok());
  }
  const std::string intact = ReadFileBytes(path);
  size_t undetected = 0;
  for (size_t at = 0; at < intact.size(); ++at) {
    for (uint8_t bit = 0; bit < 8; ++bit) {
      std::string corrupt = intact;
      corrupt[at] = static_cast<char>(corrupt[at] ^ (1u << bit));
      WriteFileBytes(path, corrupt);
      auto read = ReadWal(path, /*repair_torn_tail=*/true);
      if (read.ok()) {
        ++undetected;
        ADD_FAILURE() << "bit " << int(bit) << " of byte " << at
                      << " flipped undetected";
        continue;
      }
      EXPECT_EQ(read.status().code(), StatusCode::kDataLoss)
          << "byte " << at << ": " << read.status().ToString();
    }
  }
  EXPECT_EQ(undetected, 0u);
}

TEST(SnapshotTest, FileNameRoundTrip) {
  EXPECT_EQ(SnapshotFileName(8), "snap.000000000008.idls");
  EXPECT_EQ(SnapshotFileName(123456789012), "snap.123456789012.idls");
  uint64_t lsn = 0;
  EXPECT_TRUE(ParseSnapshotFileName("snap.000000000008.idls", &lsn));
  EXPECT_EQ(lsn, 8u);
  EXPECT_TRUE(ParseSnapshotFileName(SnapshotFileName(0), &lsn));
  EXPECT_EQ(lsn, 0u);
  EXPECT_FALSE(ParseSnapshotFileName("snap.000000000008.idls.tmp", &lsn));
  EXPECT_FALSE(ParseSnapshotFileName("wal.log", &lsn));
  EXPECT_FALSE(ParseSnapshotFileName("snap.00000000000x.idls", &lsn));
  EXPECT_FALSE(ParseSnapshotFileName("snap.8.idls", &lsn));
}

TEST(SnapshotTest, WriteReadRoundTripAndLatestSelection) {
  TempDir dir;
  SnapshotData data;
  data.last_lsn = 42;
  data.next_epoch_id = 17;
  data.databases = {{"euter", "(.r={(.date=3/5/1985, .clsPrice=321)})"},
                    {"weird", "(.r={(.s=\"a\\x01b\\nc\")})"}};
  data.rules = {".a.b(.x=X) <- .c.d(.x=X)"};
  data.programs = {"p() <- .a.b(.x=X)"};
  WalOptions options;
  auto written = WriteSnapshot(dir.path(), data, options);
  ASSERT_TRUE(written.ok()) << written.ToString();

  auto latest = FindLatestSnapshot(dir.path());
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest->lsn, 42u);
  auto read = ReadSnapshot(latest->path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->last_lsn, 42u);
  EXPECT_EQ(read->next_epoch_id, 17u);
  EXPECT_EQ(read->databases, data.databases);
  EXPECT_EQ(read->rules, data.rules);
  EXPECT_EQ(read->programs, data.programs);

  // A newer snapshot wins; the older one is pruned away by the write.
  data.last_lsn = 100;
  ASSERT_TRUE(WriteSnapshot(dir.path(), data, options).ok());
  latest = FindLatestSnapshot(dir.path());
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->lsn, 100u);
  EXPECT_FALSE(fs::exists(dir.file(SnapshotFileName(42))));

  // Every single-byte corruption of the snapshot is detected (the file was
  // renamed into place complete, so there is no torn-tail tolerance).
  const std::string intact = ReadFileBytes(latest->path);
  for (size_t at = 0; at < intact.size(); ++at) {
    std::string corrupt = intact;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x10);
    WriteFileBytes(latest->path, corrupt);
    auto reread = ReadSnapshot(latest->path);
    EXPECT_FALSE(reread.ok()) << "byte " << at << " flipped undetected";
  }
  WriteFileBytes(latest->path, intact);
}

TEST(ServerDurabilityTest, CreateRecoverOpenSurface) {
  TempDir dir;
  ServerOptions options;
  options.durability.dir = dir.path();

  // Nothing durable yet: Recover refuses, Open falls back to Create.
  RecoveryReport report;
  auto recovered = Server::Recover(options, &report);
  EXPECT_EQ(recovered.status().code(), StatusCode::kNotFound)
      << recovered.status().ToString();

  auto server = Server::Open(options, &report);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_FALSE(report.recovered);
  ASSERT_TRUE((*server)
                  ->RegisterDatabase("euter",
                                     *ParseValue("(r: {(date: 3/5/85, "
                                                 "stkCode: hp, clsPrice: 321)})"))
                  .ok());
  ASSERT_TRUE((*server)
                  ->DefineRule(".dbI.p(.stk=S, .clsPrice=P) <- "
                               ".euter.r(.stkCode=S, .clsPrice=P)")
                  .ok());
  {
    auto session = (*server)->Connect();
    ASSERT_TRUE(session.ok());
    auto commit = session->Update("?.euter.r+(.date=3/6/1985, .stkCode=ti, "
                                  ".clsPrice=55)");
    ASSERT_TRUE(commit.ok()) << commit.status().ToString();
  }
  server->reset();  // clean shutdown; durable state stays behind

  // The directory now holds state: Create must refuse to clobber it.
  auto clobber = Server::Create(options);
  EXPECT_EQ(clobber.status().code(), StatusCode::kAlreadyExists)
      << clobber.status().ToString();

  // Open routes to Recover and rebuilds everything.
  server = Server::Open(options, &report);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_TRUE(report.recovered);
  EXPECT_EQ(report.replayed_records, 3u);  // register, rule, commit
  EXPECT_EQ(report.torn_tail_truncations, 0u);
  auto session = (*server)->Connect();
  ASSERT_TRUE(session.ok());
  auto answer = session->Query("?.dbI.p(.stk=S, .clsPrice=P)");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  std::string table = answer->ToTable();
  EXPECT_NE(table.find("hp"), std::string::npos) << table;
  EXPECT_NE(table.find("ti"), std::string::npos) << table;

  // Empty dir is rejected up front (in-memory servers just use Server()).
  ServerOptions memoryless;
  auto bad = Server::Open(memoryless, nullptr);
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServerDurabilityTest, RecoveryDeadlineComposesWithGovernor) {
  TempDir dir;
  ServerOptions options;
  options.durability.dir = dir.path();
  // A long log of real commits (checkpointing off so every one replays).
  options.durability.checkpoint_every = 100000;
  const int kCommits = 300;
  {
    auto server = Server::Open(options, nullptr);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    ASSERT_TRUE(
        (*server)->RegisterDatabase("db", *ParseValue("(r: {})")).ok());
    auto session = (*server)->Connect();
    ASSERT_TRUE(session.ok());
    for (int i = 0; i < kCommits; ++i) {
      auto commit =
          session->Update(StrCat("?.db.r+(.k=", i, ", .v=", i * 10, ")"));
      ASSERT_TRUE(commit.ok()) << commit.status().ToString();
    }
  }
  // A one-millisecond recovery budget cannot replay three hundred commits:
  // the per-record budget check trips and recovery fails loudly (partial
  // recovery is never published).
  ServerOptions strangled = options;
  strangled.durability.recover_deadline_ms = 1;
  RecoveryReport report;
  auto starved = Server::Recover(strangled, &report);
  ASSERT_FALSE(starved.ok());
  EXPECT_EQ(starved.status().code(), StatusCode::kDeadlineExceeded)
      << starved.status().ToString();
  // Either the recovery budget check trips between records, or a governed
  // replayed commit aborts at a governor checkpoint — both are deadline
  // failures, the latter tagged with the record it was replaying.
  const std::string message = starved.status().ToString();
  EXPECT_TRUE(message.find("recovery deadline") != std::string::npos ||
              message.find("replaying wal.log record") != std::string::npos)
      << message;

  // Unlimited budget (the default) replays everything and reports stats.
  auto server = Server::Recover(options, &report);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_EQ(report.replayed_records, 1u + kCommits);
  EXPECT_GE(report.wall_ms, 0.0);
  EXPECT_GT(report.epoch, 0u);
}

TEST(ScriptDriverTest, DurableSpecParsing) {
  auto spec = ParseDurableScriptSpec(
      "% wal:\n% checkpoint-every: 7\n% crash-at: mid-append\n"
      "% crash-after: 3\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_TRUE(spec->durable);
  EXPECT_EQ(spec->checkpoint_every, 7u);
  EXPECT_EQ(spec->crash_at, CrashPoint::kMidAppend);
  EXPECT_EQ(spec->crash_after, 3u);

  spec = ParseDurableScriptSpec("?.a.b(.x=X);\n");
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(spec->durable);
  EXPECT_EQ(spec->crash_after, 0u);

  spec = ParseDurableScriptSpec("% wal:\n% crash-at: after-lunch\n");
  EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(spec.status().ToString().find("unknown crash point 'after-lunch'"),
            std::string::npos);
}

// `% checkpoint-every:` and `% crash-after:` take a whole decimal integer
// that fits size_t: trailing characters and overflow name the directive.
TEST(ScriptDriverTest, DurableSpecRejectsMalformedNumbers) {
  for (const std::string line :
       {"% checkpoint-every: 7x", "% checkpoint-every: -4",
        "% crash-after: 3 later", "% crash-after: 123456789012345678901"}) {
    SCOPED_TRACE(line);
    auto spec = ParseDurableScriptSpec("% wal:\n" + line + "\n");
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
    const std::string directive = line.substr(0, line.find(':') + 1);
    EXPECT_NE(spec.status().ToString().find(directive + " wants an integer"),
              std::string::npos)
        << spec.status().ToString();
  }
}

TEST(ScriptDriverTest, ServerSessionsDirectiveParsing) {
  auto sessions = ServerSessionsDirective("% server-sessions: 3 \n?.a.b;\n");
  ASSERT_TRUE(sessions.ok()) << sessions.status().ToString();
  EXPECT_EQ(*sessions, 3u);
  sessions = ServerSessionsDirective("?.a.b(.x=X);\n");
  ASSERT_TRUE(sessions.ok());
  EXPECT_EQ(*sessions, 0u);
  for (const char* script :
       {"% server-sessions: 3x\n", "% server-sessions: -1\n",
        "% server-sessions:\n", "% server-sessions: 123456789012345678901\n"}) {
    SCOPED_TRACE(script);
    sessions = ServerSessionsDirective(script);
    EXPECT_EQ(sessions.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(sessions.status().ToString().find(
                  "% server-sessions: wants an integer"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace idl
