// The three seeded workloads of the end-to-end benchmark, their untraced
// run against an idl::Server, and their correctness gates. The traced,
// layer-by-layer replay of the same requests lives in replay.h.
#ifndef IDL_PERFBENCH_WORKLOADS_H_
#define IDL_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "measure.h"
#include "server/server.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory (inside the checkout) for write-ahead logs and snapshots.
  std::string work_dir;
};

// Records per WAL checkpoint, and the number of records every durable run
// leaves after its last checkpoint, so that recover_s replays a fixed tail.
constexpr size_t kCheckpointEvery = 64;
constexpr size_t kWalTail = 32;

// Worker threads for rule evaluation: serial, so that the clients, the
// commit thread and the evaluation together stay within four cores (the
// default, 0, means one worker per core on top of the clients).
constexpr size_t kMaterializeParallelism = 1;

// Order-insensitive digest of an answer: the hash of the set of its rows,
// each row a tuple over the answer's column names.
uint64_t AnswerDigest(const idl::Answer& answer);

using Databases = std::vector<std::pair<std::string, idl::Value>>;

// Everything a workload sends, generated from the seed before any setup.
// Kept compact: databases are rebuilt per setup from the generator state,
// and oracles are stored as answer digests.
struct Inputs {
  std::string name;
  std::function<Databases()> build_databases;
  std::vector<std::string> rules;
  std::vector<std::string> programs;
  // setup_s is the median over this many setups.
  int setup_repetitions = 3;

  // fig1-query: closed-loop readers over one pinned epoch.
  size_t closed_readers = 0;
  std::vector<std::string> query_pool;
  std::vector<uint64_t> query_digests;  // expected answer per pool query

  // fig1-ingest: closed-loop writers, one request stream each.
  std::vector<std::vector<std::string>> writer_streams;

  // tenants-evolve: one open-loop writer replaying `trace_requests` at
  // `commit_rate`, beside `open_readers` open-loop readers at `read_rate`
  // each. boundary_after[i] is the oracle index that holds once request i
  // is applied (-1 inside a multi-request step); boundary_digests[b][q] is
  // the expected digest of read_pool[q] at oracle b (b = 0: initial state).
  std::vector<std::string> trace_requests;
  std::vector<int> boundary_after;
  // trace_requests[tail_from...] are not sent in the window; they end the
  // run on a fixed WAL tail (see PadWalTail).
  size_t tail_from = 0;
  double commit_rate = 0.0;
  size_t open_readers = 0;
  double read_rate = 0.0;
  std::vector<std::string> read_pool;
  std::vector<std::vector<uint64_t>> boundary_digests;

  bool writes() const {
    return !writer_streams.empty() || !trace_requests.empty();
  }
};

Inputs GenerateInputs(const Args& args);
std::vector<std::string> WorkloadNames();

// An acknowledged commit: the epoch it published and its request text.
struct Ack {
  uint64_t epoch = 0;
  const std::string* request = nullptr;
  int writer = 0;
};

// A read a client completed: the epoch it ran on, the pool query, and the
// digest of the answer the server returned.
struct Read {
  uint64_t epoch = 0;
  uint32_t query = 0;
  uint64_t digest = 0;
};

// What the untraced run measured and recorded.
struct RunResult {
  std::vector<double> setup_s;  // one per setup repetition
  uint64_t base_epoch = 0;      // the epoch setup published
  size_t setup_tail = 0;        // WAL records after setup's checkpoints

  Samples queries;  // ServerSession::Query latency (open loop: from due)
  Samples commits;  // Server::Commit latency (open loop: from due)
  Samples lateness; // open-loop generators: call time minus due time
  double window_s = 0.0;
  uint64_t reads_during_commit = 0;  // reads due while a commit ran

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // the first few failures, for the log

  std::vector<Ack> acks;    // every acknowledged commit, epoch order
  std::vector<Read> reads;  // reads kept for the replay and its check

  // Read from common/metrics after the window (tracing off).
  double commit_service_ms = 0.0;  // mean server.commit_ms
  double queue_wait_ms = 0.0;      // mean server.commit_queue_ms
  uint64_t dred = 0;               // engine.deltas.delete_and_rederive
  uint64_t insert_propagated = 0;  // engine.deltas.insert_propagated
  uint64_t fallbacks = 0;          // rematerializations after setup
  double write_bytes_per_commit = 0.0;
  double peak_rss_mb = 0.0;

  double recover_s = 0.0;
  double replay_ms_per_record = 0.0;
  size_t wal_tail = 0;

  idl::EpochPtr final_epoch;

  void Fail(std::string what);
};

// Sets up the server `setup_repetitions` times (keeping the last), runs the
// workload for args.seconds, pads the WAL to its fixed tail, and checks the
// final epoch against a serial session and against recovery.
RunResult RunWorkload(const Args& args, const Inputs& inputs);

}  // namespace perfbench

#endif  // IDL_PERFBENCH_WORKLOADS_H_
