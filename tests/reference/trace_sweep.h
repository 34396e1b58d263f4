// Schema-evolution traces through the server's commit queue.
//
// PR 6's generator proves the engine's mode lattice agrees with a logical
// oracle under serial execution. This sweep replays the same generated
// traces against the *server*: one tenant workload's update requests commit
// through the single-writer queue while N reader sessions pin epochs and
// assert, concurrently, that
//
//   (a) the epoch each commit publishes is Value-identical to a shadow
//       serial Session that applied the same request prefix — every epoch
//       IS the serial execution of an epoch-consistent prefix — and to the
//       reference evaluator's materialization (reference/reference.h) of
//       the shadow's base, and
//   (b) at every step boundary the readers' unified view (queried through
//       the normal reader path, all sessions concurrently, answers
//       byte-compared) agrees with the generator's oracle snapshot.
//
// Zero mismatches across the configs shows local schemas can keep evolving
// while the federation stays continuously queryable.

#ifndef IDL_TESTS_REFERENCE_TRACE_SWEEP_H_
#define IDL_TESTS_REFERENCE_TRACE_SWEEP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "server/server.h"
#include "workload/discrepancy_gen.h"

namespace idl {

struct ServerSweepOptions {
  // Evolution-trace steps per universe.
  size_t trace_steps = 4;
  // Salt mixed into the trace RNG.
  uint64_t trace_salt = 0;
  // Concurrent reader sessions asserting oracle agreement per boundary.
  size_t reader_sessions = 3;
  // Server configuration (materialize options, commit-queue bound). The
  // shadow session materializes with the same options, serially.
  ServerOptions server;
};

struct ServerSweepReport {
  size_t universes = 0;
  size_t steps = 0;          // evolution steps replayed
  size_t commits = 0;        // update requests committed through the queue
  size_t epochs = 0;         // epochs published across all universes
  size_t serial_checks = 0;  // epochs compared to the shadow and reference
  size_t reader_checks = 0;  // reader-vs-oracle unified-view comparisons
  std::vector<std::string> mismatches;

  bool ok() const { return mismatches.empty(); }
};

ServerSweepReport RunServerTraceSweep(
    const std::vector<DiscrepancyConfig>& configs,
    const ServerSweepOptions& options);

// One line, locked by tests/explain_format_test.cc:
//   "server-sweep: universes=5 steps=20 commits=63 epochs=73
//    serial_checks=63 reader_checks=75 mismatches=0\n"
std::string FormatServerSweepReport(const ServerSweepReport& report);

}  // namespace idl

#endif  // IDL_TESTS_REFERENCE_TRACE_SWEEP_H_
