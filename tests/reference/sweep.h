// Cross-mode differential sweep over generated discrepancy workloads.
//
// A ModePoint is one configuration the sweep runs. Point 0 of the lattice
// is the reference evaluator (reference/reference.h): the naive fixpoint,
// rematerialized from scratch at every comparison over the base of the
// first library point. The other 16 run the library:
//
//   parallelism  serial | parallel (materialize_parallelism 1 | auto)
//   views        incremental (the session maintains its cache) | rebuilt
//                (the cache is invalidated after every request, so every
//                materialization runs the full semi-naive fixpoint)
//   federation   direct (databases registered in-process) | gateway
//                (every tenant behind a SimulatedRemoteSite with injected
//                transient faults, absorbed by the gateway's retries)
//   governor     ungoverned | generous pass/derivation budgets on every
//                request and materialization (counters run, limits never
//                bind — wall-clock budgets would be flaky under sanitizers)
//
// FullModeLattice() enumerates the reference plus 2 x 2 x 2 x 2 = 16
// library points.
//
// RunDifferentialSweep drives every generated universe (and optionally an
// evolution trace) through all modes in lockstep: after the initial
// materialization and again after *every* update request, all sessions'
// merged universes must be byte-identical (Value equality) to the
// reference's, and at every step boundary the reference's unified and
// customized views must equal the generator's oracle. Any divergence is
// reported, and — unless disabled — handed to the shrinker, which
// minimizes the (config, trace) pair dimension by dimension while the
// mismatch reproduces, then writes a standalone .idl repro script (a
// "% workload:" spec plus the literal requests) as a test artifact.

#ifndef IDL_TESTS_REFERENCE_SWEEP_H_
#define IDL_TESTS_REFERENCE_SWEEP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "eval/query.h"
#include "workload/discrepancy_gen.h"

namespace idl {

struct ModePoint {
  // The reference evaluator instead of a library session; every other
  // field is ignored.
  bool reference = false;
  // EvalOptions::materialize_parallelism (1 = serial, 0 = auto).
  size_t parallelism = 1;
  // Invalidate the session's view cache after every request, so each
  // materialization runs from scratch instead of maintaining the cache.
  bool rebuilt = false;
  // Tenants behind a federation gateway (SimulatedRemoteSite per tenant)
  // instead of locally registered databases.
  bool federated = false;
  // Schedule transient site faults before every step (federated only);
  // the gateway's retries must absorb them without changing any answer.
  bool faulty = false;
  // Generous (never-binding) governor budgets on requests and
  // materializations.
  bool governed = false;

  // "reference" or "parallel/rebuilt/fed+faults/gov" — stable, locked by
  // explain_format_test.
  std::string Label() const;
};

// The full 17-point lattice; [0] is the reference.
std::vector<ModePoint> FullModeLattice();

struct SweepOptions {
  // Modes to run (empty = FullModeLattice()). [0] is the reference.
  std::vector<ModePoint> modes;
  // Evolution-trace steps per universe (0 = static universes only).
  size_t trace_steps = 0;
  // Salt mixed into the trace RNG (distinct sweeps over the same configs).
  uint64_t trace_salt = 0;
  // Minimize mismatches and write repro artifacts.
  bool shrink_on_mismatch = true;
  // Where repro scripts land ("" = $IDL_WORKLOAD_ARTIFACT_DIR, falling
  // back to the system temp directory).
  std::string artifact_dir;
  // Testing seam: corrupt the last mode's unified-view snapshot at every
  // comparison point, so the detect -> shrink -> artifact pipeline runs
  // end-to-end against a guaranteed mismatch.
  bool inject_mismatch_for_testing = false;
};

struct SweepReport {
  size_t universes = 0;
  size_t traces = 0;
  size_t steps = 0;     // evolution steps replayed
  size_t requests = 0;  // update requests applied (per mode)
  size_t modes = 0;
  size_t comparisons = 0;  // cross-mode universe comparisons
  // Incremental-maintenance fallbacks observed in non-federated
  // incremental modes (federated resyncs may legitimately rebuild). The
  // tier-1 sweep asserts this stays zero.
  uint64_t fallbacks = 0;
  std::vector<std::string> mismatches;
  std::vector<std::string> repro_paths;  // shrunk artifacts, one per mismatch

  bool ok() const { return mismatches.empty(); }
};

SweepReport RunDifferentialSweep(const std::vector<DiscrepancyConfig>& configs,
                                 const SweepOptions& options);

// One line, locked by tests/explain_format_test.cc:
//   "sweep: universes=50 traces=10 steps=80 requests=212 modes=17
//    comparisons=12345 fallbacks=0 mismatches=0\n"
std::string FormatSweepReport(const SweepReport& report);

// ---- Shrinker ---------------------------------------------------------------

struct ShrinkResult {
  DiscrepancyConfig config;  // minimized
  size_t trace_steps = 0;    // minimized
  std::string mismatch;      // description from the minimized reproduction
  std::string script;        // standalone .idl repro
};

// Re-runs (config, trace_steps) through options.modes, then greedily
// shrinks tenants / entities / keys / steps / mangling / views while the
// mismatch keeps reproducing. Precondition: the input pair mismatches.
ShrinkResult ShrinkMismatch(const DiscrepancyConfig& config,
                            size_t trace_steps, const SweepOptions& options);

// The standalone repro script for a (possibly shrunk) scenario: the
// workload spec directive, the trace's literal update requests, and a
// final query over the unified view.
std::string BuildReproScript(const DiscrepancyConfig& config,
                             size_t trace_steps, uint64_t trace_salt,
                             const std::string& mismatch);

// Writes the shrink result's script into `artifact_dir` (see
// SweepOptions::artifact_dir for the fallbacks); returns the path.
Result<std::string> WriteReproArtifact(const ShrinkResult& shrunk,
                                       const std::string& artifact_dir);

}  // namespace idl

#endif  // IDL_TESTS_REFERENCE_SWEEP_H_
