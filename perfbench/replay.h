// The traced run: replays a workload's acknowledged commits and recorded
// reads on one thread through the public calls the server makes, with a
// span around every call, and derives the per-layer metrics.
//
// Commits: Session::Update -> Wal::Append -> Session::universe() (view
// maintenance) -> Session::SnapshotUniverse() -> ColumnarStore::Build(...,
// previous) -> WriteSnapshot + Wal::Reset every kCheckpointEvery records.
// Reads: ParseQuery -> EvaluateQuery under a ResourceGovernor, on the
// epoch's snapshot and columnar store.
#ifndef IDL_PERFBENCH_REPLAY_H_
#define IDL_PERFBENCH_REPLAY_H_

#include <map>
#include <string>

#include "measure.h"
#include "workloads.h"

namespace perfbench {

// Names of every per-layer metric, with its unit, in report order.
const std::vector<std::pair<std::string, std::string>>& LayerMetricNames();

// Runs the replay twice, with the program's own tracing off and on, checks
// that both end in the untraced run's final epoch and return the answers
// the server returned, and fills `metrics` with every per-layer metric
// (0 where a workload does not use the layer). The trace of the second
// pass is written to `trace_path`.
void ReplayLayers(const Args& args, const Inputs& inputs, RunResult* run,
                  const std::string& trace_path,
                  std::map<std::string, Metric>* metrics);

}  // namespace perfbench

#endif  // IDL_PERFBENCH_REPLAY_H_
