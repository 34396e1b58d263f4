// End-to-end benchmark of the IDL server: one seeded workload per run,
// measured with tracing off; with --trace 1, followed by a traced replay
// of the same requests that reports per-layer metrics. The last line of
// standard output is the JSON result. See perfbench/README.md.
//
//   idl_perfbench --workload fig1-query --seed 1 --seconds 10 --trace 0
//                 --work-dir .bench_build/work
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/str_util.h"
#include "measure.h"
#include "replay.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: idl_perfbench --workload <fig1-query|fig1-ingest|"
               "tenants-evolve> --seed <n> --seconds <s> --trace <0|1> "
               "--work-dir <dir>\n",
               why);
  return 2;
}

std::string Fixed(double v, int digits = 3) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

void Print(const std::string& line) { std::printf("%s\n", line.c_str()); }

// Count, mean, and every percentile the sample supports.
std::string Describe(const char* what, const Samples& s) {
  if (s.count() == 0) return idl::StrCat(what, ": none");
  std::string out = idl::StrCat(what, ": n=", s.count(), " mean=",
                                Fixed(s.Mean()));
  for (double q : {0.5, 0.9, 0.95, 0.99}) {
    out += idl::StrCat(" p", static_cast<int>(q * 100), "=",
                       s.Supports(q) ? Fixed(s.Percentile(q))
                                     : std::string("refused"));
  }
  return out + " max=" + Fixed(s.Percentile(1.0)) + " ms";
}

int Main(int argc, char** argv) {
  Args args;
  std::string trace = "0";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : WorkloadNames()) known |= name == args.workload;
  if (!known) return Usage("unknown or missing --workload");
  if (!(args.seconds > 0.0)) return Usage("--seconds must be positive");
  if (trace != "0" && trace != "1") return Usage("--trace must be 0 or 1");
  if (args.work_dir.empty()) return Usage("missing --work-dir");
  args.trace = trace == "1";
  args.work_dir += idl::StrCat("/", args.workload, "-", ::getpid());
  RemoveTree(args.work_dir);
  if (!MakeDirs(args.work_dir)) return Usage("cannot create --work-dir");

  // Inputs first, then the peak-memory mark, so that peak_rss_mb measures
  // the server rather than the generator.
  const Clock::time_point gen0 = Clock::now();
  const Inputs inputs = GenerateInputs(args);
  const double gen_s = MsSince(gen0) / 1000.0;
  ReleaseFreeMemory();
  const bool rss_reset = ResetPeakRss();

  RunResult run = RunWorkload(args, inputs);
  const bool read_primary = inputs.closed_readers > 0;
  const Samples& primary = read_primary ? run.queries : run.commits;
  const uint64_t completed = primary.count();

  Print(idl::StrCat("workload ", inputs.name, " seed ", args.seed,
                    ": inputs generated in ", Fixed(gen_s), " s; ",
                    run.final_epoch != nullptr
                        ? idl::CountCells(run.final_epoch->universe)
                        : 0,
                    " cells in the final epoch"));
  std::string setups;
  for (double s : run.setup_s) setups += " " + Fixed(s, 4);
  Print("setup_s per repetition:" + setups);
  Print(Describe(read_primary ? "queries (primary)" : "queries",
                 run.queries));
  Print(Describe(read_primary ? "commits" : "commits (primary)", run.commits));
  Print(idl::StrCat("window ", Fixed(run.window_s), " s: ", completed,
                    " primary requests completed (",
                    Fixed(run.window_s > 0 ? completed / run.window_s : 0.0,
                          1),
                    " per s)"));
  if (run.commits.count() + run.acks.size() > 0) {
    const uint64_t paths = run.dred + run.insert_propagated;
    Print(idl::StrCat("commits by maintenance path: delete-and-rederive ",
                      run.dred, ", insert-propagated ", run.insert_propagated,
                      " (dred share ",
                      Fixed(paths == 0 ? 0.0 : 100.0 * run.dred / paths, 1),
                      "%)"));
    // The server checkpoints on the commit that fills kCheckpointEvery
    // records; commit k (epoch base + k) is record setup_tail + k.
    uint64_t carrying = 0;
    for (const Ack& a : run.acks) {
      if ((run.setup_tail + a.epoch - run.base_epoch) % kCheckpointEvery == 0) {
        ++carrying;
      }
    }
    Print(idl::StrCat("commits carrying a checkpoint: ", carrying, " of ",
                      run.acks.size()));
    Print(idl::StrCat("server commit service mean ",
                      Fixed(run.commit_service_ms), " ms, queue wait mean ",
                      Fixed(run.queue_wait_ms), " ms; write bytes per commit ",
                      Fixed(run.write_bytes_per_commit, 1)));
  }
  if (run.lateness.count() > 0) {
    Print(idl::StrCat("reads due while a commit ran: ", run.reads_during_commit,
                      " of ", run.queries.count()));
    Print(Describe("open-loop generator lateness", run.lateness));
  }
  Print(idl::StrCat("recover_s ", Fixed(run.recover_s, 4), " (wal tail ",
                    run.wal_tail, " records, ",
                    Fixed(run.replay_ms_per_record), " ms per record)"));
  Print(idl::StrCat("peak_rss_mb ", Fixed(run.peak_rss_mb, 1),
                    rss_reset ? "" : " (peak mark not reset)",
                    "; maintenance fallbacks ", run.fallbacks));

  // A percentile needs ten samples beyond it; otherwise the run is refused.
  ++run.attempted;
  if (!primary.Supports(0.5)) {
    run.Fail(idl::StrCat("p50 refused: only ", primary.count(), " samples"));
  }

  std::map<std::string, Metric> metrics;
  if (args.trace) {
    ReplayLayers(args, inputs, &run,
                 idl::StrCat(args.work_dir, "/../trace-", inputs.name,
                             ".json"),
                 &metrics);
  } else {
    metrics["setup_s"] = {MedianOf(run.setup_s), "s"};
    metrics["p50_ms"] = {primary.Median(), "ms"};
    metrics["peak_rss_mb"] = {run.peak_rss_mb, "MB"};
  }
  for (const std::string& e : run.errors) Print("FAILED: " + e);
  RemoveTree(args.work_dir);
  PrintResult(run.failed == 0, run.attempted, run.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
