// Golden-text locks on the rendered Explain() surfaces: the governor usage
// line (common/governor.h), the incremental-maintenance line
// (eval/explain.h), the federation per-site table (eval/explain.h), the
// EXPLAIN ANALYZE table (FormatAnalyze), the trace renderings
// (common/trace.h) and the metrics listing (common/metrics.h). These
// strings are part of the observable interface — idl_shell prints them and
// docs/GOVERNOR.md / docs/INCREMENTAL.md / docs/OBSERVABILITY.md quote them
// — so a format change must be a deliberate edit here, not an accident.

#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <string>
#include <vector>

#include "common/governor.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "eval/explain.h"
#include "reference/sweep.h"
#include "reference/trace_sweep.h"

namespace idl {
namespace {

TEST(ExplainFormatTest, GovernorLineUnbounded) {
  // Fresh governor, nothing consumed, no limits: every bound renders "-".
  GovernorUsage usage;
  GovernorLimits limits;
  EXPECT_EQ(FormatGovernorUsage(usage, limits),
            "governor: passes=0/- derivations=0/- cells=0/- checkpoints=0 "
            "remaining_ms=- status=completed\n");
}

TEST(ExplainFormatTest, GovernorLineBoundedAndAborted) {
  GovernorUsage usage;
  usage.checkpoints = 42;
  usage.passes = 3;
  usage.derivations = 120;
  usage.peak_cells = 900;
  usage.remaining_ms = 7;
  usage.abort_reason =
      "resource exhausted: fixpoint did not converge within max_passes=3";
  GovernorLimits limits;
  limits.deadline_ms = 50;  // reported via remaining_ms, not as a bound
  limits.max_passes = 3;
  limits.max_derivations = 1000;
  limits.max_universe_cells = 2048;
  EXPECT_EQ(
      FormatGovernorUsage(usage, limits),
      "governor: passes=3/3 derivations=120/1000 cells=900/2048 "
      "checkpoints=42 remaining_ms=7 status=resource exhausted: fixpoint "
      "did not converge within max_passes=3\n");
}

TEST(ExplainFormatTest, GovernorLineMatchesLiveGovernor) {
  // The same renderer fed from a real governor: counters land in the
  // expected fields.
  GovernorLimits limits;
  limits.max_derivations = 10;
  ResourceGovernor g(limits);
  ASSERT_TRUE(g.ChargePass().ok());
  ASSERT_TRUE(g.ChargeDerivations(4).ok());
  EXPECT_EQ(FormatGovernorUsage(g.Usage(), g.limits()),
            "governor: passes=1/- derivations=4/10 cells=0/- checkpoints=2 "
            "remaining_ms=- status=completed\n");
}

TEST(ExplainFormatTest, MaintenanceLine) {
  MaintenanceStats stats;
  EXPECT_EQ(FormatMaintenanceStats(stats),
            "maintenance: deltas=0 rederived=0 strata_skipped=0 "
            "strata_rederived=0 fallbacks=0\n");
  stats.deltas_applied = 12;
  stats.rederived = 345;
  stats.strata_skipped = 6;
  stats.strata_rederived = 7;
  stats.fallbacks = 1;
  EXPECT_EQ(FormatMaintenanceStats(stats),
            "maintenance: deltas=12 rederived=345 strata_skipped=6 "
            "strata_rederived=7 fallbacks=1\n");
}

TEST(ExplainFormatTest, SiteStatsTable) {
  SiteStats alpha;
  alpha.site = "alpha";
  alpha.requests = 12;
  alpha.cache_hits = 2;
  alpha.cache_misses = 1;
  alpha.retries = 4;
  alpha.timeouts = 1;
  alpha.failures = 5;
  alpha.shipped_subgoals = 6;
  alpha.pulled_exports = 7;

  SiteStats b;
  b.site = "b";
  b.requests = 3;
  b.pulled_exports = 1;
  b.degraded = true;

  // Right-aligned columns, two-space gutters, a dash rule under the header,
  // and a totals row with an empty state cell.
  EXPECT_EQ(
      FormatSiteStats({alpha, b}),
      " site  reqs  hits  misses  retries  timeouts  failures  shipped  "
      "pulled     state\n"
      "-----  ----  ----  ------  -------  --------  --------  -------  "
      "------  --------\n"
      "alpha    12     2       1        4         1         5        6  "
      "     7        ok\n"
      "    b     3     0       0        0         0         0        0  "
      "     1  degraded\n"
      "total    15     2       1        4         1         5        6  "
      "     8          \n");
}

TEST(ExplainFormatTest, AnalyzeTable) {
  StratumStats s0;
  s0.stratum = 0;
  s0.passes = 1;
  s0.substitutions = 36;
  s0.wall_ms = 0.5;
  s0.cpu_ms = 0.45;
  RuleTimingStats r0;
  r0.rule = 0;
  r0.head = "dbI.p";
  r0.passes = 1;
  r0.substitutions = 36;
  r0.enumerate_ms = 0.25;
  r0.write_ms = 0.2;
  s0.rule_timings.push_back(r0);

  StratumStats s1;
  s1.stratum = 1;
  s1.passes = 3;
  s1.substitutions = 9;
  s1.wall_ms = 1.0;
  s1.cpu_ms = 1.0;
  RuleTimingStats r1;
  r1.rule = 1;
  r1.head = "*";
  r1.passes = 3;
  r1.substitutions = 9;
  r1.enumerate_ms = 0.75;
  r1.write_ms = 0.25;
  s1.rule_timings.push_back(r1);

  // Per-stratum rows carry wall/cpu; their per-rule rows carry the phase
  // split; the totals row sums the strata; the trailer reports the
  // materialization's own end-to-end clock next to the strata sum.
  EXPECT_EQ(FormatAnalyze({s0, s1}, 1.6, 1.45),
            "stratum  rule   head  passes  subs  enum_ms  write_ms  wall_ms"
            "  cpu_ms\n"
            "-------  ----  -----  ------  ----  -------  --------  -------"
            "  ------\n"
            "      0     -      -       1    36        -         -     0.50"
            "    0.45\n"
            "      0     0  dbI.p       1    36     0.25      0.20        -"
            "       -\n"
            "      1     -      -       3     9        -         -     1.00"
            "    1.00\n"
            "      1     1      *       3     9     0.75      0.25        -"
            "       -\n"
            "  total     -      -                                      1.50"
            "    1.45\n"
            "analyze: wall=1.60ms cpu=1.45ms strata_wall=1.50ms\n");

  // The masked form every golden transcript pins: timing cells and trailer
  // values become "-", counts stay.
  EXPECT_EQ(FormatAnalyze({s0, s1}, 1.6, 1.45, /*mask_timings=*/true),
            "stratum  rule   head  passes  subs  enum_ms  write_ms  wall_ms"
            "  cpu_ms\n"
            "-------  ----  -----  ------  ----  -------  --------  -------"
            "  ------\n"
            "      0     -      -       1    36        -         -        -"
            "       -\n"
            "      0     0  dbI.p       1    36        -         -        -"
            "       -\n"
            "      1     -      -       3     9        -         -        -"
            "       -\n"
            "      1     1      *       3     9        -         -        -"
            "       -\n"
            "  total     -      -                                         -"
            "       -\n"
            "analyze: wall=- cpu=- strata_wall=-\n");
}

TEST(ExplainFormatTest, TraceRenderings) {
  Trace::Enable();
  {
    TraceSpan outer("materialize", "strategy=semi-naive");
    { TraceSpan inner("stratum", "level=0 rules=3"); }
    { TraceSpan plain("write"); }
  }
  Trace::Disable();

  // Masked tree: open order, two-space indent per depth, "-" timings.
  EXPECT_EQ(Trace::Render(/*mask_timings=*/true),
            "materialize strategy=semi-naive wall=- cpu=-\n"
            "  stratum level=0 rules=3 wall=- cpu=-\n"
            "  write wall=- cpu=-\n");

  // Unmasked timings render as fixed-point milliseconds. (Match the shape,
  // not the magnitude: under a loaded machine even three trivial spans can
  // cross 1ms of wall.)
  std::string live = Trace::Render();
  size_t wall_at = live.find("materialize strategy=semi-naive wall=");
  ASSERT_NE(wall_at, std::string::npos) << live;
  size_t digits = wall_at + sizeof("materialize strategy=semi-naive wall=") - 1;
  EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(live[digits]))) << live;
  EXPECT_NE(live.find(".", digits), std::string::npos) << live;
  EXPECT_NE(live.find("ms cpu=", digits), std::string::npos) << live;

  // Masked JSON: flat span list, ids parent-before-child, null timings.
  EXPECT_EQ(Trace::RenderJson(/*mask_timings=*/true),
            "{\"spans\":["
            "{\"id\":1,\"parent\":0,\"name\":\"materialize\","
            "\"detail\":\"strategy=semi-naive\","
            "\"wall_ms\":null,\"cpu_ms\":null},"
            "{\"id\":2,\"parent\":1,\"name\":\"stratum\","
            "\"detail\":\"level=0 rules=3\","
            "\"wall_ms\":null,\"cpu_ms\":null},"
            "{\"id\":3,\"parent\":1,\"name\":\"write\",\"detail\":\"\","
            "\"wall_ms\":null,\"cpu_ms\":null}"
            "]}");
  Trace::Clear();
}

TEST(ExplainFormatTest, SweepReportLine) {
  // The differential-sweep summary (tests/reference/sweep.h): one line, every
  // counter named. bench_workload and the sweep tests print it, and
  // docs/WORKLOADS.md quotes it.
  SweepReport report;
  EXPECT_EQ(FormatSweepReport(report),
            "sweep: universes=0 traces=0 steps=0 requests=0 modes=0 "
            "comparisons=0 fallbacks=0 mismatches=0\n");
  report.universes = 50;
  report.traces = 10;
  report.steps = 80;
  report.requests = 212;
  report.modes = 17;
  report.comparisons = 12345;
  report.fallbacks = 1;
  report.mismatches.push_back("serial/inc/direct/plain diverges");
  EXPECT_EQ(FormatSweepReport(report),
            "sweep: universes=50 traces=10 steps=80 requests=212 modes=17 "
            "comparisons=12345 fallbacks=1 mismatches=1\n");
}

TEST(ExplainFormatTest, ServerSweepReportLine) {
  // The server trace-sweep summary (tests/reference/trace_sweep.h): one line,
  // every counter named. The server differential tests print it and
  // docs/SERVER.md quotes it.
  ServerSweepReport report;
  EXPECT_EQ(FormatServerSweepReport(report),
            "server-sweep: universes=0 steps=0 commits=0 epochs=0 "
            "serial_checks=0 reader_checks=0 mismatches=0\n");
  report.universes = 5;
  report.steps = 20;
  report.commits = 63;
  report.epochs = 73;
  report.serial_checks = 63;
  report.reader_checks = 75;
  report.mismatches.push_back("epoch 9 diverges from serial execution");
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(FormatServerSweepReport(report),
            "server-sweep: universes=5 steps=20 commits=63 epochs=73 "
            "serial_checks=63 reader_checks=75 mismatches=1\n");
}

TEST(ExplainFormatTest, ModePointLabels) {
  // Mode labels appear in mismatch reports and shrunk repro scripts; the
  // lattice order (reference first) is part of the sweep's contract.
  std::vector<ModePoint> lattice = FullModeLattice();
  ASSERT_EQ(lattice.size(), 17u);
  EXPECT_EQ(lattice[0].Label(), "reference");
  EXPECT_EQ(lattice[1].Label(), "serial/inc/direct/plain");
  EXPECT_EQ(lattice[2].Label(), "serial/inc/direct/gov");
  EXPECT_EQ(lattice[3].Label(), "serial/inc/fed+faults/plain");
  EXPECT_EQ(lattice[5].Label(), "serial/rebuilt/direct/plain");
  EXPECT_EQ(lattice[16].Label(), "parallel/rebuilt/fed+faults/gov");
  std::set<std::string> labels;
  for (const ModePoint& mode : lattice) labels.insert(mode.Label());
  EXPECT_EQ(labels.size(), 17u) << "mode labels collide";

  ModePoint fed_no_faults;
  fed_no_faults.federated = true;
  EXPECT_EQ(fed_no_faults.Label(), "serial/inc/fed/plain");
}

TEST(ExplainFormatTest, MetricsListing) {
  // A private registry keeps this lock independent of what the process has
  // already counted globally.
  MetricsRegistry registry;
  registry.counter("engine.fixpoint_passes")->Increment(12);
  registry.gauge("session.universe_cells")->Set(345);
  Histogram* h = registry.histogram("federation.site_fetch_ms");
  h->Observe(2.0);
  h->Observe(1.0);
  h->Observe(1.5);
  registry.counter("aaa.zero");  // zero-count instruments are listed too

  // Percentiles are nearest-rank bucket upper bounds: the median 1.5 lands
  // in the bucket with upper bound 1.579…, and p95/p99 (the max, 2.0, in the
  // 2.048-bucket) clamp to the observed max.
  EXPECT_EQ(registry.Render(),
            "counter aaa.zero = 0\n"
            "counter engine.fixpoint_passes = 12\n"
            "histogram federation.site_fetch_ms = count=3 sum=4.50 min=1.00 "
            "max=2.00 p50=1.58 p95=2.00 p99=2.00\n"
            "gauge session.universe_cells = 345\n");
  EXPECT_EQ(registry.Render(/*mask_values=*/true),
            "counter aaa.zero = 0\n"
            "counter engine.fixpoint_passes = 12\n"
            "histogram federation.site_fetch_ms = count=3 sum=- min=- "
            "max=- p50=- p95=- p99=-\n"
            "gauge session.universe_cells = 345\n");
  EXPECT_EQ(registry.ToJson(),
            "{\"counters\":{\"aaa.zero\":0,\"engine.fixpoint_passes\":12},"
            "\"gauges\":{\"session.universe_cells\":345},"
            "\"histograms\":{\"federation.site_fetch_ms\":"
            "{\"count\":3,\"sum\":4.5,\"min\":1.0,\"max\":2.0,"
            "\"p50\":1.5792238852177314,\"p95\":2.0,\"p99\":2.0}}}");
}

TEST(ExplainFormatTest, HistogramPercentileEdgeCases) {
  Histogram h;
  EXPECT_EQ(h.Percentile(0.5), 0.0);  // empty: no observations to rank
  h.Observe(5.0);
  // Single observation: every percentile is that observation (bucket upper
  // bound clamped to max=5.0).
  EXPECT_EQ(h.Percentile(0.0), 5.0);
  EXPECT_EQ(h.Percentile(0.5), 5.0);
  EXPECT_EQ(h.Percentile(1.0), 5.0);

  Histogram tiny;
  // At or below kMinBound (and negatives/NaN) land in bucket 0, whose upper
  // bound clamps into the observed range.
  tiny.Observe(-3.0);
  tiny.Observe(0.0005);
  // Both land in bucket 0 (upper bound kMinBound=0.001), clamped to max.
  EXPECT_EQ(tiny.Percentile(0.5), 0.0005);
  EXPECT_EQ(tiny.Percentile(1.0), 0.0005);

  Histogram wide;
  for (int i = 1; i <= 100; ++i) wide.Observe(static_cast<double>(i));
  // p50 ≈ 50 within one bucket width (ratio 2^(1/8) ≈ 1.09).
  EXPECT_GE(wide.Percentile(0.50), 50.0);
  EXPECT_LE(wide.Percentile(0.50), 50.0 * 1.0905077326652577);
  EXPECT_GE(wide.Percentile(0.99), 99.0);
  EXPECT_LE(wide.Percentile(0.99), 100.0);
  // Monotone in q.
  EXPECT_LE(wide.Percentile(0.50), wide.Percentile(0.95));
  EXPECT_LE(wide.Percentile(0.95), wide.Percentile(0.99));
}

}  // namespace
}  // namespace idl
