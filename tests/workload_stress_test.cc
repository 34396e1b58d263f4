// Scaled differential sweep, run under the `stress` ctest label (the TSan
// CI leg re-runs it with --repeat until-fail): bigger universes, longer
// evolution traces, the full 17-point mode lattice. One test case per
// universe, so each gets its own ctest timeout: a Debug TSan build of the
// largest universe alone takes minutes. Shrinking stays ON here — a
// failure in CI leaves a minimized repro script in
// $IDL_WORKLOAD_ARTIFACT_DIR (the workflow uploads it as an artifact).

#include <iostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/str_util.h"
#include "reference/sweep.h"
#include "workload/discrepancy_gen.h"

namespace idl {
namespace {

std::string Describe(const SweepReport& report) {
  std::string out = FormatSweepReport(report);
  for (const auto& m : report.mismatches) out += "  " + m + "\n";
  for (const auto& p : report.repro_paths) out += "  repro: " + p + "\n";
  return out;
}

// Universe i of the scaled sweep: up to 7 tenants, 6 entities, 5 keys.
DiscrepancyConfig ScaledConfig(size_t i) {
  DiscrepancyConfig config;
  config.seed = 9000 + i;
  config.num_tenants = 4 + i % 4;
  config.num_entities = 4 + i % 3;
  config.num_keys = 3 + i % 3;
  config.fact_density = 0.4 + 0.15 * static_cast<double>(i % 4);
  config.mangle_rate = 0.4;
  return config;
}

class WorkloadStress : public ::testing::TestWithParam<size_t> {};

TEST_P(WorkloadStress, ScaledSweepAcrossFullLattice) {
  SweepOptions options;
  options.trace_steps = 12;
  options.trace_salt = 99;
  SweepReport report = RunDifferentialSweep({ScaledConfig(GetParam())},
                                            options);
  std::cout << FormatSweepReport(report);
  EXPECT_TRUE(report.ok()) << Describe(report);
  EXPECT_EQ(report.universes, 1u);
  EXPECT_EQ(report.modes, 17u);
  EXPECT_EQ(report.steps, 12u);
  EXPECT_EQ(report.fallbacks, 0u) << "incremental maintenance regressed";
}

INSTANTIATE_TEST_SUITE_P(
    Universes, WorkloadStress, ::testing::Range<size_t>(0, 16),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return StrCat("seed", ScaledConfig(info.param).seed);
    });

}  // namespace
}  // namespace idl
