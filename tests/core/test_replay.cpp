// Determinism / replay lock-down: the whole point of a seed-driven fault
// campaign is that a run can be replayed bit-for-bit. Two runs with the
// same seed — with or without a fault plan armed — must produce
// byte-identical metrics JSON and Chrome-trace JSON exports; a different
// seed must not.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/experiment.hpp"
#include "core/report.hpp"
#include "obs/trace_export.hpp"

namespace core = mkbas::core;
namespace fault = mkbas::fault;
namespace sim = mkbas::sim;

namespace {

struct Exports {
  std::string metrics;
  std::string trace;
};

core::RunOptions short_opts(std::uint64_t seed, Exports* out) {
  core::RunOptions opts;
  opts.settle = sim::sec(45);
  opts.post = sim::sec(75);
  opts.seed = seed;
  opts.observe = [out](sim::Machine& m) {
    out->metrics = m.metrics().to_json();
    std::ostringstream os;
    mkbas::obs::write_chrome_trace(os, m.trace());
    out->trace = os.str();
  };
  return opts;
}

Exports run_with_plan(core::Platform p, std::uint64_t seed) {
  Exports out;
  fault::FaultPlan plan = fault::reference_sensor_crash_plan();
  // Exercise the randomised fault paths too (corruption draws from the
  // plan RNG, drops from the window filter).
  plan.corrupt_messages(sim::sec(10), sim::sec(5), "tempSensProc",
                        "tempProc");
  plan.drop_messages(sim::sec(16), sim::sec(2), "", "heaterActProc");
  core::run_fault(p, plan, short_opts(seed, &out));
  return out;
}

Exports run_benign_export(core::Platform p, std::uint64_t seed) {
  Exports out;
  core::RunOptions opts = short_opts(seed, &out);
  core::run_benign(p, opts);
  return out;
}

class ReplayAllPlatforms : public ::testing::TestWithParam<core::Platform> {};

TEST_P(ReplayAllPlatforms, FaultCampaignRepeatsByteForByte) {
  const core::Platform p = GetParam();
  const Exports a = run_with_plan(p, 42);
  const Exports b = run_with_plan(p, 42);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.trace, b.trace);
  ASSERT_FALSE(a.metrics.empty());
  ASSERT_FALSE(a.trace.empty());

  const Exports c = run_with_plan(p, 43);
  EXPECT_NE(a.trace, c.trace);  // a different world, visibly
}

TEST_P(ReplayAllPlatforms, BenignRunRepeatsByteForByte) {
  const core::Platform p = GetParam();
  const Exports a = run_benign_export(p, 7);
  const Exports b = run_benign_export(p, 7);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.trace, b.trace);

  const Exports c = run_benign_export(p, 8);
  EXPECT_NE(a.trace, c.trace);
}

INSTANTIATE_TEST_SUITE_P(Platforms, ReplayAllPlatforms,
                         ::testing::Values(core::Platform::kMinix,
                                           core::Platform::kSel4,
                                           core::Platform::kLinux),
                         [](const auto& info) {
                           switch (info.param) {
                             case core::Platform::kMinix:
                               return "minix";
                             case core::Platform::kSel4:
                               return "sel4";
                             default:
                               return "linux";
                           }
                         });

TEST(Replay, FaultPlanPerturbsOnlyThroughTheFaults) {
  // Same seed, with vs without a plan: the runs differ (the faults are
  // real) and the with-plan trace records them.
  const Exports with = run_with_plan(core::Platform::kMinix, 42);
  const Exports without = run_benign_export(core::Platform::kMinix, 42);
  EXPECT_NE(with.trace, without.trace);
  EXPECT_NE(with.trace.find("fault.crash"), std::string::npos);
  EXPECT_EQ(without.trace.find("fault.crash"), std::string::npos);
}

}  // namespace
