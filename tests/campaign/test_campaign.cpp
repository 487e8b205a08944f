#include "campaign/campaign.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/pool.hpp"
#include "fault/fault.hpp"

namespace campaign = mkbas::campaign;
namespace core = mkbas::core;
namespace sim = mkbas::sim;

// ---- WorkStealingPool ----

TEST(Pool, RunsEveryIndexExactlyOnce) {
  campaign::WorkStealingPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.run(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(Pool, SingleWorkerRunsInOrderInline) {
  campaign::WorkStealingPool pool(1);
  std::vector<std::size_t> order;  // safe: no threads with one worker
  pool.run(10, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(pool.steals(), 0u);
}

TEST(Pool, FewerItemsThanWorkersAndZeroItems) {
  campaign::WorkStealingPool pool(8);
  std::atomic<int> ran{0};
  pool.run(0, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 0);
  pool.run(3, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 3);
}

TEST(Pool, NonPositiveWorkerCountClampsToOne) {
  campaign::WorkStealingPool pool(0);
  EXPECT_EQ(pool.workers(), 1);
  std::atomic<int> ran{0};
  pool.run(4, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 4);
}

TEST(Pool, FirstExceptionPropagatesAfterAllIndicesRan) {
  campaign::WorkStealingPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.run(100,
               [&](std::size_t i) {
                 ran.fetch_add(1);
                 if (i == 17) throw std::runtime_error("cell 17 blew up");
               }),
      std::runtime_error);
  // The contract: remaining queued indices still execute.
  EXPECT_EQ(ran.load(), 100);
}

// ---- Cell builders ----

TEST(Campaign, SeedSweepCellsAreUniquelyNamedAndSeeded) {
  const auto cells = core::seed_sweep_cells(core::Platform::kMinix, {}, 7, 5);
  ASSERT_EQ(cells.size(), 5u);
  std::set<std::string> names;
  std::set<std::uint64_t> seeds;
  for (const auto& c : cells) {
    EXPECT_EQ(c.kind, core::CellKind::kBenign);
    names.insert(c.name);
    seeds.insert(c.opts.seed);
  }
  EXPECT_EQ(names.size(), 5u);
  EXPECT_EQ(seeds.size(), 5u);
  EXPECT_EQ(*seeds.begin(), 7u);
}

TEST(Campaign, AttackMatrixCellsCoverAllThreePlatforms) {
  const auto cells = core::attack_matrix_cells();
  std::set<core::Platform> platforms;
  for (const auto& c : cells) {
    EXPECT_EQ(c.kind, core::CellKind::kAttack);
    platforms.insert(c.platform);
  }
  EXPECT_EQ(platforms.size(), 3u);
}

// ---- Determinism: parallel == sequential, byte for byte ----

namespace {

core::RunOptions short_fault_opts() {
  core::RunOptions opts;
  opts.settle = sim::minutes(1);
  opts.post = sim::minutes(2);
  opts.seed = 42;
  opts.scenario.room.initial_temp_c = opts.scenario.control.initial_setpoint_c;
  return opts;
}

}  // namespace

TEST(Campaign, ParallelFaultCampaignIsByteIdenticalToSequential) {
  const auto cells = core::fault_campaign_cells(
      mkbas::fault::reference_sensor_crash_plan(), short_fault_opts(),
      sim::sec(70));
  ASSERT_EQ(cells.size(), 3u);

  const auto seq = core::run_campaign(cells, 1);
  const auto par = core::run_campaign(cells, 4);
  ASSERT_EQ(seq.cells.size(), par.cells.size());

  // Cell-level artifacts first (pinpoints a divergence), then the merged
  // reductions, then the full summaries.
  for (std::size_t i = 0; i < seq.cells.size(); ++i) {
    EXPECT_EQ(seq.cells[i].name, par.cells[i].name);
    EXPECT_EQ(seq.cells[i].trace_hash, par.cells[i].trace_hash) << cells[i].name;
    EXPECT_EQ(seq.cells[i].trace_events, par.cells[i].trace_events);
    EXPECT_EQ(seq.cells[i].metrics->to_json(),
              par.cells[i].metrics->to_json())
        << cells[i].name;
  }
  EXPECT_EQ(seq.merged_trace_hash, par.merged_trace_hash);
  EXPECT_EQ(seq.merged_metrics_json, par.merged_metrics_json);
  EXPECT_EQ(seq.summary_json(), par.summary_json());

  // And the campaign reproduced the paper's story: the microkernels
  // recover, and every cell actually simulated something.
  const auto rows = core::fault_rows(seq);
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& c : seq.cells) {
    EXPECT_GT(c.trace_events, 0u) << c.name;
    ASSERT_TRUE(c.metrics != nullptr);
  }
}

TEST(Campaign, RepeatedRunsYieldIdenticalSummaries) {
  // Same cells, same jobs value, fresh engine: the summary must be stable
  // run to run (no wall-clock, pointers or thread ids may leak in).
  const auto cells =
      core::seed_sweep_cells(core::Platform::kMinix, {}, 1, 2);
  const auto a = core::run_campaign(cells, 2);
  const auto b = core::run_campaign(cells, 2);
  EXPECT_EQ(a.summary_json(), b.summary_json());
  EXPECT_EQ(a.merged_trace_hash, b.merged_trace_hash);
}
