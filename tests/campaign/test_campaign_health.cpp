// Health monitoring across the fabric and the campaign engine: a flood
// attack must trip the flooded node's inbox-overflow surge detector and
// land a health.anomaly record in the merged audit journal *before* the
// end-of-run attack verdicts; every health/flight artifact must replay
// byte-identically from (topology, seed) and stay --jobs invariant; and
// the work-stealing pool's profiler must attribute every cell to a
// worker (host wall time, diagnostic only — never part of summary_json).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "../obs/json_lite.hpp"
#include "campaign/campaign.hpp"
#include "core/fabric_run.hpp"

namespace core = mkbas::core;
namespace sim = mkbas::sim;

namespace {

core::FabricOptions flood_building() {
  core::FabricOptions opts;
  opts.zones = 3;
  opts.seed = 7;
  opts.duration = sim::minutes(4);
  opts.attack = core::FabricAttack::kFlood;
  opts.attack_at = sim::minutes(2);
  return opts;
}

std::vector<core::CampaignCell> health_cells() {
  std::vector<core::CampaignCell> cells;

  core::CampaignCell fab;
  fab.name = "fabric/flood/z3";
  fab.kind = core::CellKind::kFabric;
  fab.fabric = flood_building();
  cells.push_back(fab);

  core::RunOptions opts;
  opts.settle = sim::sec(45);
  opts.post = sim::sec(60);
  for (const auto& cell :
       core::seed_sweep_cells(core::Platform::kMinix, opts, 11, 2)) {
    cells.push_back(cell);
  }
  return cells;
}

}  // namespace

TEST(FabricHealth, FloodTripsTheOverflowSurgeBeforeTheVerdict) {
  const core::FabricRunResult res = core::run_fabric(flood_building());
  const std::string health_json = res.merged.health->to_json();
  const std::string flight_json = res.merged.flight->to_json();
  const std::string audit_json = res.merged.audit->to_json();

  // The 30 s flood overwhelms the head-end inbox; the per-node rate
  // signal's surge threshold (256 overflows per 5 s window) trips while
  // the flood is still running.
  EXPECT_GT(res.drop_overflow, 0u);
  ASSERT_GT(res.merged.health->events().size(), 0u);
  ASSERT_TRUE(jsonlite::valid(health_json)) << health_json;
  EXPECT_NE(health_json.find("net.inbox_overflow"), std::string::npos);
  EXPECT_NE(health_json.find("\"surge\""), std::string::npos);

  // The detector firing pulled a flight-recorder snapshot.
  ASSERT_TRUE(jsonlite::valid(flight_json)) << flight_json;
  EXPECT_NE(flight_json.find("health.net.inbox_overflow"),
            std::string::npos);

  // Detection precedes judgment: the surge's audit record is journaled
  // during the run, the per-zone verdicts only at opts.duration.
  const std::size_t anomaly = audit_json.find("health.anomaly");
  const std::size_t verdict = audit_json.find("attack.verdict");
  ASSERT_NE(anomaly, std::string::npos);
  ASSERT_NE(verdict, std::string::npos);
  EXPECT_LT(anomaly, verdict);
}

TEST(FabricHealth, HundredZoneTreeFloodTripsTheFloorSurgeFirst) {
  // City-scale shape: 100 gateway-only zones over 4 floor head-ends. The
  // flood now aims at the attacker's *floor* aggregator — segmentation
  // keeps the blast radius to one floor — and that floor's own
  // inbox-overflow surge detector must fire during the run, ahead of the
  // end-of-run attack verdicts.
  core::FabricOptions opts;
  opts.zones = 100;
  opts.topology = mkbas::net::TopologySpec::Kind::kTree;
  opts.floors = 4;
  opts.seed = 21;
  opts.duration = sim::minutes(4);
  opts.attack = core::FabricAttack::kFlood;
  opts.attack_at = sim::minutes(2);
  opts.lite_zones = true;
  const core::FabricRunResult res = core::run_fabric(opts);
  const std::string health_json = res.merged.health->to_json();
  const std::string audit_json = res.merged.audit->to_json();

  EXPECT_EQ(res.topology, "tree");
  EXPECT_EQ(res.nodes, 1 + 4 + 100);
  EXPECT_GT(res.drop_overflow, 0u);
  EXPECT_EQ(res.causality_violations, 0u);
  ASSERT_GT(res.merged.health->events().size(), 0u);
  ASSERT_TRUE(jsonlite::valid(health_json)) << health_json;
  EXPECT_NE(health_json.find("net.inbox_overflow"), std::string::npos);
  EXPECT_NE(health_json.find("\"surge\""), std::string::npos);

  // Detection precedes judgment, same invariant as the 3-zone building.
  const std::size_t anomaly = audit_json.find("health.anomaly");
  const std::size_t verdict = audit_json.find("attack.verdict");
  ASSERT_NE(anomaly, std::string::npos);
  ASSERT_NE(verdict, std::string::npos);
  EXPECT_LT(anomaly, verdict);

  // The flood stayed on the attacker's floor: the building console kept
  // receiving its aggregate telemetry (every floor flushed upstream).
  EXPECT_GT(res.floor_covs, 0u);
  EXPECT_GT(res.cov_count, res.floor_covs);
}

TEST(FabricHealth, ObservabilityArtifactsReplayByteIdentically) {
  const core::FabricRunResult one = core::run_fabric(flood_building());
  const core::FabricRunResult two = core::run_fabric(flood_building());
  const std::string series_json = one.merged.series->to_json();
  ASSERT_FALSE(series_json.empty());
  EXPECT_EQ(series_json, two.merged.series->to_json());
  EXPECT_EQ(one.merged.health->to_json(), two.merged.health->to_json());
  EXPECT_EQ(one.merged.flight->to_json(), two.merged.flight->to_json());
  EXPECT_EQ(one.merged.health->events().size(),
            two.merged.health->events().size());
  ASSERT_TRUE(jsonlite::valid(series_json)) << series_json;
  EXPECT_NE(series_json.find("\"schema_version\":"), std::string::npos);
}

TEST(FabricHealth, TraceOffArmStaysQuiet) {
  core::FabricOptions opts = flood_building();
  opts.trace_spans = false;
  const core::FabricRunResult res = core::run_fabric(opts);
  // The A/B baseline arm records no health events and keeps no
  // snapshots, so the perf comparison against trace-on stays clean.
  EXPECT_EQ(res.merged.health->events().size(), 0u);
  EXPECT_NE(res.merged.flight->to_json().find("\"snapshots\":[]"),
            std::string::npos);
}

TEST(CampaignHealth, MergedHealthArtifactsAreJobsInvariant) {
  const std::vector<core::CampaignCell> cells = health_cells();
  const core::CampaignResult seq = core::run_campaign(cells, 1);
  const core::CampaignResult par = core::run_campaign(cells, 4);

  const std::string series_json = seq.merged.series->to_json();
  const std::string health_json = seq.merged.health->to_json();
  ASSERT_FALSE(health_json.empty());
  EXPECT_EQ(series_json, par.merged.series->to_json());
  EXPECT_EQ(health_json, par.merged.health->to_json());
  EXPECT_EQ(seq.merged.flight->to_json(), par.merged.flight->to_json());
  EXPECT_EQ(seq.summary_json(), par.summary_json());

  // The merge really carries the building: the flood cell's surge and
  // the benign cells' control-loop series are all present.
  EXPECT_NE(health_json.find("net.inbox_overflow"), std::string::npos);
  EXPECT_NE(series_json.find("minix.ctl.jitter"), std::string::npos);
  EXPECT_NE(seq.summary_json().find("\"health_events\":"),
            std::string::npos);
  EXPECT_NE(seq.summary_json().find("\"schema_version\":"),
            std::string::npos);
  ASSERT_TRUE(jsonlite::valid(seq.summary_json())) << seq.summary_json();
}

TEST(CampaignHealth, BenignCellSnapshotsControlLoopSeries) {
  core::RunOptions opts;
  opts.settle = sim::sec(45);
  opts.post = sim::sec(60);
  const auto cells =
      core::seed_sweep_cells(core::Platform::kMinix, opts, 3, 1);
  const core::CampaignResult res = core::run_campaign(cells, 1);
  ASSERT_EQ(res.cells.size(), 1u);
  const core::CellResult& cell = res.cells[0];
  ASSERT_TRUE(cell.series);
  EXPECT_GT(cell.series->total_samples(), 0u);
  EXPECT_NE(cell.series->to_json().find("minix.ctl.jitter@m0"),
            std::string::npos);
  const std::string health_json = cell.health->to_json();
  ASSERT_TRUE(jsonlite::valid(health_json)) << health_json;
  EXPECT_NE(health_json.find("\"scores\""), std::string::npos);
}

TEST(CampaignHealth, PoolProfileAttributesEveryCell) {
  const std::vector<core::CampaignCell> cells = health_cells();
  const int jobs = 2;
  const core::CampaignResult res = core::run_campaign(cells, jobs);

  ASSERT_EQ(res.cell_profiles.size(), cells.size());
  std::uint64_t executed = 0;
  for (const auto& cp : res.cell_profiles) {
    EXPECT_GE(cp.worker, 0);
    EXPECT_LT(cp.worker, jobs);
    EXPECT_GE(cp.end_seconds, cp.start_seconds);
  }
  ASSERT_EQ(res.worker_profiles.size(), static_cast<std::size_t>(jobs));
  for (const auto& wp : res.worker_profiles) executed += wp.executed;
  EXPECT_EQ(executed, cells.size());

  const std::string profile = res.profile_json();
  ASSERT_TRUE(jsonlite::valid(profile)) << profile;
  EXPECT_NE(profile.find("\"schema_version\":"), std::string::npos);
  EXPECT_NE(profile.find("\"queue_depth\""), std::string::npos);
  EXPECT_NE(profile.find("fabric/flood/z3"), std::string::npos);

  const std::string trace = res.profile_trace_json();
  ASSERT_TRUE(jsonlite::valid(trace)) << trace;
  EXPECT_NE(trace.find("pool-worker"), std::string::npos);
  EXPECT_NE(trace.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}
