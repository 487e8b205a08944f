// N — the network fabric. One JSON artifact (BENCH_net.json):
//
//  1. Fabric throughput: an 8-zone benign building run for 20 virtual
//     minutes; datagrams delivered per wall-second is the host-dependent
//     signal (gated relatively, like the campaign bench).
//  2. End-to-end COV latency p99 at the head-end, in *virtual* time —
//     a pure function of (topology, seed), so the gate compares it
//     byte-for-byte on any host.
//  3. Determinism: the same building twice, and the four-cell fabric
//     campaign at --jobs 1 vs --jobs N; every divergence is a failure
//     here, before the regression checker ever sees the file.
//  4. City scale: a 10,000-zone hierarchical building (gateway-only
//     zones, capture/tracing/collect off) through the lookahead engine.
//     The regression gate requires >= 50x the 8-zone seed throughput —
//     the whole point of replacing the epoch barrier.
//  5. Campus sharding: the same multi-building campus at --jobs 1 and
//     --jobs N must replay the same trace hash and counters.
//
// The last stdout line is the JSON summary.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "campaign/campaign.hpp"
#include "core/fabric_run.hpp"
#include "core/hash.hpp"

namespace core = mkbas::core;
namespace sim = mkbas::sim;

using Clock = std::chrono::steady_clock;

int main(int argc, char** argv) {
  int zones = 8;
  int jobs = static_cast<int>(std::thread::hardware_concurrency());
  if (jobs < 1) jobs = 1;
  std::string out = "BENCH_net.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--zones") == 0 && i + 1 < argc) {
      zones = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    }
  }

  std::printf("N: BACnet/IP fabric\n");

  core::FabricOptions opts;
  opts.zones = zones;
  opts.seed = 5;
  opts.duration = sim::minutes(20);
  opts.link.loss = 0.01;  // exercise the loss path in the hot loop too

  const auto t0 = Clock::now();
  const auto r1 = core::run_fabric(opts);
  const auto t1 = Clock::now();
  const double wall_s =
      std::chrono::duration<double>(t1 - t0).count();
  const auto r2 = core::run_fabric(opts);

  const bool replays =
      r1.trace_hash == r2.trace_hash &&
      r1.merged.metrics->to_json() == r2.merged.metrics->to_json();
  std::printf("building       : %d zones, %.1f virtual min, %.2f s wall\n",
              zones, sim::to_seconds(opts.duration) / 60.0, wall_s);
  const double rate =
      wall_s > 0 ? static_cast<double>(r1.delivered) / wall_s : 0;
  std::printf("throughput     : %llu datagrams delivered, %.0f msg/s\n",
              static_cast<unsigned long long>(r1.delivered), rate);
  std::printf("cov            : %llu notifications, p99 %.3f ms "
              "(virtual)\n",
              static_cast<unsigned long long>(r1.cov_count),
              r1.cov_p99_us / 1000.0);
  std::printf("replay         : %s\n",
              replays ? "byte-identical" : "DIVERGED");

  // The campaign path: four attack cells over a smaller building, fanned
  // across the worker pool, must merge to the sequential bytes.
  core::FabricOptions camp = opts;
  camp.zones = 4;
  camp.duration = sim::minutes(12);
  const auto cells = core::fabric_matrix_cells(camp.zones, camp);
  const auto seq = core::run_campaign(cells, 1);
  const auto par = core::run_campaign(cells, jobs);
  const bool campaign_det = seq.summary_json() == par.summary_json();
  std::printf("campaign       : %zu cells, --jobs %d, %s\n", cells.size(),
              jobs, campaign_det ? "deterministic" : "DIVERGED");

  // City arm: 10k gateway-only zones over 25 floor head-ends, every
  // observability sink that allocates per datagram turned off. This is
  // the configuration the lookahead engine exists for; the epoch
  // barrier's epochs x nodes cost makes it uncompetitive here.
  core::FabricOptions city;
  city.zones = 10000;
  city.topology = mkbas::net::TopologySpec::Kind::kTree;
  city.floors = 25;
  city.seed = 5;
  city.duration = sim::minutes(10);
  city.lite_zones = true;
  city.capture = false;
  city.net_trace = false;
  city.trace_spans = false;
  city.collect = false;
  const auto t2 = Clock::now();
  const auto cr = core::run_fabric(city);
  const auto t3 = Clock::now();
  const double city_wall_s = std::chrono::duration<double>(t3 - t2).count();
  const double city_rate =
      city_wall_s > 0 ? static_cast<double>(cr.delivered) / city_wall_s : 0;
  std::printf("city           : %d zones / %d floors, %.1f virtual min, "
              "%.2f s wall\n",
              city.zones, city.floors,
              sim::to_seconds(city.duration) / 60.0, city_wall_s);
  std::printf("city throughput: %llu datagrams, %.0f msg/s, "
              "%llu causality violations\n",
              static_cast<unsigned long long>(cr.delivered), city_rate,
              static_cast<unsigned long long>(cr.causality_violations));

  // Campus arm: 3 buildings are 3 independent components; shard them
  // across the pool and demand the sequential bytes back.
  core::FabricOptions campus;
  campus.zones = 1200;
  campus.topology = mkbas::net::TopologySpec::Kind::kCampus;
  campus.buildings = 3;
  campus.floors = 4;
  campus.seed = 5;
  campus.duration = sim::minutes(10);
  campus.lite_zones = true;
  campus.capture = false;
  campus.net_trace = false;
  campus.trace_spans = false;
  campus.collect = false;
  campus.jobs = 1;
  const auto campus_seq = core::run_fabric(campus);
  campus.jobs = jobs;
  const auto campus_par = core::run_fabric(campus);
  const bool campus_det =
      campus_seq.trace_hash == campus_par.trace_hash &&
      campus_seq.delivered == campus_par.delivered &&
      campus_seq.cov_count == campus_par.cov_count;
  std::printf("campus         : %d zones / %d buildings, --jobs 1 vs %d, "
              "%s\n",
              campus.zones, campus.buildings, jobs,
              campus_det ? "deterministic" : "DIVERGED");

  const bool deterministic = replays && campaign_det && campus_det &&
                             cr.causality_violations == 0;
  char json[1024];
  std::snprintf(
      json, sizeof json,
      "{\"bench\":\"bench_net\",\"zones\":%d,\"jobs\":%d,\"cores\":%u,"
      "\"delivered\":%llu,\"wall_s\":%.3f,\"msgs_per_sec\":%.1f,"
      "\"cov_count\":%llu,\"cov_p99_ms\":%.3f,"
      "\"city_zones\":%d,\"city_delivered\":%llu,\"city_wall_s\":%.3f,"
      "\"city_msgs_per_sec\":%.1f,\"city_trace_hash\":\"%s\","
      "\"deterministic\":%s,\"trace_hash\":\"%s\"}",
      zones, jobs, std::thread::hardware_concurrency(),
      static_cast<unsigned long long>(r1.delivered), wall_s, rate,
      static_cast<unsigned long long>(r1.cov_count), r1.cov_p99_us / 1000.0,
      city.zones, static_cast<unsigned long long>(cr.delivered), city_wall_s,
      city_rate, core::hex64(cr.trace_hash).c_str(),
      deterministic ? "true" : "false", core::hex64(r1.trace_hash).c_str());
  if (!out.empty()) {
    std::ofstream f(out);
    f << json << "\n";
  }
  std::printf("%s\n", json);
  return deterministic ? 0 : 1;
}
