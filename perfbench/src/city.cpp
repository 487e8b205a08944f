// city: a fabric request through run_request — 5,000 gateway-only zones
// on a campus of 10 buildings x 10 floors, lookahead sync, --jobs 4,
// summary artifact only. No kernel scenario and no fiber switch runs
// here: the load is the fabric's sync and calendar queue, the head-end
// tiers, and the node-order fold of 5k per-node obs stores. (At 10,000
// zones a run fits only about five ~4 s requests, and the run-to-run
// spread of their median was 20%.)
#include <string>
#include <vector>

#include "campaign/run_request.hpp"
#include "core/fabric_run.hpp"
#include "core/hash.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/series.hpp"
#include "obs/span.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = mkbas::core;
namespace obs = mkbas::obs;
namespace net = mkbas::net;

namespace {

core::ExperimentRequest city_request(const CityConfig& cfg) {
  core::ExperimentRequest req;
  req.mode = core::RequestMode::kFabric;
  req.zones = cfg.zones;
  req.seed = cfg.seed;
  req.topology = net::TopologySpec::Kind::kCampus;
  req.buildings = cfg.buildings;
  req.floors = cfg.floors;
  req.sync = net::SyncMode::kLookahead;
  req.lite = true;
  req.jobs = kJobs;
  return req;
}

/// The FabricOptions run_request builds for city_request().
core::FabricOptions city_options(const CityConfig& cfg, int jobs) {
  core::FabricOptions fo;
  fo.zones = cfg.zones;
  fo.seed = cfg.seed;
  fo.topology = net::TopologySpec::Kind::kCampus;
  fo.buildings = cfg.buildings;
  fo.floors = cfg.floors;
  fo.sync = net::SyncMode::kLookahead;
  fo.lite_zones = true;
  fo.jobs = jobs;
  return fo;
}

struct CityOp {
  double wall_s = 0.0;
  std::string summary;
};

CityOp run_city(const CityConfig& cfg) {
  CityOp op;
  const auto t0 = Clock::now();
  auto resp = core::run_request(city_request(cfg),
                                core::artifact_bit(core::ArtifactKind::kSummary));
  op.summary = std::move(resp.artifacts["summary"]);
  op.wall_s = seconds_since(t0);
  return op;
}

std::uint64_t drops(const core::FabricRunResult& r) {
  return r.drop_loss + r.drop_partition + r.drop_overflow + r.drop_unroutable;
}

}  // namespace

CityConfig city_config(std::uint64_t seed) {
  CityConfig cfg;
  std::uint64_t s = seed ^ 0x43697479ULL;  // "City"
  cfg.seed = 1 + splitmix64(&s) % 1000000;
  return cfg;
}

double city_workload(const Options& o, Report& rep) {
  // Set-up: the request, then a 400-zone warm-up building of the same
  // shape (pool threads, allocator arenas) — timed kSetups times.
  std::vector<double> setups;
  CityConfig cfg;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    cfg = city_config(o.seed);
    CityConfig warm = cfg;
    warm.zones = 400;
    warm.buildings = 2;
    warm.floors = 2;
    run_city(warm);
    setups.push_back(seconds_since(t0));
  }

  std::vector<CityOp> ops;
  const auto w0 = Clock::now();
  while (ops.empty() || seconds_since(w0) < o.seconds) {
    ops.push_back(run_city(cfg));
  }
  const double rss = peak_rss_mb();

  // Correctness: a --jobs 1 reference building must agree with every
  // timed run on the trace hash and every datagram count, conserve
  // datagrams (posted = delivered + drops + pending) and never deliver
  // into a node's past.
  core::FabricOptions ref_opts = city_options(cfg, 1);
  ref_opts.collect = false;  // the hash and counters need no fold
  const core::FabricRunResult ref = core::run_fabric(ref_opts);
  rep.check(ref.posted == ref.delivered + drops(ref) + ref.pending,
            "city: posted != delivered + drops + pending");
  rep.check(ref.causality_violations == 0, "city: causality violations");
  const std::string ref_hash = core::hex64(ref.trace_hash);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::string& s = ops[i].summary;
    rep.check(json_field(s, "trace_hash") == ref_hash &&
                  json_uint(s, "delivered") == ref.delivered &&
                  json_uint(s, "drop_loss") == ref.drop_loss &&
                  json_uint(s, "drop_partition") == ref.drop_partition &&
                  json_uint(s, "drop_overflow") == ref.drop_overflow &&
                  s == ops.front().summary,
              "city: op " + std::to_string(i) +
                  " summary disagrees with the --jobs 1 reference");
  }

  std::vector<double> walls, rates;
  std::string walls_json;
  for (const CityOp& op : ops) {
    walls.push_back(op.wall_s * 1e3);
    walls_json += (walls_json.empty() ? "" : ",") + json_number(walls.back());
    rates.push_back(static_cast<double>(ref.delivered) / op.wall_s);
  }
  rep.note("city", "{\"delivered\":" + std::to_string(ref.delivered) +
                       ",\"drops\":" + std::to_string(drops(ref)) +
                       ",\"pending\":" + std::to_string(ref.pending) +
                       ",\"posted\":" + std::to_string(ref.posted) +
                       ",\"runs\":" + std::to_string(ops.size()) +
                       ",\"seed\":" + std::to_string(cfg.seed) +
                       ",\"trace_hash\":" + json_string(ref_hash) +
                       ",\"walls_ms\":[" + walls_json + "]" +
                       ",\"zones\":" + std::to_string(cfg.zones) + "}");
  if (!o.trace) {
    rep.metric("setup_s", "s", spread(setups));
    rep.metric("throughput_per_s", "1/s", spread(rates));
    rep.metric("latency_p50_ms", "ms", spread(walls));
    rep.metric("peak_rss_mb", "MB", rss);
  }
  return median(walls) / 1e3;
}

CityLayers trace_city(const CityConfig& cfg, Report& rep) {
  CityLayers l;
  // The fold run_fabric does when it collects, repeated inside the
  // observe hook instead (collect off), so it can be timed apart from
  // the simulation before it and the teardown after it.
  core::FabricOptions fo = city_options(cfg, kJobs);
  fo.collect = false;
  Clock::time_point hook_in, merged, exported;
  std::size_t bytes = 0;
  std::uint64_t digest = 0;
  fo.observe = [&](net::Fabric& fabric) {
    hook_in = Clock::now();
    obs::MetricsRegistry metrics;
    obs::SpanStore spans;
    obs::AuditJournal audit;
    obs::SeriesStore series;
    obs::HealthMonitor health;
    obs::FlightRecorder flight;
    for (std::size_t n = 0; n < fabric.node_count(); ++n) {
      auto& m = fabric.machine(static_cast<int>(n));
      metrics.merge_from(m.metrics());
      spans.merge_from(m.spans());
      audit.merge_from(m.audit());
      series.merge_from(m.series());
      health.merge_from(m.health());
      flight.merge_from(m.flight());
    }
    merged = Clock::now();
    const std::string exports[] = {metrics.to_json(), spans.to_json(),
                                   audit.to_json(),   series.to_json(),
                                   health.to_json(),  flight.to_json()};
    exported = Clock::now();
    // The rest of the collect step: critical path and summary digests.
    const std::string critical =
        obs::critical_path_json(spans, "sensor.sample", "net.link");
    for (const std::string& e : exports) {
      digest ^= core::fnv1a(e);
      bytes += e.size();
    }
    bytes += critical.size();
  };
  const auto t0 = Clock::now();
  const core::FabricRunResult r = core::run_fabric(fo);
  const auto t1 = Clock::now();
  auto secs = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  l.fabric_sim_s = secs(t0, hook_in);
  l.fabric_collect_s = secs(hook_in, t1);
  l.reduce_merge_ms = secs(hook_in, merged) * 1e3;
  l.reduce_export_ms = secs(merged, exported) * 1e3;
  l.wall_s = secs(t0, t1);
  l.posted = static_cast<double>(r.posted);
  l.delivered = static_cast<double>(r.delivered);
  l.drops = static_cast<double>(drops(r));
  l.pending = static_cast<double>(r.pending);
  l.ns_per_datagram =
      r.delivered > 0 ? l.fabric_sim_s * 1e9 / l.delivered : 0.0;
  rep.check(bytes > 0 && digest != 0 && r.delivered > 0 &&
                r.posted == r.delivered + drops(r) + r.pending &&
                r.causality_violations == 0,
            "city: traced fabric run broke conservation or exported nothing");
  return l;
}

}  // namespace perfbench
