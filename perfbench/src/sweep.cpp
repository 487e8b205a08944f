// sweep: the CLI campaign path. A 16-cell MINIX seed sweep (one virtual
// hour per cell) fanned across 4 pool workers and reduced in cell order,
// summary artifact only — seed_sweep_cells, run_campaign, summary_json:
// the calls run_request makes for `campaign sweep`, made directly so the
// seed range can follow the workload seed (run_request pins it to 1..N).
#include <algorithm>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/series.hpp"
#include "obs/span.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = mkbas::core;
namespace obs = mkbas::obs;

namespace {

constexpr int kWarmupCells = 4;

struct SweepOp {
  double wall_s = 0.0;
  std::string summary;
  std::uint64_t merged_trace_hash = 0;
};

SweepOp run_sweep(const SweepConfig& cfg, int cells) {
  SweepOp op;
  const auto t0 = Clock::now();
  const auto cell_list = core::seed_sweep_cells(core::Platform::kMinix, {},
                                                cfg.first_seed, cells);
  const core::CampaignResult r = core::run_campaign(cell_list, kJobs);
  op.summary = r.summary_json();
  op.wall_s = seconds_since(t0);
  op.merged_trace_hash = r.merged_trace_hash;
  return op;
}

}  // namespace

SweepConfig sweep_config(std::uint64_t seed) {
  SweepConfig cfg;
  std::uint64_t s = seed ^ 0x53776565ULL;  // "Swee"
  cfg.first_seed = 1 + splitmix64(&s) % 100000;
  return cfg;
}

double sweep_workload(const Options& o, Report& rep) {
  // Set-up: derive the seed range, then a short warm-up sweep (pool
  // threads, fiber stacks, allocator arenas) — timed kSetups times.
  std::vector<double> setups;
  SweepConfig cfg;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    cfg = sweep_config(o.seed);
    run_sweep(cfg, kWarmupCells);
    setups.push_back(seconds_since(t0));
  }

  std::vector<SweepOp> ops;
  const auto w0 = Clock::now();
  while (ops.empty() || seconds_since(w0) < o.seconds) {
    ops.push_back(run_sweep(cfg, cfg.cells));
  }
  const double rss = peak_rss_mb();

  // Correctness: every sweep against a --jobs 1 reference of the same
  // seed range — summary bytes and merged trace hash.
  const auto ref_cells = core::seed_sweep_cells(core::Platform::kMinix, {},
                                                cfg.first_seed, cfg.cells);
  const core::CampaignResult ref = core::run_campaign(ref_cells, 1);
  const std::string ref_summary = ref.summary_json();
  rep.check(!ref_summary.empty(), "sweep: empty --jobs 1 reference summary");
  for (std::size_t i = 0; i < ops.size(); ++i) {
    rep.check(ops[i].summary == ref_summary &&
                  ops[i].merged_trace_hash == ref.merged_trace_hash,
              "sweep: op " + std::to_string(i) +
                  " summary or merged_trace_hash differs from --jobs 1");
  }
  const double msgs = static_cast<double>(
      histogram_count(ref.merged_metrics_json, "minix.ipc.latency"));
  rep.check(msgs > 0, "sweep: reference delivered no MINIX IPC messages");

  std::vector<double> walls, rates;
  std::string walls_json;
  for (const SweepOp& op : ops) {
    walls.push_back(op.wall_s * 1e3);
    walls_json += (walls_json.empty() ? "" : ",") + json_number(walls.back());
    rates.push_back(msgs / op.wall_s);
  }
  rep.note("sweep", "{\"cells\":" + std::to_string(cfg.cells) +
                        ",\"first_seed\":" + std::to_string(cfg.first_seed) +
                        ",\"jobs\":" + std::to_string(kJobs) +
                        ",\"merged_trace_hash\":" +
                        json_string(core::hex64(ref.merged_trace_hash)) +
                        ",\"msgs_per_sweep\":" + json_number(msgs) +
                        ",\"sweeps\":" + std::to_string(ops.size()) +
                        ",\"walls_ms\":[" + walls_json + "]}");
  if (!o.trace) {
    rep.metric("setup_s", "s", spread(setups));
    rep.metric("throughput_per_s", "1/s", spread(rates));
    rep.metric("latency_p50_ms", "ms", spread(walls));
    rep.metric("peak_rss_mb", "MB", rss);
  }
  return median(walls) / 1e3;
}

SweepLayers trace_sweep(const SweepConfig& cfg, int reps, Report& rep) {
  std::vector<SweepLayers> runs;
  for (int i = 0; i < reps; ++i) {
    SweepLayers l;
    const auto t0 = Clock::now();
    const auto cells = core::seed_sweep_cells(core::Platform::kMinix, {},
                                              cfg.first_seed, cfg.cells);
    const auto t1 = Clock::now();
    const core::CampaignResult r = core::run_campaign(cells, kJobs);
    const auto t2 = Clock::now();
    const std::string summary = r.summary_json();
    l.wall_s = seconds_since(t0);
    l.summary_ms = seconds_since(t2) * 1e3;
    l.cells_build_ms = std::chrono::duration<double>(t1 - t0).count() * 1e3;

    std::vector<double> cell_ms;
    for (const auto& p : r.cell_profiles) {
      l.pool_s = std::max(l.pool_s, p.end_seconds);
      cell_ms.push_back((p.end_seconds - p.start_seconds) * 1e3);
    }
    double busy = 0.0;
    for (const auto& w : r.worker_profiles) busy += w.busy_seconds;
    const int workers = std::max<int>(1, static_cast<int>(r.worker_profiles.size()));
    l.worker_idle_frac =
        l.pool_s > 0 ? 1.0 - busy / (workers * l.pool_s) : 0.0;
    l.steals = static_cast<double>(r.steals);
    l.cell_ms_p50 = median(cell_ms);
    l.reduce_s = std::chrono::duration<double>(t2 - t1).count() - l.pool_s;

    // The cross-cell fold again, over the stores the campaign returned.
    const auto f0 = Clock::now();
    obs::MetricsRegistry metrics;
    obs::SpanStore spans;
    obs::AuditJournal audit;
    obs::SeriesStore series;
    obs::HealthMonitor health;
    obs::FlightRecorder flight;
    for (const core::CellResult& c : r.cells) {
      metrics.merge_from(*c.metrics);
      spans.merge_from(*c.spans);
      audit.merge_from(*c.audit);
      series.merge_from(*c.series);
      health.merge_from(*c.health);
      flight.merge_from(*c.flight);
    }
    const auto f1 = Clock::now();
    const std::size_t bytes = metrics.to_json().size() +
                              spans.to_json().size() + audit.to_json().size() +
                              series.to_json().size() +
                              health.to_json().size() + flight.to_json().size();
    l.reduce_export_ms = seconds_since(f1) * 1e3;
    l.reduce_merge_ms = std::chrono::duration<double>(f1 - f0).count() * 1e3;
    rep.check(bytes > 0 && !summary.empty(),
              "sweep: traced sweep produced no summary or exports");
    runs.push_back(l);
  }
  // Field-wise medians across the traced repetitions.
  auto med = [&](double SweepLayers::*f) {
    std::vector<double> v;
    for (const auto& l : runs) v.push_back(l.*f);
    return median(v);
  };
  SweepLayers out;
  for (double SweepLayers::*f :
       {&SweepLayers::cells_build_ms, &SweepLayers::pool_s,
        &SweepLayers::worker_idle_frac, &SweepLayers::steals,
        &SweepLayers::cell_ms_p50, &SweepLayers::reduce_s,
        &SweepLayers::summary_ms, &SweepLayers::reduce_merge_ms,
        &SweepLayers::reduce_export_ms, &SweepLayers::wall_s}) {
    out.*f = med(f);
  }
  return out;
}

}  // namespace perfbench
