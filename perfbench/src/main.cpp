// perfbench — the repository benchmark.
//
//   perfbench --workload <sweep|city|serve> --seed N --seconds S --trace <0|1>
//             [--commit REV]
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) print the per-layer metrics. The second-to-last stdout line
// is the full report (spreads, sample counts, host fingerprint, notes);
// the last is the result line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// The exit code is non-zero when any correctness check failed.
#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace pb = perfbench;

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <sweep|city|serve> --seed N "
               "--seconds S --trace <0|1> [--commit REV]\n";
  return 2;
}

/// The per-layer metrics of the paths the workload itself does not take,
/// from small fixed probes of those paths, plus the cross-checks of the
/// path it does take.
void traced_layers(const pb::Options& o, double op_wall_s,
                   pb::Report& rep) {
  const bool sweep = o.workload == "sweep";
  const bool city = o.workload == "city";

  pb::SweepConfig sc = pb::sweep_config(o.seed);
  if (!sweep) sc.cells = 4;
  const pb::SweepLayers sl = pb::trace_sweep(sc, sweep ? 3 : 1, rep);
  rep.metric("campaign.cells_build_ms", "ms", sl.cells_build_ms);
  rep.metric("campaign.pool_s", "s", sl.pool_s);
  rep.metric("campaign.worker_idle_frac", "ratio", sl.worker_idle_frac);
  rep.metric("campaign.steals", "count", sl.steals);
  rep.metric("campaign.cell_ms_p50", "ms", sl.cell_ms_p50);
  rep.metric("campaign.reduce_s", "s", sl.reduce_s);
  rep.metric("campaign.summary_ms", "ms", sl.summary_ms);

  pb::CityConfig cc = pb::city_config(o.seed);
  if (!city) {
    cc.zones = 400;
    cc.buildings = 2;
    cc.floors = 2;
  }
  const pb::CityLayers cl = pb::trace_city(cc, rep);
  rep.metric("core.fabric_sim_s", "s", cl.fabric_sim_s);
  rep.metric("core.fabric_collect_s", "s", cl.fabric_collect_s);
  rep.metric("net.ns_per_datagram", "ns", cl.ns_per_datagram);
  rep.metric("net.posted", "count", cl.posted);
  rep.metric("net.delivered", "count", cl.delivered);
  rep.metric("net.drops", "count", cl.drops);
  rep.metric("net.pending", "count", cl.pending);

  // The cross-cell fold of the workload's own path (the sweep's for serve).
  rep.metric("obs.reduce_merge_ms", "ms",
             city ? cl.reduce_merge_ms : sl.reduce_merge_ms);
  rep.metric("obs.reduce_export_ms", "ms",
             city ? cl.reduce_export_ms : sl.reduce_export_ms);

  if (sweep || city) {
    pb::serve_probe(o.seed, rep);
    const std::vector<double> parts =
        sweep ? sl.self_times_s() : cl.self_times_s();
    const double traced_wall = sweep ? sl.wall_s : cl.wall_s;
    rep.metric("layer_sum_gap_frac", "ratio",
               pb::layer_sum_gap_frac(parts, traced_wall));
    rep.metric("trace_overhead_frac", "ratio",
               op_wall_s > 0 ? traced_wall / op_wall_s - 1.0 : 0.0);
  }

  pb::cell_probes(o.seed, pb::primed_cells(o.seed), rep);
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options o;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && o.seconds > 0;
    } else if (flag == "--trace") {
      o.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--commit") {
      o.commit = value;
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  if (o.workload != "sweep" && o.workload != "city" &&
      o.workload != "serve") {
    return usage("unknown workload " + o.workload);
  }

  const pb::Fingerprint fp = pb::host_fingerprint(o.commit);
  if (!fp.default_build()) {
    std::cerr << "perfbench: WARNING: " << fp.build_type
              << (fp.sanitized ? " sanitizer" : "")
              << " build — not the repository default RelWithDebInfo; these "
                 "numbers measure a different program\n";
  }

  pb::Report rep;
  try {
    // A traced run spends half its time on the workload's own window
    // (checks and the untraced walls the cross-checks need) and the rest
    // on taking the layers apart, so it lasts about as long as an
    // untraced run. serve keeps the whole window: its miss p90 needs the
    // misses of a full one to have ten samples beyond it.
    pb::Options window = o;
    if (o.trace && o.workload != "serve") window.seconds = o.seconds / 2;
    double op_wall_s = 0.0;  // sweep and city: for the cross-checks
    const pb::CpuTicks t0 = pb::cpu_ticks();
    if (o.workload == "sweep") {
      op_wall_s = pb::sweep_workload(window, rep);
    } else if (o.workload == "city") {
      op_wall_s = pb::city_workload(window, rep);
    } else {
      pb::serve_workload(window, rep);
    }
    rep.note("host_steal_frac",
             pb::json_number(pb::steal_frac(t0, pb::cpu_ticks())));
    if (o.trace) traced_layers(o, op_wall_s, rep);
  } catch (const std::exception& e) {
    rep.check(false, std::string("exception: ") + e.what());
  }
  if (o.trace) {
    const double attempted =
        static_cast<double>(std::max<std::uint64_t>(rep.attempted_count(), 1));
    rep.metric("error_ratio", "ratio",
               static_cast<double>(rep.failed_count()) / attempted);
  }
  std::cout << rep.report_line(o.workload, o.seed, o.trace, fp) << "\n"
            << rep.result_line() << std::endl;
  return rep.correct() ? 0 : 1;
}
