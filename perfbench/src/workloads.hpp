#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"
#include "serve_stream.hpp"

namespace perfbench {

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit;
};

/// Set-ups timed per run; setup_s is their median.
inline constexpr int kSetups = 3;

/// Pool workers for sweep and city: one per core of the 4-core host.
inline constexpr int kJobs = 4;

// ---- sweep: a 16-cell MINIX seed sweep ----------------------------------

struct SweepConfig {
  std::uint64_t first_seed = 1;
  int cells = 16;
};
SweepConfig sweep_config(std::uint64_t seed);

/// Set-up, timed window and checks of the sweep workload. Adds the
/// end-to-end metrics unless `o.trace`. Returns the median wall of one
/// timed sweep, seconds, for the traced cross-checks.
double sweep_workload(const Options& o, Report& rep);

/// Host-time split of one sweep, taken around the public calls.
struct SweepLayers {
  double cells_build_ms = 0.0;
  double pool_s = 0.0;  // run start to the last cell's end
  double worker_idle_frac = 0.0;
  double steals = 0.0;
  double cell_ms_p50 = 0.0;
  double reduce_s = 0.0;  // campaign wall minus pool end: the serial tail
  double summary_ms = 0.0;
  double reduce_merge_ms = 0.0;   // cross-cell fold, repeated
  double reduce_export_ms = 0.0;
  double wall_s = 0.0;  // the traced operation, cells build to summary
  /// The named layers that should add up to wall_s: the serial tail is
  /// represented by the fold, not by reduce_s (the remainder by
  /// definition), so the gap shows what the fold does not explain.
  std::vector<double> self_times_s() const {
    return {cells_build_ms / 1e3, pool_s, reduce_merge_ms / 1e3,
            reduce_export_ms / 1e3, summary_ms / 1e3};
  }
};
/// Median layer split over `reps` traced sweeps.
SweepLayers trace_sweep(const SweepConfig& cfg, int reps, Report& rep);

// ---- city: 5,000 gateway-only zones on a campus, lookahead sync --------

struct CityConfig {
  std::uint64_t seed = 1;
  int buildings = 10;
  int floors = 10;
  int zones = 5000;
};
CityConfig city_config(std::uint64_t seed);

/// As sweep_workload, for one fabric request.
double city_workload(const Options& o, Report& rep);

struct CityLayers {
  double fabric_sim_s = 0.0;      // run_fabric entry to its observe hook
  double fabric_collect_s = 0.0;  // node-order fold + hook to return
  double reduce_merge_ms = 0.0;
  double reduce_export_ms = 0.0;
  double ns_per_datagram = 0.0;
  double posted = 0.0, delivered = 0.0, drops = 0.0, pending = 0.0;
  double wall_s = 0.0;  // the traced run_fabric call
  /// Simulation plus the fold; the gap is the critical path, digests
  /// and teardown.
  std::vector<double> self_times_s() const {
    return {fabric_sim_s, reduce_merge_ms / 1e3, reduce_export_ms / 1e3};
  }
};
CityLayers trace_city(const CityConfig& cfg, Report& rep);

// ---- serve: in-process daemon, one keep-alive load connection --------

/// Set-up, timed loop and checks; in a traced run also every serve.*
/// layer metric and the serve cross-checks.
void serve_workload(const Options& o, Report& rep);

/// The serve layer metrics of a short loop on a fresh daemon, for runs
/// of the other workloads (the serve workload reports its own).
void serve_probe(std::uint64_t seed, Report& rep);

// ---- probes shared by every traced run --------------------------------

/// One representative MINIX cell rebuilt through make_scenario and
/// Machine::run_until, its obs exports and trace hash; the fiber and
/// sendrec pingpong probes; a direct run_request of each of `cells`.
void cell_probes(std::uint64_t seed, const std::vector<ServeCell>& cells,
                 Report& rep);

}  // namespace perfbench
