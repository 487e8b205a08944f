#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "campaign/pool.hpp"
#include "core/experiment.hpp"
#include "core/fabric_run.hpp"
#include "core/hash.hpp"
#include "obs/bundle.hpp"

namespace mkbas::core {

/// The campaign engine: fan a list of independent experiment cells across
/// hardware threads and reduce the results in deterministic cell order.
///
/// A *cell* is one fully specified experiment — (platform, scenario, seed,
/// attack or fault plan) — and executes exactly the way the sequential
/// entry points do: it builds its own sim::Machine, so it owns its RNG,
/// metrics registry and trace log outright. Nothing is shared between
/// in-flight cells (the only cross-thread state is the process-wide trace
/// TagRegistry, whose interning order does not affect exported bytes).
/// run_campaign therefore produces byte-identical results for any --jobs
/// value: cells land in a slot indexed by their position, and every
/// reduction (metrics merge, trace hash, summary JSON) walks the slots in
/// cell order, never in completion order.

enum class CellKind { kBenign, kAttack, kFault, kFabric };

const char* to_string(CellKind k);

/// One schedulable experiment. `opts.observe` still fires (before the
/// engine snapshots the bundle), so callers can export per-cell
/// artifacts exactly as they would from the sequential entry points.
struct CampaignCell {
  std::string name;  // unique, deterministic label ("attack/kill/minix/root")
  CellKind kind = CellKind::kBenign;
  Platform platform = Platform::kMinix;
  RunOptions opts;
  // kAttack only:
  attack::AttackKind attack_kind = attack::AttackKind::kSpoofSensor;
  attack::Privilege privilege = attack::Privilege::kCodeExec;
  // kFault only:
  fault::FaultPlan plan;
  sim::Time spoof_probe_at = -1;
  // kFabric only: the whole N-zone building is one cell. `opts` is
  // ignored for these cells; everything lives in `fabric`.
  FabricOptions fabric{};
};

/// What came back from one cell. Exactly one of attack/fault/benign/
/// fabric is meaningful (matching `kind`); the observability snapshot
/// is always taken. The cell *is* its bundle: the six stores snapshot
/// while the cell's Machine was still alive (closed spans only — cells
/// quiesce before the observe hook fires; series windows and health
/// detectors flushed at the cell's end time). A fabric cell moves in the
/// fabric's node-order fold, leaving `fabric.merged` empty.
struct CellResult : obs::Bundle {
  std::string name;
  CellKind kind = CellKind::kBenign;
  AttackRow attack;
  FaultRunResult fault;
  BenignRun benign;
  FabricRunResult fabric;
  /// FNV-1a of each store's export, taken on the pool worker.
  BundleDigests digests;
  /// FNV-1a over every trace event rendered as text (names, not interned
  /// ids, so the hash is independent of cross-cell interning order).
  std::uint64_t trace_hash = 0;
  std::uint64_t trace_events = 0;
  /// Host wall-clock for this cell. Diagnostic; never enters summary_json.
  double wall_seconds = 0.0;
};

struct CampaignResult {
  std::vector<CellResult> cells;  // in cell order, regardless of jobs
  int jobs = 1;
  std::uint64_t steals = 0;      // work-stealing pool diagnostic
  double wall_seconds = 0.0;     // host wall-clock for the whole campaign
  /// Per-cell bundles folded in cell order — the order-deterministic
  /// merge the --jobs identity tests diff. Exported on demand.
  obs::Bundle merged;
  /// The merged registry's export (summary_json embeds it).
  std::string merged_metrics_json;
  /// FNV-1a chain over the per-cell trace hashes, in cell order.
  std::uint64_t merged_trace_hash = 0;

  /// Pool profile of this campaign's run() (host wall time): per-worker
  /// steal counts, busy time and queue-depth samples, plus per-cell
  /// wall-time attribution aligned with `cells` by index. Diagnostic
  /// only — summary_json never reads it.
  std::vector<campaign::WorkerProfile> worker_profiles;
  std::vector<campaign::TaskProfile> cell_profiles;

  /// Deterministic machine-readable summary: per-cell verdicts and
  /// hashes plus the merged artifacts. Contains no timing and no
  /// jobs-dependent fields — `--jobs 1` and `--jobs N` must produce
  /// byte-identical summaries (the CI determinism gate diffs them).
  std::string summary_json() const;

  /// Pool profile as JSON (jobs, steals, per-worker rows, per-cell
  /// rows). Host wall time throughout — NOT deterministic, never
  /// diffed; the --profile-out artifact.
  std::string profile_json() const;
  /// The same profile as Perfetto/Chrome trace lanes: one track per
  /// worker, one slice per cell (named after the cell), so a campaign's
  /// schedule drops straight into the trace viewer next to the sim
  /// traces.
  std::string profile_trace_json() const;
};

/// Cell builders mirroring the sequential drivers.
std::vector<CampaignCell> attack_matrix_cells(const RunOptions& base = {});
std::vector<CampaignCell> seed_sweep_cells(Platform platform,
                                           const RunOptions& base,
                                           std::uint64_t first_seed,
                                           int count);
std::vector<CampaignCell> fault_campaign_cells(const fault::FaultPlan& plan,
                                               const RunOptions& base = {},
                                               sim::Time spoof_probe_at = -1);

/// One cell per cross-controller network attack (plus the benign
/// baseline), each an N-zone building on the fabric.
std::vector<CampaignCell> fabric_matrix_cells(int zones,
                                              const FabricOptions& base = {});

/// Run every cell (work-stealing across `jobs` threads; `jobs <= 1` runs
/// inline on the calling thread) and reduce in cell order.
CampaignResult run_campaign(const std::vector<CampaignCell>& cells,
                            int jobs = 1);

/// Parallel drop-in for run_attack_matrix(): same rows, same order.
std::vector<AttackRow> run_attack_matrix(const RunOptions& opts, int jobs);

/// Extract the typed rows from a campaign in cell order. Fabric results
/// carry a move-only bundle, so they are handed out by pointer.
std::vector<AttackRow> attack_rows(const CampaignResult& r);
std::vector<FaultRunResult> fault_rows(const CampaignResult& r);
std::vector<const FabricRunResult*> fabric_rows(const CampaignResult& r);

}  // namespace mkbas::core
