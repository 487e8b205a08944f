#include "campaign/campaign.hpp"

#include <chrono>
#include <cstdio>
#include <sstream>

#include "campaign/pool.hpp"
#include "core/hash.hpp"

namespace mkbas::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One cell, executed on whichever worker thread picked it up. All state
/// is local: the Machine (and with it RNG, registry, trace) is built and
/// torn down inside this call.
CellResult run_cell(const CampaignCell& cell) {
  CellResult res;
  res.name = cell.name;
  res.kind = cell.kind;
  const auto t0 = Clock::now();

  RunOptions opts = cell.opts;
  auto caller_observe = opts.observe;
  opts.observe = [&](sim::Machine& m) {
    if (caller_observe) caller_observe(m);
    // Close trailing rate windows so trailing anomalies are detected
    // before the snapshot; idempotent if the caller already flushed.
    m.health().flush(m.now());
    res.merge_from(m.bundle());
    res.trace_hash = trace_hash(m.trace());
    res.trace_events = m.trace().total_emitted();
  };

  switch (cell.kind) {
    case CellKind::kBenign:
      res.benign = run_benign(cell.platform, opts);
      break;
    case CellKind::kAttack:
      res.attack =
          run_attack(cell.platform, cell.attack_kind, cell.privilege, opts);
      break;
    case CellKind::kFault:
      res.fault =
          run_fault(cell.platform, cell.plan, opts, cell.spoof_probe_at);
      break;
    case CellKind::kFabric:
      // The fabric already folded its machines in node order: the cell
      // takes that bundle, so the campaign-level merge sees one bundle
      // per cell, as for every other kind.
      res.fabric = run_fabric(cell.fabric);
      static_cast<obs::Bundle&>(res) = std::move(res.fabric.merged);
      res.trace_hash = res.fabric.trace_hash;
      res.trace_events = res.fabric.trace_events;
      break;
  }
  // Exported and hashed here, on the worker, not in the serial tail.
  res.digests = digest(res);
  res.wall_seconds = seconds_since(t0);
  return res;
}

std::string cell_verdict(const CellResult& r) {
  char buf[256];
  switch (r.kind) {
    case CellKind::kBenign:
      std::snprintf(buf, sizeof buf, "samples=%zu final_c=%.6f %s",
                    r.benign.history.size(),
                    r.benign.history.empty()
                        ? 0.0
                        : r.benign.history.back().true_temp_c,
                    r.benign.safety.summary().c_str());
      return buf;
    case CellKind::kAttack:
      std::snprintf(buf, sizeof buf, "%s primitive=%s attempts=%d/%d %s",
                    r.attack.platform_label.c_str(),
                    r.attack.outcome.primitive_succeeded ? "SUCCEEDED"
                                                         : "blocked",
                    r.attack.outcome.successes, r.attack.outcome.attempts,
                    r.attack.safety.summary().c_str());
      return buf;
    case CellKind::kFault:
      std::snprintf(
          buf, sizeof buf,
          "%s recovered=%s mttr_s=%.3f restarts=%d excursion_c=%.3f "
          "faults=%llu spoof=%s",
          r.fault.platform_label.c_str(),
          r.fault.loop_recovered ? "yes" : "no",
          r.fault.mttr < 0 ? -1.0 : sim::to_seconds(r.fault.mttr),
          r.fault.restarts, r.fault.max_excursion_after_fault_c,
          static_cast<unsigned long long>(r.fault.faults_injected),
          !r.fault.web_spoof.attempted
              ? "-"
              : (r.fault.web_spoof.primitive_succeeded ? "SPOOFED"
                                                       : "blocked"));
      return buf;
    case CellKind::kFabric: {
      // Built as a string: the zone list grows with the building.
      std::snprintf(
          buf, sizeof buf,
          "zones=%d attack=%s delivered=%llu drops=%llu/%llu/%llu "
          "cov=%llu cov_p99_us=%.0f [",
          r.fabric.zones, to_string(r.fabric.attack),
          static_cast<unsigned long long>(r.fabric.delivered),
          static_cast<unsigned long long>(r.fabric.drop_loss),
          static_cast<unsigned long long>(r.fabric.drop_partition),
          static_cast<unsigned long long>(r.fabric.drop_overflow),
          static_cast<unsigned long long>(r.fabric.cov_count),
          r.fabric.cov_p99_us);
      std::string out = buf;
      for (const FabricZoneRow& row : r.fabric.rows) {
        if (out.back() != '[') out += ',';
        out += std::to_string(row.zone);
        out += r.fabric.attack == FabricAttack::kNone
                   ? ":-"
                   : (row.attack_delivered ? ":DELIVERED" : ":blocked");
      }
      return out + "]";
    }
  }
  return "?";
}

}  // namespace

const char* to_string(CellKind k) {
  switch (k) {
    case CellKind::kBenign:
      return "benign";
    case CellKind::kAttack:
      return "attack";
    case CellKind::kFault:
      return "fault";
    case CellKind::kFabric:
      return "fabric";
  }
  return "?";
}

CampaignResult run_campaign(const std::vector<CampaignCell>& cells,
                            int jobs) {
  CampaignResult out;
  out.jobs = jobs < 1 ? 1 : jobs;
  const auto t0 = Clock::now();

  out.cells.resize(cells.size());
  campaign::WorkStealingPool pool(out.jobs);
  pool.set_profiling(true);
  pool.run(cells.size(), [&](std::size_t i) {
    // Slot i belongs to cell i: completion order never shows through.
    out.cells[i] = run_cell(cells[i]);
  });
  out.steals = pool.steals();
  out.worker_profiles = pool.worker_profiles();
  out.cell_profiles = pool.task_profiles();

  // Reductions walk the slots in cell order — the one order every --jobs
  // value shares — so merged artifacts are byte-identical to sequential.
  std::uint64_t chain = 14695981039346656037ULL;
  for (const CellResult& r : out.cells) {
    out.merged.merge_from(r);
    chain = fnv1a(hex64(r.trace_hash), chain);
  }
  out.merged_metrics_json = out.merged.metrics->to_json();
  out.merged_trace_hash = chain;
  out.wall_seconds = seconds_since(t0);
  return out;
}

std::string CampaignResult::summary_json() const {
  // Keys sorted at every level, like every other JSON export.
  std::ostringstream os;
  os << "{\"cells\":[";
  bool first = true;
  for (const auto& r : cells) {
    if (!first) os << ',';
    first = false;
    const BundleDigests& d = r.digests;
    os << "{\"audit_hash\":\"" << hex64(d.audit) << "\",\"flight_hash\":\""
       << hex64(d.flight)
       << "\",\"health_events\":" << r.health->events().size()
       << ",\"health_hash\":\"" << hex64(d.health) << "\",\"kind\":\""
       << to_string(r.kind) << "\",\"metrics_hash\":\"" << hex64(d.metrics)
       << "\",\"name\":\"" << obs::json_escape(r.name)
       << "\",\"series_hash\":\"" << hex64(d.series)
       << "\",\"spans_hash\":\"" << hex64(d.spans)
       << "\",\"trace_events\":" << r.trace_events << ",\"trace_hash\":\""
       << hex64(r.trace_hash) << "\",\"verdict\":\""
       << obs::json_escape(cell_verdict(r)) << "\"}";
  }
  os << "],\"merged_audit_hash\":\"" << hex64(fnv1a(merged.audit->to_json()))
     << "\",\"merged_flight_hash\":\""
     << hex64(fnv1a(merged.flight->to_json()))
     << "\",\"merged_health_hash\":\""
     << hex64(fnv1a(merged.health->to_json()))
     << "\",\"merged_metrics\":" << merged_metrics_json
     << ",\"merged_series_hash\":\""
     << hex64(fnv1a(merged.series->to_json()))
     << "\",\"merged_spans_hash\":\"" << hex64(fnv1a(merged.spans->to_json()))
     << "\",\"merged_trace_hash\":\"" << hex64(merged_trace_hash)
     << "\",\"schema_version\":" << obs::kSchemaVersion << "}";
  return os.str();
}

std::string CampaignResult::profile_json() const {
  std::ostringstream os;
  os << "{\"cells\":[";
  for (std::size_t i = 0; i < cell_profiles.size(); ++i) {
    const campaign::TaskProfile& tp = cell_profiles[i];
    if (i > 0) os << ',';
    os << "{\"end_s\":" << obs::json_double(tp.end_seconds)
       << ",\"index\":" << i << ",\"name\":\""
       << obs::json_escape(i < cells.size() ? cells[i].name : "")
       << "\",\"start_s\":" << obs::json_double(tp.start_seconds)
       << ",\"stolen\":" << (tp.stolen ? "true" : "false")
       << ",\"worker\":" << tp.worker << "}";
  }
  os << "],\"jobs\":" << jobs << ",\"schema_version\":"
     << obs::kSchemaVersion << ",\"steals\":" << steals
     << ",\"wall_seconds\":" << obs::json_double(wall_seconds)
     << ",\"workers\":[";
  for (std::size_t w = 0; w < worker_profiles.size(); ++w) {
    const campaign::WorkerProfile& wp = worker_profiles[w];
    if (w > 0) os << ',';
    os << "{\"busy_seconds\":" << obs::json_double(wp.busy_seconds)
       << ",\"executed\":" << wp.executed << ",\"queue_depth\":[";
    for (std::size_t s = 0; s < wp.queue_depth.size(); ++s) {
      if (s > 0) os << ',';
      os << '[' << obs::json_double(wp.queue_depth[s].first) << ','
         << wp.queue_depth[s].second << ']';
    }
    os << "],\"stolen\":" << wp.stolen << ",\"worker\":" << wp.worker
       << "}";
  }
  os << "]}";
  return os.str();
}

std::string CampaignResult::profile_trace_json() const {
  // One Perfetto lane per pool worker, one slice per cell: the
  // campaign's host-time schedule, viewable next to the sim traces.
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const campaign::WorkerProfile& wp : worker_profiles) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << wp.worker
       << ",\"tid\":0,\"args\":{\"name\":\"pool-worker"
       << wp.worker << "\"}}";
  }
  for (std::size_t i = 0; i < cell_profiles.size(); ++i) {
    const campaign::TaskProfile& tp = cell_profiles[i];
    if (tp.worker < 0) continue;
    const double us = 1e6;
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\""
       << obs::json_escape(i < cells.size() ? cells[i].name : "")
       << "\",\"cat\":\"cell\",\"ph\":\"X\",\"ts\":"
       << obs::json_double(tp.start_seconds * us) << ",\"dur\":"
       << obs::json_double(
              (tp.end_seconds - tp.start_seconds) * us < 1.0
                  ? 1.0
                  : (tp.end_seconds - tp.start_seconds) * us)
       << ",\"pid\":" << tp.worker << ",\"tid\":0,\"args\":{\"index\":"
       << i << ",\"stolen\":" << (tp.stolen ? "true" : "false") << "}}";
  }
  os << "]}";
  return os.str();
}

std::vector<CampaignCell> attack_matrix_cells(const RunOptions& base) {
  using attack::AttackKind;
  using attack::Privilege;
  std::vector<CampaignCell> cells;
  const AttackKind kinds[] = {
      AttackKind::kSpoofSensor, AttackKind::kSpoofActuator,
      AttackKind::kKillControl, AttackKind::kForkBomb,
      AttackKind::kCapBruteForce, AttackKind::kIpcFlood};
  const Platform platforms[] = {Platform::kLinux, Platform::kMinix,
                                Platform::kSel4};
  const char* pnames[] = {"linux", "minix", "sel4"};
  // Same nesting as the sequential run_attack_matrix(), so rows (and the
  // rendered table) come out in the same order.
  for (AttackKind kind : kinds) {
    for (std::size_t pi = 0; pi < 3; ++pi) {
      const Platform p = platforms[pi];
      for (Privilege priv : {Privilege::kCodeExec, Privilege::kRoot}) {
        if (p == Platform::kSel4 && priv == Privilege::kRoot) continue;
        CampaignCell c;
        c.name = std::string("attack/") + attack::to_string(kind) + "/" +
                 pnames[pi] + "/" + attack::to_string(priv);
        c.kind = CellKind::kAttack;
        c.platform = p;
        c.attack_kind = kind;
        c.privilege = priv;
        c.opts = base;
        cells.push_back(std::move(c));
      }
      if (p == Platform::kMinix && kind == AttackKind::kForkBomb) {
        CampaignCell c;
        c.name = std::string("attack/") + attack::to_string(kind) +
                 "/minix/code-exec+quota";
        c.kind = CellKind::kAttack;
        c.platform = p;
        c.attack_kind = kind;
        c.privilege = Privilege::kCodeExec;
        c.opts = base;
        c.opts.minix_quotas = true;
        cells.push_back(std::move(c));
      }
    }
  }
  return cells;
}

std::vector<CampaignCell> seed_sweep_cells(Platform platform,
                                           const RunOptions& base,
                                           std::uint64_t first_seed,
                                           int count) {
  std::vector<CampaignCell> cells;
  for (int i = 0; i < count; ++i) {
    CampaignCell c;
    c.kind = CellKind::kBenign;
    c.platform = platform;
    c.opts = base;
    c.opts.seed = first_seed + static_cast<std::uint64_t>(i);
    c.name = std::string("benign/") + to_string(platform) + "/seed" +
             std::to_string(c.opts.seed);
    cells.push_back(std::move(c));
  }
  return cells;
}

std::vector<CampaignCell> fault_campaign_cells(const fault::FaultPlan& plan,
                                               const RunOptions& base,
                                               sim::Time spoof_probe_at) {
  std::vector<CampaignCell> cells;
  const Platform platforms[] = {Platform::kMinix, Platform::kSel4,
                                Platform::kLinux};
  const char* pnames[] = {"minix", "sel4", "linux"};
  for (std::size_t i = 0; i < 3; ++i) {
    CampaignCell c;
    c.name = std::string("fault/") + plan.name() + "/" + pnames[i];
    c.kind = CellKind::kFault;
    c.platform = platforms[i];
    c.opts = base;
    c.plan = plan;
    c.spoof_probe_at = spoof_probe_at;
    cells.push_back(std::move(c));
  }
  return cells;
}

std::vector<AttackRow> attack_rows(const CampaignResult& r) {
  std::vector<AttackRow> rows;
  for (const auto& c : r.cells) {
    if (c.kind == CellKind::kAttack) rows.push_back(c.attack);
  }
  return rows;
}

std::vector<FaultRunResult> fault_rows(const CampaignResult& r) {
  std::vector<FaultRunResult> rows;
  for (const auto& c : r.cells) {
    if (c.kind == CellKind::kFault) rows.push_back(c.fault);
  }
  return rows;
}

std::vector<const FabricRunResult*> fabric_rows(const CampaignResult& r) {
  std::vector<const FabricRunResult*> rows;
  for (const auto& c : r.cells) {
    if (c.kind == CellKind::kFabric) rows.push_back(&c.fabric);
  }
  return rows;
}

std::vector<CampaignCell> fabric_matrix_cells(int zones,
                                              const FabricOptions& base) {
  std::vector<CampaignCell> cells;
  const FabricAttack attacks[] = {
      FabricAttack::kNone, FabricAttack::kSpoofWrite, FabricAttack::kReplay,
      FabricAttack::kFlood};
  for (FabricAttack a : attacks) {
    CampaignCell c;
    c.kind = CellKind::kFabric;
    c.fabric = base;
    c.fabric.zones = zones;
    c.fabric.attack = a;
    c.name = std::string("fabric/") + to_string(a) + "/z" +
             std::to_string(zones);
    cells.push_back(std::move(c));
  }
  return cells;
}

std::vector<AttackRow> run_attack_matrix(const RunOptions& opts, int jobs) {
  return attack_rows(run_campaign(attack_matrix_cells(opts), jobs));
}

}  // namespace mkbas::core
