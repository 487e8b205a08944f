#include "campaign/run_request.hpp"

#include <cstdarg>
#include <cstdio>
#include <sstream>

#include "campaign/campaign.hpp"
#include "core/cli.hpp"
#include "core/hash.hpp"
#include "core/report.hpp"
#include "obs/json.hpp"
#include "obs/prometheus.hpp"
#include "obs/span.hpp"
#include "obs/trace_export.hpp"

namespace mkbas::core {

namespace {

using attack::AttackKind;
using attack::Privilege;

void appendf(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  *out += buf;
}

bool want(unsigned mask, ArtifactKind k) {
  return (mask & artifact_bit(k)) != 0;
}

/// Bits for the per-machine exports a single-machine run can produce.
constexpr unsigned kMachineArtifacts =
    artifact_bit(ArtifactKind::kMetrics) | artifact_bit(ArtifactKind::kTrace) |
    artifact_bit(ArtifactKind::kSpans) | artifact_bit(ArtifactKind::kAudit) |
    artifact_bit(ArtifactKind::kCritical) |
    artifact_bit(ArtifactKind::kSeries) | artifact_bit(ArtifactKind::kHealth) |
    artifact_bit(ArtifactKind::kFlight) |
    artifact_bit(ArtifactKind::kMetricsProm);

/// The six store exports of a machine, fabric or campaign bundle, each
/// rendered only when the mask asks for it.
void put_bundle(const obs::Bundle& b, unsigned mask,
                std::map<std::string, std::string>* out) {
  if (want(mask, ArtifactKind::kMetrics)) {
    (*out)["metrics"] = b.metrics->to_json();
  }
  if (want(mask, ArtifactKind::kMetricsProm)) {
    (*out)["metrics_prom"] = obs::prometheus_render(*b.metrics);
  }
  if (want(mask, ArtifactKind::kSpans)) (*out)["spans"] = b.spans->to_json();
  if (want(mask, ArtifactKind::kAudit)) (*out)["audit"] = b.audit->to_json();
  if (want(mask, ArtifactKind::kSeries)) {
    (*out)["series"] = b.series->to_json();
  }
  if (want(mask, ArtifactKind::kHealth)) {
    (*out)["health"] = b.health->to_json();
  }
  if (want(mask, ArtifactKind::kFlight)) {
    (*out)["flight"] = b.flight->to_json();
  }
}

/// The RunOptions::observe hook for single-machine modes: snapshot every
/// requested export while the machine is still alive. Same sequence the
/// runner's --*-out flags always used — health flushed first so trailing
/// detector windows land in every export.
std::function<void(sim::Machine&)> machine_observer(
    unsigned mask, std::map<std::string, std::string>* out) {
  if ((mask & kMachineArtifacts) == 0) return {};
  return [mask, out](sim::Machine& m) {
    m.health().flush(m.now());
    put_bundle(m.bundle(), mask, out);
    if (want(mask, ArtifactKind::kTrace)) {
      std::ostringstream os;
      obs::write_chrome_trace(os, m.trace());
      (*out)["trace"] = os.str();
    }
    if (want(mask, ArtifactKind::kCritical)) {
      (*out)["critical"] =
          obs::critical_path_json(m.spans(), "sensor.sample", "act.apply");
    }
  };
}

RunOptions run_options_from(const ExperimentRequest& req, unsigned mask,
                            std::map<std::string, std::string>* artifacts) {
  RunOptions opts;
  opts.scenario_variant = req.scenario;
  opts.seed = req.seed;
  opts.minix_quotas = req.quota;
  opts.linux_separate_accounts = req.acl;
  opts.observe = machine_observer(mask, artifacts);
  return opts;
}

std::string bool_json(bool b) { return b ? "true" : "false"; }

/// Deterministic one-line JSON for a fabric run (what the CI determinism
/// gate diffs across --jobs / reruns). Keys emitted in sorted order, like
/// every other JSON export in the repo.
std::string fabric_summary_json(const FabricRunResult& r) {
  const BundleDigests d = digest(r.merged);
  std::string s = "{\"attack\":\"" + std::string(to_string(r.attack)) +
                  "\",\"audit_hash\":\"" + hex64(d.audit) +
                  "\",\"cov\":" + std::to_string(r.cov_count) +
                  ",\"delivered\":" + std::to_string(r.delivered) +
                  ",\"drop_loss\":" + std::to_string(r.drop_loss) +
                  ",\"drop_overflow\":" + std::to_string(r.drop_overflow) +
                  ",\"drop_partition\":" + std::to_string(r.drop_partition) +
                  ",\"flight_hash\":\"" + hex64(d.flight) +
                  "\",\"health_events\":" +
                  std::to_string(r.merged.health->events().size()) +
                  ",\"health_hash\":\"" + hex64(d.health) +
                  "\",\"metrics_hash\":\"" + hex64(d.metrics) +
                  "\",\"nodes\":" + std::to_string(r.nodes) +
                  ",\"schema_version\":" +
                  std::to_string(obs::kSchemaVersion) + ",\"series_hash\":\"" +
                  hex64(d.series) + "\",\"spans_hash\":\"" + hex64(d.spans) +
                  "\",\"topology\":\"" + r.topology + "\",\"trace_hash\":\"" +
                  hex64(r.trace_hash) + "\",\"zones\":" +
                  std::to_string(r.zones) + "}";
  return s;
}

std::string benign_summary_json(const ExperimentRequest& req,
                                const BenignRun& run) {
  std::string s = "{\"alarm_violation\":" +
                  bool_json(run.safety.alarm_violation) +
                  ",\"context_switches\":" +
                  std::to_string(run.context_switches) +
                  ",\"control_alive\":" + bool_json(run.safety.control_alive) +
                  ",\"final_temp_c\":" +
                  obs::json_double(run.history.back().true_temp_c) +
                  ",\"kernel_entries\":" + std::to_string(run.kernel_entries) +
                  ",\"mode\":\"benign\",\"platform\":\"" +
                  std::string(platform_name(req.platform)) +
                  "\",\"samples\":" + std::to_string(run.history.size()) +
                  ",\"scenario\":\"" + obs::json_escape(req.scenario) +
                  "\",\"schema_version\":" +
                  std::to_string(obs::kSchemaVersion) +
                  ",\"seed\":" + std::to_string(req.seed) + "}";
  return s;
}

std::string attack_row_json(const AttackRow& row) {
  return std::string("{\"attack\":\"") + to_string(row.kind) +
         "\",\"detail\":\"" + obs::json_escape(row.outcome.detail) +
         "\",\"physically_compromised\":" +
         bool_json(row.safety.physically_compromised()) +
         ",\"platform_label\":\"" + obs::json_escape(row.platform_label) +
         "\",\"primitive_succeeded\":" +
         bool_json(row.outcome.primitive_succeeded) + ",\"privilege\":\"" +
         to_string(row.privilege) + "\"}";
}

std::string attack_summary_json(const ExperimentRequest& req,
                                const AttackRow& row) {
  std::string s = "{\"attack\":\"" + std::string(to_string(row.kind)) +
                  "\",\"detail\":\"" + obs::json_escape(row.outcome.detail) +
                  "\",\"mode\":\"attack\",\"physically_compromised\":" +
                  bool_json(row.safety.physically_compromised()) +
                  ",\"platform\":\"" +
                  std::string(platform_name(req.platform)) +
                  "\",\"platform_label\":\"" +
                  obs::json_escape(row.platform_label) +
                  "\",\"primitive_succeeded\":" +
                  bool_json(row.outcome.primitive_succeeded) +
                  ",\"privilege\":\"" + to_string(row.privilege) +
                  "\",\"scenario\":\"" + obs::json_escape(req.scenario) +
                  "\",\"schema_version\":" +
                  std::to_string(obs::kSchemaVersion) +
                  ",\"seed\":" + std::to_string(req.seed) + "}";
  return s;
}

std::string matrix_summary_json(const std::vector<AttackRow>& rows) {
  std::string s = "{\"mode\":\"matrix\",\"rows\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i != 0) s += ",";
    s += attack_row_json(rows[i]);
  }
  s += "],\"schema_version\":" + std::to_string(obs::kSchemaVersion) + "}";
  return s;
}

std::string fault_summary_json(const ExperimentRequest& req,
                               const FaultRunResult& res) {
  std::string s =
      "{\"excursion_c\":" +
      obs::json_double(res.max_excursion_after_fault_c) +
      ",\"fault_time_s\":" + obs::json_double(sim::to_seconds(res.fault_time)) +
      ",\"faults_injected\":" + std::to_string(res.faults_injected) +
      ",\"loop_recovered\":" + bool_json(res.loop_recovered) +
      ",\"max_ctl_gap_s\":" + obs::json_double(sim::to_seconds(res.max_ctl_gap)) +
      ",\"mode\":\"fault\",\"mttr_s\":" +
      (res.mttr >= 0 ? obs::json_double(sim::to_seconds(res.mttr))
                     : std::string("-1")) +
      ",\"platform\":\"" + std::string(platform_name(req.platform)) +
      "\",\"platform_label\":\"" + obs::json_escape(res.platform_label) +
      "\",\"probe_attempted\":" + bool_json(res.web_spoof.attempted) +
      ",\"probe_attempts\":" + std::to_string(res.web_spoof.attempts) +
      ",\"probe_succeeded\":" + bool_json(res.web_spoof.primitive_succeeded) +
      ",\"restarts\":" + std::to_string(res.restarts) + ",\"scenario\":\"" +
      obs::json_escape(req.scenario) +
      "\",\"schema_version\":" + std::to_string(obs::kSchemaVersion) +
      ",\"seed\":" + std::to_string(req.seed) + "}";
  return s;
}

ExperimentResponse run_benign_request(const ExperimentRequest& req,
                                      unsigned mask) {
  ExperimentResponse resp;
  const auto run =
      run_benign(req.platform, run_options_from(req, mask, &resp.artifacts));
  appendf(&resp.table, "platform            : %s\n",
          bas::to_string(req.platform));
  appendf(&resp.table, "plant samples       : %zu\n", run.history.size());
  appendf(&resp.table, "final temperature   : %.2f C\n",
          run.history.back().true_temp_c);
  appendf(&resp.table, "context switches    : %llu\n",
          static_cast<unsigned long long>(run.context_switches));
  appendf(&resp.table, "kernel entries      : %llu\n",
          static_cast<unsigned long long>(run.kernel_entries));
  appendf(&resp.table, "alarm property      : %s\n",
          run.safety.alarm_violation ? "VIOLATED" : "held");
  appendf(&resp.table, "control alive       : %s\n",
          run.safety.control_alive ? "yes" : "NO");
  if (want(mask, ArtifactKind::kSummary)) {
    resp.artifacts["summary"] = benign_summary_json(req, run);
  }
  return resp;
}

ExperimentResponse run_attack_request(const ExperimentRequest& req,
                                      unsigned mask) {
  ExperimentResponse resp;
  AttackKind kind;
  (void)parse_attack_kind(req.attack, &kind);  // validate() guaranteed it
  const Privilege priv = req.root ? Privilege::kRoot : Privilege::kCodeExec;
  const auto row = run_attack(req.platform, kind, priv,
                              run_options_from(req, mask, &resp.artifacts));
  appendf(&resp.table, "platform   : %s\n", row.platform_label.c_str());
  appendf(&resp.table, "attack     : %s (%s)\n", to_string(row.kind),
          to_string(row.privilege));
  appendf(&resp.table, "primitive  : %s\n",
          row.outcome.primitive_succeeded ? "SUCCEEDED" : "blocked");
  appendf(&resp.table, "detail     : %s\n", row.outcome.detail.c_str());
  appendf(&resp.table, "physical   : %s\n", row.safety.summary().c_str());
  if (want(mask, ArtifactKind::kSummary)) {
    resp.artifacts["summary"] = attack_summary_json(req, row);
  }
  resp.exit_code = row.safety.physically_compromised() ? 1 : 0;
  return resp;
}

ExperimentResponse run_matrix_request(const ExperimentRequest& req,
                                      unsigned mask) {
  ExperimentResponse resp;
  const auto rows = run_attack_matrix();
  if (req.format == "csv") {
    resp.table = attack_rows_to_csv(rows);
  } else if (req.format == "md") {
    resp.table = attack_rows_to_markdown(rows);
  } else {
    resp.table = format_attack_table(rows);
  }
  if (want(mask, ArtifactKind::kSummary)) {
    resp.artifacts["summary"] = matrix_summary_json(rows);
  }
  return resp;
}

ExperimentResponse run_fault_request(const ExperimentRequest& req,
                                     unsigned mask) {
  // The reference fault campaign (crash the sensor driver at t=30s, the
  // web interface at t=40s) against one platform, with a post-restart
  // sensor-spoof probe of the reincarnated web process.
  ExperimentResponse resp;
  RunOptions opts = run_options_from(req, mask, &resp.artifacts);
  opts.settle = sim::minutes(1);
  opts.post = sim::minutes(6);
  opts.scenario.room.initial_temp_c = opts.scenario.control.initial_setpoint_c;
  const sim::Time probe_at = req.probe ? sim::sec(70) : -1;
  const auto plan = fault::reference_sensor_crash_plan();
  appendf(&resp.table, "plan:\n%s", plan.describe().c_str());
  const auto res = run_fault(req.platform, plan, opts, probe_at);
  appendf(&resp.table, "platform       : %s\n", res.platform_label.c_str());
  appendf(&resp.table, "faults injected: %llu\n",
          static_cast<unsigned long long>(res.faults_injected));
  appendf(&resp.table, "loop recovered : %s\n",
          res.loop_recovered ? "yes" : "NO");
  if (res.mttr >= 0) {
    appendf(&resp.table, "mttr           : %.3f s (virtual)\n",
            sim::to_seconds(res.mttr));
  } else {
    appendf(&resp.table, "mttr           : inf (never recovered)\n");
  }
  appendf(&resp.table, "restarts       : %d\n", res.restarts);
  appendf(&resp.table, "excursion      : %.2f C after the fault\n",
          res.max_excursion_after_fault_c);
  if (res.web_spoof.attempted) {
    appendf(&resp.table, "spoof probe    : %s (%d attempts)\n",
            res.web_spoof.primitive_succeeded ? "SPOOFED" : "blocked",
            res.web_spoof.attempts);
  } else {
    appendf(&resp.table, "spoof probe    : not reached (web interface dead)\n");
  }
  appendf(&resp.table, "physical       : %s\n", res.safety.summary().c_str());
  if (want(mask, ArtifactKind::kSummary)) {
    resp.artifacts["summary"] = fault_summary_json(req, res);
  }
  resp.exit_code = res.loop_recovered ? 0 : 1;
  return resp;
}

ExperimentResponse run_fabric_request(const ExperimentRequest& req,
                                      unsigned mask) {
  ExperimentResponse resp;
  FabricOptions opts;
  opts.zones = req.zones;
  opts.seed = req.seed;
  opts.topology = req.topology;
  opts.floors = req.floors;
  opts.buildings = req.buildings;
  opts.sync = req.sync;
  opts.jobs = req.jobs;
  opts.lite_zones = req.lite;
  (void)parse_fabric_attack(req.attack, &opts.attack);  // validated
  const auto res = run_fabric(opts);
  resp.table = format_fabric_table(res);
  if (want(mask, ArtifactKind::kSummary)) {
    resp.artifacts["summary"] = fabric_summary_json(res);
  }
  if (want(mask, ArtifactKind::kCritical)) {
    resp.artifacts["critical"] = obs::critical_path_json(
        *res.merged.spans, "sensor.sample", "net.link");
  }
  put_bundle(res.merged, mask, &resp.artifacts);
  return resp;
}

ExperimentResponse run_campaign_request(const ExperimentRequest& req,
                                        unsigned mask) {
  ExperimentResponse resp;
  std::vector<CampaignCell> cells;
  switch (req.mode) {
    case RequestMode::kCampaignMatrix:
      cells = attack_matrix_cells({});
      break;
    case RequestMode::kCampaignSweep:
      cells = seed_sweep_cells(req.platform, {}, 1, req.seeds);
      break;
    case RequestMode::kCampaignFault: {
      RunOptions opts;
      opts.settle = sim::minutes(1);
      opts.post = sim::minutes(6);
      opts.seed = req.seed;
      opts.scenario.room.initial_temp_c =
          opts.scenario.control.initial_setpoint_c;
      cells = fault_campaign_cells(fault::reference_sensor_crash_plan(), opts,
                                   sim::sec(70));
      break;
    }
    default: {
      FabricOptions base;
      base.seed = req.seed;
      cells = fabric_matrix_cells(req.zones, base);
      break;
    }
  }

  const bool profiling = want(mask, ArtifactKind::kProfile) ||
                         want(mask, ArtifactKind::kProfileTrace);
  const auto result = run_campaign(cells, req.jobs);
  appendf(&resp.table, "campaign: %zu cells, --jobs %d, %.2f s wall, "
          "%llu steals\n",
          result.cells.size(), result.jobs, result.wall_seconds,
          static_cast<unsigned long long>(result.steals));
  if (req.mode == RequestMode::kCampaignMatrix) {
    resp.table += format_attack_table(attack_rows(result));
  } else if (req.mode == RequestMode::kCampaignFault) {
    resp.table += format_fault_table(fault_rows(result));
  } else if (req.mode == RequestMode::kCampaignFabric) {
    for (const FabricRunResult* run : fabric_rows(result)) {
      resp.table += format_fabric_table(*run);
    }
  } else {
    for (const auto& c : result.cells) {
      appendf(&resp.table, "%-28s %zu samples, alarm %s\n", c.name.c_str(),
              c.benign.history.size(),
              c.benign.safety.alarm_violation ? "VIOLATED" : "held");
    }
  }

  if (want(mask, ArtifactKind::kSummary)) {
    resp.artifacts["summary"] = result.summary_json();
  }
  put_bundle(result.merged, mask, &resp.artifacts);
  // Pool profile: host wall-time, --jobs-dependent by nature — produced
  // only on request and kept out of the deterministic bundle.
  if (profiling) {
    if (want(mask, ArtifactKind::kProfile)) {
      resp.volatile_artifacts["profile"] = result.profile_json();
    }
    if (want(mask, ArtifactKind::kProfileTrace)) {
      resp.volatile_artifacts["profile_trace"] = result.profile_trace_json();
    }
  }
  return resp;
}

}  // namespace

ExperimentResponse run_request(const ExperimentRequest& req, unsigned mask) {
  switch (req.mode) {
    case RequestMode::kBenign: return run_benign_request(req, mask);
    case RequestMode::kAttack: return run_attack_request(req, mask);
    case RequestMode::kMatrix: return run_matrix_request(req, mask);
    case RequestMode::kFault: return run_fault_request(req, mask);
    case RequestMode::kFabric: return run_fabric_request(req, mask);
    case RequestMode::kCampaignMatrix:
    case RequestMode::kCampaignSweep:
    case RequestMode::kCampaignFault:
    case RequestMode::kCampaignFabric:
      return run_campaign_request(req, mask);
  }
  return {};
}

ExperimentResponse run_request(const ExperimentRequest& req) {
  return run_request(req,
                     req.artifacts.mask() | artifact_bit(ArtifactKind::kSummary));
}

}  // namespace mkbas::core
