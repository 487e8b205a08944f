#include "core/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>

namespace mkbas::core {

using attack::AttackKind;
using attack::AttackOutcome;
using attack::Privilege;

namespace {

/// Fold the driver-level knobs (quota ablation, Linux account split) into
/// the ScenarioConfig the scenario factories read. Fields a platform does
/// not consult are ignored by its factory, so setting them is harmless.
bas::ScenarioConfig effective_config(Platform platform,
                                     const RunOptions& opts) {
  bas::ScenarioConfig cfg = opts.scenario;
  cfg.enable_quotas = opts.minix_quotas;
  cfg.linux_separate_accounts = opts.linux_separate_accounts;
  (void)platform;
  return cfg;
}

/// Drives the Fig. 2 benign workload against whichever scenario's console
/// and plant are handed in.
void schedule_benign_workload(sim::Machine& m, net::HttpConsole& http,
                              bas::Plant& plant) {
  // Periodic operator status polls.
  m.every(sim::minutes(2), sim::minutes(2), [&m, &http] {
    http.submit(m.now(), {"GET", "/status", ""});
  });
  // Setpoint step at t=10min.
  m.at(sim::minutes(10), [&m, &http] {
    http.submit(m.now(), {"POST", "/setpoint", "value=25.0"});
  });
  // Heater hardware failure at t=30min; the room cools out of band and
  // the alarm must fire within the alarm timeout.
  m.at(sim::minutes(30), [&m, &plant] {
    plant.heater.fail();
    m.trace().emit(m.now(), -1, sim::TraceKind::kDevice, "heater.failed");
  });
  m.at(sim::minutes(45), [&m, &plant] {
    plant.heater.repair();
    m.trace().emit(m.now(), -1, sim::TraceKind::kDevice, "heater.repaired");
  });
}

constexpr sim::Duration kBenignEnd = sim::minutes(60);

}  // namespace

BenignRun run_benign(Platform platform, const RunOptions& opts) {
  BenignRun run;
  run.platform = platform;
  sim::Machine m(opts.seed);

  auto sc = bas::make_scenario(m, platform, opts.scenario_variant,
                               effective_config(platform, opts));
  bas::Plant* plant = sc->plant();
  if (plant == nullptr) {
    throw std::invalid_argument(
        "run_benign: scenario variant has no temperature plant");
  }
  schedule_benign_workload(m, sc->http(), *plant);
  m.run_until(kBenignEnd);
  run.history = plant->coupler->history();
  run.http = sc->http().exchanges();
  run.safety =
      check_safety(run.history, m.trace(), opts.scenario.control, kBenignEnd,
                   opts.scenario.sensor_period);
  run.context_switches = m.context_switches();
  run.kernel_entries = m.kernel_entries();
  if (opts.observe) opts.observe(m);
  return run;
}

AttackRow run_attack(Platform platform, AttackKind kind, Privilege priv,
                     const RunOptions& opts) {
  AttackRow row;
  row.platform = platform;
  row.platform_label = to_string(platform);
  row.kind = kind;
  row.privilege = priv;

  sim::Machine m(opts.seed);
  const sim::Time attack_at = opts.settle;
  const sim::Time run_end = opts.settle + opts.post;

  bas::ScenarioConfig cfg = effective_config(platform, opts);
  if (platform == Platform::kMinix && opts.minix_quotas) {
    row.platform_label += "(quota)";
  }
  if (platform == Platform::kLinux) {
    // A root attacker only makes sense against the well-configured
    // deployment (separate accounts + queue ACLs), §IV.D.2.
    cfg.linux_separate_accounts =
        opts.linux_separate_accounts || priv == Privilege::kRoot;
    if (cfg.linux_separate_accounts) row.platform_label += "(acl)";
  }

  auto sc = bas::make_scenario(m, platform, opts.scenario_variant, cfg);
  sc->arm_attack(attack_at,
                 attack::make_attack(platform, kind, priv, &row.outcome));
  m.run_until(run_end);
  row.safety = check_safety(sc->plant()->coupler->history(), m.trace(),
                            opts.scenario.control, run_end,
                            opts.scenario.sensor_period);
  if (opts.observe) opts.observe(m);
  return row;
}

std::vector<AttackRow> run_attack_matrix(const RunOptions& opts) {
  std::vector<AttackRow> rows;
  const AttackKind kinds[] = {
      AttackKind::kSpoofSensor, AttackKind::kSpoofActuator,
      AttackKind::kKillControl, AttackKind::kForkBomb,
      AttackKind::kCapBruteForce, AttackKind::kIpcFlood};
  const Platform platforms[] = {Platform::kLinux, Platform::kMinix,
                                Platform::kSel4};
  for (AttackKind kind : kinds) {
    for (Platform p : platforms) {
      for (Privilege priv : {Privilege::kCodeExec, Privilege::kRoot}) {
        // Root adds nothing on seL4 (no user concept, §IV.D.3): skip the
        // duplicate run but keep both privilege rows elsewhere.
        if (p == Platform::kSel4 && priv == Privilege::kRoot) continue;
        rows.push_back(run_attack(p, kind, priv, opts));
      }
      // Ablation: the paper's proposed ACM fork quota stops the bomb.
      if (p == Platform::kMinix && kind == AttackKind::kForkBomb) {
        RunOptions quota_opts = opts;
        quota_opts.minix_quotas = true;
        rows.push_back(run_attack(p, kind, Privilege::kCodeExec,
                                  quota_opts));
      }
    }
  }
  return rows;
}

namespace {

/// Shared post-run analysis for fault campaigns: recovery and excursion
/// are judged from the trace and the plant history, identically for all
/// three platforms.
void analyse_fault_run(FaultRunResult& res, sim::Machine& m,
                       bas::Plant& plant, const RunOptions& opts,
                       sim::Time run_end) {
  res.history = plant.coupler->history();
  res.safety = check_safety(res.history, m.trace(), opts.scenario.control,
                            run_end, opts.scenario.sensor_period);
  // The loop counts as recovered when the safety checker still sees it
  // alive at the end of the run (recency of ctl.sample events).
  res.loop_recovered = res.safety.control_alive;

  // MTTR: the longest inter-sample gap ending after the fault is the
  // outage; its end is the moment service was restored. Measuring the
  // gap (instead of "first sample after the fault") is robust against a
  // sample that was already in flight when the fault hit.
  sim::Time prev = -1;
  sim::Time outage_end = -1;
  for (const auto& ev : m.trace().events()) {
    if (ev.what() != "ctl.sample") continue;
    if (prev >= 0 && ev.time > res.fault_time) {
      const sim::Duration gap = ev.time - prev;
      if (gap > res.max_ctl_gap) {
        res.max_ctl_gap = gap;
        outage_end = ev.time;
      }
    }
    prev = ev.time;
  }
  if (res.loop_recovered) {
    res.mttr = outage_end > res.fault_time ? outage_end - res.fault_time : 0;
  }

  const double sp = opts.scenario.control.initial_setpoint_c;
  for (const auto& s : res.history) {
    if (s.time < res.fault_time) continue;
    res.max_excursion_after_fault_c = std::max(
        res.max_excursion_after_fault_c, std::abs(s.true_temp_c - sp));
  }
  if (opts.observe) opts.observe(m);
}

}  // namespace

FaultRunResult run_fault(Platform platform, const fault::FaultPlan& plan,
                         const RunOptions& opts, sim::Time spoof_probe_at) {
  FaultRunResult res;
  res.platform = platform;
  res.platform_label = to_string(platform);

  sim::Machine m(opts.seed);
  res.fault_time = std::numeric_limits<sim::Time>::max();
  for (const auto& ev : plan.events())
    res.fault_time = std::min(res.fault_time, ev.at);
  if (plan.empty()) res.fault_time = 0;
  const sim::Time run_end = opts.settle + opts.post;

  fault::FaultInjector injector(m, plan);

  bas::ScenarioConfig cfg = effective_config(platform, opts);
  switch (platform) {
    case Platform::kMinix:
      cfg.enable_reincarnation = true;  // RS self-healing under test
      res.platform_label += "+RS";
      break;
    case Platform::kSel4:
      cfg.enable_reincarnation = true;  // CAmkES restart-from-spec
      res.platform_label += "+restart";
      break;
    case Platform::kLinux:
      // Deliberately no recovery: a plain deployment has nothing watching
      // the control processes, which is the paper's contrast case.
      break;
  }

  auto sc = bas::make_scenario(m, platform, opts.scenario_variant, cfg);
  injector.register_sensor(&sc->plant()->sensor);
  injector.arm();
  if (spoof_probe_at >= 0) {
    sc->arm_attack(spoof_probe_at,
                   attack::make_attack(platform, AttackKind::kSpoofSensor,
                                       Privilege::kCodeExec, &res.web_spoof));
  }
  m.run_until(run_end);
  res.restarts = sc->restarts();
  analyse_fault_run(res, m, *sc->plant(), opts, run_end);
  res.faults_injected = injector.injected();
  return res;
}

std::string format_fault_table(const std::vector<FaultRunResult>& rows) {
  std::ostringstream os;
  auto pad = [](std::string s, std::size_t w) {
    if (s.size() < w) s.append(w - s.size(), ' ');
    return s;
  };
  os << pad("platform", 22) << pad("recovered", 11) << pad("mttr", 10)
     << pad("restarts", 10) << pad("excursion", 11) << pad("spoof", 8)
     << "physical world\n";
  os << std::string(110, '-') << "\n";
  for (const auto& r : rows) {
    std::ostringstream mttr;
    if (r.mttr < 0) {
      mttr << "inf";
    } else {
      mttr.setf(std::ios::fixed);
      mttr.precision(2);
      mttr << sim::to_seconds(r.mttr) << "s";
    }
    std::ostringstream exc;
    exc.setf(std::ios::fixed);
    exc.precision(2);
    exc << r.max_excursion_after_fault_c << "C";
    // "successes" can count delivered-but-harmless sends (seL4's badged
    // channels); the spoof verdict is the primitive's, not the counter's.
    std::ostringstream spoof;
    if (!r.web_spoof.attempted) {
      spoof << "-";
    } else if (r.web_spoof.primitive_succeeded) {
      spoof << "SPOOFED";
    } else {
      spoof << "blocked";
    }
    os << pad(r.platform_label, 22)
       << pad(r.loop_recovered ? "yes" : "NO", 11) << pad(mttr.str(), 10)
       << pad(std::to_string(r.restarts), 10) << pad(exc.str(), 11)
       << pad(spoof.str(), 8) << r.safety.summary() << "\n";
  }
  return os.str();
}

std::string format_attack_table(const std::vector<AttackRow>& rows) {
  std::ostringstream os;
  auto pad = [](std::string s, std::size_t w) {
    if (s.size() < w) s.append(w - s.size(), ' ');
    return s;
  };
  os << pad("attack", 20) << pad("privilege", 11) << pad("platform", 18)
     << pad("primitive", 11) << pad("physical world", 52) << "\n";
  os << std::string(110, '-') << "\n";
  for (const auto& r : rows) {
    os << pad(attack::to_string(r.kind), 20)
       << pad(attack::to_string(r.privilege), 11)
       << pad(r.platform_label, 18)
       << pad(r.outcome.primitive_succeeded ? "SUCCEEDED" : "blocked", 11)
       << pad(r.safety.summary(), 52) << "\n";
  }
  return os.str();
}

}  // namespace mkbas::core
