#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "bas/scenario_base.hpp"
#include "bas/web_logic.hpp"

namespace mkbas::bas {

/// The five-process temperature-control program of §IV, written once.
///
/// The paper's comparison holds only because the application is the same
/// and only the kernel differs, so every process body lives here and is
/// kernel-agnostic. A body talks to its peers through a *link*: a small
/// per-process struct the platform adapter (MinixScenario, Sel4Scenario,
/// LinuxScenario) builds over its own IPC. A server-side link owns its
/// kernel's receive loop (`serve`) and calls back into the body for each
/// message, so it alone decides the order of receives, replies and
/// drains. Links and callbacks are template parameters, so the split adds
/// no virtual call and no allocation per message. What each body needs
/// from its link:
///
///   sensor    send(t)                       deliver one sample
///   control   serve(on_sample, on_setpoint, env)
///                                           on_setpoint(sp) -> accepted;
///                                           env() -> current EnvInfo
///             ack_sample()                  release the sensor
///             command(role, on)             heater / alarm command
///             sampled(env)                  after each sample (MINIX: log)
///   actuator  serve(apply)                  apply(on) per command
///   web       refresh()                     re-resolve the controller
///             query_env(&env) -> bool       false: controller unreachable
///             set_setpoint(sp) -> optional<bool>  (nullopt: unreachable)
///
/// DESIGN.md §15 lists the kernel orderings each adapter keeps.
class TempScenario : public ScenarioBase {
 public:
  const ScenarioConfig& config() const { return cfg_; }

  enum class Role { kControl, kHeater, kAlarm, kSensor, kWeb };
  struct Process {
    const char* name;  // AADL instance name
    Role role;
    int priority;
  };
  /// The five processes in the order every loader starts them.
  static constexpr Process kProcesses[] = {
      {"tempProc", Role::kControl, 6},  {"heaterActProc", Role::kHeater, 5},
      {"alarmProc", Role::kAlarm, 5},   {"tempSensProc", Role::kSensor, 5},
      {"webInterface", Role::kWeb, 8},
  };

 protected:
  /// `label` prefixes the control metrics ("<label>.ctl.jitter") and
  /// details the compromise trace.
  TempScenario(sim::Machine& machine, const ScenarioConfig& cfg,
               const char* label)
      : ScenarioBase(machine), cfg_(cfg), label_(label) {
    plant_ = std::make_unique<Plant>(machine_, cfg_);
  }

  template <class Link>
  void run_sensor(Link& link);
  template <class Link>
  void run_control(Link& link);
  /// `which` is Role::kHeater or Role::kAlarm.
  template <class Link>
  void run_actuator(Link& link, Role which);
  template <class Link>
  void run_web(Link& link, camkes::Runtime* rt = nullptr);

  ScenarioConfig cfg_;
  const char* label_;
};

template <class Link>
void TempScenario::run_sensor(Link& link) {
  auto& spans = machine_.spans();
  const std::uint32_t tag_sample =
      sim::TagRegistry::instance().intern("sensor.sample");
  const int self = machine_.current()->pid();
  for (;;) {
    // Root of the control-loop trace: the hop to the controller (and
    // everything the controller does with this sample) chains under it.
    const std::uint64_t s = spans.begin(self, machine_.now(), tag_sample);
    const double t = plant_->sensor.read_temperature_c();
    machine_.trace().emit(machine_.now(), -1, sim::TraceKind::kDevice,
                          "sensor.sample", "", t);
    link.send(t);
    spans.end(self, machine_.now(), s);
    machine_.sleep_for(cfg_.sensor_period);
  }
}

template <class Link>
void TempScenario::run_control(Link& link) {
  auto& spans = machine_.spans();
  const std::uint32_t tag_compute =
      sim::TagRegistry::instance().intern("ctl.compute");
  const int self = machine_.current()->pid();
  TempControlLogic logic(cfg_.control);
  // Control-quality metrics: deviation of the realised sample interval
  // from the nominal sensor period, and every actuator command issued.
  const std::string jitter_name = std::string(label_) + ".ctl.jitter";
  auto jitter = machine_.metrics().log_histogram(jitter_name, 4, 1e6);
  auto jitter_sig = machine_.health().signal(jitter_name);
  auto actuations =
      machine_.metrics().counter(std::string(label_) + ".ctl.actuations");
  sim::Time last_sample_t = -1;

  auto on_sample = [&](double temp_c) {
    // The delivery set this pid's span context to the sensor's hop, so
    // the compute span and both actuator commands issued inside it chain
    // under the sample that triggered them.
    const std::uint64_t cs = spans.begin(self, machine_.now(), tag_compute);
    const auto d = logic.on_sample(temp_c, machine_.now());
    link.ack_sample();
    link.command(Role::kHeater, d.heater_on);
    actuations.inc();
    link.command(Role::kAlarm, d.alarm_on);
    actuations.inc();
    machine_.trace().emit(machine_.now(), -1, sim::TraceKind::kControl,
                          "ctl.sample", "", logic.env().last_temp_c);
    if (last_sample_t >= 0) {
      const sim::Duration dt = machine_.now() - last_sample_t;
      const sim::Duration nominal = cfg_.sensor_period;
      const auto dev =
          static_cast<double>(dt > nominal ? dt - nominal : nominal - dt);
      jitter.record(dev);
      jitter_sig.observe(machine_.now(), dev);
    }
    last_sample_t = machine_.now();
    link.sampled(logic.env());
    spans.end(self, machine_.now(), cs);
  };
  auto on_setpoint = [&](double sp_c) {
    const bool ok = logic.try_set_setpoint(sp_c, machine_.now());
    machine_.trace().emit(machine_.now(), -1, sim::TraceKind::kControl,
                          ok ? "ctl.setpoint" : "ctl.setpoint_rejected", "",
                          sp_c);
    return ok;
  };
  link.serve(on_sample, on_setpoint, [&] { return logic.env(); });
}

template <class Link>
void TempScenario::run_actuator(Link& link, Role which) {
  auto& spans = machine_.spans();
  const std::uint32_t tag_apply =
      sim::TagRegistry::instance().intern("act.apply");
  const std::uint32_t tag_sample =
      sim::TagRegistry::instance().intern("sensor.sample");
  const std::string e2e_name = std::string(label_) + ".ctl.e2e_us";
  auto e2e = machine_.metrics().log_histogram(e2e_name, 4, 1e6);
  auto e2e_sig = machine_.health().signal(e2e_name);
  const int self = machine_.current()->pid();
  link.serve([&](bool on) {
    const std::uint64_t s = spans.begin(self, machine_.now(), tag_apply);
    if (which == Role::kHeater) {
      plant_->heater.set_on(on, machine_.now());
    } else {
      plant_->alarm.set_on(on, machine_.now());
    }
    // Sensor-to-actuation latency measured on the span chain itself, so
    // the histogram and the critical-path export agree exactly. The root
    // check filters commands that were not triggered by a sample (e.g.
    // spoofed frames, which root under an attack span instead).
    const std::uint64_t root = spans.root_of(s);
    if (root != 0 && spans.name_of(root) == tag_sample) {
      const sim::Time t0 = spans.start_of(root);
      if (t0 >= 0) {
        const auto latency = static_cast<double>(machine_.now() - t0);
        e2e.record(latency);
        e2e_sig.observe(machine_.now(), latency);
      }
    }
    spans.end(self, machine_.now(), s);
  });
}

template <class Link>
void TempScenario::run_web(Link& link, camkes::Runtime* rt) {
  bool attacked = false;
  for (;;) {
    link.refresh();
    poll_attack(&attacked, "web.compromised", label_, rt);
    while (auto id = http_.poll()) {
      const WebAction act = route_request(http_.request(*id));
      net::HttpResponse resp;
      switch (act.kind) {
        case WebAction::Kind::kStatus: {
          EnvInfo env;
          resp = link.query_env(&env) ? render_status(env)
                                      : render_unavailable();
          break;
        }
        case WebAction::Kind::kSetSetpoint: {
          const std::optional<bool> ok = link.set_setpoint(act.setpoint_c);
          resp = ok ? render_setpoint_result(*ok) : render_unavailable();
          break;
        }
        case WebAction::Kind::kBadRequest:
          resp = render_bad_request();
          break;
        case WebAction::Kind::kNotFound:
          resp = render_not_found();
          break;
      }
      http_.respond(*id, machine_.now(), std::move(resp));
    }
    machine_.sleep_for(cfg_.web_poll);
  }
}

}  // namespace mkbas::bas
