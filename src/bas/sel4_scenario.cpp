#include "bas/sel4_scenario.hpp"

#include <optional>

#include "aadl/scenario_model.hpp"

namespace mkbas::bas {

using camkes::Runtime;
using sel4::Sel4Error;
using sel4::Sel4Msg;

namespace {

struct SensorLink {
  Runtime& rt;
  void send(double t) {
    Sel4Msg msg;
    msg.push_f64(t);
    rt.rpc_call("sensorOut", msg);  // server acks promptly
  }
};

/// The controller is an RPC server: it answers every call, and it
/// releases the sensor before making its own actuator calls.
struct ControlLink {
  Runtime& rt;

  template <class OnSample, class OnSetpoint, class Env>
  void serve(OnSample on_sample, OnSetpoint on_setpoint, Env env) {
    for (;;) {
      const auto in = rt.await();
      if (in.status != Sel4Error::kOk) continue;
      Sel4Msg rep;
      if (in.iface == "sensorIn") {
        on_sample(in.msg.mr_f64(0));  // acks through ack_sample()
        continue;
      }
      if (in.iface == "setpointIn") {
        rep.push(on_setpoint(in.msg.mr_f64(0)) ? 1 : 0);
      } else if (in.iface == "envIn") {
        const EnvInfo e = env();
        rep.push_f64(e.last_temp_c);
        rep.push_f64(e.setpoint_c);
        rep.push(e.heater_on ? 1 : 0);
        rep.push(e.alarm_on ? 1 : 0);
      }
      rt.reply(rep);  // unknown interfaces get an empty ack
    }
  }
  void ack_sample() { rt.reply(Sel4Msg{}); }
  void command(TempScenario::Role which, bool on) {
    Sel4Msg cmd;
    cmd.push(on ? 1 : 0);
    rt.rpc_call(which == TempScenario::Role::kHeater ? "heaterCmd"
                                                     : "alarmCmd",
                cmd);
  }
  void sampled(const EnvInfo&) {}
};

struct ActuatorLink {
  Runtime& rt;

  template <class Apply>
  void serve(Apply apply) {
    for (;;) {
      const auto in = rt.await();
      if (in.status != Sel4Error::kOk) continue;
      apply(in.msg.mr(0) != 0);
      rt.reply(Sel4Msg{});
    }
  }
};

struct WebLink {
  Runtime& rt;
  void refresh() {}
  bool query_env(EnvInfo* env) {
    Sel4Msg msg;
    if (rt.rpc_call("envQuery", msg) != Sel4Error::kOk) return false;
    env->last_temp_c = msg.mr_f64(0);
    env->setpoint_c = msg.mr_f64(1);
    env->heater_on = msg.mr(2) != 0;
    env->alarm_on = msg.mr(3) != 0;
    return true;
  }
  std::optional<bool> set_setpoint(double sp) {
    Sel4Msg msg;
    msg.push_f64(sp);
    if (rt.rpc_call("setpointOut", msg) != Sel4Error::kOk) {
      return std::nullopt;
    }
    return msg.mr(0) != 0;
  }
};

}  // namespace

Sel4Scenario::Sel4Scenario(sim::Machine& machine, ScenarioConfig cfg)
    : TempScenario(machine, cfg, "sel4") {
  camkes_ = std::make_unique<camkes::CamkesSystem>(machine_);

  std::map<std::string, std::function<void(Runtime&)>> bodies;
  std::map<std::string, int> priorities;
  for (const Process& p : kProcesses) {
    bodies[p.name] = [this, role = p.role](Runtime& rt) {
      run_process(role, rt);
    };
    priorities[p.name] = p.priority;
  }
  camkes_->load_compiled_system(
      compile_model(aadl::temp_control_aadl(), "TempControl.impl"), bodies,
      priorities);

  // "We also added two additional timer driver processes for
  // demonstration purposes" (§IV.B): a periodic tick source and a
  // consumer, wired with the seL4Notification connector. They exercise
  // the event path without touching the control loop.
  camkes_->add_component("timerA", [this](camkes::Runtime& rt) {
    for (;;) {
      machine_.sleep_for(sim::sec(1));
      rt.emit("tickOut");
    }
  }, 7);
  camkes_->add_component("timerB", [this](camkes::Runtime& rt) {
    for (;;) {
      if (rt.wait_event("tickIn", nullptr) != sel4::Sel4Error::kOk) return;
      ++timer_ticks_;
    }
  }, 7);
  camkes_->connect_event("c_timer", "timerA", "tickOut", "timerB",
                         "tickIn");

  // The seL4/CAmkES analogue of MINIX reincarnation: restart-from-spec.
  if (cfg_.enable_reincarnation) camkes_->enable_restart();

  camkes_->instantiate();
}

void Sel4Scenario::run_process(Role role, Runtime& rt) {
  switch (role) {
    case Role::kControl: {
      ControlLink link{rt};
      return run_control(link);
    }
    case Role::kHeater:
    case Role::kAlarm: {
      ActuatorLink link{rt};
      return run_actuator(link, role);
    }
    case Role::kSensor: {
      SensorLink link{rt};
      return run_sensor(link);
    }
    case Role::kWeb: {
      WebLink link{rt};
      return run_web(link, &rt);
    }
  }
}

}  // namespace mkbas::bas
