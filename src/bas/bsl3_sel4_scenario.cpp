#include "bas/bsl3_sel4_scenario.hpp"

#include <optional>

namespace mkbas::bas {

using camkes::Runtime;
using sel4::Sel4Error;
using sel4::Sel4Msg;

Bsl3Sel4Scenario::Bsl3Sel4Scenario(sim::Machine& machine, Bsl3Config cfg)
    : Bsl3Lab(machine, cfg) {
  camkes_ = std::make_unique<camkes::CamkesSystem>(machine_);

  std::map<std::string, std::function<void(Runtime&)>> bodies;
  bodies["presSensProc"] = [this](Runtime& rt) { sensor_body(rt); };
  bodies["contCtlProc"] = [this](Runtime& rt) { control_body(rt); };
  bodies["exhaustFanProc"] = [this](Runtime& rt) { fan_body(rt); };
  bodies["doorCtlProc"] = [this](Runtime& rt) { door_body(rt); };
  bodies["alarmProc"] = [this](Runtime& rt) { alarm_body(rt); };
  bodies["mgmtProc"] = [this](Runtime& rt) { mgmt_body(rt); };
  const std::map<std::string, int> priorities = {
      {"presSensProc", 5}, {"contCtlProc", 6}, {"exhaustFanProc", 5},
      {"doorCtlProc", 5},  {"alarmProc", 5},   {"mgmtProc", 8},
  };
  camkes_->load_compiled_system(compile_model(bsl3_aadl(), "Bsl3.impl"),
                                bodies, priorities);
  camkes_->instantiate();
}

void Bsl3Sel4Scenario::sensor_body(Runtime& rt) {
  devices::PressureSensor lab(model_, devices::PressureSensor::Tap::kLab,
                              machine_.rng());
  devices::PressureSensor ante(
      model_, devices::PressureSensor::Tap::kAnteroom, machine_.rng());
  for (;;) {
    Sel4Msg msg;
    msg.push_f64(lab.read_pa());
    msg.push_f64(ante.read_pa());
    rt.rpc_call("presOut", msg);
    machine_.sleep_for(cfg_.sample_period);
  }
}

void Bsl3Sel4Scenario::control_body(Runtime& rt) {
  ContainmentLogic law(cfg_);
  auto command_door = [&](int door, bool open) {
    Sel4Msg cmd;
    cmd.push(static_cast<std::uint64_t>(door));
    cmd.push(open ? 1 : 0);
    rt.rpc_call("doorCmd", cmd);
  };

  for (;;) {
    auto in = rt.await();
    if (in.status != Sel4Error::kOk) continue;
    const sim::Time now = machine_.now();
    if (in.iface == "presIn") {
      const auto d = law.on_sample(in.msg.mr_f64(0), in.msg.mr_f64(1), now);
      rt.reply(Sel4Msg{});  // release the sensor before actuating
      Sel4Msg fan_cmd;
      fan_cmd.push_f64(d.fan_speed);
      rt.rpc_call("fanCmd", fan_cmd);
      Sel4Msg alarm_cmd;
      alarm_cmd.push(d.alarm_on ? 1 : 0);
      rt.rpc_call("alarmCmd", alarm_cmd);
      if (d.close_inner) command_door(0, false);
      if (d.close_outer) command_door(1, false);
      machine_.trace().emit(now, -1, sim::TraceKind::kControl,
                            "bsl3.sample", "", law.last_lab_pa());
    } else if (in.iface == "doorReqIn") {
      const int door = static_cast<int>(in.msg.mr(0));
      const bool granted = law.request_door(door, now);
      machine_.trace().emit(now, -1, sim::TraceKind::kControl,
                            granted ? "bsl3.door_granted"
                                    : "bsl3.door_denied",
                            door == 0 ? "inner" : "outer");
      // The RPC caller is answered before the door moves.
      Sel4Msg reply;
      reply.push(granted ? 1 : 0);
      rt.reply(reply);
      if (granted) command_door(door, true);
    } else if (in.iface == "envIn") {
      Sel4Msg reply;
      reply.push_f64(law.last_lab_pa());
      reply.push_f64(law.last_ante_pa());
      reply.push_f64(law.fan_speed());
      reply.push(law.alarm_on() ? 1 : 0);
      rt.reply(reply);
    } else {
      rt.reply(Sel4Msg{});
    }
  }
}

void Bsl3Sel4Scenario::fan_body(Runtime& rt) {
  for (;;) {
    auto in = rt.await();
    if (in.status != Sel4Error::kOk) continue;
    fan_.set_speed(in.msg.mr_f64(0), machine_.now());
    rt.reply(Sel4Msg{});
  }
}

void Bsl3Sel4Scenario::door_body(Runtime& rt) {
  for (;;) {
    auto in = rt.await();
    if (in.status != Sel4Error::kOk) continue;
    devices::DoorLatch& door = in.msg.mr(0) == 0 ? inner_ : outer_;
    door.set_open(in.msg.mr(1) != 0, machine_.now());
    rt.reply(Sel4Msg{});
  }
}

void Bsl3Sel4Scenario::alarm_body(Runtime& rt) {
  for (;;) {
    auto in = rt.await();
    if (in.status != Sel4Error::kOk) continue;
    alarm_on_ = in.msg.mr(0) != 0;
    rt.reply(Sel4Msg{});
  }
}

namespace {

struct MgmtLink {
  Runtime& rt;

  void refresh() {}
  bool query_status(Bsl3Lab::Status* st) {
    Sel4Msg msg;
    if (rt.rpc_call("envQuery", msg) != Sel4Error::kOk) return false;
    *st = {msg.mr_f64(0), msg.mr_f64(1), msg.mr_f64(2), msg.mr(3) != 0};
    return true;
  }
  std::optional<bool> request_door(int door) {
    Sel4Msg msg;
    msg.push(static_cast<std::uint64_t>(door));
    if (rt.rpc_call("doorReq", msg) != Sel4Error::kOk) return std::nullopt;
    return msg.mr(0) != 0;
  }
};

}  // namespace

void Bsl3Sel4Scenario::mgmt_body(Runtime& rt) {
  MgmtLink link{rt};
  run_mgmt(link, "bsl3-sel4", &rt);
}

}  // namespace mkbas::bas
