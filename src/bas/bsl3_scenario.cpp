#include "bas/bsl3_scenario.hpp"

#include <sstream>

namespace mkbas::bas {

using minix::Endpoint;
using minix::IpcResult;
using minix::Message;
using minix::MinixKernel;

/// The suite's AADL model, compiled into the ACM exactly like the
/// temperature scenario's (and into the CAmkES assembly for the seL4
/// build).
const char* bsl3_aadl() {
  return R"AADL(
process PresSensProcess
  features presOut : out event data port Pressure;
end PresSensProcess;

process ContCtlProcess
  features
    presIn    : in event data port Pressure;
    fanCmd    : out event data port FanSpeed;
    doorCmd   : out event data port DoorCmd;
    alarmCmd  : out event data port AlarmCmd;
    doorReqIn : in event data port DoorReq;
    envIn     : in event data port EnvQuery;
end ContCtlProcess;

process ExhaustFanProcess
  features cmdIn : in event data port FanSpeed;
end ExhaustFanProcess;

process DoorCtlProcess
  features cmdIn : in event data port DoorCmd;
end DoorCtlProcess;

process AlarmProcess
  features cmdIn : in event data port AlarmCmd;
end AlarmProcess;

process MgmtProcess
  features
    doorReq  : out event data port DoorReq;
    envQuery : out event data port EnvQuery;
end MgmtProcess;

process implementation PresSensProcess.imp
  properties MKBAS::ac_id => 110;
end PresSensProcess.imp;
process implementation ContCtlProcess.imp
  properties MKBAS::ac_id => 111;
end ContCtlProcess.imp;
process implementation ExhaustFanProcess.imp
  properties MKBAS::ac_id => 112;
end ExhaustFanProcess.imp;
process implementation DoorCtlProcess.imp
  properties MKBAS::ac_id => 113;
end DoorCtlProcess.imp;
process implementation AlarmProcess.imp
  properties MKBAS::ac_id => 114;
end AlarmProcess.imp;
process implementation MgmtProcess.imp
  properties MKBAS::ac_id => 115;
end MgmtProcess.imp;

system Bsl3 end Bsl3;
system implementation Bsl3.impl
  subcomponents
    presSensProc   : process PresSensProcess.imp;
    contCtlProc    : process ContCtlProcess.imp;
    exhaustFanProc : process ExhaustFanProcess.imp;
    doorCtlProc    : process DoorCtlProcess.imp;
    alarmProc      : process AlarmProcess.imp;
    mgmtProc       : process MgmtProcess.imp;
  connections
    c_pres  : port presSensProc.presOut -> contCtlProc.presIn
              { MKBAS::m_type => 1; };
    c_fan   : port contCtlProc.fanCmd -> exhaustFanProc.cmdIn
              { MKBAS::m_type => 1; };
    c_door  : port contCtlProc.doorCmd -> doorCtlProc.cmdIn
              { MKBAS::m_type => 1; };
    c_alarm : port contCtlProc.alarmCmd -> alarmProc.cmdIn
              { MKBAS::m_type => 1; };
    c_req   : port mgmtProc.doorReq -> contCtlProc.doorReqIn
              { MKBAS::m_type => 2; };
    c_env   : port mgmtProc.envQuery -> contCtlProc.envIn
              { MKBAS::m_type => 3; };
end Bsl3.impl;
)AADL";
}

namespace {

minix::AcmPolicy make_policy(Bsl3Policy mode) {
  if (mode == Bsl3Policy::kPermissive) {
    // The legacy flat controller: every process may send anything to
    // anyone (and kill anyone) — the "before" of the paper's framework.
    minix::AcmPolicy acm;
    const int acs[] = {Bsl3Scenario::kLoaderAcId,
                       Bsl3Scenario::AcIds::kSensor,
                       Bsl3Scenario::AcIds::kControl,
                       Bsl3Scenario::AcIds::kFan,
                       Bsl3Scenario::AcIds::kDoors,
                       Bsl3Scenario::AcIds::kAlarm,
                       Bsl3Scenario::AcIds::kMgmt};
    for (int a : acs) {
      for (int b : acs) {
        acm.allow_mask(a, b, ~0ULL);
        acm.allow_kill(a, b);
      }
      acm.allow_mask(a, MinixKernel::kPmAcId, ~0ULL);
      acm.allow_mask(MinixKernel::kPmAcId, a, ~0ULL);
    }
    return acm;
  }
  minix::AcmPolicy acm =
      aadl::generate_acm(compile_model(bsl3_aadl(), "Bsl3.impl"));
  acm.allow(Bsl3Scenario::kLoaderAcId, MinixKernel::kPmAcId,
            {aadl::kAckMType, minix::PmProtocol::kFork,
             minix::PmProtocol::kExit});
  acm.allow(MinixKernel::kPmAcId, Bsl3Scenario::kLoaderAcId,
            {aadl::kAckMType});
  return acm;
}

}  // namespace

Bsl3Scenario::Bsl3Scenario(sim::Machine& machine, Bsl3Config cfg,
                           Bsl3Policy policy)
    : Bsl3Lab(machine, cfg) {
  kernel_ = std::make_unique<MinixKernel>(machine_, make_policy(policy));
  kernel_->srv_fork2("bsl3-scenario", kLoaderAcId, [this] { loader_proc(); },
                     /*priority=*/3);
}

void Bsl3Scenario::loader_proc() {
  auto& k = *kernel_;
  struct Row {
    const char* name;
    int ac;
    void (Bsl3Scenario::*body)();
    int prio;
  };
  const Row rows[] = {
      {"contCtlProc", AcIds::kControl, &Bsl3Scenario::control_proc, 6},
      {"exhaustFanProc", AcIds::kFan, &Bsl3Scenario::fan_proc, 5},
      {"doorCtlProc", AcIds::kDoors, &Bsl3Scenario::door_proc, 5},
      {"alarmProc", AcIds::kAlarm, &Bsl3Scenario::alarm_proc, 5},
      {"presSensProc", AcIds::kSensor, &Bsl3Scenario::sensor_proc, 5},
      {"mgmtProc", AcIds::kMgmt, &Bsl3Scenario::mgmt_proc, 8},
  };
  for (const Row& row : rows) {
    k.fork2(row.name, row.ac, [this, row] { (this->*row.body)(); },
            row.prio);
  }
  k.seal_ac_assignment();
  k.pm_exit(0);
}

void Bsl3Scenario::sensor_proc() {
  auto& k = *kernel_;
  devices::PressureSensor lab(model_, devices::PressureSensor::Tap::kLab,
                              machine_.rng());
  devices::PressureSensor ante(
      model_, devices::PressureSensor::Tap::kAnteroom, machine_.rng());
  Endpoint ctl = k.wait_lookup("contCtlProc");
  for (;;) {
    Message m;
    m.m_type = MTypes::kData;
    m.put_f64(0, lab.read_pa());
    m.put_f64(8, ante.read_pa());
    if (k.ipc_sendnb(ctl, m) == IpcResult::kDeadSrcDst) {
      const Endpoint fresh = k.lookup("contCtlProc");
      if (fresh.valid()) ctl = fresh;
    }
    machine_.sleep_for(cfg_.sample_period);
  }
}

void Bsl3Scenario::control_proc() {
  auto& k = *kernel_;
  Endpoint fan_ep = k.wait_lookup("exhaustFanProc");
  Endpoint door_ep = k.wait_lookup("doorCtlProc");
  Endpoint alarm_ep = k.wait_lookup("alarmProc");
  const Endpoint sensor_ep = k.wait_lookup("presSensProc");
  ContainmentLogic law(cfg_);

  auto send_cmd = [&](Endpoint& ep, const char* name, auto fill) {
    Message m;
    m.m_type = MTypes::kData;
    fill(m);
    if (k.ipc_send(ep, m) == IpcResult::kDeadSrcDst) {
      const Endpoint fresh = k.lookup(name);
      if (fresh.valid()) {
        ep = fresh;
        k.ipc_send(ep, m);
      }
    }
  };
  auto command_door = [&](int door, bool open) {
    send_cmd(door_ep, "doorCtlProc", [&](Message& m) {
      m.put_i32(0, door);
      m.put_i32(4, open ? 1 : 0);
    });
  };

  for (;;) {
    Message m;
    if (k.ipc_receive(Endpoint::any(), m) != IpcResult::kOk) continue;
    const sim::Time now = machine_.now();
    switch (m.m_type) {
      case MTypes::kData: {
        if (m.source() != sensor_ep) break;  // defence in depth
        const auto d = law.on_sample(m.get_f64(0), m.get_f64(8), now);
        send_cmd(fan_ep, "exhaustFanProc",
                 [&](Message& c) { c.put_f64(0, d.fan_speed); });
        send_cmd(alarm_ep, "alarmProc",
                 [&](Message& c) { c.put_i32(0, d.alarm_on ? 1 : 0); });
        if (d.close_inner) command_door(0, false);
        if (d.close_outer) command_door(1, false);
        machine_.trace().emit(now, -1, sim::TraceKind::kControl,
                              "bsl3.sample", "", law.last_lab_pa());
        break;
      }
      case MTypes::kDoorReq: {
        const int door = m.get_i32(0);  // 0 inner, 1 outer
        // MINIX commands the door before answering the request.
        const bool granted = law.request_door(door, now);
        if (granted) command_door(door, true);
        machine_.trace().emit(now, -1, sim::TraceKind::kControl,
                              granted ? "bsl3.door_granted"
                                      : "bsl3.door_denied",
                              door == 0 ? "inner" : "outer");
        Message reply;
        reply.m_type = MTypes::kAck;
        reply.put_i32(0, granted ? 1 : 0);
        k.ipc_senda(m.source(), reply);
        break;
      }
      case MTypes::kEnvQuery: {
        Message reply;
        reply.m_type = MTypes::kAck;
        reply.put_f64(0, law.last_lab_pa());
        reply.put_f64(8, law.last_ante_pa());
        reply.put_f64(16, law.fan_speed());
        reply.put_i32(24, law.alarm_on() ? 1 : 0);
        k.ipc_senda(m.source(), reply);
        break;
      }
      default:
        break;
    }
  }
}

void Bsl3Scenario::fan_proc() {
  auto& k = *kernel_;
  for (;;) {
    Message m;
    if (k.ipc_receive(Endpoint::any(), m) != IpcResult::kOk) continue;
    if (m.m_type != MTypes::kData) continue;
    fan_.set_speed(m.get_f64(0), machine_.now());
  }
}

void Bsl3Scenario::door_proc() {
  auto& k = *kernel_;
  for (;;) {
    Message m;
    if (k.ipc_receive(Endpoint::any(), m) != IpcResult::kOk) continue;
    if (m.m_type != MTypes::kData) continue;
    devices::DoorLatch& door = m.get_i32(0) == 0 ? inner_ : outer_;
    door.set_open(m.get_i32(4) != 0, machine_.now());
  }
}

void Bsl3Scenario::alarm_proc() {
  auto& k = *kernel_;
  for (;;) {
    Message m;
    if (k.ipc_receive(Endpoint::any(), m) != IpcResult::kOk) continue;
    if (m.m_type != MTypes::kData) continue;
    alarm_on_ = m.get_i32(0) != 0;
  }
}

namespace {

struct MgmtLink {
  MinixKernel& k;
  Endpoint ctl;

  void refresh() {
    if (!k.is_live(ctl)) {
      const Endpoint fresh = k.lookup("contCtlProc");
      if (fresh.valid()) ctl = fresh;
    }
  }
  bool query_status(Bsl3Lab::Status* st) {
    Message m;
    m.m_type = Bsl3Scenario::MTypes::kEnvQuery;
    if (k.ipc_sendrec(ctl, m) != IpcResult::kOk) return false;
    *st = {m.get_f64(0), m.get_f64(8), m.get_f64(16), m.get_i32(24) != 0};
    return true;
  }
  std::optional<bool> request_door(int door) {
    Message m;
    m.m_type = Bsl3Scenario::MTypes::kDoorReq;
    m.put_i32(0, door);
    if (k.ipc_sendrec(ctl, m) != IpcResult::kOk) return std::nullopt;
    return m.get_i32(0) != 0;
  }
};

}  // namespace

void Bsl3Scenario::mgmt_proc() {
  MgmtLink link{*kernel_, kernel_->wait_lookup("contCtlProc")};
  run_mgmt(link, "bsl3");
}

// ---- safety analysis ----

Bsl3Safety Bsl3Lab::check_safety(
    const std::vector<devices::ContainmentSample>& history,
    const sim::TraceLog& trace, const Bsl3Config& cfg, sim::Time run_end) {
  Bsl3Safety r;
  if (history.empty()) return r;

  sim::Time last_sample = -1;
  for (const auto& ev : trace.events()) {
    if (ev.what() == "bsl3.sample") last_sample = ev.time;
  }
  r.control_alive =
      last_sample >= 0 && run_end - last_sample <= 5 * cfg.sample_period;

  const sim::Duration kSettle = sim::minutes(5);
  // Longer than a door transient (10 s open + recovery), far longer than
  // sensor noise:
  const sim::Duration kBreachHold = sim::minutes(2);
  const sim::Duration kAlarmSlack = sim::sec(45);

  sim::Time breach_since = -1;
  for (const auto& s : history) {
    r.max_lab_pa = std::max(r.max_lab_pa, s.lab_pa);
    if (s.inner_open && s.outer_open) r.interlock_violation = true;
    if (s.time < kSettle) continue;
    if (s.lab_pa > cfg.breach_threshold_pa + 0.5) {
      if (breach_since < 0) breach_since = s.time;
      if (s.time - breach_since > kBreachHold) r.containment_breach = true;
      if (s.time - breach_since > cfg.alarm_delay + kAlarmSlack &&
          !s.alarm_on) {
        r.alarm_violation = true;
      }
    } else {
      breach_since = -1;
    }
  }
  return r;
}

std::string Bsl3Safety::summary() const {
  std::ostringstream os;
  os << (compromised() ? "COMPROMISED" : "contained") << " [";
  os << (control_alive ? "ctl-alive" : "CTL-DEAD");
  if (containment_breach) os << ", CONTAINMENT-BREACH";
  if (interlock_violation) os << ", INTERLOCK-VIOLATION";
  if (alarm_violation) os << ", ALARM-SILENCED";
  char buf[48];
  std::snprintf(buf, sizeof buf, ", max lab %.1f Pa", max_lab_pa);
  os << buf << "]";
  return os.str();
}

}  // namespace mkbas::bas
