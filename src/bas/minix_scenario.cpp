#include "bas/minix_scenario.hpp"

#include <cstdio>
#include <optional>

#include "aadl/scenario_model.hpp"

namespace mkbas::bas {

using aadl::ScenarioMTypes;
using minix::Endpoint;
using minix::IpcResult;
using minix::Message;
using minix::MinixKernel;

namespace {

/// Samples go out with a nonblocking send ("sends the fresh data using
/// nonblocking send"): a busy controller simply misses this sample and
/// catches the next one. A *dead* controller may have been reincarnated,
/// so the sensor re-resolves it by name.
struct SensorLink {
  MinixKernel& k;
  Endpoint ctl;

  void send(double t) {
    Message m;
    m.m_type = ScenarioMTypes::kSensorData;
    m.put_f64(WireFormat::kTempOff, t);
    if (k.ipc_sendnb(ctl, m) == IpcResult::kDeadSrcDst) {
      const Endpoint fresh = k.lookup("tempProc");
      if (fresh.valid()) ctl = fresh;
    }
  }
};

class ControlLink {
 public:
  ControlLink(MinixKernel& k, minix::FsServer* fs)
      : k_(k),
        heater_(k.wait_lookup("heaterActProc")),
        alarm_(k.wait_lookup("alarmProc")),
        sensor_(k.wait_lookup("tempSensProc")) {
    // "At the end of the while loop, environment information will be
    // written in a log file" — through the user-mode FS server.
    if (fs != nullptr) {
      fs_client_.emplace(k, fs->endpoint());
      log_fd_ = fs_client_->open("/var/log/tempctl.log", /*create=*/true);
    }
  }

  template <class OnSample, class OnSetpoint, class Env>
  void serve(OnSample on_sample, OnSetpoint on_setpoint, Env env) {
    for (;;) {
      Message m;
      if (k_.ipc_receive(Endpoint::any(), m) != IpcResult::kOk) continue;
      Message reply;
      reply.m_type = ScenarioMTypes::kAck;
      switch (m.m_type) {
        case ScenarioMTypes::kSensorData:
          // Defence in depth: the ACM already guarantees only the sensor
          // can send this type, but a correct implementation checks
          // anyway. The sensor may have been reincarnated under a new
          // endpoint.
          if (m.source() != sensor_) {
            const Endpoint fresh = k_.lookup("tempSensProc");
            if (fresh.valid()) sensor_ = fresh;
            if (m.source() != sensor_) break;
          }
          on_sample(m.get_f64(WireFormat::kTempOff));
          break;
        case ScenarioMTypes::kSetpoint: {
          const bool ok = on_setpoint(m.get_f64(WireFormat::kSetpointOff));
          reply.put_i32(WireFormat::kOkOff, ok ? 1 : 0);
          k_.ipc_senda(m.source(), reply);  // async: never block on clients
          break;
        }
        case ScenarioMTypes::kEnvQuery: {
          const EnvInfo e = env();
          reply.put_f64(WireFormat::kEnvTempOff, e.last_temp_c);
          reply.put_f64(WireFormat::kEnvSpOff, e.setpoint_c);
          reply.put_i32(WireFormat::kEnvHeaterOff, e.heater_on ? 1 : 0);
          reply.put_i32(WireFormat::kEnvAlarmOff, e.alarm_on ? 1 : 0);
          k_.ipc_senda(m.source(), reply);
          break;
        }
        default:
          break;  // unknown type: drop (the ACM should have stopped it)
      }
    }
  }

  void ack_sample() {}

  /// Drivers may be restarted by the reincarnation server under a new
  /// endpoint; on a dead-destination error, re-resolve by name and retry.
  void command(TempScenario::Role which, bool on) {
    const bool heater = which == TempScenario::Role::kHeater;
    Endpoint& ep = heater ? heater_ : alarm_;
    Message m;
    m.m_type = ScenarioMTypes::kActuatorCmd;
    m.put_i32(WireFormat::kCmdOff, on ? 1 : 0);
    if (k_.ipc_send(ep, m) == IpcResult::kDeadSrcDst) {
      const Endpoint fresh = k_.lookup(heater ? "heaterActProc" : "alarmProc");
      if (fresh.valid()) {
        ep = fresh;
        k_.ipc_send(ep, m);
      }
    }
  }

  void sampled(const EnvInfo& env) {
    if (log_fd_ < 0) return;
    char line[96];
    std::snprintf(line, sizeof line, "t=%lld temp=%.2f sp=%.1f h=%d a=%d\n",
                  static_cast<long long>(k_.machine().now() / sim::sec(1)),
                  env.last_temp_c, env.setpoint_c, env.heater_on ? 1 : 0,
                  env.alarm_on ? 1 : 0);
    fs_client_->write(log_fd_, line);
  }

 private:
  MinixKernel& k_;
  Endpoint heater_, alarm_, sensor_;
  std::optional<minix::FsClient> fs_client_;
  int log_fd_ = -1;
};

struct ActuatorLink {
  MinixKernel& k;

  template <class Apply>
  void serve(Apply apply) {
    for (;;) {
      Message m;
      if (k.ipc_receive(Endpoint::any(), m) != IpcResult::kOk) continue;
      if (m.m_type != ScenarioMTypes::kActuatorCmd) continue;
      apply(m.get_i32(WireFormat::kCmdOff) != 0);
    }
  }
};

struct WebLink {
  MinixKernel& k;
  Endpoint ctl;

  /// Refresh a stale endpoint after a controller reincarnation.
  void refresh() {
    if (!k.is_live(ctl)) {
      const Endpoint fresh = k.lookup("tempProc");
      if (fresh.valid()) ctl = fresh;
    }
  }

  bool query_env(EnvInfo* env) {
    Message m;
    m.m_type = ScenarioMTypes::kEnvQuery;
    if (k.ipc_sendrec(ctl, m) != IpcResult::kOk) return false;
    env->last_temp_c = m.get_f64(WireFormat::kEnvTempOff);
    env->setpoint_c = m.get_f64(WireFormat::kEnvSpOff);
    env->heater_on = m.get_i32(WireFormat::kEnvHeaterOff) != 0;
    env->alarm_on = m.get_i32(WireFormat::kEnvAlarmOff) != 0;
    return true;
  }

  std::optional<bool> set_setpoint(double sp) {
    Message m;
    m.m_type = ScenarioMTypes::kSetpoint;
    m.put_f64(WireFormat::kSetpointOff, sp);
    if (k.ipc_sendrec(ctl, m) != IpcResult::kOk) return std::nullopt;
    return m.get_i32(WireFormat::kOkOff) != 0;
  }
};

}  // namespace

MinixScenario::MinixScenario(sim::Machine& machine, ScenarioConfig cfg)
    : TempScenario(machine, cfg, "minix"),
      system_(compile_model(aadl::temp_control_aadl(), "TempControl.impl")) {
  aadl::AcmGenOptions opts;
  opts.enable_quotas = cfg_.enable_quotas;
  // The kill syscall is addressable by everyone (as on real MINIX); the
  // kill matrix inside PM still denies every pair — so a blocked kill
  // is an audited PM decision whose journal entry carries the full
  // causal chain (web.compromised -> minix.ipc -> pm.audit ->
  // acm.kill_deny), not a silent edge drop.
  opts.open_kill_syscall = true;
  minix::AcmPolicy acm = aadl::generate_acm(system_, opts);
  // The scenario loader needs fork/exit edges to PM (it is not part of
  // the AADL model proper; a real system's init server plays this role).
  acm.allow(kLoaderAcId, MinixKernel::kPmAcId,
            {aadl::kAckMType, minix::PmProtocol::kFork,
             minix::PmProtocol::kExit});
  acm.allow(MinixKernel::kPmAcId, kLoaderAcId, {aadl::kAckMType});

  if (cfg_.enable_fs_log) {
    // The control process talks to the FS server for its log file.
    const int ctl = aadl::ScenarioAcIds::kTempControl;
    acm.allow_mask(ctl, minix::FsServer::kFsAcId, ~0ULL);
    acm.allow(minix::FsServer::kFsAcId, ctl, {aadl::kAckMType});
  }

  kernel_ = std::make_unique<MinixKernel>(machine_, std::move(acm));
  if (cfg_.enable_fs_log) {
    fs_ = std::make_unique<minix::FsServer>(*kernel_);
  }
  if (cfg_.enable_reincarnation) kernel_->enable_reincarnation();
  kernel_->srv_fork2("scenario", kLoaderAcId, [this] { loader_proc(); },
                     /*priority=*/3);
}

void MinixScenario::loader_proc() {
  auto& k = *kernel_;
  // fork2 each process with the ac_id from the AADL specification
  // ("tells kernel each process's ac_id, and loads the correct binaries").
  for (const Process& p : kProcesses) {
    const auto res = k.fork2(p.name, system_.ac_of(p.name),
                             [this, role = p.role] { run_process(role); },
                             p.priority);
    if (res.status != IpcResult::kOk) {
      machine_.trace().emit(machine_.now(), -1, sim::TraceKind::kProcess,
                            "scenario.load_failed", p.name);
    }
  }
  k.seal_ac_assignment();  // boot period over: ac_ids are now fixed
  k.pm_exit(0);
}

void MinixScenario::run_process(Role role) {
  auto& k = *kernel_;
  switch (role) {
    case Role::kControl: {
      ControlLink link(k, fs_.get());
      return run_control(link);
    }
    case Role::kHeater:
    case Role::kAlarm: {
      ActuatorLink link{k};
      return run_actuator(link, role);
    }
    case Role::kSensor: {
      SensorLink link{k, k.wait_lookup("tempProc")};
      return run_sensor(link);
    }
    case Role::kWeb: {
      WebLink link{k, k.wait_lookup("tempProc")};
      return run_web(link);
    }
  }
}

}  // namespace mkbas::bas
