#include "bas/linux_scenario.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <optional>

namespace mkbas::bas {

using linuxsim::Errno;
using linuxsim::LinuxKernel;
using linuxsim::Mode;
using linuxsim::MqMessage;

// ---- wire format ----

std::string LinuxScenario::encode_temp(double t) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "temp=%.3f", t);
  return buf;
}
std::string LinuxScenario::encode_setpoint(double sp) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "setpoint=%.3f", sp);
  return buf;
}
std::string LinuxScenario::encode_cmd(bool on) {
  return on ? "cmd=1" : "cmd=0";
}
std::string LinuxScenario::encode_env(const EnvInfo& env) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "temp=%.3f;sp=%.3f;heater=%d;alarm=%d",
                env.last_temp_c, env.setpoint_c, env.heater_on ? 1 : 0,
                env.alarm_on ? 1 : 0);
  return buf;
}

namespace {
bool parse_double_field(const std::string& s, const char* key, double* out) {
  const auto pos = s.find(key);
  if (pos == std::string::npos) return false;
  const char* start = s.c_str() + pos + std::strlen(key);
  char* end = nullptr;
  const double v = std::strtod(start, &end);
  if (end == start) return false;
  *out = v;
  return true;
}
}  // namespace

bool LinuxScenario::decode_temp(const std::string& s, double* out) {
  return parse_double_field(s, "temp=", out);
}
bool LinuxScenario::decode_setpoint(const std::string& s, double* out) {
  return parse_double_field(s, "setpoint=", out);
}
bool LinuxScenario::decode_cmd(const std::string& s, bool* out) {
  double v = 0;
  if (!parse_double_field(s, "cmd=", &v)) return false;
  *out = v != 0.0;
  return true;
}
bool LinuxScenario::decode_env(const std::string& s, EnvInfo* out) {
  double heater = 0, alarm = 0;
  if (!parse_double_field(s, "temp=", &out->last_temp_c)) return false;
  if (!parse_double_field(s, "sp=", &out->setpoint_c)) return false;
  if (!parse_double_field(s, "heater=", &heater)) return false;
  if (!parse_double_field(s, "alarm=", &alarm)) return false;
  out->heater_on = heater != 0.0;
  out->alarm_on = alarm != 0.0;
  return true;
}

// ---- links ----

namespace {

/// Non-blocking, like the other platforms: stale samples are dropped.
struct SensorLink {
  LinuxKernel& k;
  int fd;
  void send(double t) {
    k.mq_send(fd, {LinuxScenario::encode_temp(t), 0}, /*blocking=*/false);
  }
};

/// The paper's loop: block for new sensor data, then drain pending
/// setpoint updates, then answer environment queries, then write the log.
/// Every permission check happens inside linuxsim.
class ControlLink {
 public:
  explicit ControlLink(LinuxKernel& k)
      : k_(k),
        sensor_(k.mq_open(LinuxScenario::kQSensor, false)),
        setpoint_(k.mq_open(LinuxScenario::kQSetpoint, false)),
        envreq_(k.mq_open(LinuxScenario::kQEnvReq, false)),
        env_(k.mq_open(LinuxScenario::kQEnv, false)),
        heater_(k.mq_open(LinuxScenario::kQHeater, false)),
        alarm_(k.mq_open(LinuxScenario::kQAlarm, false)),
        log_(k.open_file("/var/log/tempctl.log", true,
                         Mode::rw_owner_only())) {}

  bool usable() const { return sensor_ >= 0 && heater_ >= 0 && alarm_ >= 0; }

  template <class OnSample, class OnSetpoint, class Env>
  void serve(OnSample on_sample, OnSetpoint on_setpoint, Env env) {
    for (;;) {
      MqMessage msg;
      if (k_.mq_receive(sensor_, msg) != Errno::kOk) return;
      double v = 0;
      // NOTE the structural weakness: nothing authenticates that this
      // message came from the sensor process.
      if (LinuxScenario::decode_temp(msg.data, &v)) on_sample(v);
      // POSIX queues carry no reply to a setpoint update.
      while (setpoint_ >= 0 &&
             k_.mq_receive(setpoint_, msg, false) == Errno::kOk) {
        if (LinuxScenario::decode_setpoint(msg.data, &v)) on_setpoint(v);
      }
      while (envreq_ >= 0 &&
             k_.mq_receive(envreq_, msg, false) == Errno::kOk) {
        if (env_ >= 0) {
          k_.mq_send(env_, {LinuxScenario::encode_env(env()), 0}, false);
        }
      }
      if (log_ >= 0) {
        k_.write_file(log_, "t=" + std::to_string(k_.machine().now()) + " " +
                                LinuxScenario::encode_env(env()) + "\n");
      }
    }
  }

  void ack_sample() {}
  void command(TempScenario::Role which, bool on) {
    k_.mq_send(which == TempScenario::Role::kHeater ? heater_ : alarm_,
               {LinuxScenario::encode_cmd(on), 0}, false);
  }
  void sampled(const EnvInfo&) {}

 private:
  LinuxKernel& k_;
  int sensor_, setpoint_, envreq_, env_, heater_, alarm_, log_;
};

struct ActuatorLink {
  LinuxKernel& k;
  int fd;

  template <class Apply>
  void serve(Apply apply) {
    for (;;) {
      MqMessage msg;
      if (k.mq_receive(fd, msg) != Errno::kOk) return;
      bool on = false;
      if (LinuxScenario::decode_cmd(msg.data, &on)) apply(on);
    }
  }
};

struct WebLink {
  LinuxKernel& k;
  int setpoint, envreq, env;

  void refresh() {}
  bool query_env(EnvInfo* out) {
    if (envreq < 0 || env < 0) return false;
    if (k.mq_send(envreq, {"envreq", 0}, false) != Errno::kOk) return false;
    // The reply arrives after the controller's next loop iteration.
    for (int tries = 0; tries < 30; ++tries) {
      MqMessage msg;
      if (k.mq_receive(env, msg, false) == Errno::kOk) {
        return LinuxScenario::decode_env(msg.data, out);
      }
      k.machine().sleep_for(sim::msec(100));
    }
    return false;
  }
  std::optional<bool> set_setpoint(double sp) {
    if (setpoint < 0 ||
        k.mq_send(setpoint, {LinuxScenario::encode_setpoint(sp), 0},
                  false) != Errno::kOk) {
      return std::nullopt;
    }
    // POSIX queues carry no reply; report acceptance optimistically
    // (range rejection is visible via /status).
    return true;
  }
};

}  // namespace

// ---- scenario ----

LinuxScenario::LinuxScenario(sim::Machine& machine, ScenarioConfig cfg,
                             Accounts accounts)
    : TempScenario(machine, cfg, "linux"), accounts_(accounts) {
  kernel_ = std::make_unique<LinuxKernel>(machine_);
  const linuxsim::Uid scenario_uid =
      accounts_ == Accounts::kShared ? Uids::kShared : linuxsim::kRootUid;
  kernel_->spawn_process("scenario", scenario_uid,
                         [this] { scenario_proc(); }, /*priority=*/3);
}

void LinuxScenario::scenario_proc() {
  auto& k = *kernel_;
  const bool shared = accounts_ == Accounts::kShared;

  // "The scenario process in Linux spawns all other processes and creates
  // 6 message queues that are needed for various communications."
  auto make_queue = [&](const char* name, linuxsim::Uid writer,
                        linuxsim::Uid reader) {
    Mode mode = Mode::rw_owner_only();
    if (!shared) {
      // Well-configured: exactly the producing and consuming accounts.
      mode.owner_read = mode.owner_write = false;  // root owns; no DAC use
      mode.grant(writer, /*read=*/false, /*write=*/true);
      mode.grant(reader, /*read=*/true, /*write=*/false);
    }
    const int fd = k.mq_open(name, /*create=*/true, mode);
    if (fd >= 0) k.mq_close(fd);
  };
  make_queue(kQSensor, Uids::kSensor, Uids::kControl);
  make_queue(kQSetpoint, Uids::kWeb, Uids::kControl);
  make_queue(kQEnvReq, Uids::kWeb, Uids::kControl);
  make_queue(kQEnv, Uids::kControl, Uids::kWeb);
  make_queue(kQHeater, Uids::kControl, Uids::kHeater);
  make_queue(kQAlarm, Uids::kControl, Uids::kAlarm);

  // With separate accounts, each process has its own uid (kProcesses order).
  const linuxsim::Uid own_uid[] = {Uids::kControl, Uids::kHeater,
                                   Uids::kAlarm, Uids::kSensor, Uids::kWeb};
  for (std::size_t i = 0; i < std::size(kProcesses); ++i) {
    const Process& p = kProcesses[i];
    k.spawn_process(p.name, shared ? Uids::kShared : own_uid[i],
                    [this, role = p.role] { run_process(role); }, p.priority);
  }
  k.sys_exit(0);
}

void LinuxScenario::run_process(Role role) {
  auto& k = *kernel_;
  switch (role) {
    case Role::kControl: {
      ControlLink link(k);
      if (link.usable()) run_control(link);
      return;
    }
    case Role::kHeater:
    case Role::kAlarm: {
      ActuatorLink link{
          k, k.mq_open(role == Role::kHeater ? kQHeater : kQAlarm, false)};
      if (link.fd >= 0) run_actuator(link, role);
      return;
    }
    case Role::kSensor: {
      SensorLink link{k, k.mq_open(kQSensor, false)};
      if (link.fd >= 0) run_sensor(link);
      return;
    }
    case Role::kWeb: {
      WebLink link{k, k.mq_open(kQSetpoint, false),
                   k.mq_open(kQEnvReq, false), k.mq_open(kQEnv, false)};
      return run_web(link);
    }
  }
}

}  // namespace mkbas::bas
