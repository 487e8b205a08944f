#include "bas/linux_uds_scenario.hpp"

#include <optional>
#include <vector>

namespace mkbas::bas {

using linuxsim::Errno;
using linuxsim::LinuxKernel;
using linuxsim::Mode;

LinuxUdsScenario::LinuxUdsScenario(sim::Machine& machine, ScenarioConfig cfg,
                                   Accounts accounts, Namespace ns)
    : TempScenario(machine, cfg, "linux-uds"),
      accounts_(accounts),
      ns_(ns) {
  kernel_ = std::make_unique<LinuxKernel>(machine_);
  const linuxsim::Uid scenario_uid =
      accounts_ == Accounts::kShared ? Uids::kShared : linuxsim::kRootUid;
  kernel_->spawn_process("scenario", scenario_uid,
                         [this] { scenario_proc(); }, /*priority=*/3);
}

void LinuxUdsScenario::scenario_proc() {
  auto& k = *kernel_;
  const bool shared = accounts_ == Accounts::kShared;
  auto uid_for = [&](linuxsim::Uid separate) {
    return shared ? Uids::kShared : separate;
  };
  // Servers first so clients find the names, then clients.
  k.spawn_process("heaterActProc", uid_for(Uids::kHeater), [this] {
    actuator_proc(kHeaterSock, kHeaterAbstract, [this](bool on) {
      plant_->heater.set_on(on, machine_.now());
    });
  }, 5);
  k.spawn_process("alarmProc", uid_for(Uids::kAlarm), [this] {
    actuator_proc(kAlarmSock, kAlarmAbstract, [this](bool on) {
      plant_->alarm.set_on(on, machine_.now());
    });
  }, 5);
  k.spawn_process("tempProc", uid_for(Uids::kControl),
                  [this] { control_proc(); }, 6);
  k.spawn_process("tempSensProc", uid_for(Uids::kSensor),
                  [this] { sensor_proc(); }, 5);
  k.spawn_process("webInterface", uid_for(Uids::kWeb),
                  [this] { web_proc(); }, 8);
  k.sys_exit(0);
}

int LinuxUdsScenario::bind_service(const char* fs_path,
                                   const char* abstract_name, Mode mode) {
  auto& k = *kernel_;
  for (;;) {
    const int s = k.sock_socket();
    const Errno r = ns_ == Namespace::kFilesystem
                        ? k.sock_bind(s, fs_path, mode)
                        : k.sock_bind_abstract(s, abstract_name);
    if (r == Errno::kOk) {
      k.sock_listen(s, 8);
      return s;
    }
    // Name still held (e.g. by a dying predecessor — or a squatter).
    k.sock_close(s);
    machine_.sleep_for(sim::msec(200));
  }
}

int LinuxUdsScenario::connect_service(const char* fs_path,
                                      const char* abstract_name) {
  return ns_ == Namespace::kFilesystem
             ? kernel_->sock_connect(fs_path)
             : kernel_->sock_connect_abstract(abstract_name);
}

namespace {

/// Retry a connect until it succeeds or the budget runs out (services
/// come up in arbitrary order).
int connect_retry(LinuxUdsScenario& sc, const char* fs_path,
                  const char* abstract_name, int tries = 50) {
  for (int i = 0; i < tries; ++i) {
    const int fd = sc.connect_service(fs_path, abstract_name);
    if (fd >= 0) return fd;
    sc.machine().sleep_for(sim::msec(100));
  }
  return -1;
}

}  // namespace

void LinuxUdsScenario::actuator_proc(const char* fs_path,
                                     const char* abstract_name,
                                     std::function<void(bool)> apply) {
  auto& k = *kernel_;
  Mode mode = Mode::rw_owner_only();
  if (accounts_ == Accounts::kSeparate) {
    // Only the control account may connect (connect requires write).
    mode.owner_read = mode.owner_write = false;
    mode.grant(Uids::kControl, false, true);
  }
  const int server = bind_service(fs_path, abstract_name, mode);
  std::vector<int> conns;
  for (;;) {
    // Multiplex all connections: like any Unix service daemon, the driver
    // serves whoever managed to connect — the permission check happened
    // (or didn't) at connect time.
    const int fresh = k.sock_accept(server, /*blocking=*/false);
    if (fresh >= 0) conns.push_back(fresh);
    for (auto it = conns.begin(); it != conns.end();) {
      std::string msg;
      const Errno r = k.sock_recv(*it, &msg, /*blocking=*/false);
      if (r == Errno::kOk) {
        bool on = false;
        if (LinuxScenario::decode_cmd(msg, &on)) apply(on);
        ++it;
      } else if (r == Errno::kEAGAIN) {
        ++it;
      } else {
        k.sock_close(*it);
        it = conns.erase(it);
      }
    }
    machine_.sleep_for(sim::msec(50));
  }
}

void LinuxUdsScenario::control_proc() {
  auto& k = *kernel_;
  Mode mode = Mode::rw_owner_only();
  if (accounts_ == Accounts::kSeparate) {
    mode.owner_read = mode.owner_write = false;
    mode.grant(Uids::kSensor, false, true);
    mode.grant(Uids::kWeb, false, true);
  }
  const int server = bind_service(kCtlSock, kCtlAbstract, mode);
  int heater = connect_retry(*this, kHeaterSock, kHeaterAbstract);
  int alarm = connect_retry(*this, kAlarmSock, kAlarmAbstract);
  TempControlLogic logic(cfg_.control);
  std::vector<int> clients;

  auto command = [&](int* fd, const char* fs, const char* ab, bool on) {
    if (*fd < 0) return;
    if (k.sock_send(*fd, LinuxScenario::encode_cmd(on), false) ==
        Errno::kEPIPE) {
      k.sock_close(*fd);
      *fd = connect_retry(*this, fs, ab, 3);
    }
  };

  for (;;) {
    // Multiplex: accept any new client, then poll every open connection.
    const int fresh = k.sock_accept(server, /*blocking=*/false);
    if (fresh >= 0) clients.push_back(fresh);
    for (auto it = clients.begin(); it != clients.end();) {
      std::string msg;
      const Errno r = k.sock_recv(*it, &msg, /*blocking=*/false);
      if (r == Errno::kEOF || r == Errno::kEBADF) {
        k.sock_close(*it);
        it = clients.erase(it);
        continue;
      }
      if (r == Errno::kOk) {
        double v = 0;
        // NOTE the §III weakness carried over: nothing here authenticates
        // which client sent what (SO_PEERCRED exists but, as in the apps
        // of [10], nobody calls it — and with a shared account it would
        // not help anyway).
        if (LinuxScenario::decode_temp(msg, &v)) {
          const auto d = logic.on_sample(v, machine_.now());
          command(&heater, kHeaterSock, kHeaterAbstract, d.heater_on);
          command(&alarm, kAlarmSock, kAlarmAbstract, d.alarm_on);
          machine_.trace().emit(machine_.now(), -1, sim::TraceKind::kControl,
                                "ctl.sample", "", v);
        } else if (LinuxScenario::decode_setpoint(msg, &v)) {
          const bool ok = logic.try_set_setpoint(v, machine_.now());
          machine_.trace().emit(machine_.now(), -1, sim::TraceKind::kControl,
                                ok ? "ctl.setpoint" : "ctl.setpoint_rejected",
                                "", v);
        } else if (msg == "envreq") {
          k.sock_send(*it, LinuxScenario::encode_env(logic.env()), false);
        }
      }
      ++it;
    }
    machine_.sleep_for(sim::msec(50));
  }
}

void LinuxUdsScenario::sensor_proc() {
  auto& k = *kernel_;
  int conn = connect_retry(*this, kCtlSock, kCtlAbstract);
  for (;;) {
    const double t = plant_->sensor.read_temperature_c();
    machine_.trace().emit(machine_.now(), -1, sim::TraceKind::kDevice,
                          "sensor.sample", "", t);
    if (conn >= 0) {
      if (k.sock_send(conn, LinuxScenario::encode_temp(t), false) ==
          Errno::kEPIPE) {
        k.sock_close(conn);
        conn = -1;
      }
    }
    if (conn < 0) conn = connect_retry(*this, kCtlSock, kCtlAbstract, 2);
    machine_.sleep_for(cfg_.sensor_period);
  }
}

namespace {

struct WebLink {
  LinuxUdsScenario& sc;
  int conn;

  void refresh() {
    if (conn < 0) {
      conn = connect_retry(sc, LinuxUdsScenario::kCtlSock,
                           LinuxUdsScenario::kCtlAbstract, 2);
    }
  }
  bool query_env(EnvInfo* env) {
    auto& k = sc.kernel();
    if (conn < 0) return false;
    if (k.sock_send(conn, "envreq", false) != Errno::kOk) return false;
    for (int tries = 0; tries < 30; ++tries) {
      std::string msg;
      const Errno r = k.sock_recv(conn, &msg, false);
      if (r == Errno::kOk) return LinuxScenario::decode_env(msg, env);
      if (r != Errno::kEAGAIN) return false;
      sc.machine().sleep_for(sim::msec(100));
    }
    return false;
  }
  std::optional<bool> set_setpoint(double sp) {
    if (conn < 0 ||
        sc.kernel().sock_send(conn, LinuxScenario::encode_setpoint(sp),
                              false) != Errno::kOk) {
      return std::nullopt;
    }
    return true;
  }
};

}  // namespace

void LinuxUdsScenario::web_proc() {
  WebLink link{*this, connect_retry(*this, kCtlSock, kCtlAbstract)};
  run_web(link);
}

}  // namespace mkbas::bas
