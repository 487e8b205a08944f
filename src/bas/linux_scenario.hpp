#pragma once

#include <memory>
#include <string>

#include "bas/temp_program.hpp"
#include "linuxsim/kernel.hpp"

namespace mkbas::bas {

/// The temperature-control program on Linux (§IV.C): POSIX message
/// queues as IPC, a scenario process spawning the five processes and
/// creating the six queues.
///
/// Two deployment variants, matching the paper's two simulations:
///  * kSharedAccount — all five processes run under one user account
///    (the paper's first simulation; "since all five processes are
///    running under the same user account, the file access control
///    mechanism allows the web interface process to read and write all
///    message queues");
///  * kSeparateAccounts — one uid per process plus tight per-queue ACLs
///    (the "well-configured" baseline that only root can defeat).
class LinuxScenario : public TempScenario {
 public:
  enum class Accounts { kShared, kSeparate };

  struct Uids {
    static constexpr linuxsim::Uid kShared = 1000;
    static constexpr linuxsim::Uid kSensor = 1001;
    static constexpr linuxsim::Uid kControl = 1002;
    static constexpr linuxsim::Uid kHeater = 1003;
    static constexpr linuxsim::Uid kAlarm = 1004;
    static constexpr linuxsim::Uid kWeb = 1005;
  };

  // The six queues the scenario process creates (§IV.C).
  static constexpr const char* kQSensor = "/q_sensor";
  static constexpr const char* kQSetpoint = "/q_setpoint";
  static constexpr const char* kQEnvReq = "/q_envreq";
  static constexpr const char* kQEnv = "/q_env";
  static constexpr const char* kQHeater = "/q_heater";
  static constexpr const char* kQAlarm = "/q_alarm";

  explicit LinuxScenario(sim::Machine& machine, ScenarioConfig cfg = {},
                         Accounts accounts = Accounts::kShared);

  Platform platform() const override { return Platform::kLinux; }
  const char* variant() const override { return "temp"; }

  /// Attack hooks run inside the web process; escalate to root via
  /// kernel().exploit_escalate_to_root() for the second simulation.
  linuxsim::LinuxKernel& kernel() { return *kernel_; }
  Accounts accounts() const { return accounts_; }

  /// pid of a scenario process by name ("tempProc" etc.), -1 if dead.
  int pid_of(const std::string& name) const { return kernel_->find_pid(name); }

  // Wire-format helpers shared with the attack module.
  static std::string encode_temp(double t);
  static std::string encode_setpoint(double sp);
  static std::string encode_cmd(bool on);
  static std::string encode_env(const EnvInfo& env);
  static bool decode_temp(const std::string& s, double* out);
  static bool decode_setpoint(const std::string& s, double* out);
  static bool decode_cmd(const std::string& s, bool* out);
  static bool decode_env(const std::string& s, EnvInfo* out);

 private:
  void scenario_proc();
  void run_process(Role role);

  Accounts accounts_;
  std::unique_ptr<linuxsim::LinuxKernel> kernel_;  // last: see ScenarioBase
};

}  // namespace mkbas::bas
