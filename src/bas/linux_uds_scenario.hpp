#pragma once

#include <functional>
#include <memory>
#include <string>

#include "bas/linux_scenario.hpp"

namespace mkbas::bas {

/// The temperature-control scenario on Linux over **Unix domain sockets**
/// — the other IPC §III names ("the IPC options are either Unix domain
/// sockets or message queues"). The control process is a socket server;
/// the sensor and the web interface are its clients; the actuator drivers
/// are servers the control process connects to.
///
/// Two namespace variants, matching the misuse study the paper cites [10]:
///  * kFilesystem — sockets bound at /run/... and guarded by mode
///    bits/ACLs at connect time (the well-configured deployment);
///  * kAbstract — sockets bound to abstract names with NO permission
///    model at all: whoever binds first owns the name, enabling the
///    squatting/hijack attacks of the Android CVEs.
///
/// Only the web interface runs the shared program's body. The sensor,
/// controller and drivers keep their own socket loops, which record no
/// spans or control metrics: adding them would change this variant's
/// exported bytes.
class LinuxUdsScenario : public TempScenario {
 public:
  using Accounts = LinuxScenario::Accounts;
  using Uids = LinuxScenario::Uids;
  enum class Namespace { kFilesystem, kAbstract };

  // Socket names (paths in the filesystem namespace, bare names in the
  // abstract one).
  static constexpr const char* kCtlSock = "/run/tempctl.sock";
  static constexpr const char* kHeaterSock = "/run/heater.sock";
  static constexpr const char* kAlarmSock = "/run/alarm.sock";
  static constexpr const char* kCtlAbstract = "tempctl";
  static constexpr const char* kHeaterAbstract = "heater";
  static constexpr const char* kAlarmAbstract = "alarm";

  LinuxUdsScenario(sim::Machine& machine, ScenarioConfig cfg = {},
                   Accounts accounts = Accounts::kShared,
                   Namespace ns = Namespace::kFilesystem);

  Platform platform() const override { return Platform::kLinux; }
  const char* variant() const override { return "uds"; }

  linuxsim::LinuxKernel& kernel() { return *kernel_; }
  Accounts accounts() const { return accounts_; }
  Namespace ns() const { return ns_; }
  int pid_of(const std::string& name) const { return kernel_->find_pid(name); }

  /// Connect to a scenario service the way its clients do (used by the
  /// attack scripts): returns fd or negative Errno.
  int connect_service(const char* fs_path, const char* abstract_name);

 private:
  void scenario_proc();
  void sensor_proc();
  void control_proc();
  void actuator_proc(const char* fs_path, const char* abstract_name,
                     std::function<void(bool)> apply);
  void web_proc();
  int bind_service(const char* fs_path, const char* abstract_name,
                   linuxsim::Mode mode);

  Accounts accounts_;
  Namespace ns_;
  std::unique_ptr<linuxsim::LinuxKernel> kernel_;  // last: see ScenarioBase
};

}  // namespace mkbas::bas
