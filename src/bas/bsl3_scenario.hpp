#pragma once

#include <cstdio>
#include <memory>
#include <optional>

#include "bas/scenario_base.hpp"
#include "devices/containment.hpp"
#include "minix/kernel.hpp"
#include "physics/pressure.hpp"

namespace mkbas::bas {

/// The suite's mini-AADL model (shared by the MINIX and seL4 builds).
const char* bsl3_aadl();

/// Safety verdict for a containment run, judged on ground truth.
struct Bsl3Safety {
  bool control_alive = false;
  /// Lab pressure above the breach line for an extended period (beyond
  /// door-opening transients) after the system settled.
  bool containment_breach = false;
  /// Both doors stood open simultaneously at any instant.
  bool interlock_violation = false;
  /// A sustained breach without the critical alarm.
  bool alarm_violation = false;
  double max_lab_pa = -1e9;

  bool compromised() const {
    return !control_alive || containment_breach || interlock_violation ||
           alarm_violation;
  }
  std::string summary() const;
};

/// The BSL-3 suite: the richer sibling of the temperature scenario,
/// extracted from the same Biosecurity Research Institute case study the
/// paper's Fig. 1 points at ("Biosafety Level 3 Lab"). Six processes:
///
///   presSensProc  — differential pressure transmitters (lab + anteroom)
///   contCtlProc   — containment controller: fan speed law, door
///                   interlock, critical alarm (ContainmentLogic)
///   exhaustFanProc, doorCtlProc, alarmProc — actuator drivers
///   mgmtProc      — untrusted management interface (HTTP console):
///                   status queries and door-open requests only
///
/// Safety obligations: the lab stays below the breach line (transient
/// door openings aside), the two doors are never open together, and a
/// sustained breach raises the critical alarm.
///
/// This base holds what the MINIX and seL4 builds share: the lab's
/// devices, the management console and the safety judge.
class Bsl3Lab : public ScenarioBase {
 public:
  physics::ContainmentModel& model() { return model_; }
  devices::ExhaustFan& fan() { return fan_; }
  devices::DoorLatch& inner_door() { return inner_; }
  devices::DoorLatch& outer_door() { return outer_; }
  const std::vector<devices::ContainmentSample>& history() const {
    return coupler_->history();
  }
  const Bsl3Config& config() const { return cfg_; }

  /// Judge a finished run.
  static Bsl3Safety check_safety(
      const std::vector<devices::ContainmentSample>& history,
      const sim::TraceLog& trace, const Bsl3Config& cfg, sim::Time run_end);

  /// The controller's answer to a status query.
  struct Status {
    double lab_pa = 0.0;
    double ante_pa = 0.0;
    double fan_speed = 0.0;
    bool alarm_on = false;
  };

 protected:
  Bsl3Lab(sim::Machine& machine, const Bsl3Config& cfg)
      : ScenarioBase(machine), cfg_(cfg), model_(cfg.model) {
    coupler_ = std::make_unique<devices::ContainmentCoupler>(
        machine_, model_, fan_, inner_, outer_, &alarm_on_);
  }

  /// The management console loop. Its link provides refresh() (re-resolve
  /// the controller), query_status(&status) -> bool and
  /// request_door(door) -> optional<bool> (nullopt: controller
  /// unreachable), like the temperature program's web link.
  template <class Link>
  void run_mgmt(Link& link, const char* detail, camkes::Runtime* rt = nullptr);

  Bsl3Config cfg_;
  physics::ContainmentModel model_;
  devices::ExhaustFan fan_;
  devices::DoorLatch inner_{"inner"};
  devices::DoorLatch outer_{"outer"};
  bool alarm_on_ = false;
  std::unique_ptr<devices::ContainmentCoupler> coupler_;
};

template <class Link>
void Bsl3Lab::run_mgmt(Link& link, const char* detail, camkes::Runtime* rt) {
  bool attacked = false;
  for (;;) {
    link.refresh();
    poll_attack(&attacked, "mgmt.compromised", detail, rt);
    while (auto id = http_.poll()) {
      const net::HttpRequest& req = http_.request(*id);
      net::HttpResponse resp{404, "not found"};
      if (req.method == "GET" && req.path == "/status") {
        Status st;
        if (link.query_status(&st)) {
          char buf[128];
          std::snprintf(buf, sizeof buf,
                        "lab=%.1fPa;ante=%.1fPa;fan=%.2f;alarm=%s", st.lab_pa,
                        st.ante_pa, st.fan_speed, st.alarm_on ? "on" : "off");
          resp = {200, buf};
        } else {
          resp = {503, "control unavailable"};
        }
      } else if (req.method == "POST" && req.path == "/door") {
        const int door = req.body == "door=inner" ? 0
                         : req.body == "door=outer" ? 1
                                                    : -1;
        if (door < 0) {
          resp = {400, "bad door"};
        } else if (const std::optional<bool> granted =
                       link.request_door(door)) {
          resp = *granted ? net::HttpResponse{200, "door released"}
                          : net::HttpResponse{409, "interlock engaged"};
        } else {
          resp = {503, "control unavailable"};
        }
      }
      http_.respond(*id, machine_.now(), std::move(resp));
    }
    machine_.sleep_for(sim::msec(100));
  }
}

/// The BSL-3 suite on security-enhanced MINIX 3, with its ACM generated
/// from bsl3_aadl() (or a permissive matrix, for the ablation).
class Bsl3Scenario : public Bsl3Lab {
 public:
  struct AcIds {
    static constexpr int kSensor = 110;
    static constexpr int kControl = 111;
    static constexpr int kFan = 112;
    static constexpr int kDoors = 113;
    static constexpr int kAlarm = 114;
    static constexpr int kMgmt = 115;
  };
  struct MTypes {
    static constexpr int kAck = 0;
    static constexpr int kData = 1;      // sensor data / actuator commands
    static constexpr int kDoorReq = 2;   // mgmt -> ctl
    static constexpr int kEnvQuery = 3;  // mgmt -> ctl
  };
  static constexpr int kLoaderAcId = 109;

  explicit Bsl3Scenario(sim::Machine& machine, Bsl3Config cfg = {},
                        Bsl3Policy policy = Bsl3Policy::kAcmEnforced);
  Platform platform() const override { return Platform::kMinix; }
  const char* variant() const override { return "bsl3"; }
  int restarts() const override { return kernel_->restarts(); }

  /// Armed attack hooks run inside the management process.
  minix::MinixKernel& kernel() { return *kernel_; }
  minix::Endpoint endpoint_of(const std::string& name) const {
    return kernel_->lookup(name);
  }

 private:
  void loader_proc();
  void sensor_proc();
  void control_proc();
  void fan_proc();
  void door_proc();
  void alarm_proc();
  void mgmt_proc();

  std::unique_ptr<minix::MinixKernel> kernel_;  // last: see ScenarioBase
};

}  // namespace mkbas::bas
