#pragma once

#include <algorithm>

#include "physics/pressure.hpp"
#include "sim/time.hpp"

namespace mkbas::bas {

/// Tunables of the temperature control process (§II).
struct ControlConfig {
  double initial_setpoint_c = 22.0;
  double setpoint_min_c = 15.0;  // "within a predefined range"
  double setpoint_max_c = 30.0;
  double hysteresis_c = 0.5;
  double alarm_tolerance_c = 1.5;
  sim::Duration alarm_timeout = sim::minutes(5);  // "e.g., 5 minutes"
};

/// Snapshot of the controller's view of the environment, returned to the
/// web interface on env queries and written to the log.
struct EnvInfo {
  double last_temp_c = 0.0;
  double setpoint_c = 0.0;
  bool heater_on = false;
  bool alarm_on = false;
};

/// The control logic of the temperature control process, kept pure (no
/// IPC, no devices) so the identical law runs on MINIX 3, seL4/CAmkES and
/// Linux — mirroring the paper's "intuitive implementation [that is]
/// functionally correct".
///
/// Law: bang-bang with hysteresis around the setpoint; the alarm latches
/// on when the temperature has been outside the tolerance band
/// continuously for `alarm_timeout` (the controller "fails to achieve the
/// desired temperature within a certain time interval") and clears when
/// the band is re-entered.
class TempControlLogic {
 public:
  explicit TempControlLogic(ControlConfig cfg = {})
      : cfg_(cfg), setpoint_(cfg.initial_setpoint_c) {}

  struct Decision {
    bool heater_on = false;
    bool alarm_on = false;
  };

  /// Feed one sensor sample; returns the actuator commands to issue.
  Decision on_sample(double temp_c, sim::Time now) {
    last_temp_ = temp_c;
    // Bang-bang with hysteresis.
    if (temp_c < setpoint_ - cfg_.hysteresis_c) {
      heater_on_ = true;
    } else if (temp_c > setpoint_ + cfg_.hysteresis_c) {
      heater_on_ = false;
    }
    // Alarm timer.
    const bool in_band =
        temp_c >= setpoint_ - cfg_.alarm_tolerance_c &&
        temp_c <= setpoint_ + cfg_.alarm_tolerance_c;
    if (in_band) {
      out_of_band_since_ = -1;
      alarm_on_ = false;
    } else {
      if (out_of_band_since_ < 0) out_of_band_since_ = now;
      if (now - out_of_band_since_ >= cfg_.alarm_timeout) alarm_on_ = true;
    }
    return {heater_on_, alarm_on_};
  }

  /// Admin setpoint update; rejected outside the predefined range.
  bool try_set_setpoint(double sp_c, sim::Time now) {
    if (sp_c < cfg_.setpoint_min_c || sp_c > cfg_.setpoint_max_c) {
      return false;
    }
    setpoint_ = sp_c;
    // A new target restarts the settle timer rather than alarming
    // immediately for the transition period.
    out_of_band_since_ = now;
    return true;
  }

  double setpoint() const { return setpoint_; }
  bool heater_on() const { return heater_on_; }
  bool alarm_on() const { return alarm_on_; }
  EnvInfo env() const { return {last_temp_, setpoint_, heater_on_, alarm_on_}; }
  const ControlConfig& config() const { return cfg_; }

 private:
  ControlConfig cfg_;
  double setpoint_;
  double last_temp_ = 0.0;
  bool heater_on_ = false;
  bool alarm_on_ = false;
  sim::Time out_of_band_since_ = -1;  // -1: in band
};

/// Tunables of the BSL-3 containment controller (EXT1). Part of the
/// shared ScenarioConfig so make_scenario builds the "bsl3" variant from
/// the same configuration object as the temperature scenarios.
struct Bsl3Config {
  double target_lab_pa = -30.0;      // design negative pressure
  double breach_threshold_pa = -5.0; // "loss of containment" line
  sim::Duration alarm_delay = sim::sec(30);
  sim::Duration sample_period = sim::sec(1);
  sim::Duration door_open_time = sim::sec(10);
  physics::ContainmentModel::Params model{};
};

/// The BSL-3 containment law, kept pure like TempControlLogic so the
/// MINIX and seL4 builds run the identical law and differ only in the
/// order of their IPC.
///
/// Fan: steps of 0.05 toward the target lab pressure outside a 1 Pa dead
/// band, clamped to [0.3, 1]. Alarm: latches once the lab has stayed
/// above the breach line for `alarm_delay`, clears 2 Pa below it. Doors:
/// a request is granted only while the other door is shut (the
/// interlock), and a granted door auto-closes `door_open_time` later.
class ContainmentLogic {
 public:
  explicit ContainmentLogic(const Bsl3Config& cfg) : cfg_(cfg) {}

  /// The actuator commands one pressure sample calls for.
  struct Decision {
    double fan_speed = 0.0;
    bool alarm_on = false;
    bool close_inner = false;  // auto-close deadline reached
    bool close_outer = false;
  };

  Decision on_sample(double lab_pa, double ante_pa, sim::Time now) {
    last_lab_ = lab_pa;
    last_ante_ = ante_pa;
    const double err = lab_pa - cfg_.target_lab_pa;
    if (err > 1.0) {
      fan_speed_ = std::min(1.0, fan_speed_ + 0.05);
    } else if (err < -1.0) {
      fan_speed_ = std::max(0.3, fan_speed_ - 0.05);
    }
    if (lab_pa > cfg_.breach_threshold_pa) {
      if (breach_since_ < 0) breach_since_ = now;
      if (now - breach_since_ >= cfg_.alarm_delay) alarm_on_ = true;
    } else {
      breach_since_ = -1;
      if (lab_pa < cfg_.breach_threshold_pa - 2.0) alarm_on_ = false;
    }
    return {fan_speed_, alarm_on_, expire(&inner_open_until_, now),
            expire(&outer_open_until_, now)};
  }

  /// Door 0 is the inner door, 1 the outer. Returns whether the
  /// interlock grants opening it now.
  bool request_door(int door, sim::Time now) {
    const bool other_busy =
        door == 0 ? outer_open_until_ >= 0 : inner_open_until_ >= 0;
    const bool granted = !other_busy && (door == 0 || door == 1);
    if (granted) {
      (door == 0 ? inner_open_until_ : outer_open_until_) =
          now + cfg_.door_open_time;
    }
    return granted;
  }

  double last_lab_pa() const { return last_lab_; }
  double last_ante_pa() const { return last_ante_; }
  double fan_speed() const { return fan_speed_; }
  bool alarm_on() const { return alarm_on_; }

 private:
  static bool expire(sim::Time* open_until, sim::Time now) {
    if (*open_until < 0 || now < *open_until) return false;
    *open_until = -1;
    return true;
  }

  Bsl3Config cfg_;
  double fan_speed_ = 0.6;
  bool alarm_on_ = false;
  sim::Time breach_since_ = -1;
  sim::Time inner_open_until_ = -1;
  sim::Time outer_open_until_ = -1;
  double last_lab_ = 0.0;
  double last_ante_ = 0.0;
};

}  // namespace mkbas::bas
