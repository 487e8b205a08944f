#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace mkbas::physics {

/// Outdoor-temperature profile as plain data, evaluated inline. The two
/// shapes every scenario uses — constant and sinusoidal diurnal — fit in
/// three words, so the per-sub-step evaluation inside the thermal model
/// is a branch and some arithmetic instead of a std::function indirect
/// call (which also blocked vectorising the batched RoomBank step).
struct OutdoorSpec {
  enum class Kind : std::uint8_t { kConstant, kDiurnal };

  Kind kind = Kind::kConstant;
  double mean_c = 10.0;  // constant value, or diurnal mean
  double swing_c = 0.0;  // diurnal half-amplitude

  double eval(sim::Time t) const {
    if (kind == Kind::kConstant) return mean_c;
    constexpr double kDay = 24.0 * 3600.0;
    const double phase = 2.0 * 3.14159265358979323846 *
                         std::fmod(sim::to_seconds(t), kDay) / kDay;
    return mean_c + swing_c * std::sin(phase);
  }

  static OutdoorSpec constant(double temp_c) {
    return {Kind::kConstant, temp_c, 0.0};
  }
  static OutdoorSpec diurnal(double mean_c, double swing_c) {
    return {Kind::kDiurnal, mean_c, swing_c};
  }
};

/// First-order lumped thermal model of a single room.
///
///   C * dT/dt = -k * (T - T_out(t)) + q_heater + q_disturbance
///
/// where C is the thermal capacitance [J/K], k the envelope loss
/// coefficient [W/K], q_heater the actuator's heat input [W] and
/// q_disturbance any injected load (occupants, a manually heated testbed,
/// an opened window modelled as negative watts).
///
/// The paper's testbed manually heated a BMP180 sensor next to a fan; this
/// model is the standard simulation equivalent: it exposes the same
/// cause-and-effect the attacks must influence (actuator state changes the
/// measured temperature over time).
class RoomModel {
 public:
  struct Params {
    double capacitance_j_per_k = 2.0e5;  // ~ a small, well-sealed room
    double loss_w_per_k = 80.0;
    double initial_temp_c = 18.0;
  };

  RoomModel() : RoomModel(Params{}) {}
  explicit RoomModel(Params params)
      : params_(params), temp_c_(params.initial_temp_c) {}

  /// Advance the model by `dt` of simulated time with the given heat
  /// inputs. Uses forward Euler with internal sub-steps small enough to be
  /// stable for any plausible dt.
  void step(sim::Duration dt, double heater_w, sim::Time now);

  double temperature_c() const { return temp_c_; }
  void set_temperature_c(double t) { temp_c_ = t; }

  /// Persistent extra thermal load [W]; positive heats, negative cools.
  void set_disturbance_w(double w) { disturbance_w_ = w; }
  double disturbance_w() const { return disturbance_w_; }

  /// Outdoor temperature profile (default: constant 10 C).
  void set_outdoor(OutdoorSpec spec) { outdoor_spec_ = spec; }
  const OutdoorSpec& outdoor_spec() const { return outdoor_spec_; }

  double outdoor_temp_c(sim::Time now) const {
    return outdoor_spec_.eval(now);
  }

  /// Steady-state temperature for a constant heater input (useful for
  /// tests: where the plant settles if nothing changes).
  double steady_state_c(double heater_w, sim::Time now) const {
    return outdoor_temp_c(now) +
           (heater_w + disturbance_w_) / params_.loss_w_per_k;
  }

  const Params& params() const { return params_; }

 private:
  Params params_;
  double temp_c_;
  double disturbance_w_ = 0.0;
  OutdoorSpec outdoor_spec_{};  // default: constant 10 C
};

/// Struct-of-arrays batch of room thermal models, stepped in one pass.
///
/// Semantically a vector<RoomModel> with OutdoorSpec profiles: add() a
/// room with its parameters, poke per-room inputs, call step_all() once
/// per control tick. Results are bit-identical to stepping each scalar
/// RoomModel in a loop (the equivalence test sweeps dt and parameters),
/// but the state lives in parallel arrays — when every room can take the
/// whole dt in one Euler sub-step (the common control-tick case), the
/// update is a single flat loop over doubles the compiler can vectorise,
/// with no per-room indirect call and no allocation.
class RoomBank {
 public:
  /// Append a room; returns its index.
  std::size_t add(const RoomModel::Params& params, OutdoorSpec outdoor = {});

  std::size_t size() const { return temp_.size(); }

  double temperature_c(std::size_t i) const { return temp_[i]; }
  void set_temperature_c(std::size_t i, double t) { temp_[i] = t; }
  void set_heater_w(std::size_t i, double w) { heater_[i] = w; }
  double heater_w(std::size_t i) const { return heater_[i]; }
  void set_disturbance_w(std::size_t i, double w) { disturbance_[i] = w; }
  double disturbance_w(std::size_t i) const { return disturbance_[i]; }
  void set_outdoor(std::size_t i, OutdoorSpec spec) { outdoor_[i] = spec; }

  /// Advance every room by `dt` with its current heater/disturbance
  /// inputs. Same sub-stepped forward Euler as RoomModel::step.
  void step_all(sim::Duration dt, sim::Time now);

 private:
  std::vector<double> cap_;          // capacitance_j_per_k
  std::vector<double> loss_;         // loss_w_per_k
  std::vector<double> temp_;         // current temperature [C]
  std::vector<double> heater_;       // heater input [W]
  std::vector<double> disturbance_;  // extra load [W]
  std::vector<double> max_h_;        // per-room Euler stability bound [s]
  std::vector<OutdoorSpec> outdoor_;
  std::vector<double> tout_;  // scratch: outdoor temp this step
  double min_max_h_ = 0.0;    // min over max_h_ (0 when empty)
};

}  // namespace mkbas::physics
