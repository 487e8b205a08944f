#include "physics/room.hpp"

#include <algorithm>
#include <cmath>

namespace mkbas::physics {

void RoomModel::step(sim::Duration dt, double heater_w, sim::Time now) {
  if (dt <= 0) return;
  double remaining = sim::to_seconds(dt);
  // Stability bound for forward Euler: h < 2*C/k. Stay well inside it.
  const double max_h =
      std::max(0.01, 0.1 * params_.capacitance_j_per_k / params_.loss_w_per_k);
  // The profile is a pure function of `now`, which is constant across the
  // sub-steps — evaluate once.
  const double t_out = outdoor_temp_c(now);
  while (remaining > 0.0) {
    const double h = std::min(remaining, max_h);
    const double dq = -params_.loss_w_per_k * (temp_c_ - t_out) + heater_w +
                      disturbance_w_;
    temp_c_ += h * dq / params_.capacitance_j_per_k;
    remaining -= h;
  }
}

std::size_t RoomBank::add(const RoomModel::Params& params,
                          OutdoorSpec outdoor) {
  cap_.push_back(params.capacitance_j_per_k);
  loss_.push_back(params.loss_w_per_k);
  temp_.push_back(params.initial_temp_c);
  heater_.push_back(0.0);
  disturbance_.push_back(0.0);
  // Same bound, computed the same way, as the scalar step.
  const double max_h = std::max(
      0.01, 0.1 * params.capacitance_j_per_k / params.loss_w_per_k);
  max_h_.push_back(max_h);
  min_max_h_ = min_max_h_ == 0.0 ? max_h : std::min(min_max_h_, max_h);
  outdoor_.push_back(outdoor);
  tout_.push_back(0.0);
  return temp_.size() - 1;
}

void RoomBank::step_all(sim::Duration dt, sim::Time now) {
  if (dt <= 0) return;
  const std::size_t n = temp_.size();
  if (n == 0) return;
  const double seconds = sim::to_seconds(dt);

  // Profile evaluation is hoisted out of the numeric loop either way:
  // it's the only part with a branch (and, for diurnal, a libm call).
  for (std::size_t i = 0; i < n; ++i) tout_[i] = outdoor_[i].eval(now);

  if (seconds <= min_max_h_) {
    // Every room absorbs dt in a single Euler sub-step (the normal
    // control tick): one flat pass over the arrays, no branches, which
    // the compiler vectorises. h == std::min(seconds, max_h) == seconds
    // for every room, so this is bit-identical to the general path.
    const double* __restrict cap = cap_.data();
    const double* __restrict loss = loss_.data();
    const double* __restrict heat = heater_.data();
    const double* __restrict dist = disturbance_.data();
    const double* __restrict tout = tout_.data();
    double* __restrict temp = temp_.data();
    for (std::size_t i = 0; i < n; ++i) {
      const double dq = -loss[i] * (temp[i] - tout[i]) + heat[i] + dist[i];
      temp[i] += seconds * dq / cap[i];
    }
    return;
  }

  // Large step: per-room sub-step loop, identical to RoomModel::step.
  for (std::size_t i = 0; i < n; ++i) {
    double remaining = seconds;
    const double max_h = max_h_[i];
    const double t_out = tout_[i];
    double t = temp_[i];
    while (remaining > 0.0) {
      const double h = std::min(remaining, max_h);
      const double dq = -loss_[i] * (t - t_out) + heater_[i] + disturbance_[i];
      t += h * dq / cap_[i];
      remaining -= h;
    }
    temp_[i] = t;
  }
}

}  // namespace mkbas::physics
