#include "physics/room.hpp"

#include <gtest/gtest.h>

namespace physics = mkbas::physics;
namespace sim = mkbas::sim;

TEST(RoomModel, CoolsTowardOutdoorWithoutHeat) {
  physics::RoomModel room({.capacitance_j_per_k = 1e5,
                           .loss_w_per_k = 100.0,
                           .initial_temp_c = 25.0});
  room.set_outdoor(physics::OutdoorSpec::constant(5.0));
  for (int i = 0; i < 60; ++i) room.step(sim::minutes(5), 0.0, 0);
  EXPECT_NEAR(room.temperature_c(), 5.0, 0.2);
}

TEST(RoomModel, HeatsTowardSteadyStateWithConstantInput) {
  physics::RoomModel room({.capacitance_j_per_k = 1e5,
                           .loss_w_per_k = 100.0,
                           .initial_temp_c = 10.0});
  room.set_outdoor(physics::OutdoorSpec::constant(0.0));
  const double q = 2000.0;  // steady state = 0 + 2000/100 = 20C
  for (int i = 0; i < 120; ++i) room.step(sim::minutes(5), q, 0);
  EXPECT_NEAR(room.temperature_c(), room.steady_state_c(q, 0), 0.2);
  EXPECT_NEAR(room.temperature_c(), 20.0, 0.2);
}

TEST(RoomModel, MonotoneApproachFromBelow) {
  physics::RoomModel room({.capacitance_j_per_k = 2e5,
                           .loss_w_per_k = 80.0,
                           .initial_temp_c = 10.0});
  room.set_outdoor(physics::OutdoorSpec::constant(0.0));
  double prev = room.temperature_c();
  for (int i = 0; i < 50; ++i) {
    room.step(sim::minutes(1), 4000.0, 0);
    EXPECT_GE(room.temperature_c(), prev - 1e-9);
    prev = room.temperature_c();
  }
  EXPECT_LE(prev, room.steady_state_c(4000.0, 0) + 1e-6);
}

TEST(RoomModel, DisturbanceShiftsSteadyState) {
  physics::RoomModel room({.capacitance_j_per_k = 1e5,
                           .loss_w_per_k = 100.0,
                           .initial_temp_c = 15.0});
  room.set_outdoor(physics::OutdoorSpec::constant(10.0));
  room.set_disturbance_w(500.0);  // occupants / manual heating: +5C
  for (int i = 0; i < 120; ++i) room.step(sim::minutes(5), 0.0, 0);
  EXPECT_NEAR(room.temperature_c(), 15.0, 0.2);
}

TEST(RoomModel, ZeroOrNegativeDtIsANoop) {
  physics::RoomModel room;
  const double before = room.temperature_c();
  room.step(0, 5000.0, 0);
  room.step(-10, 5000.0, 0);
  EXPECT_DOUBLE_EQ(room.temperature_c(), before);
}

TEST(RoomModel, StableForLargeSteps) {
  // Forward Euler must not oscillate or blow up for multi-hour steps.
  physics::RoomModel room({.capacitance_j_per_k = 1e5,
                           .loss_w_per_k = 100.0,
                           .initial_temp_c = 50.0});
  room.set_outdoor(physics::OutdoorSpec::constant(0.0));
  room.step(sim::sec(3600 * 12), 0.0, 0);
  EXPECT_GE(room.temperature_c(), -0.01);
  EXPECT_LE(room.temperature_c(), 50.0);
}

TEST(RoomModel, DiurnalProfileOscillates) {
  const auto profile = physics::OutdoorSpec::diurnal(10.0, 5.0);
  const double morning = profile.eval(sim::sec(6 * 3600));   // peak of sin
  const double evening = profile.eval(sim::sec(18 * 3600));  // trough
  EXPECT_NEAR(morning, 15.0, 0.01);
  EXPECT_NEAR(evening, 5.0, 0.01);
  EXPECT_NEAR(profile.eval(0), 10.0, 0.01);
}
