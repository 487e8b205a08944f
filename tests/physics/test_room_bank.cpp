// RoomBank must be a drop-in for a vector of scalar RoomModel objects:
// bit-identical temperatures (memcmp on the doubles, not a tolerance)
// across dt values that hit the single-sub-step fast path, the
// sub-stepped general path, and the boundary between them, over a
// parameter sweep of capacitance/loss/profile mixes.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "physics/room.hpp"
#include "sim/rng.hpp"

namespace physics = mkbas::physics;
namespace sim = mkbas::sim;

namespace {

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

struct Fleet {
  std::vector<physics::RoomModel> scalar;
  std::vector<double> heaters;
  physics::RoomBank bank;
};

Fleet build_fleet(std::size_t rooms, std::uint64_t seed) {
  Fleet f;
  sim::Rng rng(seed);
  for (std::size_t i = 0; i < rooms; ++i) {
    physics::RoomModel::Params p;
    p.capacitance_j_per_k =
        5.0e4 + static_cast<double>(rng.next_u64() % 4000) * 100.0;
    p.loss_w_per_k = 20.0 + static_cast<double>(rng.next_u64() % 150);
    p.initial_temp_c = 10.0 + static_cast<double>(rng.next_u64() % 200) * 0.1;
    const physics::OutdoorSpec outdoor =
        (rng.next_u64() & 1) != 0
            ? physics::OutdoorSpec::diurnal(
                  6.0 + static_cast<double>(rng.next_u64() % 8),
                  2.0 + static_cast<double>(rng.next_u64() % 6))
            : physics::OutdoorSpec::constant(
                  static_cast<double>(rng.next_u64() % 16));
    const double heater = static_cast<double>(rng.next_u64() % 3000);
    const double disturbance =
        static_cast<double>(rng.next_u64() % 500) - 250.0;

    f.scalar.emplace_back(p);
    f.scalar.back().set_outdoor(outdoor);
    f.scalar.back().set_disturbance_w(disturbance);
    f.heaters.push_back(heater);

    const std::size_t idx = f.bank.add(p, outdoor);
    EXPECT_EQ(idx, i);
    f.bank.set_heater_w(i, heater);
    f.bank.set_disturbance_w(i, disturbance);
  }
  return f;
}

// Step both representations `ticks` times by `dt` and require every room
// bit-identical after every tick.
void step_and_compare(Fleet& f, sim::Duration dt, int ticks, sim::Time& now) {
  for (int tick = 0; tick < ticks; ++tick) {
    now += dt;
    for (std::size_t i = 0; i < f.scalar.size(); ++i) {
      f.scalar[i].step(dt, f.heaters[i], now);
    }
    f.bank.step_all(dt, now);
    for (std::size_t i = 0; i < f.scalar.size(); ++i) {
      ASSERT_TRUE(
          bit_equal(f.scalar[i].temperature_c(), f.bank.temperature_c(i)))
          << "room " << i << " tick " << tick << " dt " << dt;
    }
  }
}

TEST(RoomBank, BitEqualAcrossDtSweep) {
  Fleet f = build_fleet(257, 0xF1EE7);  // odd count: vector tail lanes
  sim::Time now = 0;
  // Fast path (control ticks well under every room's stability bound),
  // general sub-stepped path (minutes-long steps), and values near the
  // min_max_h boundary.
  step_and_compare(f, sim::msec(250), 20, now);
  step_and_compare(f, sim::sec(1), 20, now);
  step_and_compare(f, sim::sec(25), 10, now);
  step_and_compare(f, sim::sec(63), 10, now);
  step_and_compare(f, sim::minutes(5), 5, now);
  step_and_compare(f, sim::sec(1), 20, now);  // back onto the fast path
}

TEST(RoomBank, BitEqualAcrossParamSeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Fleet f = build_fleet(64, seed * 0x517CC1B727220A95ULL);
    sim::Time now = sim::sec(static_cast<std::int64_t>(seed) * 3600);
    step_and_compare(f, sim::sec(2), 16, now);
    step_and_compare(f, sim::minutes(2), 4, now);
  }
}

TEST(RoomBank, MidRunInputChangesTrackScalar) {
  Fleet f = build_fleet(32, 42);
  sim::Time now = 0;
  step_and_compare(f, sim::sec(1), 8, now);
  // Flip inputs mid-run the way controllers do: heater off, a window
  // opens (negative disturbance), outdoor profile swapped.
  for (std::size_t i = 0; i < f.scalar.size(); i += 2) {
    f.heaters[i] = 0.0;
    f.bank.set_heater_w(i, 0.0);
    f.scalar[i].set_disturbance_w(-400.0);
    f.bank.set_disturbance_w(i, -400.0);
    const auto spec = physics::OutdoorSpec::diurnal(1.0, 9.0);
    f.scalar[i].set_outdoor(spec);
    f.bank.set_outdoor(i, spec);
  }
  step_and_compare(f, sim::sec(1), 8, now);
  step_and_compare(f, sim::minutes(3), 3, now);
}

TEST(RoomBank, EmptyAndZeroDtAreNoOps) {
  physics::RoomBank bank;
  bank.step_all(sim::sec(1), 0);  // empty bank: nothing to do
  EXPECT_EQ(bank.size(), 0u);
  const std::size_t i = bank.add({}, physics::OutdoorSpec::constant(5.0));
  const double before = bank.temperature_c(i);
  bank.step_all(0, sim::sec(10));  // dt <= 0: no state change
  EXPECT_TRUE(bit_equal(before, bank.temperature_c(i)));
}

}  // namespace
