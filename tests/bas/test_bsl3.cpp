// BSL-3 containment scenario: benign operation, interlock behaviour, and
// the attack/ablation experiments (ACM-enforced vs legacy-permissive).
#include <gtest/gtest.h>

#include "bas/bsl3_scenario.hpp"
#include "bas/bsl3_sel4_scenario.hpp"

namespace bas = mkbas::bas;
namespace sim = mkbas::sim;
namespace minix = mkbas::minix;

using bas::Bsl3Policy;
using bas::Bsl3Scenario;

TEST(Bsl3, ReachesAndHoldsDesignPressure) {
  sim::Machine m;
  Bsl3Scenario sc(m);
  m.run_until(sim::minutes(20));
  const auto safety = Bsl3Scenario::check_safety(
      sc.history(), m.trace(), sc.config(), sim::minutes(20));
  EXPECT_TRUE(safety.control_alive);
  EXPECT_FALSE(safety.compromised()) << safety.summary();
  EXPECT_NEAR(sc.model().lab_pressure_pa(), -30.0, 3.0);
}

TEST(Bsl3, StatusEndpointReportsTelemetry) {
  sim::Machine m;
  Bsl3Scenario sc(m);
  m.at(sim::minutes(10), [&] {
    sc.http().submit(m.now(), {"GET", "/status", ""});
  });
  m.run_until(sim::minutes(11));
  bool seen = false;
  for (const auto& ex : sc.http().exchanges()) {
    if (ex.answered >= 0) {
      seen = true;
      EXPECT_EQ(ex.response.status, 200);
      EXPECT_NE(ex.response.body.find("lab=-"), std::string::npos);
      EXPECT_NE(ex.response.body.find("alarm=off"), std::string::npos);
    }
  }
  EXPECT_TRUE(seen);
}

TEST(Bsl3, DoorCycleWorksAndAutoCloses) {
  sim::Machine m;
  Bsl3Scenario sc(m);
  m.at(sim::minutes(10), [&] {
    sc.http().submit(m.now(), {"POST", "/door", "door=inner"});
  });
  m.run_until(sim::minutes(12));
  // Granted, opened, auto-closed after door_open_time.
  ASSERT_GE(sc.inner_door().transitions().size(), 2u);
  EXPECT_TRUE(sc.inner_door().transitions()[0].open);
  EXPECT_FALSE(sc.inner_door().transitions()[1].open);
  const auto dwell = sc.inner_door().transitions()[1].time -
                     sc.inner_door().transitions()[0].time;
  EXPECT_NEAR(static_cast<double>(dwell),
              static_cast<double>(sc.config().door_open_time),
              static_cast<double>(sim::sec(3)));
  EXPECT_FALSE(sc.inner_door().is_open());
}

TEST(Bsl3, InterlockRefusesSimultaneousDoors) {
  sim::Machine m;
  Bsl3Scenario sc(m);
  m.at(sim::minutes(10), [&] {
    sc.http().submit(m.now(), {"POST", "/door", "door=inner"});
  });
  m.at(sim::minutes(10) + sim::sec(2), [&] {
    sc.http().submit(m.now(), {"POST", "/door", "door=outer"});
  });
  m.run_until(sim::minutes(12));
  int granted = 0, refused = 0;
  for (const auto& ex : sc.http().exchanges()) {
    if (ex.response.status == 200 &&
        ex.response.body == "door released") {
      ++granted;
    }
    if (ex.response.status == 409) ++refused;
  }
  EXPECT_EQ(granted, 1);
  EXPECT_EQ(refused, 1);
  const auto safety = Bsl3Scenario::check_safety(
      sc.history(), m.trace(), sc.config(), sim::minutes(12));
  EXPECT_FALSE(safety.interlock_violation);
}

TEST(Bsl3, ExhaustFanFailureRaisesTheCriticalAlarm) {
  sim::Machine m;
  bas::Bsl3Config cfg;
  cfg.model.exhaust_max_flow = 1.4;
  Bsl3Scenario sc(m, cfg);
  // A damper failure floods the lab with corridor air at t=10min.
  m.at(sim::minutes(10), [&] { sc.model().set_fault_inflow(1.5); });
  m.run_until(sim::minutes(20));
  // Containment is physically lost (the fault overwhelms the fan)...
  const auto safety = Bsl3Scenario::check_safety(
      sc.history(), m.trace(), sc.config(), sim::minutes(20));
  EXPECT_TRUE(safety.containment_breach);
  // ...but the alarm fired as specified: no silent failure.
  EXPECT_FALSE(safety.alarm_violation) << safety.summary();
  bool alarm_seen = false;
  for (const auto& s : sc.history()) {
    if (s.alarm_on) alarm_seen = true;
  }
  EXPECT_TRUE(alarm_seen);
}

namespace {

/// The §IV.D-style attack, retargeted at the containment suite: the
/// compromised management interface tries to stop the exhaust fan, spoof
/// pressure readings, command both doors, and kill the controller.
void bsl3_attack(Bsl3Scenario& sc, int* denials, int* deliveries) {
  auto& k = sc.kernel();
  auto& m = sc.machine();
  const minix::Endpoint ctl = sc.endpoint_of("contCtlProc");
  const minix::Endpoint fan = sc.endpoint_of("exhaustFanProc");
  const minix::Endpoint doors = sc.endpoint_of("doorCtlProc");
  const sim::Time until = m.now() + sim::minutes(10);
  while (m.now() < until) {
    minix::Message stop_fan;
    stop_fan.m_type = Bsl3Scenario::MTypes::kData;
    stop_fan.put_f64(0, 0.0);
    if (k.ipc_sendnb(fan, stop_fan) == minix::IpcResult::kOk) {
      ++*deliveries;
    } else {
      ++*denials;
    }
    minix::Message fake_pressure;
    fake_pressure.m_type = Bsl3Scenario::MTypes::kData;
    fake_pressure.put_f64(0, -35.0);  // "all is well"
    fake_pressure.put_f64(8, -15.0);
    if (k.ipc_sendnb(ctl, fake_pressure) == minix::IpcResult::kOk) {
      ++*deliveries;
    } else {
      ++*denials;
    }
    for (int door = 0; door < 2; ++door) {
      minix::Message open;
      open.m_type = Bsl3Scenario::MTypes::kData;
      open.put_i32(0, door);
      open.put_i32(4, 1);
      if (k.ipc_sendnb(doors, open) == minix::IpcResult::kOk) {
        ++*deliveries;
      } else {
        ++*denials;
      }
    }
    m.sleep_for(sim::msec(500));
  }
  k.pm_kill(ctl);
}

}  // namespace

TEST(Bsl3, AcmContainsACompromisedManagementInterface) {
  sim::Machine m;
  Bsl3Scenario sc(m);
  int denials = 0, deliveries = 0;
  sc.arm_attack(sim::minutes(10), [&](bas::Scenario& s) {
    bsl3_attack(static_cast<Bsl3Scenario&>(s), &denials, &deliveries);
  });
  m.run_until(sim::minutes(25));
  EXPECT_EQ(deliveries, 0);  // every injection dropped by the kernel
  EXPECT_GT(denials, 100);
  const auto safety = Bsl3Scenario::check_safety(
      sc.history(), m.trace(), sc.config(), sim::minutes(25));
  EXPECT_FALSE(safety.compromised()) << safety.summary();
  EXPECT_TRUE(sc.kernel().is_live(sc.endpoint_of("contCtlProc")));
}

TEST(Bsl3Sel4, ReachesAndHoldsDesignPressure) {
  sim::Machine m;
  bas::Bsl3Sel4Scenario sc(m);
  m.run_until(sim::minutes(20));
  const auto safety = Bsl3Scenario::check_safety(
      sc.history(), m.trace(), sc.config(), sim::minutes(20));
  EXPECT_TRUE(safety.control_alive);
  EXPECT_FALSE(safety.compromised()) << safety.summary();
  EXPECT_NEAR(sc.model().lab_pressure_pa(), -30.0, 3.0);
}

TEST(Bsl3Sel4, DoorInterlockOverRpc) {
  sim::Machine m;
  bas::Bsl3Sel4Scenario sc(m);
  m.at(sim::minutes(10), [&] {
    sc.http().submit(m.now(), {"POST", "/door", "door=inner"});
    sc.http().submit(m.now(), {"POST", "/door", "door=outer"});
  });
  m.run_until(sim::minutes(12));
  int granted = 0, refused = 0;
  for (const auto& ex : sc.http().exchanges()) {
    if (ex.response.status == 200 && ex.response.body == "door released") {
      ++granted;
    }
    if (ex.response.status == 409) ++refused;
  }
  EXPECT_EQ(granted, 1);
  EXPECT_EQ(refused, 1);
}

TEST(Bsl3Sel4, CompromisedMgmtHoldsOnlyItsTwoCaps) {
  // §IV.D.3 on the containment suite: the management component's brute
  // force finds exactly its two planned connection caps; it has no path
  // to the fan, the doors or the sensor, and containment holds.
  sim::Machine m;
  bas::Bsl3Sel4Scenario sc(m);
  int caps_found = -1;
  int foreign_calls_ok = 0;
  sc.arm_attack(sim::minutes(10), [&](bas::Scenario& s) {
    mkbas::camkes::Runtime& rt =
        *static_cast<bas::Bsl3Sel4Scenario&>(s).attack_runtime();
    caps_found = static_cast<int>(rt.enumerate_own_caps().size());
    mkbas::sel4::Sel4Msg stop_fan;
    stop_fan.push_f64(0.0);
    if (rt.rpc_call("fanCmd", stop_fan) == mkbas::sel4::Sel4Error::kOk) {
      ++foreign_calls_ok;
    }
    mkbas::sel4::Sel4Msg fake;
    fake.push_f64(-35.0);
    if (rt.rpc_call("presOut", fake) == mkbas::sel4::Sel4Error::kOk) {
      ++foreign_calls_ok;
    }
  });
  m.run_until(sim::minutes(25));
  EXPECT_EQ(caps_found, 2);  // doorReq + envQuery
  EXPECT_EQ(foreign_calls_ok, 0);
  const auto safety = Bsl3Scenario::check_safety(
      sc.history(), m.trace(), sc.config(), sim::minutes(25));
  EXPECT_FALSE(safety.compromised()) << safety.summary();
}

TEST(Bsl3, PermissivePolicyLosesContainment) {
  // Ablation: the same attack against a legacy flat controller (no ACM
  // isolation). The fan stops, the lab goes positive, the interlock is
  // bypassed, and the controller can be killed.
  sim::Machine m;
  Bsl3Scenario sc(m, {}, Bsl3Policy::kPermissive);
  int denials = 0, deliveries = 0;
  sc.arm_attack(sim::minutes(10), [&](bas::Scenario& s) {
    bsl3_attack(static_cast<Bsl3Scenario&>(s), &denials, &deliveries);
  });
  m.run_until(sim::minutes(25));
  EXPECT_GT(deliveries, 100);
  const auto safety = Bsl3Scenario::check_safety(
      sc.history(), m.trace(), sc.config(), sim::minutes(25));
  EXPECT_TRUE(safety.compromised());
  EXPECT_TRUE(safety.containment_breach) << safety.summary();
  EXPECT_TRUE(safety.interlock_violation);
  EXPECT_GT(safety.max_lab_pa, 0.0);  // positive pressure: air escapes
  EXPECT_FALSE(sc.kernel().is_live(sc.endpoint_of("contCtlProc")));
}
