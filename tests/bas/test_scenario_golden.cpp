// Byte-level golden digests of every scenario make_scenario can build.
//
// Each case runs one (platform, variant, config) for 20 virtual minutes
// with one status request, one setpoint (or door) request and one armed
// compromise of the untrusted process (plus, where a recovery mechanism
// is on, crashes of the controller, heater and sensor), then pins the
// trace hash, the FNV-1a of the six observability exports, the restart
// count, the MINIX FS log and the HTTP response bodies. A refactor of the
// scenario code must leave every digest unchanged: the bytes are the
// contract, not the class layout.
#include <gtest/gtest.h>

#include <cstdio>
#include <ostream>
#include <string>

#include "attack/attacks.hpp"
#include "bas/bsl3_sel4_scenario.hpp"
#include "bas/linux_uds_scenario.hpp"
#include "core/hash.hpp"
#include "fault/fault.hpp"

namespace bas = mkbas::bas;
namespace core = mkbas::core;
namespace sim = mkbas::sim;
namespace attack = mkbas::attack;

namespace {

constexpr sim::Time kRequestsAt = sim::minutes(5);
constexpr sim::Time kAttackAt = sim::minutes(8);
constexpr sim::Time kCrashAt = sim::minutes(12);
constexpr sim::Time kRunEnd = sim::minutes(20);

enum class Hook { kMakeAttack, kUdsSpoof, kBsl3Minix, kBsl3Sel4 };

struct GoldenCase {
  const char* name;
  bas::Platform platform;
  const char* variant;
  bas::ScenarioConfig cfg;
  Hook hook;
  attack::AttackKind kind;  // kMakeAttack only
  bool crash_processes;     // crash controller, heater and sensor
  const char* expected;
};

/// gtest prints a parameter into each test's listed name; the default
/// byte dump would include pointers, which differ from run to run.
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

/// A compromised web interface on the UDS build: connect to the control
/// socket like any client and feed it a cold reading.
void uds_spoof(bas::Scenario& sc) {
  auto* uds = dynamic_cast<bas::LinuxUdsScenario*>(&sc);
  ASSERT_NE(uds, nullptr);
  const int fd = uds->connect_service(bas::LinuxUdsScenario::kCtlSock,
                                      bas::LinuxUdsScenario::kCtlAbstract);
  for (int i = 0; i < 20 && fd >= 0; ++i) {
    uds->kernel().sock_send(fd, bas::LinuxScenario::encode_temp(5.0), false);
    uds->machine().sleep_for(sim::msec(500));
  }
}

/// A compromised management interface on the MINIX BSL-3 build: try to
/// stop the exhaust fan directly.
void bsl3_minix_stop_fan(bas::Scenario& sc) {
  auto* lab = dynamic_cast<bas::Bsl3Scenario*>(&sc);
  ASSERT_NE(lab, nullptr);
  const mkbas::minix::Endpoint fan = lab->endpoint_of("exhaustFanProc");
  for (int i = 0; i < 20; ++i) {
    mkbas::minix::Message stop;
    stop.m_type = bas::Bsl3Scenario::MTypes::kData;
    stop.put_f64(0, 0.0);
    lab->kernel().ipc_sendnb(fan, stop);
    lab->machine().sleep_for(sim::msec(500));
  }
}

/// The same on seL4: the management component calls every interface it
/// can name, with only its own capabilities.
void bsl3_sel4_stop_fan(bas::Scenario& sc) {
  auto* lab = dynamic_cast<bas::Bsl3Sel4Scenario*>(&sc);
  ASSERT_NE(lab, nullptr);
  ASSERT_NE(lab->attack_runtime(), nullptr);
  mkbas::camkes::Runtime& rt = *lab->attack_runtime();
  for (int i = 0; i < 20; ++i) {
    mkbas::sel4::Sel4Msg stop;
    stop.push_f64(0.0);
    rt.rpc_call("fanCmd", stop);
    mkbas::sel4::Sel4Msg door;
    door.push(1);
    rt.rpc_call("doorReq", door);
    lab->machine().sleep_for(sim::msec(500));
  }
}

std::string hex(std::uint64_t v) { return core::hex64(v); }

/// Run one case and render everything it pins as one line.
std::string run_case(const GoldenCase& c, attack::AttackOutcome* outcome) {
  sim::Machine m(3);
  auto sc = bas::make_scenario(m, c.platform, c.variant, c.cfg);
  const bool bsl3 = std::string(c.variant) == "bsl3";
  m.at(kRequestsAt, [&] {
    sc->http().submit(m.now(), {"GET", "/status", ""});
    if (bsl3) {
      sc->http().submit(m.now(), {"POST", "/door", "door=inner"});
    } else {
      sc->http().submit(m.now(), {"POST", "/setpoint", "value=24.0"});
    }
  });
  switch (c.hook) {
    case Hook::kMakeAttack:
      sc->arm_attack(kAttackAt,
                     attack::make_attack(c.platform, c.kind,
                                         attack::Privilege::kCodeExec,
                                         outcome));
      break;
    case Hook::kUdsSpoof:
      sc->arm_attack(kAttackAt, uds_spoof);
      break;
    case Hook::kBsl3Minix:
      sc->arm_attack(kAttackAt, bsl3_minix_stop_fan);
      break;
    case Hook::kBsl3Sel4:
      sc->arm_attack(kAttackAt, bsl3_sel4_stop_fan);
      break;
  }
  mkbas::fault::FaultPlan plan("golden");
  if (c.crash_processes) {
    plan.crash(kCrashAt, "tempProc")
        .crash(kCrashAt + sim::minutes(1), "heaterActProc")
        .crash(kCrashAt + sim::minutes(2), "tempSensProc");
  }
  mkbas::fault::FaultInjector faults(m, plan);
  faults.arm();
  m.run_until(kRunEnd);
  m.health().flush(m.now());

  std::string out = "trace=" + hex(core::trace_hash(m.trace()));
  out += " metrics=" + hex(core::fnv1a(m.metrics().to_json()));
  out += " spans=" + hex(core::fnv1a(m.spans().to_json()));
  out += " audit=" + hex(core::fnv1a(m.audit().to_json()));
  out += " series=" + hex(core::fnv1a(m.series().to_json()));
  out += " health=" + hex(core::fnv1a(m.health().to_json()));
  out += " flight=" + hex(core::fnv1a(m.flight().to_json()));
  out += " restarts=" + std::to_string(sc->restarts());
  if (auto* minix = dynamic_cast<bas::MinixScenario*>(sc.get())) {
    if (minix->fs() != nullptr) {
      const std::string* log = minix->fs()->contents("/var/log/tempctl.log");
      out += " fslog=" + hex(core::fnv1a(log != nullptr ? *log : ""));
    }
  }
  for (const auto& ex : sc->http().exchanges()) {
    out += " | " + std::to_string(ex.response.status) + " " +
           ex.response.body;
  }
  return out;
}

bas::ScenarioConfig minix_hardened() {
  bas::ScenarioConfig cfg;
  cfg.enable_quotas = true;
  cfg.enable_reincarnation = true;
  cfg.enable_fs_log = true;
  return cfg;
}

bas::ScenarioConfig with_reincarnation() {
  bas::ScenarioConfig cfg;
  cfg.enable_reincarnation = true;
  return cfg;
}

bas::ScenarioConfig separate_accounts() {
  bas::ScenarioConfig cfg;
  cfg.linux_separate_accounts = true;
  return cfg;
}

bas::ScenarioConfig abstract_namespace() {
  bas::ScenarioConfig cfg;
  cfg.uds_abstract_namespace = true;
  return cfg;
}

bas::ScenarioConfig permissive_bsl3() {
  bas::ScenarioConfig cfg;
  cfg.bsl3_policy = bas::Bsl3Policy::kPermissive;
  return cfg;
}

using bas::Platform;
using attack::AttackKind;

const GoldenCase kCases[] = {
    {"minix_temp", Platform::kMinix, "temp", {}, Hook::kMakeAttack,
     AttackKind::kSpoofSensor, false,
     "trace=9c1395fe2d5ebe8e metrics=37da0fe94db67b9c "
     "spans=31ef13b8b596a216 audit=fc843da0cf22e317 "
     "series=af64e7d4d0fb1108 health=f47d463c5a1bbc28 "
     "flight=2f7edcaf48ea3599 restarts=0 | 200 "
     "temp=21.4;setpoint=22.0;heater=on;alarm=off | 200 setpoint "
     "accepted"},
    {"minix_temp_hardened", Platform::kMinix, "temp", minix_hardened(),
     Hook::kMakeAttack, AttackKind::kKillControl, true,
     "trace=b9c06f3d90bcbb82 metrics=d4c3931573810933 "
     "spans=59b7901f937b4dec audit=9cee93622c1937f1 "
     "series=73791920bb3e3ed0 health=e4afc2b288231485 "
     "flight=8927ac7e8782af0f restarts=3 fslog=027d4098aff9e890 | "
     "200 temp=21.4;setpoint=22.0;heater=on;alarm=off | 200 "
     "setpoint accepted"},
    {"sel4_temp", Platform::kSel4, "temp", {}, Hook::kMakeAttack,
     AttackKind::kSpoofActuator, false,
     "trace=55fc9f1b9b082c96 metrics=1681c069a6d71e47 "
     "spans=50b5eacbdd70b388 audit=27bd489ff31088bf "
     "series=978c9a61a62e2a65 health=88c65db9593a5232 "
     "flight=302c3a57e32bed36 restarts=0 | 200 "
     "temp=21.4;setpoint=22.0;heater=on;alarm=off | 200 setpoint "
     "accepted"},
    {"sel4_temp_restart", Platform::kSel4, "temp", with_reincarnation(),
     Hook::kMakeAttack, AttackKind::kCapBruteForce, true,
     "trace=7ca924ec3814b13a metrics=80c62ffd99a02678 "
     "spans=76d6a9c3f199ae79 audit=fa06de2c28220ee2 "
     "series=4043da2373d03fdb health=f886e8b175a153d4 "
     "flight=527063f5db6af6de restarts=3 | 200 "
     "temp=21.4;setpoint=22.0;heater=on;alarm=off | 200 setpoint "
     "accepted"},
    {"linux_temp_shared", Platform::kLinux, "temp", {}, Hook::kMakeAttack,
     AttackKind::kSpoofSensor, false,
     "trace=eb6694af97065a4b metrics=beefad492d298d06 "
     "spans=769fd2ae0aa4a141 audit=dd67e902b14bbb91 "
     "series=6309210f20681b8e health=fccd01981b1c28ee "
     "flight=764d3a3879254bd4 restarts=0 | 200 "
     "temp=21.3;setpoint=22.0;heater=on;alarm=off | 200 setpoint "
     "accepted"},
    {"linux_temp_separate", Platform::kLinux, "temp", separate_accounts(),
     Hook::kMakeAttack, AttackKind::kSpoofActuator, false,
     "trace=6fa661d19401d83e metrics=771b3850e43e2e75 "
     "spans=fe7ae5c5d5457518 audit=d52d93ecd2986d22 "
     "series=2d60c4b87245f27b health=88c65db9593a5232 "
     "flight=39b843f79cf76b09 restarts=0 | 200 "
     "temp=21.3;setpoint=22.0;heater=on;alarm=off | 200 setpoint "
     "accepted"},
    {"linux_uds_filesystem", Platform::kLinux, "uds", {}, Hook::kUdsSpoof,
     AttackKind::kSpoofSensor, false,
     "trace=9ad4d9ae677f29ff metrics=d97e7a013f48c71d "
     "spans=7808de3e24346987 audit=7a36e2dc508d2490 "
     "series=e8088dd728986712 health=88c65db9593a5232 "
     "flight=302c3a57e32bed36 restarts=0 | 200 "
     "temp=21.3;setpoint=22.0;heater=on;alarm=off | 200 setpoint "
     "accepted"},
    {"linux_uds_abstract", Platform::kLinux, "uds", abstract_namespace(),
     Hook::kUdsSpoof, AttackKind::kSpoofSensor, false,
     "trace=335a5d1a001fd861 metrics=d97e7a013f48c71d "
     "spans=7808de3e24346987 audit=7a36e2dc508d2490 "
     "series=e8088dd728986712 health=88c65db9593a5232 "
     "flight=302c3a57e32bed36 restarts=0 | 200 "
     "temp=21.3;setpoint=22.0;heater=on;alarm=off | 200 setpoint "
     "accepted"},
    {"minix_bsl3_acm", Platform::kMinix, "bsl3", {}, Hook::kBsl3Minix,
     AttackKind::kSpoofSensor, false,
     "trace=64eb9c3d7d7586e6 metrics=e9f2d0757d5e91ac "
     "spans=ef54bd510f346d9b audit=08d951c0aacfd052 "
     "series=fbcb77b6a8665a5a health=88c65db9593a5232 "
     "flight=f4803409e7de4789 restarts=0 | 200 "
     "lab=-29.7Pa;ante=-14.8Pa;fan=1.00;alarm=off | 200 door "
     "released"},
    {"minix_bsl3_permissive", Platform::kMinix, "bsl3", permissive_bsl3(),
     Hook::kBsl3Minix, AttackKind::kSpoofSensor, false,
     "trace=25cb107f72aac057 metrics=0c13155dac1ee857 "
     "spans=c52345a2b64de6c7 audit=7a36e2dc508d2490 "
     "series=a6b91bb550d43925 health=88c65db9593a5232 "
     "flight=302c3a57e32bed36 restarts=0 | 200 "
     "lab=-29.7Pa;ante=-14.8Pa;fan=1.00;alarm=off | 200 door "
     "released"},
    {"sel4_bsl3", Platform::kSel4, "bsl3", {}, Hook::kBsl3Sel4,
     AttackKind::kSpoofSensor, false,
     "trace=9d6010015ff17c87 metrics=168884327bf6f4e9 "
     "spans=f683accd5dc510f6 audit=7a36e2dc508d2490 "
     "series=ac6aed003b5f95fb health=88c65db9593a5232 "
     "flight=302c3a57e32bed36 restarts=0 | 200 "
     "lab=-29.7Pa;ante=-14.8Pa;fan=1.00;alarm=off | 200 door "
     "released"},
};

class ScenarioGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(ScenarioGolden, DigestsArePinned) {
  const GoldenCase& c = GetParam();
  attack::AttackOutcome outcome;
  const std::string got = run_case(c, &outcome);
  if (c.hook == Hook::kMakeAttack) {
    EXPECT_TRUE(outcome.attempted) << c.name;
  }
  EXPECT_EQ(got, c.expected) << c.name;
}

TEST_P(ScenarioGolden, ReplayIsByteIdentical) {
  const GoldenCase& c = GetParam();
  attack::AttackOutcome a, b;
  EXPECT_EQ(run_case(c, &a), run_case(c, &b)) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    EveryScenario, ScenarioGolden, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
