#pragma once

#include <functional>
#include <memory>
#include <string>

#include "bas/control_law.hpp"
#include "devices/devices.hpp"
#include "net/http.hpp"
#include "physics/pressure.hpp"
#include "physics/room.hpp"
#include "sim/machine.hpp"

namespace mkbas::bas {

/// The three platforms of the paper's comparison. Lives in bas (not core)
/// so the scenario table and the attack drivers can dispatch on it
/// without a layering cycle; core aliases it.
enum class Platform { kMinix, kSel4, kLinux };

const char* to_string(Platform p);

/// Policy ablation: the ACM generated from the model, or a permissive
/// matrix standing in for a legacy flat controller (everything may talk
/// to everything) — the "before" picture of the paper's framework.
enum class Bsl3Policy { kAcmEnforced, kPermissive };

/// Configuration shared by every scenario make_scenario can build (§IV).
struct ScenarioConfig {
  ControlConfig control{};
  sim::Duration sensor_period = sim::sec(1);
  sim::Duration web_poll = sim::msec(100);
  double heater_power_w = 3000.0;
  double outdoor_c = 10.0;
  physics::RoomModel::Params room{};
  double sensor_noise_sigma_c = 0.05;
  /// MINIX only: enable the ACM syscall-quota extension (fork-bomb
  /// mitigation the paper proposes as future work).
  bool enable_quotas = false;
  /// MINIX only: boot the reincarnation server, which respawns crashed
  /// or killed drivers (MINIX's "self-repairing" behaviour).
  bool enable_reincarnation = false;
  /// MINIX only: boot the FS server and have the control process append
  /// environment information to /var/log/tempctl.log each cycle ("at the
  /// end of the while loop, environment information will be written in a
  /// log file", §IV.A).
  bool enable_fs_log = false;
  /// Linux only: one uid per process plus tight per-queue/socket ACLs
  /// (the "well-configured" baseline of the paper's second simulation).
  bool linux_separate_accounts = false;
  /// Linux "uds" variant only: bind the sockets to abstract names (no
  /// permission model) instead of filesystem paths.
  bool uds_abstract_namespace = false;
  /// "bsl3" variant only.
  Bsl3Config bsl3{};
  Bsl3Policy bsl3_policy = Bsl3Policy::kAcmEnforced;
};

/// The simulated testbed of Fig. 4: room + BMP180 + heater(fan) + LED,
/// coupled to a machine's virtual clock.
class Plant {
 public:
  Plant(sim::Machine& machine, const ScenarioConfig& cfg)
      : room(cfg.room),
        heater(cfg.heater_power_w),
        sensor(room, machine.rng(), cfg.sensor_noise_sigma_c) {
    room.set_outdoor(physics::OutdoorSpec::constant(cfg.outdoor_c));
    coupler = std::make_unique<devices::PlantCoupler>(machine, room, heater,
                                                      alarm);
  }

  physics::RoomModel room;
  devices::HeaterActuator heater;
  devices::AlarmLed alarm;
  devices::Bmp180Sensor sensor;
  std::unique_ptr<devices::PlantCoupler> coupler;
};

/// Payload layouts shared by the MINIX and Linux wire formats.
struct WireFormat {
  // Offsets within a MINIX message payload:
  static constexpr std::size_t kTempOff = 0;       // f64 (sensor data)
  static constexpr std::size_t kSetpointOff = 0;   // f64 (setpoint update)
  static constexpr std::size_t kCmdOff = 0;        // i32 (actuator on/off)
  static constexpr std::size_t kOkOff = 0;         // i32 (setpoint ack)
  // Env-info reply layout:
  static constexpr std::size_t kEnvTempOff = 0;    // f64
  static constexpr std::size_t kEnvSpOff = 8;      // f64
  static constexpr std::size_t kEnvHeaterOff = 16; // i32
  static constexpr std::size_t kEnvAlarmOff = 20;  // i32
};

class Scenario;

/// A compromise of the scenario's untrusted process (web interface or
/// management console). The hook runs *inside* that process, with exactly
/// its authority — the paper's threat model. Platform-specific payloads
/// downcast to the concrete scenario type (attack::make_attack builds
/// them); callers that only drive the run never need the concrete type.
using AttackHook = std::function<void(Scenario&)>;

/// What every platform scenario looks like from the outside: one machine,
/// one plant (temperature variants; null for containment), one HTTP
/// console, and an armable compromise of its untrusted process. The
/// experiment drivers, the campaign engine and the network fabric attach
/// zones through this interface only — no switch-casing on platform.
class Scenario {
 public:
  virtual ~Scenario() = default;

  virtual Platform platform() const = 0;
  /// Variant this scenario was built as ("temp", "uds", "bsl3").
  virtual const char* variant() const = 0;
  virtual sim::Machine& machine() = 0;
  virtual net::HttpConsole& http() = 0;
  /// The temperature plant, or nullptr for variants with different
  /// physics (bsl3).
  virtual Plant* plant() { return nullptr; }
  /// Arm a compromise of the untrusted process at `when` (once).
  virtual void arm_attack(sim::Time when, AttackHook hook) = 0;
  /// Reincarnation-server / restart-from-spec respawns so far (0 on
  /// platforms without a recovery mechanism).
  virtual int restarts() const { return 0; }
};

/// Build a scenario on `machine`. Variant "" means "temp". Throws
/// std::invalid_argument for a (platform, variant) pair the fixed table
/// does not have (e.g. "uds" on MINIX).
std::unique_ptr<Scenario> make_scenario(sim::Machine& machine,
                                        Platform platform,
                                        const std::string& variant,
                                        const ScenarioConfig& cfg = {});

/// Variants `platform` offers, sorted (for usage/error messages).
std::vector<std::string> scenario_variants(Platform platform);

}  // namespace mkbas::bas
