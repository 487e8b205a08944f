#pragma once

#include <memory>

#include "bas/bsl3_scenario.hpp"  // Bsl3Safety, devices
#include "camkes/camkes.hpp"

namespace mkbas::bas {

/// The BSL-3 containment suite on seL4 via CAmkES: the same AADL model as
/// the MINIX build, translated by the AADL→CAmkES path, with the
/// untrusted management component holding capabilities only to its two
/// connections into the containment controller.
class Bsl3Sel4Scenario : public Bsl3Lab {
 public:
  explicit Bsl3Sel4Scenario(sim::Machine& machine, Bsl3Config cfg = {});
  Platform platform() const override { return Platform::kSel4; }
  const char* variant() const override { return "bsl3"; }
  int restarts() const override { return camkes_->restarts(); }
  /// The compromised management component's runtime (exactly that
  /// component's capabilities), non-null only while an armed attack hook
  /// runs.
  camkes::Runtime* attack_runtime() { return attack_runtime_; }

  camkes::CamkesSystem& camkes() { return *camkes_; }
  sel4::Sel4Kernel& kernel() { return camkes_->kernel(); }

 private:
  void sensor_body(camkes::Runtime& rt);
  void control_body(camkes::Runtime& rt);
  void fan_body(camkes::Runtime& rt);
  void door_body(camkes::Runtime& rt);
  void alarm_body(camkes::Runtime& rt);
  void mgmt_body(camkes::Runtime& rt);

  std::unique_ptr<camkes::CamkesSystem> camkes_;  // last: see ScenarioBase
};

}  // namespace mkbas::bas
