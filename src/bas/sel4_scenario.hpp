#pragma once

#include <memory>

#include "bas/temp_program.hpp"
#include "camkes/camkes.hpp"

namespace mkbas::bas {

/// The temperature-control program on seL4 via CAmkES (§IV.B).
///
/// The built-in AADL model is translated to a CAmkES assembly (the
/// source-to-source step the paper began and we complete); the generated
/// bootstrap distributes exactly the CapDL-specified capabilities and
/// resumes the components. Every connection is an RPC (seL4RPCCall), with
/// the untrusted web interface strictly a client of the control process.
class Sel4Scenario : public TempScenario {
 public:
  explicit Sel4Scenario(sim::Machine& machine, ScenarioConfig cfg = {});

  Platform platform() const override { return Platform::kSel4; }
  const char* variant() const override { return "temp"; }
  int restarts() const override { return camkes_->restarts(); }
  /// The compromised web component's runtime, non-null only while an
  /// armed attack hook runs (attack payloads downcast and use it).
  camkes::Runtime* attack_runtime() { return attack_runtime_; }

  camkes::CamkesSystem& camkes() { return *camkes_; }
  sel4::Sel4Kernel& kernel() { return camkes_->kernel(); }
  /// Ticks observed by the demonstration timer pair (§IV.B).
  long timer_ticks() const { return timer_ticks_; }

 private:
  void run_process(Role role, camkes::Runtime& rt);

  long timer_ticks_ = 0;
  std::unique_ptr<camkes::CamkesSystem> camkes_;  // last: see ScenarioBase
};

}  // namespace mkbas::bas
